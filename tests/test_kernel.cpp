// Tests for the portable kernel layer: every hot kernel has ONE templated
// body compiled at two geometries, so the width-1 reference and the build's
// pack width must agree from that single source to 1e-14 relative
// (different summation widths). The PPM and Kurganov–Tadmor property tests
// (linear exactness, monotonicity, consistency, upwinding) run on the
// width-1 instantiation the hydro step uses as its scalar reference.
// Plus the FMM solver's private offload executor, which runs at the
// aggregator defaults whatever files or environment variables say.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "amr/halo.hpp"
#include "amr/tree.hpp"
#include "fmm/kernels.hpp"
#include "fmm/node_data.hpp"
#include "fmm/solver.hpp"
#include "fmm/stencil.hpp"
#include "gpu/device.hpp"
#include "hydro/pencil.hpp"
#include "kernel/fmm.hpp"
#include "kernel/hydro.hpp"
#include "physics/eos.hpp"
#include "support/rng.hpp"

namespace {

using namespace octo;
using namespace octo::fmm;

constexpr double rel_tol = 1e-14;

void expect_close(std::span<const double> a, std::span<const double> b,
                  const char* what) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double tol =
            rel_tol * std::max({1.0, std::abs(a[i]), std::abs(b[i])});
        EXPECT_NEAR(a[i], b[i], tol) << what << " i=" << i;
    }
}

void expect_equal(std::span<const double> a, std::span<const double> b,
                  const char* what) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i]) << what << " i=" << i;
    }
}

void compare_gravity(const node_gravity& a, const node_gravity& b, bool exact) {
    auto cmp = exact ? expect_equal : expect_close;
    for (std::size_t t = 0; t < a.L.size(); ++t) cmp(a.L[t], b.L[t], "L");
    cmp(a.gx, b.gx, "gx");
    cmp(a.gy, b.gy, "gy");
    cmp(a.gz, b.gz, "gz");
    cmp(a.phi, b.phi, "phi");
    for (int t = 0; t < 3; ++t) cmp(a.tq[t], b.tq[t], "tq");
}

// ---- fixtures (the bench_kernels recipe) -----------------------------------

node_moments make_moments(bool with_quadrupoles, std::uint64_t seed = 7) {
    node_moments m;
    xoshiro256 rng(seed);
    for (int i = 0; i < INX3; ++i) {
        m.m[i] = rng.uniform(0.1, 1.0);
        m.com[0][i] = rng.uniform(0, 1);
        m.com[1][i] = rng.uniform(0, 1);
        m.com[2][i] = rng.uniform(0, 1);
        if (with_quadrupoles) {
            for (auto& q : m.q) q[i] = rng.uniform(-1e-3, 1e-3);
        }
    }
    return m;
}

partner_buffer make_buffer(bool with_quadrupoles) {
    partner_buffer buf;
    xoshiro256 rng(11);
    for (int i = 0; i < partner_buffer::P3; ++i) {
        buf.m[i] = rng.uniform(0.1, 1.0);
        buf.x[i] = rng.uniform(-2, 3);
        buf.y[i] = rng.uniform(-2, 3);
        buf.z[i] = rng.uniform(-2, 3);
        if (with_quadrupoles) {
            for (auto& q : buf.q) q[i] = rng.uniform(-1e-3, 1e-3);
        }
    }
    buf.any = true;
    return buf;
}

kernel_options stencil_opt(bool inner_mask) {
    kernel_options opt;
    opt.use_inner_mask = inner_mask;
    opt.stencil = &interaction_stencil();
    return opt;
}

// ---- FMM same-level kernels -------------------------------------------------

TEST(KernelFmm, MonopoleScalarVsSimdWithinRounding) {
    const auto mom = make_moments(false);
    const auto buf = make_buffer(false);
    const auto opt = stencil_opt(false);
    node_gravity ref;
    octo::kernel::run_fmm_monopole(false, mom, buf, opt, ref);
    node_gravity out;
    octo::kernel::run_fmm_monopole(true, mom, buf, opt, out);
    compare_gravity(ref, out, /*exact=*/false);
}

TEST(KernelFmm, MultipoleScalarVsSimdWithinRounding) {
    const auto mom = make_moments(true);
    aligned_vector<double> invm(INX3);
    for (int i = 0; i < INX3; ++i) invm[i] = 1.0 / mom.m[i];
    const auto buf = make_buffer(true);
    for (const am_mode mode :
         {am_mode::none, am_mode::central_projection, am_mode::spin_deposit}) {
        SCOPED_TRACE(static_cast<int>(mode));
        auto opt = stencil_opt(true);
        opt.conserve = mode;
        node_gravity ref;
        octo::kernel::run_fmm_multipole(false, mom, invm, buf, opt, ref);
        node_gravity out;
        octo::kernel::run_fmm_multipole(true, mom, invm, buf, opt, out);
        compare_gravity(ref, out, /*exact=*/false);
    }
}

// ---- hydro kernels ----------------------------------------------------------

using namespace octo::hydro;

/// Synthetic fully-filled leaf (every cell physical): the agreement fixture.
const amr::subgrid& test_leaf() {
    using namespace octo::amr;
    static const subgrid leaf = [] {
        subgrid g;
        g.geom.origin = {-1.0, -1.0, -1.0};
        g.geom.dx = 2.0 / INX;
        const phys::ideal_gas_eos eos;
        const double gamma = eos.gamma();
        for (int i = 0; i < NX; ++i)
            for (int j = 0; j < NX; ++j)
                for (int kk = 0; kk < NX; ++kk) {
                    const double x = (i - H_BW + 0.5) * g.geom.dx - 1.0;
                    const double y = (j - H_BW + 0.5) * g.geom.dx - 1.0;
                    const double z = (kk - H_BW + 0.5) * g.geom.dx - 1.0;
                    const double r2 = x * x + y * y + z * z;
                    const double rho = 1.0 + 0.5 * std::exp(-r2);
                    const dvec3 v{0.1 * y, -0.1 * x, 0.05 * z};
                    const double p = 1.0 + 0.25 * std::exp(-r2);
                    const double internal = p / (gamma - 1.0);
                    g.at(f_rho, i, j, kk) = rho;
                    g.at(f_sx, i, j, kk) = rho * v.x;
                    g.at(f_sy, i, j, kk) = rho * v.y;
                    g.at(f_sz, i, j, kk) = rho * v.z;
                    g.at(f_egas, i, j, kk) = internal + 0.5 * rho * norm2(v);
                    g.at(f_tau, i, j, kk) = eos.tau_from_internal(internal);
                    for (int s = 0; s < n_passive; ++s) {
                        g.at(first_passive + s, i, j, kk) = rho / n_passive;
                    }
                    g.at(f_lx, i, j, kk) = 0.01 * rho;
                    g.at(f_ly, i, j, kk) = -0.01 * rho;
                    g.at(f_lz, i, j, kk) = 0.02 * rho;
                }
        return g;
    }();
    return leaf;
}

/// `g` as the one leaf of a tree with outflow walls, and that leaf's halo
/// plan: a sweep gathers its face ghosts through the plan, so they are the
/// clamped edge cells of the interior whatever `g`'s own shell holds.
struct one_leaf {
    amr::tree t;
    amr::node_ghost_plan plan;

    explicit one_leaf(const amr::subgrid& g) : t(g.geom) {
        t.ensure_fields(amr::root_key) = g;
        plan = amr::acquire_ghost_plan(t, amr::boundary_kind::outflow).nodes.front();
    }
};

struct flux_run {
    leaf_flux_soa lf;
    double max_speed = 0.0;
};

flux_run run_fluxes(bool vectorized) {
    flux_run r;
    r.lf.allocate();
    pencil_workspace ws;
    const phys::ideal_gas_eos eos;
    const one_leaf leaf(test_leaf());
    for (int axis = 0; axis < 3; ++axis) {
        octo::kernel::run_leaf_fluxes(vectorized, leaf.plan, axis, eos, true, ws,
                                      r.lf, &r.max_speed);
    }
    return r;
}

void compare_fluxes(const flux_run& a, const flux_run& b, bool exact) {
    auto cmp = exact ? expect_equal : expect_close;
    for (int axis = 0; axis < 3; ++axis) cmp(a.lf.f[axis], b.lf.f[axis], "flux");
    if (exact) {
        EXPECT_EQ(a.max_speed, b.max_speed);
    } else {
        EXPECT_NEAR(a.max_speed, b.max_speed, rel_tol * a.max_speed);
    }
}

TEST(KernelHydro, LeafFluxesScalarVsSimdWithinRounding) {
    compare_fluxes(run_fluxes(false), run_fluxes(true), /*exact=*/false);
}

TEST(KernelHydro, WaveSpeedBackendsAgree) {
    const phys::ideal_gas_eos eos;
    const double s = octo::kernel::run_wave_speed(false, test_leaf(), eos);
    const double v = octo::kernel::run_wave_speed(true, test_leaf(), eos);
    EXPECT_NEAR(s, v, rel_tol * s);
    EXPECT_GT(s, 0.0);
}

void compare_subgrids(const amr::subgrid& a, const amr::subgrid& b, bool exact) {
    using namespace octo::amr;
    for (int f = 0; f < n_fields; ++f)
        for (int i = 0; i < NX; ++i)
            for (int j = 0; j < NX; ++j)
                for (int k = 0; k < NX; ++k) {
                    const double va = a.at(f, i, j, k);
                    const double vb = b.at(f, i, j, k);
                    if (exact) {
                        EXPECT_EQ(va, vb)
                            << "f=" << f << " " << i << "," << j << "," << k;
                    } else {
                        const double tol = rel_tol *
                                           std::max({1.0, std::abs(va),
                                                     std::abs(vb)});
                        EXPECT_NEAR(va, vb, tol)
                            << "f=" << f << " " << i << "," << j << "," << k;
                    }
                }
}

TEST(KernelHydro, UpdateKernelsScalarVsSimdWithinRounding) {
    using namespace octo::amr;
    const phys::ideal_gas_eos eos;
    const auto fx = run_fluxes(false);
    const double dt = 1e-3;

    // u0 snapshot ([q][i][j][k] over interior cells) for the RK blend.
    aligned_vector<double> u0(static_cast<std::size_t>(n_fields) * INX3);
    {
        std::size_t idx = 0;
        for (int q = 0; q < n_fields; ++q)
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int k = 0; k < INX; ++k, ++idx) {
                        u0[idx] = test_leaf().interior(q, i, j, k);
                    }
    }

    auto apply = [&](bool vectorized) {
        amr::subgrid g = test_leaf();
        octo::kernel::run_flux_divergence(vectorized, g, fx.lf, dt);
        octo::kernel::run_blend(vectorized, g, u0);
        octo::kernel::run_dual_energy(vectorized, g, eos);
        return g;
    };
    const auto s = apply(false);
    compare_subgrids(s, apply(true), /*exact=*/false);
    // The update actually changed the state (the comparison is not vacuous).
    bool changed = false;
    for (int i = 0; i < INX && !changed; ++i)
        for (int j = 0; j < INX && !changed; ++j)
            for (int k = 0; k < INX && !changed; ++k) {
                changed = s.interior(f_egas, i, j, k) !=
                          test_leaf().interior(f_egas, i, j, k);
            }
    EXPECT_TRUE(changed);
}

// ---- PPM and Kurganov–Tadmor properties -------------------------------------
//
// Properties of the scheme itself, checked on the width-1 instantiation of
// the kernels every step runs (the SIMD widths agree with it above).

constexpr int P = pencil_len;
constexpr int L = pencil_lanes;
constexpr int C = recon_cells; // cells -1..INX at pencil positions 1..INX+2

/// PPM faces of one [pencil_len][pencil_lanes] plane holding `profile(p,
/// lane)` at pencil position p; lo/hi are [recon_cells][lanes].
struct ppm_faces {
    std::vector<double> q, iface, lo, hi;
};

template <class Profile>
ppm_faces reconstruct_plane(const Profile& profile) {
    ppm_faces r;
    r.q.resize(static_cast<std::size_t>(P) * L);
    for (int p = 0; p < P; ++p)
        for (int l = 0; l < L; ++l) r.q[p * L + l] = profile(p, l);
    r.iface.resize(static_cast<std::size_t>(C + 1) * L);
    r.lo.resize(static_cast<std::size_t>(C) * L);
    r.hi.resize(static_cast<std::size_t>(C) * L);
    kernel::run_reconstruct(/*vectorized=*/false, r.q.data(), /*use_ppm=*/true,
                            r.iface.data(), r.lo.data(), r.hi.data());
    return r;
}

TEST(Ppm, ReproducesLinearDataExactly) {
    // PPM is exact for linear profiles away from limiting.
    const auto r = reconstruct_plane(
        [](int p, int l) { return 2.0 + 0.5 * p + 0.1 * l; });
    for (int c = 1; c < C - 1; ++c)
        for (int l = 0; l < L; ++l) {
            const double qc = r.q[(c + 2) * L + l];
            EXPECT_NEAR(r.lo[c * L + l], qc - 0.25, 1e-13) << c << " " << l;
            EXPECT_NEAR(r.hi[c * L + l], qc + 0.25, 1e-13) << c << " " << l;
        }
}

TEST(Ppm, PreservesConstants) {
    const auto r = reconstruct_plane([](int, int) { return 3.14; });
    for (int i = 0; i < C * L; ++i) {
        EXPECT_DOUBLE_EQ(r.lo[i], 3.14);
        EXPECT_DOUBLE_EQ(r.hi[i], 3.14);
    }
}

TEST(Ppm, MonotoneAtDiscontinuity) {
    // Face values must stay within neighboring cell averages (no overshoot).
    // The jump sits at a lane-dependent position.
    const auto r = reconstruct_plane(
        [](int p, int l) { return p < 5 + l % 4 ? 1.0 : 0.1; });
    for (int c = 0; c < C; ++c)
        for (int l = 0; l < L; ++l) {
            const double qm = r.q[(c + 1) * L + l];
            const double qc = r.q[(c + 2) * L + l];
            const double qp = r.q[(c + 3) * L + l];
            const double mn = std::min({qc, qm, qp});
            const double mx = std::max({qc, qm, qp});
            for (const double f : {r.lo[c * L + l], r.hi[c * L + l]}) {
                EXPECT_GE(f, mn - 1e-12) << c << " " << l;
                EXPECT_LE(f, mx + 1e-12) << c << " " << l;
            }
        }
}

TEST(Ppm, FlattensLocalExtrema) {
    const auto r =
        reconstruct_plane([](int p, int) { return p == 4 ? 5.0 : 1.0; });
    // Reconstruction cell 2 (pencil position 4) is an extremum: it must be
    // flat there.
    for (int l = 0; l < L; ++l) {
        EXPECT_DOUBLE_EQ(r.lo[2 * L + l], 5.0);
        EXPECT_DOUBLE_EQ(r.hi[2 * L + l], 5.0);
    }
}

/// Conserved state with a passive scalar and spin, so every transported
/// field carries a nonzero flux.
state make_state(double rho, dvec3 v, double p, const phys::ideal_gas_eos& eos) {
    using namespace octo::amr;
    state u{};
    u[f_rho] = rho;
    u[f_sx] = rho * v.x;
    u[f_sy] = rho * v.y;
    u[f_sz] = rho * v.z;
    const double internal = p / (eos.gamma() - 1.0);
    u[f_egas] = internal + 0.5 * rho * norm2(v);
    u[f_tau] = eos.tau_from_internal(internal);
    u[first_passive] = 0.3 * rho;
    u[f_lz] = 0.01 * rho;
    return u;
}

/// Analytic physical flux of `u` along axis a.
state physical_flux(const state& u, int a, const phys::ideal_gas_eos& eos) {
    using namespace octo::amr;
    const double rho = u[f_rho];
    const dvec3 v{u[f_sx] / rho, u[f_sy] / rho, u[f_sz] / rho};
    const double p = eos.pressure(
        eos.internal_energy(u[f_egas], 0.5 * rho * norm2(v), u[f_tau]));
    state f{};
    for (int q = 0; q < n_fields; ++q) f[q] = u[q] * v[a];
    f[f_sx + a] += p;
    f[f_egas] += p * v[a];
    return f;
}

/// First-order (use_ppm=false) KT fluxes along `axis` of a leaf whose cells
/// hold `left` below interior index `split` along the axis and `right` from
/// it on, through the width-1 kernels. Outflow ghosts continue the two
/// states for 0 <= split < INX.
flux_run kt_sweep(const state& left, const state& right, int split, int axis,
                  const phys::ideal_gas_eos& eos) {
    using namespace octo::amr;
    subgrid g;
    for (int i = 0; i < NX; ++i)
        for (int j = 0; j < NX; ++j)
            for (int k = 0; k < NX; ++k) {
                const int along = axis == 0 ? i : axis == 1 ? j : k;
                const state& u = along - H_BW < split ? left : right;
                for (int q = 0; q < n_fields; ++q) g.at(q, i, j, k) = u[q];
            }
    flux_run r;
    r.lf.allocate();
    pencil_workspace ws;
    const one_leaf leaf(g);
    octo::kernel::run_leaf_fluxes(false, leaf.plan, axis, eos, /*use_ppm=*/false, ws,
                                  r.lf, &r.max_speed);
    return r;
}

TEST(KtFlux, ConsistencyWithPhysicalFlux) {
    // A uniform state: every face flux is the physical flux.
    const phys::ideal_gas_eos eos(1.4);
    const state u = make_state(1.2, {0.3, -0.1, 0.2}, 0.8, eos);
    for (int a = 0; a < 3; ++a) {
        const auto r = kt_sweep(u, u, 0, a, eos);
        const state fp = physical_flux(u, a, eos);
        for (int q = 0; q < amr::n_hydro_fields; ++q)
            for (int p = 0; p < n_faces; ++p)
                for (int b = 0; b < amr::INX; ++b)
                    for (int c = 0; c < amr::INX; ++c) {
                        EXPECT_NEAR(r.lf.at(a, q, p, b, c), fp[q],
                                    1e-13 + std::abs(fp[q]) * 1e-13)
                            << a << " " << q << " " << p;
                    }
    }
}

TEST(KtFlux, UpwindsSupersonicFlow) {
    // Supersonic rightward flow: every face flux is its left state's flux,
    // including the face between the two states.
    const phys::ideal_gas_eos eos(1.4);
    const state uL = make_state(1.0, {5.0, 0, 0}, 0.1, eos);
    const state uR = make_state(0.5, {5.0, 0, 0}, 0.05, eos);
    constexpr int split = 4;
    const auto r = kt_sweep(uL, uR, split, 0, eos);
    const state fL = physical_flux(uL, 0, eos);
    const state fR = physical_flux(uR, 0, eos);
    for (int q = 0; q < amr::n_hydro_fields; ++q)
        for (int p = 0; p < n_faces; ++p) {
            // Face p lies between interior cells p-1 and p.
            const double want = p - 1 < split ? fL[q] : fR[q];
            for (int b = 0; b < amr::INX; ++b)
                for (int c = 0; c < amr::INX; ++c) {
                    EXPECT_NEAR(r.lf.at(0, q, p, b, c), want, 1e-12)
                        << q << " " << p;
                }
        }
}

TEST(KtFlux, ReportsSignalSpeed) {
    const phys::ideal_gas_eos eos(1.4);
    const state uL = make_state(1.0, {2.0, 0, 0}, 1.0, eos);
    const state uR = make_state(1.0, {-2.0, 0, 0}, 1.0, eos);
    const auto r = kt_sweep(uL, uR, 4, 0, eos);
    const double c = std::sqrt(1.4);
    EXPECT_NEAR(r.max_speed, 2.0 + c, 1e-12);
}

// ---- offload executor -------------------------------------------------------

TEST(Solver, PrivateExecutorUsesTheAggregatorDefaults) {
    // No on-disk tuning state: a tuned entry in ./octo_autotune.cache, named
    // by $OCTO_AUTOTUNE_CACHE too, leaves the private executor's batch size
    // and flush timeout at the defaults even with autotune requested.
    const std::string path = "octo_autotune.cache";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "host|fmm.same_level|48|250|1\n";
    }
    ASSERT_EQ(::setenv("OCTO_AUTOTUNE_CACHE", path.c_str(), 1), 0);

    gpu::device dev(gpu::p100());
    const fmm::solver s({.device = &dev, .autotune = true, .machine = "host"});
    ::unsetenv("OCTO_AUTOTUNE_CACHE");
    std::remove(path.c_str());

    const gpu::aggregator_options defaults;
    ASSERT_NE(s.executor(), nullptr);
    EXPECT_EQ(s.executor()->options().max_batch, defaults.max_batch);
    EXPECT_DOUBLE_EQ(s.executor()->options().flush_after_us,
                     defaults.flush_after_us);
}

} // namespace

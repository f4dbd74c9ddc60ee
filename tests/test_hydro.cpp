// Tests for the hydro solver: the exact Riemann and Sedov references, the
// Sod shock tube against the exact solution, and the machine-precision
// conservation ledger (mass, momentum, angular momentum) on uniform and AMR
// grids — the paper's §4.2 claims. The PPM and Kurganov–Tadmor property
// tests run on the portable kernels themselves, in test_kernel.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "amr/halo.hpp"
#include "amr/tree.hpp"
#include "hydro/riemann_exact.hpp"
#include "hydro/sedov.hpp"
#include "hydro/update.hpp"
#include "hydro/pencil.hpp"
#include "io/checkpoint.hpp"
#include "runtime/thread_pool.hpp"
#include "support/aligned.hpp"
#include "support/buffer_recycler.hpp"
#include "support/rng.hpp"

namespace {

using namespace octo;
using namespace octo::hydro;
using namespace octo::amr;

state make_state(double rho, dvec3 v, double p, const phys::ideal_gas_eos& eos) {
    state u{};
    u[f_rho] = rho;
    u[f_sx] = rho * v.x;
    u[f_sy] = rho * v.y;
    u[f_sz] = rho * v.z;
    const double internal = p / (eos.gamma() - 1.0);
    u[f_egas] = internal + 0.5 * rho * norm2(v);
    u[f_tau] = eos.tau_from_internal(internal);
    return u;
}

// ---- analytic references ------------------------------------------------------

TEST(RiemannExact, SodStarRegionMatchesToro) {
    // Toro, table 4.2: p* = 0.30313, u* = 0.92745 for the Sod problem.
    const auto s = riemann_exact(sod_left(), sod_right(), 0.5, 1.4);
    EXPECT_NEAR(s.p, 0.30313, 2e-4);
    EXPECT_NEAR(s.u, 0.92745, 2e-4);
}

TEST(RiemannExact, FarFieldReturnsInitialStates) {
    const auto l = riemann_exact(sod_left(), sod_right(), -10.0, 1.4);
    EXPECT_DOUBLE_EQ(l.rho, 1.0);
    const auto r = riemann_exact(sod_left(), sod_right(), 10.0, 1.4);
    EXPECT_DOUBLE_EQ(r.rho, 0.125);
}

TEST(RiemannExact, ShockSpeedBracketsPostShockState) {
    // Density right behind the Sod shock: ~0.26557.
    const auto s = riemann_exact(sod_left(), sod_right(), 1.6, 1.4);
    EXPECT_NEAR(s.rho, 0.26557, 2e-3);
}

TEST(Sedov, AlphaMatchesTabulatedValues) {
    // Standard values: alpha(1.4) ~ 0.851, alpha(5/3) ~ 0.49.
    EXPECT_NEAR(sedov_solve(1.4).alpha, 0.851, 0.02);
    EXPECT_NEAR(sedov_solve(5.0 / 3.0).alpha, 0.49, 0.02);
}

TEST(Sedov, ShockRadiusScalesAsT25) {
    const auto s = sedov_solve(1.4);
    const double r1 = s.shock_radius(1.0, 1.0, 1.0);
    const double r2 = s.shock_radius(1.0, 1.0, 32.0);
    EXPECT_NEAR(r2 / r1, std::pow(32.0, 0.4), 1e-12);
    EXPECT_NEAR(s.density_jump(), 6.0, 1e-12);
}

// ---- full solver ---------------------------------------------------------------

box_geometry unit_root() {
    box_geometry g;
    g.origin = {0, 0, 0};
    g.dx = 1.0 / INX;
    return g;
}

/// Uniformly refine a tree `levels` times.
void refine_uniform(tree& t, int levels) {
    for (int l = 0; l < levels; ++l) {
        for (const auto k : t.leaves_sfc()) t.refine(k);
    }
}

void init_state(tree& t, const std::function<state(const dvec3&)>& ic) {
    for (const auto k : t.leaves_sfc()) {
        auto& g = t.ensure_fields(k);
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const state u = ic(g.geom.cell_center(i, j, kk));
                    for (int q = 0; q < n_fields; ++q) {
                        g.interior(q, i, j, kk) = u[static_cast<std::size_t>(q)];
                    }
                }
    }
}

TEST(Step, UniformStateIsSteady) {
    tree t(unit_root());
    refine_uniform(t, 1);
    phys::ideal_gas_eos eos(1.4);
    init_state(t, [&](const dvec3&) { return make_state(1.0, {0.3, 0.2, -0.1}, 0.7, eos); });
    step_options opt;
    opt.eos = eos;
    opt.bc = boundary_kind::periodic;
    const double dt = step(t, opt);
    EXPECT_GT(dt, 0.0);
    for (const auto k : t.leaves_sfc()) {
        const auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    EXPECT_NEAR(g.interior(f_rho, i, j, kk), 1.0, 1e-13);
                    EXPECT_NEAR(g.interior(f_sx, i, j, kk), 0.3, 1e-13);
                }
    }
}

TEST(Step, CflScalesWithResolution) {
    tree t1(unit_root());
    phys::ideal_gas_eos eos(1.4);
    step_options opt;
    opt.eos = eos;
    init_state(t1, [&](const dvec3&) { return make_state(1.0, {0, 0, 0}, 1.0, eos); });
    const double dt1 = cfl_timestep(t1, opt);

    tree t2(unit_root());
    refine_uniform(t2, 1);
    init_state(t2, [&](const dvec3&) { return make_state(1.0, {0, 0, 0}, 1.0, eos); });
    const double dt2 = cfl_timestep(t2, opt);
    EXPECT_NEAR(dt1 / dt2, 2.0, 1e-10);
}

TEST(Step, SodShockTubeMatchesExactSolution) {
    // 32^3 effective cells; tube along x, uniform in y/z.
    tree t(unit_root());
    refine_uniform(t, 2);
    phys::ideal_gas_eos eos(1.4);
    init_state(t, [&](const dvec3& r) {
        return r.x < 0.5 ? make_state(1.0, {0, 0, 0}, 1.0, eos)
                         : make_state(0.125, {0, 0, 0}, 0.1, eos);
    });
    step_options opt;
    opt.eos = eos;
    opt.bc = boundary_kind::outflow;

    double time = 0.0;
    while (time < 0.2) {
        time += step(t, opt);
    }

    // Gather rho(x) along the center line and compare with the exact
    // solution in L1.
    double l1 = 0.0;
    int n = 0;
    for (const auto k : t.leaves_sfc()) {
        const auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const dvec3 r = g.geom.cell_center(i, j, kk);
                    const auto ex =
                        riemann_exact(sod_left(), sod_right(), (r.x - 0.5) / time, 1.4);
                    l1 += std::abs(g.interior(f_rho, i, j, kk) - ex.rho);
                    ++n;
                }
    }
    l1 /= n;
    EXPECT_LT(l1, 0.02) << "Sod L1 density error too large";
}

TEST(Step, SodIsOneDimensional) {
    // The 3-D solver must keep a 1-D problem exactly 1-D: no transverse
    // momentum is generated.
    tree t(unit_root());
    refine_uniform(t, 1);
    phys::ideal_gas_eos eos(1.4);
    init_state(t, [&](const dvec3& r) {
        return r.x < 0.5 ? make_state(1.0, {0, 0, 0}, 1.0, eos)
                         : make_state(0.125, {0, 0, 0}, 0.1, eos);
    });
    step_options opt;
    opt.eos = eos;
    for (int s = 0; s < 5; ++s) (void)step(t, opt);
    for (const auto k : t.leaves_sfc()) {
        const auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    EXPECT_EQ(g.interior(f_sy, i, j, kk), 0.0);
                    EXPECT_EQ(g.interior(f_sz, i, j, kk), 0.0);
                }
    }
}

state blob_ic(const dvec3& r, const phys::ideal_gas_eos& eos) {
    // Rotating blob with STRICTLY compact dynamics: outside the blob the gas
    // is uniform and static, so boundary fluxes are exactly symmetric and
    // conservation must hold to rounding over a few steps.
    const dvec3 c{0.5, 0.5, 0.5};
    const double d2 = norm2(r - c);
    const bool inside = d2 < 0.04;
    const double excess = inside ? std::exp(-d2 / 0.01) : 0.0;
    const double rho = 1e-6 + excess;
    const dvec3 v = inside ? 0.3 * cross(dvec3{0, 0, 1}, r - c) : dvec3{0, 0, 0};
    state u = make_state(rho, v, 1e-10 + 0.1 * excess, eos);
    // Nonzero passive scalars and spin (compact as well).
    u[first_passive] = 0.5 * rho;
    u[first_passive + 1] = 0.5 * rho;
    u[f_lx] = 1e-3 * excess;
    return u;
}

class ConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(ConservationTest, MassMomentumAngularMomentumToRounding) {
    // Param 0: uniform two-level grid. Param 1: AMR grid with a refined
    // center (exercises refluxing and the coarse-fine spin ledger).
    tree t(unit_root());
    t.refine(root_key);
    if (GetParam() == 1) {
        // Refine the 8 central children unevenly.
        t.refine(key_child(root_key, 0));
        t.refine(key_child(root_key, 7));
        t.balance21();
    } else {
        refine_uniform(t, 1);
    }
    phys::ideal_gas_eos eos(5.0 / 3.0);
    init_state(t, [&](const dvec3& r) { return blob_ic(r, eos); });

    const totals before = compute_totals(t);
    step_options opt;
    opt.eos = eos;
    opt.bc = boundary_kind::outflow;
    for (int s = 0; s < 3; ++s) (void)step(t, opt);
    const totals after = compute_totals(t);

    EXPECT_NEAR(after.mass, before.mass, before.mass * 1e-12);
    // Momentum: compare against a momentum scale (initial net momentum is ~0).
    const double pscale = before.mass * 0.3; // mass * typical speed
    EXPECT_LT(norm(after.momentum - before.momentum) / pscale, 1e-12);
    // Angular momentum (orbital + spin): the paper's machine-precision claim.
    const double lscale = std::max(norm(before.angular_momentum), 1e-20);
    EXPECT_LT(norm(after.angular_momentum - before.angular_momentum) / lscale,
              1e-10);
    // Passive scalars are conserved too.
    for (int s = 0; s < n_passive; ++s) {
        EXPECT_NEAR(after.passive[s], before.passive[s],
                    std::abs(before.passive[s]) * 1e-12 + 1e-18);
    }
}

INSTANTIATE_TEST_SUITE_P(Grids, ConservationTest, ::testing::Values(0, 1));

TEST(Step, CflTimestepMatchesTheStepsDt) {
    // cfl_timestep() and the step pipeline share one CFL reduction over the
    // leaf interiors, so the standalone dt is the step's dt bit for bit, on
    // a uniform grid and on one with refined children (two cell widths).
    phys::ideal_gas_eos eos(5.0 / 3.0);
    for (const bool refined : {false, true}) {
        tree t(unit_root());
        t.refine(root_key);
        if (refined) {
            t.refine(key_child(root_key, 0));
            t.refine(key_child(root_key, 7));
            t.balance21();
        } else {
            refine_uniform(t, 1);
        }
        init_state(t, [&](const dvec3& r) { return blob_ic(r, eos); });
        step_options opt;
        opt.eos = eos;
        const double dt = cfl_timestep(t, opt);
        EXPECT_EQ(dt, step(t, opt)) << (refined ? "refined" : "uniform");
    }
}

TEST(Step, GravitySourceAddsMomentum) {
    tree t(unit_root());
    phys::ideal_gas_eos eos(5.0 / 3.0);
    init_state(t, [&](const dvec3&) { return make_state(1.0, {0, 0, 0}, 1.0, eos); });

    // Uniform downward gravity via the lookup interface.
    std::vector<double> gz(INX3, -1.5);
    std::vector<double> zero(INX3, 0.0);
    step_options opt;
    opt.eos = eos;
    opt.bc = boundary_kind::periodic;
    opt.gravity = [&](node_key) -> std::optional<gravity_field> {
        return gravity_field{zero.data(), zero.data(), gz.data(),
                             zero.data(), zero.data(), zero.data()};
    };
    opt.fixed_dt = 1e-3;
    (void)step(t, opt);
    const totals after = compute_totals(t);
    EXPECT_NEAR(after.momentum.z, -1.5 * after.mass * 1e-3,
                std::abs(after.momentum.z) * 1e-10);
    EXPECT_NEAR(after.momentum.x, 0.0, 1e-15);
}

TEST(Step, SpinTorqueDepositFeedsSpinField) {
    tree t(unit_root());
    phys::ideal_gas_eos eos(5.0 / 3.0);
    init_state(t, [&](const dvec3&) { return make_state(1.0, {0, 0, 0}, 1.0, eos); });
    std::vector<double> zero(INX3, 0.0);
    std::vector<double> tqz(INX3, 2.0); // total torque per cell per time
    step_options opt;
    opt.eos = eos;
    opt.bc = boundary_kind::periodic;
    opt.gravity = [&](node_key) -> std::optional<gravity_field> {
        return gravity_field{zero.data(), zero.data(), zero.data(),
                             zero.data(), zero.data(), tqz.data()};
    };
    opt.fixed_dt = 1e-3;
    (void)step(t, opt);
    const totals after = compute_totals(t);
    // 512 cells x torque 2.0 x dt = total Lz gain of 1.024e-3... in total
    // units: deposits are per-cell totals, so sum = 512 * 2.0 * dt.
    EXPECT_NEAR(after.angular_momentum.z, 512 * 2.0 * 1e-3, 1e-9);
}

TEST(Step, RotatingFrameCoriolisDeflects) {
    // Center the domain on the rotation axis so the centrifugal force has no
    // net component and the Coriolis deflection is visible.
    box_geometry centered;
    centered.origin = {-0.5, -0.5, -0.5};
    centered.dx = 1.0 / INX;
    tree t(centered);
    phys::ideal_gas_eos eos(5.0 / 3.0);
    init_state(t, [&](const dvec3&) { return make_state(1.0, {0.1, 0, 0}, 1.0, eos); });
    step_options opt;
    opt.eos = eos;
    opt.bc = boundary_kind::periodic;
    opt.omega = {0, 0, 1.0};
    opt.fixed_dt = 1e-3;
    (void)step(t, opt);
    const totals after = compute_totals(t);
    // Coriolis: a = -2 Omega x v = -2 (0,0,1) x (0.1,0,0) = (0, -0.2, 0);
    // centrifugal adds net force ~ 0 only if the domain is symmetric about
    // the axis — it is not (axis at origin), so just check the sign of the
    // Coriolis deflection dominates in y.
    EXPECT_LT(after.momentum.y, 0.0);
}

TEST(Step, DualEnergyKeepsPressurePositiveInHighMach) {
    // Cold supersonic stream: internal energy must stay positive via tau.
    tree t(unit_root());
    phys::ideal_gas_eos eos(5.0 / 3.0);
    init_state(t, [&](const dvec3&) {
        state u = make_state(1.0, {100.0, 0, 0}, 1e-6, eos);
        return u;
    });
    step_options opt;
    opt.eos = eos;
    opt.bc = boundary_kind::periodic;
    for (int s = 0; s < 3; ++s) (void)step(t, opt);
    for (const auto k : t.leaves_sfc()) {
        const auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const double rho = g.interior(f_rho, i, j, kk);
                    const dvec3 s{g.interior(f_sx, i, j, kk),
                                  g.interior(f_sy, i, j, kk),
                                  g.interior(f_sz, i, j, kk)};
                    const double internal = std::max(
                        eos.internal_energy(g.interior(f_egas, i, j, kk),
                                            0.5 * norm2(s) / rho,
                                            g.interior(f_tau, i, j, kk)),
                        0.0);
                    EXPECT_GT(eos.pressure(internal), 0.0);
                    EXPECT_LT(internal, 1e-3); // no spurious heating
                }
    }
}

TEST(Step, AdvectionMovesBlobDownstream) {
    tree t(unit_root());
    refine_uniform(t, 1);
    phys::ideal_gas_eos eos(1.4);
    init_state(t, [&](const dvec3& r) {
        const double rho = 1.0 + std::exp(-norm2(r - dvec3{0.3, 0.5, 0.5}) / 0.005);
        return make_state(rho, {1.0, 0, 0}, 1.0, eos);
    });
    step_options opt;
    opt.eos = eos;
    opt.bc = boundary_kind::periodic;
    double time = 0;
    while (time < 0.1) time += step(t, opt);

    // Density-weighted center along x must have moved by ~0.1.
    double cx = 0, m = 0;
    for (const auto k : t.leaves_sfc()) {
        const auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const double ex = g.interior(f_rho, i, j, kk) - 1.0;
                    cx += ex * g.geom.cell_center(i, j, kk).x;
                    m += ex;
                }
    }
    EXPECT_NEAR(cx / m, 0.3 + 0.1, 0.02);
}

TEST(Step, SedovBlastShockRadiusMatchesSimilaritySolution) {
    // Verification test 2 of the paper's suite (§4.2): the Sedov-Taylor
    // blast wave against the analytic similarity solution. Energy E = 1 is
    // injected into a small central sphere of a cold uniform medium; the
    // shock radius must follow R(t) = (E t^2 / (alpha rho0))^(1/5).
    box_geometry root;
    root.origin = {-0.5, -0.5, -0.5};
    root.dx = 1.0 / INX;
    tree t(root);
    refine_uniform(t, 2); // 32^3
    const double gamma = 1.4;
    phys::ideal_gas_eos eos(gamma);
    const double r0 = 0.06; // injection radius (~2 cells)
    const double Vinj = 4.0 / 3.0 * M_PI * r0 * r0 * r0;
    double injected = 0.0;
    for (const auto k : t.leaves_sfc()) {
        auto& g = t.ensure_fields(k);
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const dvec3 r = g.geom.cell_center(i, j, kk);
                    const bool hot = norm(r) < r0;
                    const double u = hot ? 1.0 / Vinj : 1e-8;
                    g.interior(f_rho, i, j, kk) = 1.0;
                    g.interior(f_egas, i, j, kk) = u;
                    g.interior(f_tau, i, j, kk) = eos.tau_from_internal(u);
                    if (hot) injected += u * g.geom.cell_volume();
                }
    }
    step_options opt;
    opt.eos = eos;
    opt.bc = boundary_kind::outflow;
    double time = 0;
    while (time < 0.015) time += step(t, opt);

    // Shock radius: density-weighted mean radius of strongly compressed gas.
    double rsum = 0, w = 0, rho_peak = 0;
    for (const auto k : t.leaves_sfc()) {
        const auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const double rho = g.interior(f_rho, i, j, kk);
                    rho_peak = std::max(rho_peak, rho);
                    if (rho > 1.5) {
                        const double rr = norm(g.geom.cell_center(i, j, kk));
                        rsum += rho * rr;
                        w += rho;
                    }
                }
    }
    ASSERT_GT(w, 0.0);
    const double r_shock_sim = rsum / w;
    const auto sed = sedov_solve(gamma);
    const double r_shock_exact = sed.shock_radius(injected, 1.0, time);
    EXPECT_NEAR(r_shock_sim, r_shock_exact, 0.25 * r_shock_exact)
        << "sim " << r_shock_sim << " exact " << r_shock_exact;
    // Strong-shock compression approached (jump limit is 6 for gamma=1.4;
    // at 32^3 the peak is smeared but must clearly exceed 2).
    EXPECT_GT(rho_peak, 2.0);
    // The blast stays spherical: centroid of the dense shell at the origin.
    dvec3 centroid{0, 0, 0};
    for (const auto k : t.leaves_sfc()) {
        const auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const double rho = g.interior(f_rho, i, j, kk);
                    if (rho > 1.5) centroid += rho * g.geom.cell_center(i, j, kk);
                }
    }
    EXPECT_LT(norm(centroid / w), 0.01);
}

// ---- parameterized sweeps ---------------------------------------------------

// Sod tube across adiabatic index and reconstruction order: the exact
// Riemann reference adapts to gamma; PPM must beat piecewise-constant.
class SodSweep : public ::testing::TestWithParam<std::tuple<double, bool>> {};

TEST_P(SodSweep, DensityErrorWithinBound) {
    const auto [gamma, use_ppm] = GetParam();
    tree t(unit_root());
    refine_uniform(t, 1); // 16^3: cheap but discriminating
    phys::ideal_gas_eos eos(gamma);
    init_state(t, [&](const dvec3& r) {
        return r.x < 0.5 ? make_state(1.0, {0, 0, 0}, 1.0, eos)
                         : make_state(0.125, {0, 0, 0}, 0.1, eos);
    });
    step_options opt;
    opt.eos = eos;
    opt.use_ppm = use_ppm;
    double time = 0;
    while (time < 0.15) time += step(t, opt);

    double l1 = 0;
    int n = 0;
    for (const auto k : t.leaves_sfc()) {
        const auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const dvec3 r = g.geom.cell_center(i, j, kk);
                    const auto ex = riemann_exact(sod_left(), sod_right(),
                                                  (r.x - 0.5) / time, gamma);
                    l1 += std::abs(g.interior(f_rho, i, j, kk) - ex.rho);
                    ++n;
                }
    }
    l1 /= n;
    EXPECT_LT(l1, use_ppm ? 0.035 : 0.06) << "gamma=" << gamma;
}

INSTANTIATE_TEST_SUITE_P(GammaRecon, SodSweep,
                         ::testing::Combine(::testing::Values(1.4, 5.0 / 3.0),
                                            ::testing::Values(true, false)),
                         [](const auto& info) {
                             return std::string(std::get<0>(info.param) > 1.5
                                                    ? "g53"
                                                    : "g14") +
                                    (std::get<1>(info.param) ? "_ppm" : "_pcm");
                         });

// Conservation must hold for ANY gamma / reconstruction / CFL combination.
class ConservationSweep
    : public ::testing::TestWithParam<std::tuple<double, bool, double>> {};

TEST_P(ConservationSweep, LedgerClosesForAllSchemes) {
    const auto [gamma, use_ppm, cfl] = GetParam();
    tree t(unit_root());
    refine_uniform(t, 1);
    phys::ideal_gas_eos eos(gamma);
    init_state(t, [&](const dvec3& r) { return blob_ic(r, eos); });
    const totals before = compute_totals(t);
    step_options opt;
    opt.eos = eos;
    opt.use_ppm = use_ppm;
    opt.cfl = cfl;
    for (int s = 0; s < 2; ++s) (void)step(t, opt);
    const totals after = compute_totals(t);
    EXPECT_NEAR(after.mass, before.mass, before.mass * 1e-12);
    const double lscale = std::max(norm(before.angular_momentum), 1e-20);
    EXPECT_LT(norm(after.angular_momentum - before.angular_momentum) / lscale,
              1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ConservationSweep,
    ::testing::Combine(::testing::Values(1.4, 5.0 / 3.0),
                       ::testing::Values(true, false),
                       ::testing::Values(0.2, 0.4)));

// ---- kernel ablations and schedule independence (paper §4.3) ---------------
//
// The SoA/SIMD pencil kernels are selectable via step_options; the per-leaf
// pipeline is the only schedule. These tests pin down their contracts:
//   * scalar vs SIMD kernels agree to 1e-14 (relative to each field's scale),
//   * the pipeline is schedule-independent: private pools of 1, 2 and 4
//     workers agree BIT FOR BIT (every region's writers are ordered by the
//     graph, so neither interleaving nor steal order can change a result),
//   * the conservation ledger closes on the default (SIMD) path.

/// A non-uniform tree: one level-1 child refined once more, so restriction,
/// coarse-fine ghost interpolation and refluxing are all exercised.
void refine_amr(tree& t) {
    refine_uniform(t, 1);
    t.refine(t.leaves_sfc().front());
}

/// Max per-field difference between two identically shaped trees, relative
/// to the field's own magnitude scale; exact zero when states are identical.
double max_field_rel_diff(const tree& a, const tree& b) {
    double fmax[n_fields] = {};
    double fdiff[n_fields] = {};
    for (const auto k : a.leaves_sfc()) {
        const auto& ga = *a.node(k).fields;
        const auto& gb = *b.node(k).fields;
        for (int q = 0; q < n_fields; ++q)
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int kk = 0; kk < INX; ++kk) {
                        const double ua = ga.interior(q, i, j, kk);
                        const double ub = gb.interior(q, i, j, kk);
                        fmax[q] = std::max({fmax[q], std::abs(ua),
                                            std::abs(ub)});
                        fdiff[q] = std::max(fdiff[q], std::abs(ua - ub));
                    }
    }
    double worst = 0;
    for (int q = 0; q < n_fields; ++q) {
        if (fmax[q] > 0) worst = std::max(worst, fdiff[q] / fmax[q]);
    }
    return worst;
}

TEST(Ablations, SimdKernelsMatchScalarKernels) {
    // Same ICs, same schedule, width-1 vs full-width instantiation of the
    // portable kernels: the vectorized reconstruction/flux/update must
    // reproduce the scalar reference to rounding (1e-14 of each field's
    // scale) on an AMR tree with rotation, spin and passives active.
    phys::ideal_gas_eos eos(1.4);
    tree ts(unit_root()), tv(unit_root());
    refine_amr(ts);
    refine_amr(tv);
    const auto ic = [&](const dvec3& r) { return blob_ic(r, eos); };
    init_state(ts, ic);
    init_state(tv, ic);
    step_options opt;
    opt.eos = eos;
    opt.omega = {0, 0, 0.5};
    opt.vectorized = false;
    step_options optv = opt;
    optv.vectorized = true;
    for (int s = 0; s < 3; ++s) {
        const double dts = step(ts, opt);
        const double dtv = step(tv, optv);
        EXPECT_NEAR(dts, dtv, 1e-14 * dts);
    }
    EXPECT_LE(max_field_rel_diff(ts, tv), 1e-14);
}

/// Number of interior values whose bit patterns differ between two
/// identically shaped trees (signed zeros and NaN payloads included).
std::size_t bit_differences(const tree& a, const tree& b) {
    std::size_t n = 0;
    for (const auto k : a.leaves_sfc()) {
        const auto& ga = *a.node(k).fields;
        const auto& gb = *b.node(k).fields;
        for (int q = 0; q < n_fields; ++q)
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int kk = 0; kk < INX; ++kk) {
                        n += std::bit_cast<std::uint64_t>(
                                 ga.interior(q, i, j, kk)) !=
                             std::bit_cast<std::uint64_t>(
                                 gb.interior(q, i, j, kk));
                    }
    }
    return n;
}

/// Run `steps` steps of the same IC on private pools of 1, 2 and 4 workers
/// and require bit-identical dts and fields. When `opt.before_stage` is set
/// it is replaced by a per-run counter that must fire once per RK stage.
template <class Ic>
void expect_schedules_identical(const Ic& ic, const step_options& opt,
                                 int steps) {
    std::vector<tree> runs;
    std::vector<std::vector<double>> dts;
    for (const unsigned workers : {1u, 2u, 4u}) {
        SCOPED_TRACE(workers);
        rt::thread_pool pool(workers);
        tree t(unit_root());
        refine_amr(t);
        init_state(t, ic);
        step_options o = opt;
        o.pool = &pool;
        int calls = 0;
        if (opt.before_stage) o.before_stage = [&calls] { ++calls; };
        dts.emplace_back();
        for (int s = 0; s < steps; ++s) dts.back().push_back(step(t, o));
        if (opt.before_stage) {
            EXPECT_EQ(calls, 2 * steps);
        }
        runs.push_back(std::move(t));
    }
    for (std::size_t r = 1; r < runs.size(); ++r) {
        EXPECT_EQ(dts[r], dts[0]);
        EXPECT_EQ(bit_differences(runs[0], runs[r]), 0u);
    }
}

TEST(Schedule, IndependentOfPoolSizeOnSod) {
    phys::ideal_gas_eos eos(1.4);
    step_options opt;
    opt.eos = eos;
    expect_schedules_identical(
        [&](const dvec3& r) {
            return r.x < 0.5 ? make_state(1.0, {0, 0, 0}, 1.0, eos)
                             : make_state(0.125, {0, 0, 0}, 0.1, eos);
        },
        opt, 4);
}

TEST(Schedule, IndependentOfPoolSizeOnSedov) {
    phys::ideal_gas_eos eos(5.0 / 3.0);
    step_options opt;
    opt.eos = eos;
    expect_schedules_identical(
        [&](const dvec3& r) {
            const double p =
                norm2(r - dvec3{0.5, 0.5, 0.5}) < 0.01 ? 100.0 : 1e-3;
            return make_state(1.0, {0, 0, 0}, p, eos);
        },
        opt, 3);
}

TEST(Schedule, IndependentOfPoolSizeOnRotatingStar) {
    // Rotating-star analogue: the compact spinning blob in a rotating frame
    // with an analytic gravity field and a before_stage hook (the coupled
    // driver's re-solve slot, which the pipeline overlaps with the ghost
    // fills). Everything must still be bit-identical.
    phys::ideal_gas_eos eos(5.0 / 3.0);
    const auto ic = [&](const dvec3& r) { return blob_ic(r, eos); };

    // Linear central pull and zero spin torque on every leaf cell; node keys
    // and geometry are the same in every run's tree.
    tree shape(unit_root());
    refine_amr(shape);
    init_state(shape, ic);
    std::unordered_map<node_key, std::array<std::vector<double>, 6>> accel;
    for (const auto k : shape.leaves_sfc()) {
        auto& a = accel[k];
        for (auto& v : a) v.assign(INX * INX * INX, 0.0);
        const auto& g = *shape.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const int c = (i * INX + j) * INX + kk;
                    const dvec3 r =
                        g.geom.cell_center(i, j, kk) - dvec3{0.5, 0.5, 0.5};
                    a[0][c] = -r.x;
                    a[1][c] = -r.y;
                    a[2][c] = -r.z;
                }
    }

    step_options opt;
    opt.eos = eos;
    opt.omega = {0, 0, 0.3};
    opt.gravity = [&accel](node_key k) -> std::optional<gravity_field> {
        const auto& a = accel.at(k);
        return gravity_field{a[0].data(), a[1].data(), a[2].data(),
                             a[3].data(), a[4].data(), a[5].data()};
    };
    opt.before_stage = [] {}; // counted per run by the helper
    expect_schedules_identical(ic, opt, 3);
}

/// Momentum everywhere, spin, a passive scalar and radiation: every field
/// the step transports (and some it must not) is nonzero.
state sheared_flow_ic(const dvec3& r, const phys::ideal_gas_eos& eos) {
    state u = make_state(1.0 + 0.2 * std::sin(6.0 * r.x + 2.0 * r.y),
                         {0.3 - 0.1 * r.z, -0.2 + 0.1 * r.x, 0.1 + 0.05 * r.y},
                         0.8 + 0.1 * r.z, eos);
    u[f_lx] = 1e-3 * r.y;
    u[f_lz] = -1e-3 * r.x;
    u[first_passive] = 0.5 * u[f_rho];
    u[f_erad] = 0.25 + r.x;
    u[f_frx] = 0.01 * r.z;
    return u;
}

constexpr boundary_kind all_boundaries[] = {
    boundary_kind::outflow, boundary_kind::reflecting, boundary_kind::periodic};

/// Bit pattern of the NaN the ghost tests poison shells with (a payload no
/// arithmetic produces, so a copied poison is told from a computed NaN).
constexpr std::uint64_t ghost_poison = 0x7ff8'dead'beef'0001ULL;

/// Calls `f(g, f, i, j, k)` for every ghost cell of every field of every
/// node with field data.
template <class F>
void for_each_ghost(tree& t, const F& f) {
    for (const auto& level : t.levels()) {
        for (const node_key k : level) {
            auto& n = t.node(k);
            if (n.fields == nullptr) continue;
            for (int q = 0; q < n_fields; ++q)
                for (int i = 0; i < NX; ++i)
                    for (int j = 0; j < NX; ++j)
                        for (int kk = 0; kk < NX; ++kk) {
                            if (!subgrid::is_interior(i, j, kk)) f(*n.fields, q, i, j, kk);
                        }
        }
    }
}

TEST(Step, ReadsAndWritesNoGhostCell) {
    // The flux sweeps gather their face ghosts straight from the donors'
    // interiors, so the step neither reads nor writes the ghost shell.
    // Poisoning the whole shell of every field of every node before each of
    // two steps must leave the dt and every leaf interior bit-identical to a
    // clean run, and every ghost must still hold the poison afterwards. The
    // tree has coarse-fine faces, the flow has momentum everywhere, and all
    // three boundary kinds run, so coarse donors, spin corrections and
    // reflecting flips all feed the gathered ghosts.
    phys::ideal_gas_eos eos(1.4);
    const auto ic = [&](const dvec3& r) { return sheared_flow_ic(r, eos); };
    const double nan = std::bit_cast<double>(ghost_poison);
    for (const auto bc : all_boundaries) {
        SCOPED_TRACE(static_cast<int>(bc));
        tree clean(unit_root()), poisoned(unit_root());
        refine_amr(clean);
        refine_amr(poisoned);
        init_state(clean, ic);
        init_state(poisoned, ic);
        // Refined nodes get storage (and so a shell to poison) up front.
        restrict_tree(clean);
        restrict_tree(poisoned);
        step_options opt;
        opt.eos = eos;
        opt.bc = bc;
        for (int s = 0; s < 2; ++s) {
            for_each_ghost(poisoned, [nan](subgrid& g, int q, int i, int j, int kk) {
                g.at(q, i, j, kk) = nan;
            });
            const double dt_poisoned = step(poisoned, opt);
            EXPECT_EQ(dt_poisoned, step(clean, opt));
            std::size_t written = 0;
            for_each_ghost(poisoned, [&](subgrid& g, int q, int i, int j, int kk) {
                written += std::bit_cast<std::uint64_t>(g.at(q, i, j, kk)) != ghost_poison;
            });
            EXPECT_EQ(written, 0u) << "step " << s;
        }
        EXPECT_EQ(io::leaf_digests(poisoned), io::leaf_digests(clean));
        EXPECT_EQ(bit_differences(clean, poisoned), 0u);
    }
}

TEST(Step, PencilGhostsMatchFillAllGhosts) {
    // A sweep's pencil bundle gets its face ghosts from the halo plan
    // (amr::gather_face_ghosts), not from the shell. For every leaf and
    // axis, those slots must equal, bit for bit, the shell cells
    // fill_all_ghosts writes from the same plan, and the gather must write
    // nothing else. Coarse donors (spin corrections), refined donors
    // (restriction), momentum everywhere (flips and corrections act on
    // nonzero values) and all three boundary kinds.
    constexpr int P = pencil_len, L = pencil_lanes;
    phys::ideal_gas_eos eos(1.4);
    const auto poison = std::bit_cast<double>(ghost_poison);
    for (const auto bc : all_boundaries) {
        SCOPED_TRACE(static_cast<int>(bc));
        tree t(unit_root());
        refine_amr(t);
        init_state(t, [&](const dvec3& r) { return sheared_flow_ic(r, eos); });
        fill_all_ghosts(t, bc);
        std::size_t coarse = 0, refined = 0;
        std::vector<double> u(static_cast<std::size_t>(n_hydro_fields) * P * L);
        for (const auto& np : acquire_ghost_plan(t, bc).nodes) {
            if (!np.leaf) continue;
            for (int axis = 0; axis < 3; ++axis) {
                for (const int dir : {-1, +1}) {
                    const auto& r = np.regions[ghost_face_region(axis, dir)];
                    coarse += r.corrections.size();
                    for (const node_key d : r.donors) refined += t.node(d).refined;
                }
                std::fill(u.begin(), u.end(), poison);
                gather_face_ghosts(np, axis, u.data());
                std::size_t differ = 0, stray = 0;
                for (int q = 0; q < n_hydro_fields; ++q)
                    for (int p = 0; p < P; ++p)
                        for (int b = 0; b < INX; ++b)
                            for (int c = 0; c < INX; ++c) {
                                const auto got = std::bit_cast<std::uint64_t>(
                                    u[static_cast<std::size_t>((q * P + p) * L + b * INX + c)]);
                                if (p >= H_BW && p < H_BW + INX) {
                                    stray += got != ghost_poison;
                                    continue;
                                }
                                const int cell[3][3] = {{p, b + H_BW, c + H_BW},
                                                        {b + H_BW, p, c + H_BW},
                                                        {b + H_BW, c + H_BW, p}};
                                const auto& [i, j, kk] = cell[axis];
                                differ += got != std::bit_cast<std::uint64_t>(
                                                     np.g->at(q, i, j, kk));
                            }
                EXPECT_EQ(differ, 0u) << "leaf " << np.key << " axis " << axis;
                EXPECT_EQ(stray, 0u) << "leaf " << np.key << " axis " << axis;
            }
        }
        EXPECT_GT(coarse, 0u);
        EXPECT_GT(refined, 0u);
    }
}

TEST(Step, ScratchNeedsNoZeroFill) {
    // The step's scratch is never zero-filled: the leaf flux planes, the u0
    // snapshot and each worker's sweep workspace come out of the buffer
    // recycler as they were parked. Parking NaN-filled blocks of exactly
    // those sizes before the steps must leave the dt and every leaf interior
    // bit-identical to a run on whatever the recycler held before — any read
    // of scratch a kernel did not write first would carry the NaN into the
    // state. A fresh pool gives every worker a fresh workspace.
    phys::ideal_gas_eos eos(1.4);
    const auto ic = [&](const dvec3& r) { return sheared_flow_ic(r, eos); };
    constexpr std::size_t d = sizeof(double);
    constexpr std::size_t P = pencil_len, L = pencil_lanes;
    for (const auto bc : all_boundaries) {
        SCOPED_TRACE(static_cast<int>(bc));
        tree clean(unit_root()), poisoned(unit_root());
        refine_amr(clean);
        refine_amr(poisoned);
        init_state(clean, ic);
        init_state(poisoned, ic);
        step_options opt;
        opt.eos = eos;
        opt.bc = bc;
        std::vector<double> dts;
        for (int s = 0; s < 2; ++s) dts.push_back(step(clean, opt));

        rt::thread_pool pool(4);
        const std::size_t leaves = poisoned.leaves_sfc().size();
        const std::size_t spare = pool.size() + 1; // the caller helps too
        const std::pair<std::size_t, std::size_t> blocks[] = {
            {n_hydro_fields * leaf_flux_soa::plane_size * d, 3 * leaves}, // fluxes
            {n_hydro_fields * INX3 * d, leaves},                          // u0
            {n_hydro_fields * P * L * d, spare},                          // ws.u
            {n_recon_vars * P * L * d, spare},                            // ws.qv
            {(recon_cells + 1) * L * d, spare},                           // ws.iface
            {n_recon_vars * recon_cells * L * d, 2 * spare},              // ws.flo/fhi
        };
        auto& rec = buffer_recycler::instance();
        rec.clear();
        std::vector<std::pair<void*, std::size_t>> held;
        for (const auto& [bytes, count] : blocks) {
            for (std::size_t n = 0; n < count; ++n) {
                void* p = rec.allocate(bytes, simd_alignment);
                std::fill_n(static_cast<double*>(p), bytes / d,
                            std::numeric_limits<double>::quiet_NaN());
                held.emplace_back(p, bytes);
            }
        }
        for (const auto& [p, bytes] : held) rec.deallocate(p, bytes, simd_alignment);

        opt.pool = &pool;
        for (int s = 0; s < 2; ++s) {
            EXPECT_EQ(step(poisoned, opt), dts[static_cast<std::size_t>(s)]);
        }
        EXPECT_EQ(io::leaf_digests(poisoned), io::leaf_digests(clean));
        EXPECT_EQ(bit_differences(clean, poisoned), 0u);
    }
}

TEST(Step, LeavesRadiationFieldsUntouched) {
    // The hydro step owns the n_hydro_fields hydro fields only. Radiation
    // interiors — including a value the old (x + x) / 2 blend overflowed
    // and a subnormal — come out of two steps bitwise unchanged.
    phys::ideal_gas_eos eos(1.4);
    tree t(unit_root());
    refine_amr(t);
    init_state(t, [&](const dvec3& r) { return sheared_flow_ic(r, eos); });
    const double big = 0.75 * std::numeric_limits<double>::max();
    const double tiny = std::numeric_limits<double>::denorm_min() * 3;
    auto& first = *t.node(t.leaves_sfc().front()).fields;
    first.interior(f_erad, 1, 2, 3) = big;
    first.interior(f_frz, 4, 0, 7) = tiny;
    first.interior(f_fry, 0, 0, 0) = -big;
    ASSERT_GT(big, std::numeric_limits<double>::max() / 2);
    ASSERT_EQ(std::fpclassify(tiny), FP_SUBNORMAL);

    const auto rad_bits = [](const tree& tr) {
        std::vector<std::uint64_t> bits;
        for (const auto k : tr.leaves_sfc()) {
            const auto& g = *tr.node(k).fields;
            for (int q = n_hydro_fields; q < n_fields; ++q)
                for (int i = 0; i < INX; ++i)
                    for (int j = 0; j < INX; ++j)
                        for (int kk = 0; kk < INX; ++kk) {
                            bits.push_back(std::bit_cast<std::uint64_t>(
                                g.interior(q, i, j, kk)));
                        }
        }
        return bits;
    };
    const auto before = rad_bits(t);
    step_options opt;
    opt.eos = eos;
    for (int s = 0; s < 2; ++s) (void)step(t, opt);
    EXPECT_EQ(rad_bits(t), before);
}

TEST(Ablations, LedgerClosesOnDefaultSimdPath) {
    // The conservation ledger (mass, momentum, angular momentum) must close
    // to rounding on the DEFAULT path — SIMD pencil kernels — across
    // coarse-fine boundaries (refluxing included).
    phys::ideal_gas_eos eos(1.4);
    tree t(unit_root());
    refine_amr(t);
    init_state(t, [&](const dvec3& r) { return blob_ic(r, eos); });
    const totals before = compute_totals(t);
    step_options opt; // defaults: vectorized = true
    opt.eos = eos;
    for (int s = 0; s < 3; ++s) (void)step(t, opt);
    const totals after = compute_totals(t);
    EXPECT_NEAR(after.mass, before.mass, before.mass * 1e-12);
    EXPECT_LT(norm(after.momentum - before.momentum), 1e-12);
    const double lscale = std::max(norm(before.angular_momentum), 1e-20);
    EXPECT_LT(norm(after.angular_momentum - before.angular_momentum) / lscale,
              1e-10);
}

} // namespace

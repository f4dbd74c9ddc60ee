// Tests for the two-moment (M1) radiation transport module — the paper's §7
// extension. Covers the closure limits, free-streaming propagation at the
// reduced speed of light, conservation under transport, the implicit
// matter coupling (equilibration + exact total-energy conservation), and
// the flux limiter.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "amr/tree.hpp"
#include "hydro/update.hpp"
#include "rad/m1.hpp"
#include "rad/rad.hpp"
#include "scf/scf.hpp"

namespace {

using namespace octo;
using namespace octo::amr;
using namespace octo::rad;

// ---- closure -----------------------------------------------------------------

TEST(M1Closure, LimitsAreExact) {
    EXPECT_NEAR(eddington_factor(0.0), 1.0 / 3.0, 1e-14); // diffusion
    EXPECT_NEAR(eddington_factor(1.0), 1.0, 1e-14);       // free streaming
}

TEST(M1Closure, MonotoneInF) {
    double prev = eddington_factor(0.0);
    for (int i = 1; i <= 20; ++i) {
        const double chi = eddington_factor(i / 20.0);
        EXPECT_GE(chi, prev);
        prev = chi;
    }
}

TEST(M1Closure, PressureTensorTraceEqualsEnergy) {
    // tr(P) = E for any closure of this family.
    double P[3][3];
    const dvec3 F{0.3, -0.2, 0.5};
    pressure_tensor(2.0, F, 1.0, P);
    EXPECT_NEAR(P[0][0] + P[1][1] + P[2][2], 2.0, 1e-12);
    // Symmetry.
    EXPECT_DOUBLE_EQ(P[0][1], P[1][0]);
    EXPECT_DOUBLE_EQ(P[0][2], P[2][0]);
}

TEST(M1Closure, IsotropicAtZeroFlux) {
    double P[3][3];
    pressure_tensor(3.0, {0, 0, 0}, 1.0, P);
    EXPECT_NEAR(P[0][0], 1.0, 1e-14);
    EXPECT_NEAR(P[1][1], 1.0, 1e-14);
    EXPECT_NEAR(P[0][1], 0.0, 1e-14);
}

TEST(M1Closure, FreeStreamingPressureAlongFlux) {
    // f = 1 along x: P = E x x.
    double P[3][3];
    pressure_tensor(1.0, {1.0, 0, 0}, 1.0, P); // |F| = cE -> f = 1
    EXPECT_NEAR(P[0][0], 1.0, 1e-12);
    EXPECT_NEAR(P[1][1], 0.0, 1e-12);
}

TEST(M1Closure, FluxLimiterCapsAtCE) {
    const dvec3 f = limit_flux(1.0, {3.0, 0, 0}, 1.0);
    EXPECT_NEAR(norm(f), 1.0, 1e-14);
    const dvec3 ok = limit_flux(1.0, {0.5, 0, 0}, 1.0);
    EXPECT_DOUBLE_EQ(ok.x, 0.5);
}

// ---- transport -----------------------------------------------------------------

tree make_grid(int depth = 1) {
    return scf::make_uniform_tree(1.0, depth);
}

void zero_hydro(tree& t) {
    for (const auto k : t.leaves_sfc()) {
        auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    g.interior(f_rho, i, j, kk) = 1.0;
                    g.interior(f_egas, i, j, kk) = 1.0;
                    g.interior(f_tau, i, j, kk) =
                        phys::ideal_gas_eos().tau_from_internal(1.0);
                }
    }
}

TEST(RadTransport, ConservesEnergyWithPeriodicBc) {
    auto t = make_grid();
    zero_hydro(t);
    // A radiation blob.
    for (const auto k : t.leaves_sfc()) {
        auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const dvec3 r = g.geom.cell_center(i, j, kk);
                    g.interior(f_erad, i, j, kk) = std::exp(-norm2(r) / 0.01);
                }
    }
    const double before = total_radiation_energy(t);
    rad_options opt;
    opt.bc = boundary_kind::periodic;
    opt.kappa = 0.0;
    const int nsub = step(t, 0.05, opt);
    EXPECT_GE(nsub, 1);
    EXPECT_NEAR(total_radiation_energy(t), before, before * 1e-12);
}

TEST(RadTransport, FreeStreamingPulseMovesAtChat) {
    auto t = make_grid(2); // 32^3
    zero_hydro(t);
    // A pulse at x = -0.2 streaming in +x at |F| = c E.
    rad_options opt;
    opt.c_hat = 5.0;
    opt.bc = boundary_kind::outflow;
    for (const auto k : t.leaves_sfc()) {
        auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const dvec3 r = g.geom.cell_center(i, j, kk);
                    const double E =
                        std::exp(-((r.x + 0.2) * (r.x + 0.2)) / 0.002) *
                        std::exp(-(r.y * r.y + r.z * r.z) / 0.02);
                    g.interior(f_erad, i, j, kk) = E;
                    g.interior(f_frx, i, j, kk) = opt.c_hat * E;
                }
    }
    const double dt = 0.06; // pulse should travel c_hat*dt = 0.3
    step(t, dt, opt);

    // Energy-weighted centroid along x.
    double cx = 0, m = 0;
    for (const auto k : t.leaves_sfc()) {
        const auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const double E = g.interior(f_erad, i, j, kk);
                    cx += E * g.geom.cell_center(i, j, kk).x;
                    m += E;
                }
    }
    EXPECT_NEAR(cx / m, -0.2 + opt.c_hat * dt, 0.05);
}

TEST(RadTransport, IsotropicBlobStaysCentered) {
    auto t = make_grid(1);
    zero_hydro(t);
    for (const auto k : t.leaves_sfc()) {
        auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const dvec3 r = g.geom.cell_center(i, j, kk);
                    g.interior(f_erad, i, j, kk) = std::exp(-norm2(r) / 0.02);
                }
    }
    rad_options opt;
    opt.bc = boundary_kind::periodic;
    step(t, 0.02, opt);
    double cx = 0, m = 0;
    double emax = 0;
    for (const auto k : t.leaves_sfc()) {
        const auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const double E = g.interior(f_erad, i, j, kk);
                    cx += E * g.geom.cell_center(i, j, kk).x;
                    m += E;
                    emax = std::max(emax, E);
                }
    }
    EXPECT_NEAR(cx / m, 0.0, 1e-10); // symmetric spreading
    EXPECT_LT(emax, 1.0);            // peak decays (expansion)
    EXPECT_GT(emax, 0.0);
}

TEST(RadTransport, EnergyStaysNonNegative) {
    auto t = make_grid(1);
    zero_hydro(t);
    // Harsh initial data: a single hot cell.
    auto& g0 = *t.node(t.leaves_sfc().front()).fields;
    g0.interior(f_erad, 3, 3, 3) = 100.0;
    rad_options opt;
    opt.bc = boundary_kind::outflow;
    step(t, 0.1, opt);
    for (const auto k : t.leaves_sfc()) {
        const auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    ASSERT_GE(g.interior(f_erad, i, j, kk), 0.0);
                    // Realizability: |F| <= c_hat E.
                    const dvec3 F{g.interior(f_frx, i, j, kk),
                                  g.interior(f_fry, i, j, kk),
                                  g.interior(f_frz, i, j, kk)};
                    ASSERT_LE(norm(F),
                              opt.c_hat * g.interior(f_erad, i, j, kk) + 1e-12);
                }
    }
}

TEST(RadTransport, SubstepIsPoolIndependent) {
    // Leaves update in chunks on the pool, each reading only its own
    // interior and ghosts, so a tree with coarse-fine faces advances bitwise
    // the same on 1 and on 4 workers.
    const auto run = [](unsigned workers) {
        auto t = make_grid(1);
        t.refine(t.leaves_sfc().front());
        for (const auto k : t.leaves_sfc()) t.ensure_fields(k);
        zero_hydro(t);
        for (const auto k : t.leaves_sfc()) {
            auto& g = *t.node(k).fields;
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int kk = 0; kk < INX; ++kk) {
                        const dvec3 r = g.geom.cell_center(i, j, kk);
                        const dvec3 d = r - dvec3{-0.4, -0.3, -0.2};
                        const double E = std::exp(-norm2(d) / 0.05);
                        g.interior(f_erad, i, j, kk) = E;
                        g.interior(f_frx, i, j, kk) = 0.5 * E;
                        g.interior(f_fry, i, j, kk) = -0.3 * E;
                        g.interior(f_frz, i, j, kk) = 0.1 * E * r.x;
                    }
        }
        rt::thread_pool pool(workers);
        rad_options opt;
        opt.bc = boundary_kind::outflow;
        opt.kappa = 0.5;
        opt.pool = &pool;
        EXPECT_GT(step(t, 0.05, opt), 1);
        return t;
    };
    const tree a = run(1);
    const tree b = run(4);
    const auto leaves = a.leaves_sfc();
    ASSERT_EQ(leaves, b.leaves_sfc());
    for (const auto k : leaves) {
        const auto& ga = *a.node(k).fields;
        const auto& gb = *b.node(k).fields;
        for (const int f : {f_erad, f_frx, f_fry, f_frz})
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int kk = 0; kk < INX; ++kk) {
                        ASSERT_EQ(std::bit_cast<std::uint64_t>(ga.interior(f, i, j, kk)),
                                  std::bit_cast<std::uint64_t>(gb.interior(f, i, j, kk)))
                            << "leaf " << k << " field " << f;
                    }
    }
}

// ---- matter coupling ------------------------------------------------------------

TEST(RadCoupling, RelaxesTowardEquilibrium) {
    auto t = make_grid(1);
    zero_hydro(t); // u_gas = 1 everywhere, rho = 1
    rad_options opt;
    opt.bc = boundary_kind::periodic;
    opt.kappa = 50.0; // optically thick
    opt.a_rad = 0.5;
    // Start with zero radiation: matter should radiate until a T^4 = E.
    for (int s = 0; s < 40; ++s) step(t, 0.02, opt);

    const auto& g = *t.node(t.leaves_sfc().front()).fields;
    const double E = g.interior(f_erad, 2, 2, 2);
    const double rho = g.interior(f_rho, 2, 2, 2);
    const dvec3 sv{g.interior(f_sx, 2, 2, 2), g.interior(f_sy, 2, 2, 2),
                   g.interior(f_sz, 2, 2, 2)};
    const double u = opt.eos.internal_energy(g.interior(f_egas, 2, 2, 2),
                                             0.5 * norm2(sv) / rho,
                                             g.interior(f_tau, 2, 2, 2));
    const double eq = equilibrium_erad(u, rho, opt);
    EXPECT_NEAR(E, eq, 0.05 * eq);
    EXPECT_GT(E, 0.0);
}

TEST(RadCoupling, ConservesTotalEnergyToRounding) {
    auto t = make_grid(1);
    zero_hydro(t);
    rad_options opt;
    opt.bc = boundary_kind::periodic;
    opt.kappa = 10.0;
    opt.a_rad = 0.3;
    const double e_gas0 = hydro::compute_totals(t).egas;
    const double e_rad0 = total_radiation_energy(t);
    for (int s = 0; s < 10; ++s) step(t, 0.02, opt);
    const double e_gas1 = hydro::compute_totals(t).egas;
    const double e_rad1 = total_radiation_energy(t);
    EXPECT_NEAR(e_gas1 + e_rad1, e_gas0 + e_rad0,
                (e_gas0 + e_rad0) * 1e-11);
    EXPECT_LT(e_gas1, e_gas0); // matter radiated
    EXPECT_GT(e_rad1, e_rad0);
}

TEST(RadCoupling, AbsorptionDampsFlux) {
    auto t = make_grid(1);
    zero_hydro(t);
    for (const auto k : t.leaves_sfc()) {
        auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    g.interior(f_erad, i, j, kk) = 1.0;
                    g.interior(f_frx, i, j, kk) = 0.5;
                }
    }
    rad_options opt;
    opt.bc = boundary_kind::periodic;
    opt.kappa = 100.0; // thick: flux should die fast
    step(t, 0.05, opt);
    const auto& g = *t.node(t.leaves_sfc().front()).fields;
    EXPECT_LT(std::abs(g.interior(f_frx, 4, 4, 4)), 0.05);
}

// ---- interaction with the hydro step -------------------------------------------

TEST(RadHydro, HydroStepLeavesRadiationUntouched) {
    // The radiation moments are transported ONLY by the radiation solver;
    // a hydro step must not change them (operator splitting contract).
    auto t = make_grid(1);
    zero_hydro(t);
    for (const auto k : t.leaves_sfc()) {
        auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    g.interior(f_erad, i, j, kk) = 0.7 + 0.01 * i;
                    g.interior(f_frx, i, j, kk) = 0.1;
                    // give the gas something to do
                    g.interior(f_sx, i, j, kk) = 0.2;
                }
    }
    hydro::step_options h;
    h.bc = boundary_kind::periodic;
    (void)hydro::step(t, h);
    for (const auto k : t.leaves_sfc()) {
        const auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    ASSERT_DOUBLE_EQ(g.interior(f_erad, i, j, kk), 0.7 + 0.01 * i);
                    ASSERT_DOUBLE_EQ(g.interior(f_frx, i, j, kk), 0.1);
                }
    }
}

} // namespace

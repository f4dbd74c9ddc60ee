#include "rad/rad.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "rad/m1.hpp"
#include "runtime/thread_pool.hpp"
#include "support/assert.hpp"

namespace octo::rad {

using namespace octo::amr;

namespace {

struct rad_state {
    double E;
    dvec3 F;
};

rad_state load_rad(const subgrid& g, int i, int j, int k) {
    return {g.at(f_erad, i, j, k),
            {g.at(f_frx, i, j, k), g.at(f_fry, i, j, k), g.at(f_frz, i, j, k)}};
}

/// Physical flux of (E, F) along axis a: (F_a, c^2 P . e_a).
void physical_flux(const rad_state& u, double c, int a, double out[4]) {
    double P[3][3];
    pressure_tensor(u.E, u.F, c, P);
    out[0] = u.F[a];
    out[1] = c * c * P[a][0];
    out[2] = c * c * P[a][1];
    out[3] = c * c * P[a][2];
}

/// Rusanov flux at speed c (the fastest M1 characteristic is c_hat).
void rusanov(const rad_state& L, const rad_state& R, double c, int a,
             double out[4]) {
    double fl[4], fr[4];
    physical_flux(L, c, a, fl);
    physical_flux(R, c, a, fr);
    const double uL[4] = {L.E, L.F.x, L.F.y, L.F.z};
    const double uR[4] = {R.E, R.F.x, R.F.y, R.F.z};
    for (int q = 0; q < 4; ++q) {
        out[q] = 0.5 * (fl[q] + fr[q]) - 0.5 * c * (uR[q] - uL[q]);
    }
}

/// The transport update of one leaf: every cell's flux difference goes into
/// a local buffer first, then is committed. The stencil reads only the
/// leaf's own interior and the ghost layer fill_all_ghosts copied into it,
/// so leaves can update in any order.
void transport_leaf(subgrid& g, double dt, const rad_options& opt) {
    std::array<double, 4 * INX3> du;
    const double lam = dt / g.geom.dx;
    for (int i = 0; i < INX; ++i)
        for (int j = 0; j < INX; ++j)
            for (int kk = 0; kk < INX; ++kk) {
                const int I = i + H_BW, J = j + H_BW, K = kk + H_BW;
                const rad_state c = load_rad(g, I, J, K);
                double acc[4] = {0, 0, 0, 0};
                for (int a = 0; a < 3; ++a) {
                    const int di = a == 0, dj = a == 1, dk = a == 2;
                    const rad_state m = load_rad(g, I - di, J - dj, K - dk);
                    const rad_state p = load_rad(g, I + di, J + dj, K + dk);
                    double flo[4], fhi[4];
                    rusanov(m, c, opt.c_hat, a, flo);
                    rusanov(c, p, opt.c_hat, a, fhi);
                    for (int q = 0; q < 4; ++q) {
                        acc[q] -= lam * (fhi[q] - flo[q]);
                    }
                }
                const int idx = 4 * ((i * INX + j) * INX + kk);
                for (int q = 0; q < 4; ++q) du[idx + q] = acc[q];
            }
    for (int i = 0; i < INX; ++i)
        for (int j = 0; j < INX; ++j)
            for (int kk = 0; kk < INX; ++kk) {
                const int idx = 4 * ((i * INX + j) * INX + kk);
                double E = g.interior(f_erad, i, j, kk) + du[idx + 0];
                dvec3 F{g.interior(f_frx, i, j, kk) + du[idx + 1],
                        g.interior(f_fry, i, j, kk) + du[idx + 2],
                        g.interior(f_frz, i, j, kk) + du[idx + 3]};
                E = std::max(E, 0.0);
                F = limit_flux(E, F, opt.c_hat);
                g.interior(f_erad, i, j, kk) = E;
                g.interior(f_frx, i, j, kk) = F.x;
                g.interior(f_fry, i, j, kk) = F.y;
                g.interior(f_frz, i, j, kk) = F.z;
            }
}

/// One explicit transport substep of size dt on every leaf.
void transport_substep(tree& t, double dt, const rad_options& opt,
                       rt::thread_pool& pool) {
    fill_all_ghosts(t, opt.bc, &pool);
    const std::vector<node_key> leaves = t.leaves_sfc();
    rt::for_chunks(pool, leaves.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t n = lo; n < hi; ++n) {
            transport_leaf(*t.node(leaves[n]).fields, dt, opt);
        }
    });
}

/// Implicit local emission/absorption coupling over dt (cell-local Newton,
/// conserving u_gas + E to rounding).
void couple_matter(tree& t, double dt, const rad_options& opt,
                   rt::thread_pool& pool) {
    const std::vector<node_key> leaves = t.leaves_sfc();
    rt::for_chunks(pool, leaves.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t n = lo; n < hi; ++n) {
            subgrid& g = *t.node(leaves[n]).fields;
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int kk = 0; kk < INX; ++kk) {
                        const double rho =
                            std::max(g.interior(f_rho, i, j, kk), 1e-14);
                        const double chi = opt.c_hat * opt.kappa * rho; // 1/t
                        if (chi <= 0.0) continue;

                        // Gas internal energy from the conserved state.
                        const dvec3 s{g.interior(f_sx, i, j, kk),
                                      g.interior(f_sy, i, j, kk),
                                      g.interior(f_sz, i, j, kk)};
                        const double ke = 0.5 * norm2(s) / rho;
                        double& Egas = g.interior(f_egas, i, j, kk);
                        double& tau = g.interior(f_tau, i, j, kk);
                        double u = opt.eos.internal_energy(Egas, ke, tau);
                        double& E = g.interior(f_erad, i, j, kk);

                        // Backward-Euler in E with T(u) nonlinearity:
                        //   E' = (E + dt chi aT(u')^4) / (1 + dt chi),
                        //   u' = u + (E - E')  [total conserved]
                        // Newton on r(E') = E'(1+dt chi) - E - dt chi a T^4.
                        const double total = u + E;
                        double Ep = E;
                        for (int it = 0; it < 30; ++it) {
                            const double up = total - Ep;
                            const double T =
                                std::max(up, 0.0) / (opt.c_v * rho);
                            const double T4 = T * T * T * T;
                            const double r =
                                Ep * (1.0 + dt * chi) - E - dt * chi * opt.a_rad * T4;
                            const double dT4dEp =
                                -4.0 * T * T * T / (opt.c_v * rho);
                            const double drdEp =
                                (1.0 + dt * chi) - dt * chi * opt.a_rad * dT4dEp;
                            const double step = r / drdEp;
                            Ep -= step;
                            Ep = std::clamp(Ep, 0.0, total);
                            if (std::abs(step) < 1e-14 * std::max(Ep, 1e-30)) {
                                break;
                            }
                        }
                        const double dE = Ep - E;
                        E = Ep;
                        Egas -= dE; // total energy conserved by construction
                        const double u_new = std::max(u - dE, 0.0);
                        tau = opt.eos.tau_from_internal(u_new);

                        // Flux absorption (exact exponential decay).
                        const double damp = std::exp(-dt * chi);
                        g.interior(f_frx, i, j, kk) *= damp;
                        g.interior(f_fry, i, j, kk) *= damp;
                        g.interior(f_frz, i, j, kk) *= damp;
                    }
        }
    });
}

} // namespace

int step(tree& t, double dt, const rad_options& opt) {
    OCTO_ASSERT(dt > 0.0 && opt.c_hat > 0.0);
    rt::thread_pool& pool =
        opt.pool != nullptr ? *opt.pool : rt::thread_pool::global();

    // Radiation CFL on the finest level.
    double dx_min = t.root_geometry().dx;
    for (const node_key k : t.leaves_sfc()) {
        dx_min = std::min(dx_min, t.geometry(k).dx);
    }
    const double dt_rad = opt.cfl * dx_min / opt.c_hat;
    const int nsub = std::max(1, static_cast<int>(std::ceil(dt / dt_rad)));
    const double h = dt / nsub;

    for (int s = 0; s < nsub; ++s) {
        transport_substep(t, h, opt, pool);
        if (opt.kappa > 0.0) couple_matter(t, h, opt, pool);
    }
    return nsub;
}

double total_radiation_energy(const tree& t) {
    double e = 0;
    for (const auto& level : t.levels()) {
        for (const node_key k : level) {
            if (t.node(k).refined) continue;
            const auto& g = *t.node(k).fields;
            const double V = g.geom.cell_volume();
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int kk = 0; kk < INX; ++kk) {
                        e += V * g.interior(f_erad, i, j, kk);
                    }
        }
    }
    return e;
}

} // namespace octo::rad

#include "kernel/hydro.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "hydro/state.hpp"
#include "support/assert.hpp"

namespace octo::kernel {

using namespace octo::amr;
using hydro::leaf_flux_soa;
using hydro::n_faces;
using hydro::pencil_workspace;
using hydro::rho_floor;
using hydro::tau_floor;
using phys::ideal_gas_eos;

namespace {

constexpr int P = hydro::pencil_len;    // 14 cells along the sweep axis
constexpr int L = hydro::pencil_lanes;  // 64 transverse pencils = lanes
constexpr int C = hydro::recon_cells;   // cells -1..INX carry face states
constexpr int NV = hydro::n_recon_vars; // 14 reconstructed variables

// Reconstructed-variable layout (shared by every instantiation):
// 0 rho, 1..3 v, 4 p, 5 tau/rho, 6..10 passives/rho, 11..13 l/rho.
constexpr int rv_rho = 0, rv_vx = 1, rv_p = 4, rv_tau = 5, rv_pass = 6;
constexpr int rv_l = 6 + n_passive;

template <class T>
void primitives_body(const double* u, const ideal_gas_eos& eos, double* qv) {
    constexpr int W = lane_count<T>::value;
    static_assert(L % W == 0, "lane count must be a multiple of the pack width");
    const double gamma = eos.gamma();
    const T floor_p(rho_floor), zero(0.0), half(0.5);
    const T desw(eos.de_switch()), gm1(gamma - 1.0);
    for (int p = 0; p < P; ++p) {
        const std::size_t cell = static_cast<std::size_t>(p) * L;
        for (int t = 0; t < L; t += W) {
            const auto ld = [&](int q) {
                return load_v<T>(u + static_cast<std::size_t>(q) * P * L +
                                 cell + t);
            };
            const auto st = [&](int v, const T& x) {
                store_v(qv + static_cast<std::size_t>(v) * P * L + cell + t, x);
            };
            const T rho = simd::max(ld(f_rho), floor_p);
            const T vx = ld(f_sx) / rho;
            const T vy = ld(f_sy) / rho;
            const T vz = ld(f_sz) / rho;
            const T E = ld(f_egas);
            const T tau = ld(f_tau);
            const T ke = half * rho * (vx * vx + vy * vy + vz * vz);
            const T from_total = E - ke;
            const mask_t<T> use_total =
                (from_total > desw * E) && (from_total > zero);
            T ent = zero;
            if (!simd::all(use_total)) {
                ent = simd::pow(simd::max(tau, zero), gamma);
            }
            const T internal =
                simd::max(simd::select(use_total, from_total, ent), zero);
            st(rv_rho, rho);
            st(rv_vx + 0, vx);
            st(rv_vx + 1, vy);
            st(rv_vx + 2, vz);
            st(rv_p, gm1 * internal);
            st(rv_tau, tau / rho);
            for (int s = 0; s < n_passive; ++s) {
                st(rv_pass + s, ld(first_passive + s) / rho);
            }
            st(rv_l + 0, ld(f_lx) / rho);
            st(rv_l + 1, ld(f_ly) / rho);
            st(rv_l + 2, ld(f_lz) / rho);
        }
    }
}

/// minmod with the branches as masked selects. Forced inline: out of line,
/// the pack<8> instantiation passes its zmm arguments through the stack and
/// clobbers every vector register at each of the four calls per lane group.
template <class T>
[[gnu::always_inline]] inline T mm(const T& a, const T& b) {
    const T zero(0.0);
    return simd::select(a * b <= zero, zero,
                        simd::select(simd::abs(a) < simd::abs(b), a, b));
}

template <class T>
void reconstruct_body(const double* q, bool use_ppm, double* iface, double* flo,
                      double* fhi) {
    constexpr int W = lane_count<T>::value;
    if (!use_ppm) {
        for (int cidx = 0; cidx < C; ++cidx) {
            std::memcpy(flo + cidx * L, q + (cidx + 2) * L, sizeof(double) * L);
            std::memcpy(fhi + cidx * L, q + (cidx + 2) * L, sizeof(double) * L);
        }
        return;
    }
    const T zero(0.0), half(0.5), two(2.0), three(3.0), six(6.0);
    // Interface i (lower face of cell cidx = i) from cells i-2..i+1
    // relative to cell -1, i.e. pencil positions i..i+3.
    for (int i = 0; i <= C; ++i) {
        for (int t = 0; t < L; t += W) {
            const T q_m2 = load_v<T>(q + (i + 0) * L + t);
            const T q_m1 = load_v<T>(q + (i + 1) * L + t);
            const T q_0 = load_v<T>(q + (i + 2) * L + t);
            const T q_p1 = load_v<T>(q + (i + 3) * L + t);
            const T dc_l = half * (q_0 - q_m2);
            const T dl_l = two * (q_m1 - q_m2);
            const T dr_l = two * (q_0 - q_m1);
            const T dql =
                simd::select(dl_l * dr_l <= zero, zero, mm(dc_l, mm(dl_l, dr_l)));
            const T dc_r = half * (q_p1 - q_m1);
            const T dl_r = two * (q_0 - q_m1);
            const T dr_r = two * (q_p1 - q_0);
            const T dqr =
                simd::select(dl_r * dr_r <= zero, zero, mm(dc_r, mm(dl_r, dr_r)));
            const T f = q_m1 + half * (q_0 - q_m1) - (dqr - dql) / six;
            store_v(iface + i * L + t, f);
        }
    }
    // Monotonicity limiting (CW84 eq. 1.10). The extremum flatten and the
    // two overshoot corrections are mutually exclusive, so the branch
    // cascade maps onto nested selects exactly.
    for (int cidx = 0; cidx < C; ++cidx) {
        for (int t = 0; t < L; t += W) {
            const T lo0 = load_v<T>(iface + cidx * L + t);
            const T hi0 = load_v<T>(iface + (cidx + 1) * L + t);
            const T qc = load_v<T>(q + (cidx + 2) * L + t);
            const mask_t<T> ext = (hi0 - qc) * (qc - lo0) <= zero;
            const T d = hi0 - lo0;
            const T sx = six * (qc - half * (lo0 + hi0));
            const mask_t<T> c_lo = d * sx > d * d;
            const mask_t<T> c_hi = (zero - d * d) > d * sx;
            const T lo1 = simd::select(c_lo, three * qc - two * hi0, lo0);
            const T hi1 = simd::select(c_hi, three * qc - two * lo0, hi0);
            store_v(flo + cidx * L + t, simd::select(ext, qc, lo1));
            store_v(fhi + cidx * L + t, simd::select(ext, qc, hi1));
        }
    }
}

template <class T>
struct face_prim {
    T va; ///< velocity component along the sweep axis
    T c;  ///< sound speed
    T p;  ///< pressure
};

/// Assemble the conserved face state of one side from the reconstructed
/// variables and derive its primitives with the same dual-energy switch as
/// primitives_body, so every instantiation agrees with the others to
/// rounding.
template <class T>
face_prim<T> assemble_face(const double* rec, std::size_t off, int axis,
                           const ideal_gas_eos& eos, T* u) {
    const double gamma = eos.gamma();
    const T floor_p(rho_floor), zero(0.0), half(0.5);
    const auto ld = [&](int v) {
        return load_v<T>(rec + static_cast<std::size_t>(v) * C * L + off);
    };
    const T rho = simd::max(ld(rv_rho), floor_p);
    const T wx = ld(rv_vx + 0), wy = ld(rv_vx + 1), wz = ld(rv_vx + 2);
    const T pr = simd::max(ld(rv_p), zero);
    const T internal0 = pr / T(gamma - 1.0);
    u[f_rho] = rho;
    u[f_sx] = rho * wx;
    u[f_sy] = rho * wy;
    u[f_sz] = rho * wz;
    u[f_egas] = internal0 + half * rho * (wx * wx + wy * wy + wz * wz);
    u[f_tau] = simd::max(ld(rv_tau), zero) * rho;
    for (int s = 0; s < n_passive; ++s) {
        u[first_passive + s] = ld(rv_pass + s) * rho;
    }
    u[f_lx] = ld(rv_l + 0) * rho;
    u[f_ly] = ld(rv_l + 1) * rho;
    u[f_lz] = ld(rv_l + 2) * rho;

    // Primitives of the assembled state (dual-energy switch as a select).
    const T vx = u[f_sx] / rho, vy = u[f_sy] / rho, vz = u[f_sz] / rho;
    const T ke = half * rho * (vx * vx + vy * vy + vz * vz);
    const T from_total = u[f_egas] - ke;
    const mask_t<T> use_total =
        (from_total > T(eos.de_switch()) * u[f_egas]) && (from_total > zero);
    T ent = zero;
    if (!simd::all(use_total)) {
        ent = simd::pow(simd::max(u[f_tau], zero), gamma);
    }
    const T internal =
        simd::max(simd::select(use_total, from_total, ent), zero);
    face_prim<T> out;
    out.p = T(gamma - 1.0) * internal;
    out.c = simd::sqrt(T(gamma) * out.p / rho);
    out.va = axis == 0 ? vx : axis == 1 ? vy : vz;
    return out;
}

/// Kurganov–Tadmor flux over every face plane of the sweep. Writes every
/// face of the n_hydro_fields planes of `out`, which is what lets the leaf
/// flux storage skip zero-filling.
template <class T>
void flux_body(const double* flo, const double* fhi, int axis,
               const ideal_gas_eos& eos, leaf_flux_soa& out, double* max_speed) {
    constexpr int W = lane_count<T>::value;
    const T zero(0.0), one(1.0);
    T msp(0.0);
    T uL[n_hydro_fields], uR[n_hydro_fields];
    for (int p = 0; p < n_faces; ++p) {
        for (int t = 0; t < L; t += W) {
            // Left state: hi face of cell p-1 (cidx p); right: lo of cell p.
            const face_prim<T> pL =
                assemble_face<T>(fhi, static_cast<std::size_t>(p) * L + t,
                                 axis, eos, uL);
            const face_prim<T> pR =
                assemble_face<T>(flo, static_cast<std::size_t>(p + 1) * L + t,
                                 axis, eos, uR);
            const T ap =
                simd::max(simd::max(pL.va + pL.c, pR.va + pR.c), zero);
            const T am =
                simd::min(simd::min(pL.va - pL.c, pR.va - pR.c), zero);
            msp = simd::max(msp, simd::max(ap, zero - am));
            const T denom = ap - am;
            const mask_t<T> safe = denom > zero;
            const T inv =
                simd::select(safe, one / simd::select(safe, denom, one), zero);
            const T apam = ap * am;
            for (int q = 0; q < n_hydro_fields; ++q) {
                T fL = uL[q] * pL.va;
                T fR = uR[q] * pR.va;
                if (q == f_sx + axis) {
                    fL += pL.p;
                    fR += pR.p;
                } else if (q == f_egas) {
                    fL += pL.p * pL.va;
                    fR += pR.p * pR.va;
                }
                const T fq =
                    (ap * fL - am * fR) * inv + apam * inv * (uR[q] - uL[q]);
                double* plane = out.plane(axis, q);
                if (axis == 2) {
                    // Transverse-major plane: scatter the lanes.
                    for (int l = 0; l < W; ++l) {
                        plane[(t + l) * n_faces + p] = lane(fq, l);
                    }
                } else {
                    store_v(plane + p * L + t, fq);
                }
            }
        }
    }
    *max_speed = std::max(*max_speed, simd::hmax(msp));
}

template <class T>
double wave_speed_body(const amr::subgrid& g, const ideal_gas_eos& eos) {
    constexpr int W = lane_count<T>::value;
    const double gamma = eos.gamma();
    const T floor_p(rho_floor), zero(0.0), half(0.5);
    const T desw(eos.de_switch()), gm1(gamma - 1.0), gam(gamma);
    T ms(1e-30);
    for (int i = 0; i < INX; ++i)
        for (int j = 0; j < INX; ++j) {
            const int base = amr::subgrid::interior_index(i, j, 0);
            for (int kk = 0; kk < INX; kk += W) {
                const auto ld = [&](int q) {
                    return load_v<T>(g.field_data(q) + base + kk);
                };
                const T rho = simd::max(ld(f_rho), floor_p);
                const T vx = ld(f_sx) / rho;
                const T vy = ld(f_sy) / rho;
                const T vz = ld(f_sz) / rho;
                const T ke = half * rho * (vx * vx + vy * vy + vz * vz);
                const T E = ld(f_egas);
                const T from_total = E - ke;
                const mask_t<T> use_total =
                    (from_total > desw * E) && (from_total > zero);
                T ent = zero;
                if (!simd::all(use_total)) {
                    ent = simd::pow(simd::max(ld(f_tau), zero), gamma);
                }
                const T internal =
                    simd::max(simd::select(use_total, from_total, ent), zero);
                const T c = simd::sqrt(gam * (gm1 * internal) / rho);
                ms = simd::max(ms, simd::abs(vx) + c);
                ms = simd::max(ms, simd::abs(vy) + c);
                ms = simd::max(ms, simd::abs(vz) + c);
            }
        }
    return simd::hmax(ms);
}

/// Flux divergence + spin absorption over k-packs. The per-field subtraction
/// order is fixed (axis 0, 1, 2), identical in every instantiation; the
/// axis-2 flux plane is transverse-major, making its face loads contiguous.
template <class T>
void flux_divergence_body(amr::subgrid& g, const leaf_flux_soa& lf, double dt) {
    constexpr int W = lane_count<T>::value;
    const T lam(dt / g.geom.dx), h(0.5 * dt), zero(0.0);
    for (int i = 0; i < INX; ++i)
        for (int j = 0; j < INX; ++j) {
            const int row = amr::subgrid::interior_index(i, j, 0);
            const int lo0 = (i * INX + j) * INX;       // axis-0 faces at plane i
            const int hi0 = ((i + 1) * INX + j) * INX; // plane i+1
            const int lo1 = (j * INX + i) * INX;       // axis-1 faces at plane j
            const int hi1 = ((j + 1) * INX + i) * INX;
            const int t2 = (i * INX + j) * n_faces;    // axis-2 face row
            for (int kk = 0; kk < INX; kk += W) {
                T dlx = zero, dly = zero, dlz = zero;
                for (int q = 0; q < n_hydro_fields; ++q) {
                    const double* p0 = lf.plane(0, q);
                    const double* p1 = lf.plane(1, q);
                    const double* p2 = lf.plane(2, q);
                    T du = zero;
                    du -= lam * (load_v<T>(p0 + hi0 + kk) -
                                 load_v<T>(p0 + lo0 + kk));
                    du -= lam * (load_v<T>(p1 + hi1 + kk) -
                                 load_v<T>(p1 + lo1 + kk));
                    du -= lam * (load_v<T>(p2 + t2 + kk + 1) -
                                 load_v<T>(p2 + t2 + kk));
                    double* cell = g.field_data(q) + row + kk;
                    store_v(cell, load_v<T>(cell) + du);
                }
                // Spin ledger, same per-face sequence in every instantiation:
                // axis 0: e_x x F = (0, -Fz, Fy); axis 1: (Fz, 0, -Fx);
                // axis 2: (-Fy, Fx, 0); low face then high face.
                {
                    const double* psy = lf.plane(0, f_sy);
                    const double* psz = lf.plane(0, f_sz);
                    const T Fly = load_v<T>(psy + lo0 + kk);
                    const T Flz = load_v<T>(psz + lo0 + kk);
                    const T Fhy = load_v<T>(psy + hi0 + kk);
                    const T Fhz = load_v<T>(psz + hi0 + kk);
                    dly -= h * (zero - Flz);
                    dlz -= h * Fly;
                    dly -= h * (zero - Fhz);
                    dlz -= h * Fhy;
                }
                {
                    const double* psx = lf.plane(1, f_sx);
                    const double* psz = lf.plane(1, f_sz);
                    const T Flx = load_v<T>(psx + lo1 + kk);
                    const T Flz = load_v<T>(psz + lo1 + kk);
                    const T Fhx = load_v<T>(psx + hi1 + kk);
                    const T Fhz = load_v<T>(psz + hi1 + kk);
                    dlx -= h * Flz;
                    dlz -= h * (zero - Flx);
                    dlx -= h * Fhz;
                    dlz -= h * (zero - Fhx);
                }
                {
                    const double* psx = lf.plane(2, f_sx);
                    const double* psy = lf.plane(2, f_sy);
                    const T Flx = load_v<T>(psx + t2 + kk);
                    const T Fly = load_v<T>(psy + t2 + kk);
                    const T Fhx = load_v<T>(psx + t2 + kk + 1);
                    const T Fhy = load_v<T>(psy + t2 + kk + 1);
                    dlx -= h * (zero - Fly);
                    dly -= h * Flx;
                    dlx -= h * (zero - Fhy);
                    dly -= h * Fhx;
                }
                double* lx = g.field_data(f_lx) + row + kk;
                double* ly = g.field_data(f_ly) + row + kk;
                double* lz = g.field_data(f_lz) + row + kk;
                store_v(lx, load_v<T>(lx) + dlx);
                store_v(ly, load_v<T>(ly) + dly);
                store_v(lz, load_v<T>(lz) + dlz);
            }
        }
}

/// RK blend of the hydro fields; the radiation fields are not the hydro
/// step's to touch.
template <class T>
void blend_body(amr::subgrid& g, std::span<const double> u0) {
    constexpr int W = lane_count<T>::value;
    OCTO_ASSERT(u0.size() >= static_cast<std::size_t>(n_hydro_fields) * INX3);
    const T half(0.5);
    std::size_t idx = 0;
    for (int q = 0; q < n_hydro_fields; ++q)
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j) {
                double* cell =
                    g.field_data(q) + amr::subgrid::interior_index(i, j, 0);
                for (int kk = 0; kk < INX; kk += W, idx += W) {
                    const T u = load_v<T>(cell + kk);
                    store_v(cell + kk, half * (load_v<T>(u0.data() + idx) + u));
                }
            }
}

template <class T>
void dual_energy_body(amr::subgrid& g, const ideal_gas_eos& eos) {
    constexpr int W = lane_count<T>::value;
    const double gamma = eos.gamma();
    const T zero(0.0), half(0.5);
    const T rfloor(rho_floor), tfloor(tau_floor), desw(eos.de_switch());
    for (int i = 0; i < INX; ++i)
        for (int j = 0; j < INX; ++j) {
            const int row = amr::subgrid::interior_index(i, j, 0);
            for (int kk = 0; kk < INX; kk += W) {
                double* prho = g.field_data(f_rho) + row + kk;
                double* ptau = g.field_data(f_tau) + row + kk;
                double* pE = g.field_data(f_egas) + row + kk;
                const T rho = simd::max(load_v<T>(prho), rfloor);
                store_v(prho, rho);
                const T sx = load_v<T>(g.field_data(f_sx) + row + kk);
                const T sy = load_v<T>(g.field_data(f_sy) + row + kk);
                const T sz = load_v<T>(g.field_data(f_sz) + row + kk);
                const T ke = half * (sx * sx + sy * sy + sz * sz) / rho;
                const T E0 = load_v<T>(pE);
                const T tau0 = simd::max(load_v<T>(ptau), tfloor);
                const T from_total = E0 - ke;
                const mask_t<T> use_total =
                    (from_total > desw * E0) && (from_total > zero);
                // The two pow() branches only run when some lane takes them.
                T tau1 = tau0;
                if (simd::any(use_total)) {
                    tau1 = simd::pow(simd::max(from_total, zero), 1.0 / gamma);
                }
                T E1 = E0;
                if (!simd::all(use_total)) {
                    E1 = ke + simd::pow(simd::max(tau0, zero), gamma);
                }
                store_v(ptau, simd::select(use_total, tau1, tau0));
                store_v(pE, simd::select(use_total, E0, E1));
            }
        }
}

/// Transpose the leaf into the axis-ordered pencil bundle:
/// u[(q*P + p)*L + (b*INX + c)] with p the (ghost-inclusive) cell index
/// along `axis` and (b, c) the transverse interior cell in axis order. The
/// interior positions come from the leaf's own sub-grid, the ghost positions
/// straight from the donors through the leaf's plan. Pure data movement, the
/// same at every width.
void hydro_gather(const amr::node_ghost_plan& leaf, int axis, double* u) {
    static_assert(P == NX && L == INX * INX, "amr::gather_face_ghosts layout");
    const amr::subgrid& g = *leaf.g;
    for (int q = 0; q < n_hydro_fields; ++q) {
        const double* src = g.field_data(q);
        double* dst = u + static_cast<std::size_t>(q) * P * L;
        if (axis == 0) {
            for (int p = H_BW; p < H_BW + INX; ++p)
                for (int b = 0; b < INX; ++b) {
                    const double* row = src + (p * NX + (b + H_BW)) * NX + H_BW;
                    std::memcpy(dst + p * L + b * INX, row,
                                sizeof(double) * INX);
                }
        } else if (axis == 1) {
            for (int p = H_BW; p < H_BW + INX; ++p)
                for (int b = 0; b < INX; ++b) {
                    const double* row =
                        src + ((b + H_BW) * NX + p) * NX + H_BW;
                    std::memcpy(dst + p * L + b * INX, row,
                                sizeof(double) * INX);
                }
        } else {
            for (int b = 0; b < INX; ++b)
                for (int c = 0; c < INX; ++c) {
                    const double* col =
                        src + ((b + H_BW) * NX + (c + H_BW)) * NX;
                    const int t = b * INX + c;
                    for (int p = H_BW; p < H_BW + INX; ++p) dst[p * L + t] = col[p];
                }
        }
    }
    amr::gather_face_ghosts(leaf, axis, u);
}

} // namespace

void run_leaf_fluxes(bool vectorized, const amr::node_ghost_plan& leaf, int axis,
                     const ideal_gas_eos& eos, bool use_ppm,
                     pencil_workspace& ws, leaf_flux_soa& out,
                     double* max_speed) {
    ws.u.resize(static_cast<std::size_t>(n_hydro_fields) * P * L);
    ws.qv.resize(static_cast<std::size_t>(NV) * P * L);
    ws.iface.resize(static_cast<std::size_t>(C + 1) * L);
    ws.flo.resize(static_cast<std::size_t>(NV) * C * L);
    ws.fhi.resize(static_cast<std::size_t>(NV) * C * L);

    hydro_gather(leaf, axis, ws.u.data());
    dispatch(vectorized, [&](auto v) {
        using T = decltype(v);
        primitives_body<T>(ws.u.data(), eos, ws.qv.data());
        for (int r = 0; r < NV; ++r) {
            reconstruct_body<T>(
                ws.qv.data() + static_cast<std::size_t>(r) * P * L, use_ppm,
                ws.iface.data(), ws.flo.data() + static_cast<std::size_t>(r) * C * L,
                ws.fhi.data() + static_cast<std::size_t>(r) * C * L);
        }
        flux_body<T>(ws.flo.data(), ws.fhi.data(), axis, eos, out, max_speed);
    });
}

void run_reconstruct(bool vectorized, const double* q, bool use_ppm,
                     double* iface, double* flo, double* fhi) {
    dispatch(vectorized, [&](auto v) {
        reconstruct_body<decltype(v)>(q, use_ppm, iface, flo, fhi);
    });
}

double run_wave_speed(bool vectorized, const amr::subgrid& g,
                      const ideal_gas_eos& eos) {
    double ms = 0.0;
    dispatch(vectorized, [&](auto v) { ms = wave_speed_body<decltype(v)>(g, eos); });
    return ms;
}

void run_flux_divergence(bool vectorized, amr::subgrid& g,
                         const leaf_flux_soa& lf, double dt) {
    dispatch(vectorized,
             [&](auto v) { flux_divergence_body<decltype(v)>(g, lf, dt); });
}

void run_blend(bool vectorized, amr::subgrid& g, std::span<const double> u0) {
    dispatch(vectorized, [&](auto v) { blend_body<decltype(v)>(g, u0); });
}

void run_dual_energy(bool vectorized, amr::subgrid& g,
                     const ideal_gas_eos& eos) {
    dispatch(vectorized, [&](auto v) { dual_energy_body<decltype(v)>(g, eos); });
}

} // namespace octo::kernel

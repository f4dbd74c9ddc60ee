#include "kernel/fmm.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fmm/stencil.hpp"
#include "fmm/taylor.hpp"
#include "support/assert.hpp"
#include "support/vec3.hpp"

namespace octo::kernel {

using amr::INX;
using fmm::am_mode;
using fmm::cell_index;
using fmm::expansion;
using fmm::greens_d3;
using fmm::idx2;
using fmm::kernel_options;
using fmm::mult2;
using fmm::n_taylor;
using fmm::node_gravity;
using fmm::node_moments;
using fmm::partner_buffer;
using fmm::stencil_element;

namespace {

/// Per-lane inclusion factor (1.0 or 0.0) from a stencil element's
/// receiver-parity mask, for receiver parities (ix, iy) and a lane block
/// starting at interior k-index k0.
template <class T>
T parity_factor(std::uint8_t mask, int ix, int iy, int k0) {
    if constexpr (lane_count<T>::value == 1) {
        const int bit = (ix & 1) | ((iy & 1) << 1) | ((k0 & 1) << 2);
        return ((mask >> bit) & 1) != 0 ? 1.0 : 0.0;
    } else {
        T f;
        for (std::size_t l = 0; l < T::size(); ++l) {
            const int bit =
                (ix & 1) | ((iy & 1) << 1) | (((k0 + static_cast<int>(l)) & 1) << 2);
            f.set(l, ((mask >> bit) & 1) != 0 ? 1.0 : 0.0);
        }
        return f;
    }
}

template <class T>
bool any_lane_nonzero(const T& f) {
    if constexpr (lane_count<T>::value == 1) {
        return f != 0.0;
    } else {
        for (std::size_t l = 0; l < T::size(); ++l) {
            if (f[l] != 0.0) return true;
        }
        return false;
    }
}

/// Stencil elements preprocessed per receiver-parity class.
///
/// The kernels' inner loop historically paid, per (cell block, element):
/// building the parity factor lane by lane, the padded-index arithmetic, and
/// a full interaction even when the factor was zero in every lane. All three
/// only depend on the element and the receiver parity (i&1, j&1, k0&1) — so
/// they are hoisted here into per-parity lists of {flat offset, factor
/// vector}, and elements whose factor is zero in every lane are dropped from
/// the class entirely. Dropping them is bit-identical: a zero factor zeroes
/// the partner's m and q, making every accumulated term exactly +-0.0.
///
/// Two prepasses run first and are also exact: the inner-mask filter, and
/// the mass-bounds filter (elements whose shifted window [d, d+INX-1] misses
/// the buffer's nonzero-mass bounding box contribute +0.0 for every cell —
/// all terms scale with the partner's m and q, and r2 > 0 by construction).
///
/// Thread-local scratch: no allocation in steady state.
template <class T>
struct parity_lists {
    struct item {
        std::int32_t offset; ///< flat partner-buffer offset of the element
        T factor;            ///< per-lane parity inclusion factor
    };
    std::vector<item> lists[8]; ///< indexed by (i&1) | ((j&1)<<1) | ((k0&1)<<2)
};

template <class T>
const parity_lists<T>& active_parity_lists(const std::vector<stencil_element>& st,
                                           const partner_buffer& partners,
                                           bool use_inner_mask) {
    constexpr int W = lane_count<T>::value;
    constexpr int P = partner_buffer::P;
    thread_local parity_lists<T> pl;
    for (auto& l : pl.lists) l.clear();
    // Cell blocks start at k0 = 0, W, 2W, ...: with W even only k0&1 == 0
    // occurs; the scalar kernel visits both k parities.
    const int npk = (W % 2 == 0) ? 1 : 2;
    for (const auto& e : st) {
        if (use_inner_mask && e.inner) continue;
        const int d[3] = {e.dx, e.dy, e.dz};
        bool overlaps = true;
        for (int a = 0; a < 3; ++a) {
            if (d[a] + INX - 1 < partners.mlo[a] || d[a] > partners.mhi[a]) {
                overlaps = false;
                break;
            }
        }
        if (!overlaps) continue;
        const auto offset =
            static_cast<std::int32_t>((e.dx * P + e.dy) * P + e.dz);
        for (int pk = 0; pk < npk; ++pk)
            for (int pj = 0; pj < 2; ++pj)
                for (int pi = 0; pi < 2; ++pi) {
                    const T f = parity_factor<T>(e.parity_mask, pi, pj, pk);
                    if (!any_lane_nonzero(f)) continue;
                    pl.lists[pi | (pj << 1) | (pk << 2)].push_back({offset, f});
                }
    }
    return pl;
}

/// The symmetrized pair moment S_ab = mA QB_ab + mB QA_ab, formed at each
/// use rather than stored: a stored S array lets GCC's SLP vectorizer
/// regroup the width-1 instantiation's multiply-adds into different fused
/// contractions, which changes its rounding.
template <class T>
struct sym_moment {
    const T& mA;
    const T* qb;
    const T& mB;
    const T* qa;
    T operator[](int p) const { return mA * qb[p] + mB * qa[p]; }
};

template <class T>
void monopole_body(const node_moments& self, const partner_buffer& partners,
                   const kernel_options& opt, node_gravity& out) {
    constexpr int W = lane_count<T>::value;
    static_assert(INX % W == 0 || W == 1);
    OCTO_ASSERT_MSG(opt.stencil != nullptr,
                    "kernel layer requires an explicit stencil");
    const auto& pl = active_parity_lists<T>(*opt.stencil, partners, false);

    for (int i = 0; i < INX; ++i) {
        for (int j = 0; j < INX; ++j) {
            for (int k0 = 0; k0 < INX; k0 += W) {
                const int c = cell_index(i, j, k0);
                const int base = partner_buffer::index(i, j, k0);
                const auto& st =
                    pl.lists[(i & 1) | ((j & 1) << 1) | ((k0 & 1) << 2)];
                const T ax = load_v<T>(&self.com[0][c]);
                const T ay = load_v<T>(&self.com[1][c]);
                const T az = load_v<T>(&self.com[2][c]);

                T phi(0.0), l1x(0.0), l1y(0.0), l1z(0.0);

                for (const auto& e : st) {
                    const int p = base + e.offset;
                    const T mB = load_v<T>(&partners.m[p]) * e.factor;
                    const T dx = ax - load_v<T>(&partners.x[p]);
                    const T dy = ay - load_v<T>(&partners.y[p]);
                    const T dz = az - load_v<T>(&partners.z[p]);
                    const T r2 = dx * dx + dy * dy + dz * dz;
                    const T rinv = simd::rsqrt(r2);
                    const T mrinv = mB * rinv;
                    const T mrinv3 = mrinv * rinv * rinv;
                    // phi = -m/r ; dphi/dx_i = +m x_i / r^3 (g = -L1 later)
                    phi = phi - mrinv;
                    l1x = l1x + dx * mrinv3;
                    l1y = l1y + dy * mrinv3;
                    l1z = l1z + dz * mrinv3;
                }
                store_add(&out.L[0][c], phi);
                store_add(&out.L[1][c], l1x);
                store_add(&out.L[2][c], l1y);
                store_add(&out.L[3][c], l1z);
            }
        }
    }
}

template <class T>
void multipole_body(const node_moments& self, const aligned_vector<double>& self_invm,
                    const partner_buffer& partners, const kernel_options& opt,
                    node_gravity& out) {
    constexpr int W = lane_count<T>::value;
    static_assert(INX % W == 0 || W == 1);
    OCTO_ASSERT_MSG(opt.stencil != nullptr,
                    "kernel layer requires an explicit stencil");
    const auto& pl = active_parity_lists<T>(*opt.stencil, partners, opt.use_inner_mask);

    for (int i = 0; i < INX; ++i) {
        for (int j = 0; j < INX; ++j) {
            for (int k0 = 0; k0 < INX; k0 += W) {
                const int c = cell_index(i, j, k0);
                const int base = partner_buffer::index(i, j, k0);
                const auto& st =
                    pl.lists[(i & 1) | ((j & 1) << 1) | ((k0 & 1) << 2)];
                const T ax = load_v<T>(&self.com[0][c]);
                const T ay = load_v<T>(&self.com[1][c]);
                const T az = load_v<T>(&self.com[2][c]);
                const T mA = load_v<T>(&self.m[c]);
                const T invmA = load_v<T>(&self_invm[c]);
                T qa[6];
                for (int t = 0; t < 6; ++t) qa[t] = load_v<T>(&self.q[t][c]);

                expansion<T> acc;
                for (auto& a : acc) a = T(0.0);
                T tq_acc[3] = {T(0.0), T(0.0), T(0.0)};

                for (const auto& e : st) {
                    const int p = base + e.offset;
                    const T& f = e.factor;
                    const T mB = load_v<T>(&partners.m[p]) * f;
                    T qb[6];
                    for (int t = 0; t < 6; ++t) qb[t] = load_v<T>(&partners.q[t][p]) * f;

                    T x[3];
                    x[0] = ax - load_v<T>(&partners.x[p]);
                    x[1] = ay - load_v<T>(&partners.y[p]);
                    x[2] = az - load_v<T>(&partners.z[p]);
                    const T r2 = x[0] * x[0] + x[1] * x[1] + x[2] * x[2];

                    expansion<T> D;
                    greens_d3(x, r2, D);

                    // Potential: phi = -(mB D0 + 1/2 QB : D2).
                    T qd2(0.0);
                    {
                        int t = 0;
                        for (int a = 0; a < 3; ++a)
                            for (int b = a; b < 3; ++b, ++t) {
                                qd2 = qd2 + T(mult2(a, b)) * qb[t] * D[idx2(a, b)];
                            }
                    }
                    acc[0] = acc[0] - (mB * D[0] + T(0.5) * qd2);

                    // Second-moment force terms.
                    //
                    // Plain / spin-deposit modes use the standard
                    // source-quadrupole gradient t_i = QB_jk D3_ijk,
                    // acceleration term -(1/2) t_i (most accurate; the
                    // receiver's own quadrupole force arises from the L2L
                    // redistribution, making the net pair force symmetric).
                    //
                    // Central-projection mode builds the exactly
                    // antisymmetric pair force from the symmetrized moment
                    // S = mA QB + mB QA and projects it onto the line of
                    // centers, so the pair torque vanishes identically.
                    //
                    // Spin-deposit mode additionally computes the pair's
                    // NET torque x cross F_net (with F_net from the
                    // symmetrized S) and deposits half of its negation at
                    // the receiver — both sides of the pair together cancel
                    // the mechanical torque in the spin ledger.
                    const bool central = opt.conserve == am_mode::central_projection;
                    const bool deposit = opt.conserve == am_mode::spin_deposit;

                    const sym_moment<T> s_sym{mA, qb, mB, qa};
                    T tvec[3] = {T(0.0), T(0.0), T(0.0)};
                    T tsym[3] = {T(0.0), T(0.0), T(0.0)};
                    if (central) {
                        fmm::contract_d3_pairs(D, s_sym, tvec);
                    } else {
                        fmm::contract_d3_pairs(D, qb, tvec);
                    }
                    if (deposit) fmm::contract_d3_pairs(D, s_sym, tsym);
                    T half_scale = T(0.5);
                    if (central) {
                        // Project onto the line of centers: the pair torque
                        // (xA - xB) x F vanishes identically.
                        const T xt = x[0] * tvec[0] + x[1] * tvec[1] + x[2] * tvec[2];
                        const T scale = xt / r2;
                        for (int a = 0; a < 3; ++a) tvec[a] = x[a] * scale;
                        half_scale = T(0.5) * invmA;
                    }
                    if (deposit) {
                        // F_net = +(1/2) tsym, pair torque = x cross F_net;
                        // each side owns half of the cancellation:
                        // deposit = -1/4 (x cross tsym).
                        const T q = T(-0.25);
                        tq_acc[0] = tq_acc[0] + q * (x[1] * tsym[2] - x[2] * tsym[1]);
                        tq_acc[1] = tq_acc[1] + q * (x[2] * tsym[0] - x[0] * tsym[2]);
                        tq_acc[2] = tq_acc[2] + q * (x[0] * tsym[1] - x[1] * tsym[0]);
                    }

                    // dphi/dx_i = -mB D1_i - (1/2) [invmA] t_i.
                    for (int a = 0; a < 3; ++a) {
                        acc[1 + a] = acc[1 + a] - mB * D[1 + a] - half_scale * tvec[a];
                    }
                    // Higher coefficients: monopole source only.
                    for (int t = 4; t < n_taylor; ++t) {
                        acc[t] = acc[t] - mB * D[t];
                    }
                }

                for (int t = 0; t < n_taylor; ++t) store_add(&out.L[t][c], acc[t]);
                for (int a = 0; a < 3; ++a) store_add(&out.tq[a][c], tq_acc[a]);
            }
        }
    }
}

/// Solve the 3x3 system K w = b (K symmetric) with light Tikhonov
/// regularization for near-singular K (collinear mass distributions).
dvec3 solve3x3_sym(double K[3][3], const dvec3& b) {
    const double tr = K[0][0] + K[1][1] + K[2][2];
    if (tr <= 0.0) return {0, 0, 0};
    const double eps = 1e-12 * tr;
    double A[3][4] = {{K[0][0] + eps, K[0][1], K[0][2], b.x},
                      {K[1][0], K[1][1] + eps, K[1][2], b.y},
                      {K[2][0], K[2][1], K[2][2] + eps, b.z}};
    // Gaussian elimination with partial pivoting.
    for (int col = 0; col < 3; ++col) {
        int piv = col;
        for (int r = col + 1; r < 3; ++r) {
            if (std::abs(A[r][col]) > std::abs(A[piv][col])) piv = r;
        }
        if (std::abs(A[piv][col]) < 1e-300) return {0, 0, 0};
        if (piv != col) {
            for (int cc = 0; cc < 4; ++cc) std::swap(A[piv][cc], A[col][cc]);
        }
        for (int r = 0; r < 3; ++r) {
            if (r == col) continue;
            const double f = A[r][col] / A[col][col];
            for (int cc = col; cc < 4; ++cc) A[r][cc] -= f * A[col][cc];
        }
    }
    return {A[0][3] / A[0][0], A[1][3] / A[1][1], A[2][3] / A[2][2]};
}

} // namespace

/// M2M: per child octant, reduce each 2x2x2 block of child cells into the
/// parent cell (mass, mass-weighted COM, parallel-axis second moments).
void fmm_m2m(const node_moments* const children[8], const amr::box_geometry& geom,
             node_moments& mom, aligned_vector<double>& invm) {
    for (int c = 0; c < 8; ++c) {
        const auto& cm = *children[c];
        const int ox = ((c >> 0) & 1) * (INX / 2);
        const int oy = ((c >> 1) & 1) * (INX / 2);
        const int oz = ((c >> 2) & 1) * (INX / 2);

        for (int pi = 0; pi < INX / 2; ++pi)
            for (int pj = 0; pj < INX / 2; ++pj)
                for (int pk = 0; pk < INX / 2; ++pk) {
                    const int pc = cell_index(ox + pi, oy + pj, oz + pk);
                    double m = 0.0;
                    dvec3 com{0, 0, 0};
                    for (int ci = 0; ci < 2; ++ci)
                        for (int cj = 0; cj < 2; ++cj)
                            for (int ck2 = 0; ck2 < 2; ++ck2) {
                                const int cc = cell_index(2 * pi + ci, 2 * pj + cj,
                                                          2 * pk + ck2);
                                m += cm.m[cc];
                                com += cm.m[cc] * dvec3{cm.com[0][cc], cm.com[1][cc],
                                                        cm.com[2][cc]};
                            }
                    if (m > 0.0) {
                        com /= m;
                    } else {
                        com = geom.cell_center(ox + pi, oy + pj, oz + pk);
                    }
                    double q[6] = {0, 0, 0, 0, 0, 0};
                    for (int ci = 0; ci < 2; ++ci)
                        for (int cj = 0; cj < 2; ++cj)
                            for (int ck2 = 0; ck2 < 2; ++ck2) {
                                const int cc = cell_index(2 * pi + ci, 2 * pj + cj,
                                                          2 * pk + ck2);
                                const dvec3 d = dvec3{cm.com[0][cc], cm.com[1][cc],
                                                      cm.com[2][cc]} -
                                                com;
                                int s = 0;
                                for (int a = 0; a < 3; ++a)
                                    for (int b = a; b < 3; ++b, ++s) {
                                        q[s] += cm.q[s][cc] + cm.m[cc] * d[a] * d[b];
                                    }
                            }
                    mom.m[pc] = m;
                    mom.com[0][pc] = com.x;
                    mom.com[1][pc] = com.y;
                    mom.com[2][pc] = com.z;
                    for (int s = 0; s < 6; ++s) mom.q[s][pc] = q[s];
                    invm[pc] = m > 0.0 ? 1.0 / m : 0.0;
                }
    }
}

/// L2L: per PARENT cell, translate the expansion to its 8 child cells, with
/// the angular-momentum conservation modes of fmm::am_mode.
void fmm_l2l(const node_gravity& parentL, const node_moments& pm,
             const node_moments* const childM[8], node_gravity* const childLw[8],
             am_mode conserve) {
    using fmm::evaluate;
    using fmm::evaluate_gradient;
    for (int pi = 0; pi < INX; ++pi)
        for (int pj = 0; pj < INX; ++pj)
            for (int pk = 0; pk < INX; ++pk) {
                const int pc = cell_index(pi, pj, pk);
                expansion<double> src;
                for (int s = 0; s < n_taylor; ++s) src[s] = parentL.L[s][pc];

                // Locate the owning child node and the 2x2x2 child cells.
                const int oc = (pi / (INX / 2)) | ((pj / (INX / 2)) << 1) |
                               ((pk / (INX / 2)) << 2);
                const int bi = (pi % (INX / 2)) * 2;
                const int bj = (pj % (INX / 2)) * 2;
                const int bk = (pk % (INX / 2)) * 2;

                struct child_ref {
                    int cell;
                    double m;
                    dvec3 delta;
                    dvec3 da; // acceleration redistribution (from -L1 shift)
                    double dphi;
                    double dL2[6];
                };
                child_ref ch[8];
                int nch = 0;
                for (int ci = 0; ci < 2; ++ci)
                    for (int cj = 0; cj < 2; ++cj)
                        for (int ck2 = 0; ck2 < 2; ++ck2) {
                            auto& r = ch[nch++];
                            r.cell = cell_index(bi + ci, bj + cj, bk + ck2);
                            const auto& cm = *childM[oc];
                            r.m = cm.m[r.cell];
                            r.delta = {cm.com[0][r.cell] - pm.com[0][pc],
                                       cm.com[1][r.cell] - pm.com[1][pc],
                                       cm.com[2][r.cell] - pm.com[2][pc]};
                            const double d[3] = {r.delta.x, r.delta.y, r.delta.z};
                            // Potential shift (no conservation constraint).
                            r.dphi = evaluate(src, d) - src[0];
                            // Gradient shift = redistribution of the force.
                            double grad[3];
                            evaluate_gradient(src, d, grad);
                            r.da = {-(grad[0] - src[1]), -(grad[1] - src[2]),
                                    -(grad[2] - src[3])};
                            // L2 shift (feeds the next L2L level).
                            for (double& v : r.dL2) v = 0.0;
                            fmm::contract_d3_offset(src, d, r.dL2);
                        }

                if (conserve == am_mode::central_projection) {
                    // (i) Remove the net force the redistribution would
                    // inject (it is already carried by the pair forces).
                    double mtot = 0;
                    dvec3 fsum{0, 0, 0};
                    for (int c = 0; c < 8; ++c) {
                        mtot += ch[c].m;
                        fsum += ch[c].m * ch[c].da;
                    }
                    if (mtot > 0.0) {
                        const dvec3 mean = fsum / mtot;
                        for (int c = 0; c < 8; ++c) ch[c].da -= mean;

                        // (ii) Absorb the internal torque into a rigid
                        // rotation field w x delta (the same trick the
                        // hydro reconstruction uses for spin):
                        // solve (tr(Q) I - Q) w = -T.
                        dvec3 T{0, 0, 0};
                        double Q[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
                        for (int c = 0; c < 8; ++c) {
                            T += ch[c].m * cross(ch[c].delta, ch[c].da);
                            for (int a = 0; a < 3; ++a)
                                for (int b = 0; b < 3; ++b) {
                                    Q[a][b] += ch[c].m * ch[c].delta[a] *
                                               ch[c].delta[b];
                                }
                        }
                        double K[3][3];
                        const double trQ = Q[0][0] + Q[1][1] + Q[2][2];
                        for (int a = 0; a < 3; ++a)
                            for (int b = 0; b < 3; ++b) {
                                K[a][b] = (a == b ? trQ : 0.0) - Q[a][b];
                            }
                        const dvec3 w = solve3x3_sym(K, -T);
                        for (int c = 0; c < 8; ++c) {
                            ch[c].da += cross(w, ch[c].delta);
                        }
                    }
                }

                // Spin-torque ledger: pass the parent cell's deposits down
                // (mass-weighted) and, in spin_deposit mode, also deposit the
                // negation of the internal torque this redistribution adds.
                dvec3 ledger{parentL.tq[0][pc], parentL.tq[1][pc],
                             parentL.tq[2][pc]};
                double mtot = 0;
                for (int c = 0; c < 8; ++c) mtot += ch[c].m;
                if (conserve == am_mode::spin_deposit) {
                    dvec3 T_int{0, 0, 0};
                    for (int c = 0; c < 8; ++c) {
                        T_int += ch[c].m * cross(ch[c].delta, ch[c].da);
                    }
                    // Deeper L2L levels will emit additional net forces from
                    // redistributing this L3 against each child's INTERNAL
                    // quadrupole q_c (the telescoped sum of its sub-tree's
                    // point moments), applied at the child's COM rather than
                    // here: account for the displaced torque now, so the
                    // ledger closes across arbitrarily deep trees.
                    dvec3 T_deep{0, 0, 0};
                    const auto& cm = *childM[oc];
                    for (int c = 0; c < 8; ++c) {
                        const int cc = ch[c].cell;
                        double qc[6];
                        for (int s2 = 0; s2 < 6; ++s2) qc[s2] = cm.q[s2][cc];
                        double tv[3] = {0.0, 0.0, 0.0};
                        fmm::contract_d3_pairs(src, qc, tv);
                        const dvec3 F_deep = -0.5 * dvec3{tv[0], tv[1], tv[2]};
                        T_deep += cross(ch[c].delta, F_deep);
                    }
                    ledger -= T_int + T_deep;
                }

                // Accumulate into the children.
                for (int c = 0; c < 8; ++c) {
                    auto& out = *childLw[oc];
                    const int cc = ch[c].cell;
                    out.L[0][cc] += src[0] + ch[c].dphi;
                    out.L[1][cc] += src[1] - ch[c].da.x;
                    out.L[2][cc] += src[2] - ch[c].da.y;
                    out.L[3][cc] += src[3] - ch[c].da.z;
                    for (int s2 = 0; s2 < 6; ++s2) {
                        out.L[4 + s2][cc] += src[4 + s2] + ch[c].dL2[s2];
                    }
                    for (int s = 10; s < n_taylor; ++s) out.L[s][cc] += src[s];
                    const double share = mtot > 0.0 ? ch[c].m / mtot : 0.125;
                    out.tq[0][cc] += share * ledger.x;
                    out.tq[1][cc] += share * ledger.y;
                    out.tq[2][cc] += share * ledger.z;
                }
            }
}

void run_fmm_monopole(bool vectorized, const node_moments& self,
                      const partner_buffer& partners, const kernel_options& opt,
                      node_gravity& out) {
    dispatch(vectorized, [&](auto v) {
        monopole_body<decltype(v)>(self, partners, opt, out);
    });
}

void run_fmm_multipole(bool vectorized, const node_moments& self,
                       const aligned_vector<double>& self_invm,
                       const partner_buffer& partners, const kernel_options& opt,
                       node_gravity& out) {
    dispatch(vectorized, [&](auto v) {
        multipole_body<decltype(v)>(self, self_invm, partners, opt, out);
    });
}

} // namespace octo::kernel

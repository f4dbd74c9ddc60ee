// Tests for the FMM gravity solver: the 1074-element stencil derivation,
// Taylor algebra against finite differences, exactness of the single-level
// solve versus direct summation, multi-level accuracy, and the
// machine-precision momentum/angular-momentum conservation claims.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "amr/tree.hpp"
#include "fmm/direct.hpp"
#include "fmm/kernels.hpp"
#include "fmm/legacy_ilist.hpp"
#include "fmm/solver.hpp"
#include "fmm/stencil.hpp"
#include "fmm/taylor.hpp"
#include "kernel/fmm.hpp"
#include "runtime/thread_pool.hpp"
#include "simd/pack.hpp"
#include "support/buffer_recycler.hpp"
#include "support/rng.hpp"

namespace {

using namespace octo;
using namespace octo::fmm;
using amr::box_geometry;
using amr::INX;
using amr::node_key;
using amr::root_key;
using amr::tree;

// ---- stencil ----------------------------------------------------------------

TEST(Stencil, HasExactly1074Elements) {
    // Paper §4.3: "each cell interacts with 1074 of its close neighbors".
    EXPECT_EQ(interaction_stencil().size(), 1074u);
}

TEST(Stencil, IsSymmetric) {
    std::set<std::tuple<int, int, int>> s;
    for (const auto& e : interaction_stencil()) s.insert({e.dx, e.dy, e.dz});
    for (const auto& [x, y, z] : s) {
        EXPECT_TRUE(s.count({-x, -y, -z})) << x << "," << y << "," << z;
    }
}

TEST(Stencil, ReachIsFive) { EXPECT_EQ(stencil_reach(), 5); }

TEST(Stencil, InnerMaskMatchesBallOfEight) {
    // |d|^2 <= 8 has 92 nonzero lattice points.
    EXPECT_EQ(inner_stencil_size(), 92);
    for (const auto& e : interaction_stencil()) {
        const int d2 = e.dx * e.dx + e.dy * e.dy + e.dz * e.dz;
        EXPECT_EQ(e.inner, d2 <= 8);
    }
}

TEST(Stencil, InteractionsPerLaunchMatchesPaper) {
    // 512 cells x 1074 = 549'888 interactions per kernel launch (paper §4.3).
    EXPECT_EQ(interactions_per_launch(false), 549888u);
    EXPECT_EQ(interactions_per_launch(true), 549888u - 512u * 92u);
}

TEST(Stencil, RootStencilCoversFullSubgrid) {
    EXPECT_EQ(root_stencil().size(), 15u * 15u * 15u - 1u);
    // Root stencil is a superset of the regular one.
    std::set<std::tuple<int, int, int>> root;
    for (const auto& e : root_stencil()) root.insert({e.dx, e.dy, e.dz});
    for (const auto& e : interaction_stencil()) {
        EXPECT_TRUE(root.count({e.dx, e.dy, e.dz}));
    }
}

TEST(Stencil, ExactlyOnceCoverageAcrossLevels) {
    // For any pair of level-L cells, the two-level criterion must select the
    // pair at exactly one level (when all nodes are refined). We verify by
    // walking offset chains: a level-l offset d has parent offset computed
    // from the actual cell coordinates.
    // Use cells a (fixed) and b ranging over a 16^3 box at level 4 of a
    // uniform tree; count at how many levels the pair is selected.
    const int L = 4;
    const ivec3 a{5, 6, 7}; // arbitrary fine-cell coordinates
    std::set<std::tuple<int, int, int>> stencil_set;
    for (const auto& e : interaction_stencil()) {
        stencil_set.insert({e.dx, e.dy, e.dz});
    }
    (void)stencil_set;
    auto inner = [](const ivec3& d) {
        return d.x * d.x + d.y * d.y + d.z * d.z <= 8;
    };
    for (int bx = 0; bx < 16; ++bx)
        for (int by = 0; by < 16; ++by)
            for (int bz = 0; bz < 16; ++bz) {
                const ivec3 b{bx, by, bz};
                if (b == a) continue;
                int selected = 0;
                ivec3 ca = a, cb = b;
                for (int level = L; level >= 0; --level) {
                    const ivec3 d{cb.x - ca.x, cb.y - ca.y, cb.z - ca.z};
                    const ivec3 pa{ca.x / 2, ca.y / 2, ca.z / 2};
                    const ivec3 pb{cb.x / 2, cb.y / 2, cb.z / 2};
                    const ivec3 p{pb.x - pa.x, pb.y - pa.y, pb.z - pa.z};
                    const bool is_root = (level == 0);
                    bool sel;
                    if (is_root) {
                        // Root: full stencil minus the inner (deferred) ball.
                        sel = !inner(d);
                    } else {
                        // Computed here iff the ACTUAL parents are not well
                        // separated and the pair is not deferred to children.
                        sel = inner(p) && !inner(d);
                        // Consistency: selection must be what the stencil's
                        // parity mask encodes.
                        bool mask_sel = false;
                        for (const auto& e : interaction_stencil()) {
                            if (e.dx == d.x && e.dy == d.y && e.dz == d.z) {
                                const int bit = (ca.x & 1) | ((ca.y & 1) << 1) |
                                                ((ca.z & 1) << 2);
                                mask_sel = ((e.parity_mask >> bit) & 1) != 0 &&
                                           !e.inner;
                            }
                        }
                        EXPECT_EQ(sel, mask_sel)
                            << "d=(" << d.x << "," << d.y << "," << d.z << ")";
                    }
                    if (sel) ++selected;
                    ca = pa;
                    cb = pb;
                }
                // At the leaf level (L) the inner ball IS computed (leaves
                // cannot defer), so add it back:
                const ivec3 d0{b.x - a.x, b.y - a.y, b.z - a.z};
                if (inner(d0)) ++selected;
                EXPECT_EQ(selected, 1)
                    << "pair (" << b.x << "," << b.y << "," << b.z << ")";
            }
}

// ---- Taylor algebra ---------------------------------------------------------

TEST(Taylor, GreensMatchesFiniteDifferences) {
    const double x0[3] = {1.3, -0.7, 2.1};
    const double r2 = x0[0] * x0[0] + x0[1] * x0[1] + x0[2] * x0[2];
    expansion<double> D;
    greens_d3(x0, r2, D);

    auto f = [](const double x[3]) {
        return 1.0 / std::sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2]);
    };
    EXPECT_NEAR(D[0], f(x0), 1e-14);

    const double h = 1e-5;
    for (int i = 0; i < 3; ++i) {
        double xp[3] = {x0[0], x0[1], x0[2]};
        double xm[3] = {x0[0], x0[1], x0[2]};
        xp[i] += h;
        xm[i] -= h;
        EXPECT_NEAR(D[1 + i], (f(xp) - f(xm)) / (2 * h), 1e-8) << i;
    }
    for (int i = 0; i < 3; ++i)
        for (int j = i; j < 3; ++j) {
            double xpp[3] = {x0[0], x0[1], x0[2]};
            double xpm[3] = {x0[0], x0[1], x0[2]};
            double xmp[3] = {x0[0], x0[1], x0[2]};
            double xmm[3] = {x0[0], x0[1], x0[2]};
            xpp[i] += h; xpp[j] += h;
            xpm[i] += h; xpm[j] -= h;
            xmp[i] -= h; xmp[j] += h;
            xmm[i] -= h; xmm[j] -= h;
            const double fd = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4 * h * h);
            EXPECT_NEAR(D[idx2(i, j)], fd, 1e-5) << i << j;
        }
    // Third derivatives: D3_ijk = d/dx_k D2_ij, by central differences of
    // the (already checked) second-derivative block, for every pair i <= j
    // and direction k — each of the 10 stored entries is reached along each
    // of its distinct derivative directions.
    for (int k = 0; k < 3; ++k) {
        double xp[3] = {x0[0], x0[1], x0[2]};
        double xm[3] = {x0[0], x0[1], x0[2]};
        xp[k] += h;
        xm[k] -= h;
        expansion<double> Dp, Dm;
        greens_d3(xp, xp[0] * xp[0] + xp[1] * xp[1] + xp[2] * xp[2], Dp);
        greens_d3(xm, xm[0] * xm[0] + xm[1] * xm[1] + xm[2] * xm[2], Dm);
        for (int i = 0; i < 3; ++i)
            for (int j = i; j < 3; ++j) {
                const double fd = (Dp[idx2(i, j)] - Dm[idx2(i, j)]) / (2 * h);
                EXPECT_NEAR(D[idx3(i, j, k)], fd, 1e-8) << i << j << k;
            }
    }
}

TEST(Taylor, ThirdDerivativesAreTraceless) {
    // Laplacian of 1/r is zero: trace over any two indices of D3 vanishes.
    const double x0[3] = {0.9, 1.4, -0.6};
    const double r2 = x0[0] * x0[0] + x0[1] * x0[1] + x0[2] * x0[2];
    expansion<double> D;
    greens_d3(x0, r2, D);
    for (int k = 0; k < 3; ++k) {
        double tr = 0.0;
        for (int i = 0; i < 3; ++i) {
            int a = std::min(i, std::min(i, k));
            int arr[3] = {i, i, k};
            std::sort(arr, arr + 3);
            a = idx3(arr[0], arr[1], arr[2]);
            tr += D[a];
        }
        EXPECT_NEAR(tr, 0.0, 1e-12) << k;
    }
    // Second derivatives too.
    EXPECT_NEAR(D[idx2(0, 0)] + D[idx2(1, 1)] + D[idx2(2, 2)], 0.0, 1e-12);
}

TEST(Taylor, EvaluateMatchesPolynomial) {
    // Build an expansion with known coefficients and evaluate directly.
    expansion<double> L;
    L.fill(0.0);
    L[0] = 2.0;         // constant
    L[1] = 1.0;         // d/dx
    L[idx2(0, 1)] = 3.0; // d2/dxdy
    const double d[3] = {0.2, -0.1, 0.4};
    // phi = 2 + 1*dx + 0.5*mult*3*dx*dy with mult2(0,1)=2 -> 3*dx*dy
    EXPECT_NEAR(evaluate(L, d), 2.0 + 0.2 + 3.0 * 0.2 * (-0.1), 1e-14);
    double grad[3];
    evaluate_gradient(L, d, grad);
    EXPECT_NEAR(grad[0], 1.0 + 3.0 * (-0.1), 1e-14);
    EXPECT_NEAR(grad[1], 3.0 * 0.2, 1e-14);
    EXPECT_NEAR(grad[2], 0.0, 1e-14);
}

TEST(Taylor, ShiftComposesExactly) {
    // Shifting an order-3 expansion is exact: evaluate(shift(L,a), b) ==
    // evaluate(L, a+b) as a polynomial identity.
    xoshiro256 rng(5);
    expansion<double> L;
    for (auto& c : L) c = rng.uniform(-1, 1);
    const double a[3] = {0.3, -0.2, 0.1};
    const double b[3] = {-0.15, 0.25, 0.05};
    const double ab[3] = {a[0] + b[0], a[1] + b[1], a[2] + b[2]};

    expansion<double> shifted;
    shifted.fill(0.0);
    shift_expansion(L, a, shifted);
    EXPECT_NEAR(evaluate(shifted, b), evaluate(L, ab), 1e-12);

    double g1[3], g2[3];
    evaluate_gradient(shifted, b, g1);
    evaluate_gradient(L, ab, g2);
    for (int i = 0; i < 3; ++i) EXPECT_NEAR(g1[i], g2[i], 1e-12);
}

TEST(Taylor, GradientIsDerivativeOfEvaluate) {
    xoshiro256 rng(17);
    expansion<double> L;
    for (auto& c : L) c = rng.uniform(-1, 1);
    const double d[3] = {0.12, 0.34, -0.21};
    double grad[3];
    evaluate_gradient(L, d, grad);
    const double h = 1e-6;
    for (int i = 0; i < 3; ++i) {
        double dp[3] = {d[0], d[1], d[2]};
        double dm[3] = {d[0], d[1], d[2]};
        dp[i] += h;
        dm[i] -= h;
        EXPECT_NEAR(grad[i], (evaluate(L, dp) - evaluate(L, dm)) / (2 * h), 1e-7);
    }
}

// The straight-line rank-3 contractions must equal the runtime-sorted loops
// they replaced bit for bit, at every value type the kernels instantiate.
// The references below are those loops, kept verbatim in form.

template <class T>
void loop_contract_d3_pairs(const expansion<T>& D, const T s[6], T t[3]) {
    int p = 0;
    for (int a = 0; a < 3; ++a)
        for (int b = a; b < 3; ++b, ++p)
            for (int d = 0; d < 3; ++d) {
                int u = d, v = a, w = b; // sort (u,v,w)
                if (u > v) std::swap(u, v);
                if (v > w) std::swap(v, w);
                if (u > v) std::swap(u, v);
                t[d] = t[d] + T(mult2(a, b)) * s[p] * D[idx3(u, v, w)];
            }
}

template <class T>
void loop_contract_d3_offset(const expansion<T>& L, const T delta[3], T v[6]) {
    int p = 0;
    for (int a = 0; a < 3; ++a)
        for (int b = a; b < 3; ++b, ++p)
            for (int e = 0; e < 3; ++e) {
                int u = a, v2 = b, w = e;
                if (u > v2) std::swap(u, v2);
                if (v2 > w) std::swap(v2, w);
                if (u > v2) std::swap(u, v2);
                v[p] = v[p] + L[idx3(u, v2, w)] * delta[e];
            }
}

template <class T>
void loop_evaluate_gradient(const expansion<T>& L, const T delta[3], T out[3]) {
    for (int i = 0; i < 3; ++i) {
        T g = L[1 + i];
        for (int j = 0; j < 3; ++j) {
            g = g + L[idx2(std::min(i, j), std::max(i, j))] * delta[j];
        }
        for (int j = 0; j < 3; ++j)
            for (int k = j; k < 3; ++k) {
                int a = i, b = j, c = k;
                if (a > b) std::swap(a, b);
                if (b > c) std::swap(b, c);
                if (a > b) std::swap(a, b);
                g = g + T(0.5 * mult2(j, k)) * L[idx3(a, b, c)] * delta[j] * delta[k];
            }
        out[i] = g;
    }
}

template <class T>
constexpr int lanes = kernel::lane_count<T>::value;

template <class T>
double lane(const T& v, int l) {
    if constexpr (lanes<T> == 1) {
        (void)l;
        return v;
    } else {
        return v[l];
    }
}

/// A value whose lanes are drawn by `draw(lane)`.
template <class T, class F>
T lanes_of(F&& draw) {
    if constexpr (lanes<T> == 1) {
        return draw(0);
    } else {
        T v;
        for (int l = 0; l < lanes<T>; ++l) v.set(l, draw(l));
        return v;
    }
}

template <class T>
void expect_same_bits(const T& a, const T& b, const char* what, int trial, int i) {
    for (int l = 0; l < lanes<T>; ++l) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(lane(a, l)),
                  std::bit_cast<std::uint64_t>(lane(b, l)))
            << what << " trial " << trial << " entry " << i << " lane " << l;
    }
}

template <class T>
void check_straight_line_contractions(std::uint64_t seed) {
    xoshiro256 rng(seed);
    auto uniform = [&] { return lanes_of<T>([&](int) { return rng.uniform(-1, 1); }); };
    for (int trial = 0; trial < 200; ++trial) {
        expansion<T> L;
        for (auto& c : L) c = uniform();
        // Offsets: lane 0 of a pack (every fourth trial at width 1) is the
        // zero offset, lane 1 is all negative, other lanes are mixed.
        T delta[3];
        for (int e = 0; e < 3; ++e) {
            delta[e] = lanes_of<T>([&](int l) {
                const int zero_lane = lanes<T> == 1 ? trial % 4 : 0;
                if (l == zero_lane) return 0.0;
                if (l == 1) return -rng.uniform(0.01, 0.5);
                return rng.uniform(-0.5, 0.5);
            });
        }
        T s[6], t_init[3], v_init[6];
        for (auto& x : s) x = uniform();
        for (auto& x : t_init) x = uniform();
        for (auto& x : v_init) x = uniform();

        T t_ref[3], t_new[3];
        std::copy(t_init, t_init + 3, t_ref);
        std::copy(t_init, t_init + 3, t_new);
        loop_contract_d3_pairs(L, s, t_ref);
        contract_d3_pairs(L, s, t_new);
        for (int i = 0; i < 3; ++i) expect_same_bits(t_ref[i], t_new[i], "pairs", trial, i);

        T v_ref[6], v_new[6];
        std::copy(v_init, v_init + 6, v_ref);
        std::copy(v_init, v_init + 6, v_new);
        loop_contract_d3_offset(L, delta, v_ref);
        contract_d3_offset(L, delta, v_new);
        for (int i = 0; i < 6; ++i) expect_same_bits(v_ref[i], v_new[i], "offset", trial, i);

        T g_ref[3], g_new[3];
        loop_evaluate_gradient(L, delta, g_ref);
        evaluate_gradient(L, delta, g_new);
        for (int i = 0; i < 3; ++i) expect_same_bits(g_ref[i], g_new[i], "gradient", trial, i);
    }
}

TEST(Taylor, StraightLineContractionsMatchLoopForm) {
    check_straight_line_contractions<double>(21);
    check_straight_line_contractions<simd::pack<double, 4>>(22);
    check_straight_line_contractions<simd::pack<double, 8>>(23);
}

// The straight-line Green's-function derivatives must equal the nested
// loops they replaced bit for bit. The reference is that loop, kept
// verbatim; it leaves the fusion of each delta term to -ffp-contract.
template <class T>
void loop_greens_d3(const T x[3], T r2, expansion<T>& out) {
    using octo::simd::rsqrt;
    const T rinv = rsqrt(r2);
    const T rinv2 = rinv * rinv;
    const T rinv3 = rinv * rinv2;
    const T rinv5 = rinv3 * rinv2;
    const T rinv7 = rinv5 * rinv2;

    out[0] = rinv;
    for (int i = 0; i < 3; ++i) out[1 + i] = -x[i] * rinv3;

    const T three_rinv5 = T(3.0) * rinv5;
    for (int i = 0; i < 3; ++i) {
        for (int j = i; j < 3; ++j) {
            T v = x[i] * x[j] * three_rinv5;
            if (i == j) v = v - rinv3;
            out[idx2(i, j)] = v;
        }
    }

    const T m15_rinv7 = T(-15.0) * rinv7;
    for (int i = 0; i < 3; ++i) {
        for (int j = i; j < 3; ++j) {
            for (int k = j; k < 3; ++k) {
                T v = x[i] * x[j] * x[k] * m15_rinv7;
                if (i == j) v = v + three_rinv5 * x[k];
                if (j == k) v = v + three_rinv5 * x[i];
                if (i == k && i != j) v = v + three_rinv5 * x[j];
                else if (i == k && i == j) v = v + three_rinv5 * x[j];
                out[idx3(i, j, k)] = v;
            }
        }
    }
}

template <class T>
void check_straight_line_greens(std::uint64_t seed) {
    xoshiro256 rng(seed);
    for (int trial = 0; trial < 400; ++trial) {
        // Axis-aligned separations (every fourth trial at width 1, lane 0
        // of a pack), of either sign; two equal components (every fifth
        // trial at width 1); all negative (lane 1 of a pack); the rest
        // mixed-sign.
        T x[3];
        const int axis = trial % 3;
        const double sign = trial % 2 ? -1.0 : 1.0;
        for (int e = 0; e < 3; ++e) {
            x[e] = lanes_of<T>([&](int l) {
                const bool on_axis = lanes<T> == 1 ? trial % 4 == 0 : l == 0;
                if (on_axis) return e == axis ? sign * rng.uniform(0.5, 3) : 0.0;
                if (lanes<T> == 1 && trial % 5 == 0 && e != axis) return -1.75;
                if (l == 1) return -rng.uniform(0.5, 3);
                return rng.uniform(-3, 3);
            });
        }
        const T r2 = x[0] * x[0] + x[1] * x[1] + x[2] * x[2];
        expansion<T> ref, got;
        loop_greens_d3(x, r2, ref);
        greens_d3(x, r2, got);
        for (int t = 0; t < n_taylor; ++t) expect_same_bits(ref[t], got[t], "greens", trial, t);
    }
}

TEST(Taylor, GreensStraightLineMatchesLoopForm) {
    check_straight_line_greens<double>(31);
    check_straight_line_greens<simd::pack<double, 4>>(32);
    check_straight_line_greens<simd::pack<double, 8>>(33);
}

// ---- solver -----------------------------------------------------------------

box_geometry unit_root() {
    box_geometry g;
    g.origin = {-0.5, -0.5, -0.5};
    g.dx = 1.0 / INX;
    return g;
}

/// Fill a leaf with two off-center gaussian blobs (binary-like).
void fill_blobs(tree& t) {
    for (const auto k : t.leaves_sfc()) {
        auto& g = t.ensure_fields(k);
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const dvec3 r = g.geom.cell_center(i, j, kk);
                    const dvec3 c1{-0.18, 0.02, 0.01};
                    const dvec3 c2{0.22, -0.03, -0.02};
                    const double rho = std::exp(-norm2(r - c1) / 0.01) +
                                       0.3 * std::exp(-norm2(r - c2) / 0.006);
                    g.interior(amr::f_rho, i, j, kk) = rho;
                }
    }
}

TEST(Solver, SingleLevelMatchesDirectSummationExactly) {
    // With only the root node, every pair is a monopole pair through the full
    // root stencil: the FMM must equal direct summation to rounding.
    tree t(unit_root());
    fill_blobs(t);
    solver s({.conserve = am_mode::spin_deposit});
    s.solve(t);
    const auto direct = solve_direct(t);

    const auto& gf = s.gravity(root_key);
    const auto& gd = direct.gravity.at(root_key);
    double max_rel = 0;
    for (int c = 0; c < amr::INX3; ++c) {
        const double mag = std::abs(gd.gx[c]) + std::abs(gd.gy[c]) +
                           std::abs(gd.gz[c]) + 1e-30;
        max_rel = std::max(max_rel, std::abs(gf.gx[c] - gd.gx[c]) / mag);
        max_rel = std::max(max_rel, std::abs(gf.gy[c] - gd.gy[c]) / mag);
        max_rel = std::max(max_rel, std::abs(gf.gz[c] - gd.gz[c]) / mag);
        EXPECT_NEAR(gf.phi[c], gd.phi[c], std::abs(gd.phi[c]) * 1e-12);
    }
    EXPECT_LT(max_rel, 1e-11);
}

TEST(Solver, TwoLevelAccuracyAgainstDirect) {
    tree t(unit_root());
    t.refine(root_key);
    fill_blobs(t);
    solver s({.conserve = am_mode::spin_deposit});
    s.solve(t);
    const auto direct = solve_direct(t);

    double err_num = 0, err_den = 0;
    for (const auto k : t.leaves_sfc()) {
        const auto& gf = s.gravity(k);
        const auto& gd = direct.gravity.at(k);
        for (int c = 0; c < amr::INX3; ++c) {
            const dvec3 df{gf.gx[c] - gd.gx[c], gf.gy[c] - gd.gy[c],
                           gf.gz[c] - gd.gz[c]};
            const dvec3 dd{gd.gx[c], gd.gy[c], gd.gz[c]};
            err_num += norm2(df);
            err_den += norm2(dd);
        }
    }
    const double rel = std::sqrt(err_num / err_den);
    // Expansion + central-projection truncation error; order-3 expansions
    // with theta ~ 0.7 put this in the percent range.
    EXPECT_LT(rel, 0.02);
    EXPECT_GT(rel, 0.0); // sanity: levels actually differ
}

TEST(Solver, ThreeLevelAccuracyAgainstDirect) {
    tree t(unit_root());
    t.refine(root_key);
    t.refine(amr::key_child(root_key, 0));
    t.refine(amr::key_child(root_key, 7));
    t.balance21();
    fill_blobs(t);
    solver s({.conserve = am_mode::spin_deposit});
    s.solve(t);
    const auto direct = solve_direct(t);
    double err_num = 0, err_den = 0;
    for (const auto k : t.leaves_sfc()) {
        const auto& gf = s.gravity(k);
        const auto& gd = direct.gravity.at(k);
        for (int c = 0; c < amr::INX3; ++c) {
            const dvec3 df{gf.gx[c] - gd.gx[c], gf.gy[c] - gd.gy[c],
                           gf.gz[c] - gd.gz[c]};
            err_num += norm2(df);
            err_den += norm2(dvec3{gd.gx[c], gd.gy[c], gd.gz[c]});
        }
    }
    EXPECT_LT(std::sqrt(err_num / err_den), 0.03);
}

TEST(Solver, ConservesLinearMomentum) {
    tree t(unit_root());
    t.refine(root_key);
    fill_blobs(t);
    solver s({.conserve = am_mode::spin_deposit});
    s.solve(t);
    const dvec3 F = s.total_force(t);
    // Normalize by a typical force scale.
    double scale = 0;
    for (const auto k : t.leaves_sfc()) {
        const auto& g = s.gravity(k);
        const auto& m = s.moments(k);
        for (int c = 0; c < amr::INX3; ++c) {
            scale += std::abs(m.m[c] * g.gx[c]) + std::abs(m.m[c] * g.gy[c]) +
                     std::abs(m.m[c] * g.gz[c]);
        }
    }
    EXPECT_LT(norm(F) / scale, 1e-13);
}

double torque_scale(const tree& t, const solver& s) {
    double scale = 0;
    for (const auto k : t.leaves_sfc()) {
        const auto& g = s.gravity(k);
        const auto& m = s.moments(k);
        for (int c = 0; c < amr::INX3; ++c) {
            const dvec3 r{m.com[0][c], m.com[1][c], m.com[2][c]};
            scale += norm(cross(r, m.m[c] * dvec3{g.gx[c], g.gy[c], g.gz[c]}));
        }
    }
    return scale;
}

TEST(Solver, CentralProjectionZeroesTotalTorque) {
    tree t(unit_root());
    t.refine(root_key);
    fill_blobs(t);

    solver cons({.conserve = am_mode::central_projection});
    cons.solve(t);
    solver plain({.conserve = am_mode::none});
    plain.solve(t);

    const double scale = torque_scale(t, cons);
    const double tq_cons = norm(cons.total_torque(t)) / scale;
    const double tq_plain = norm(plain.total_torque(t)) / scale;
    EXPECT_LT(tq_cons, 1e-13);
    // The uncorrected multipole force violates torque balance measurably.
    EXPECT_GT(tq_plain, tq_cons * 10.0);
}

TEST(Solver, SpinDepositLedgerCancelsTotalTorque) {
    // The paper's headline property, in the form Octo-Tiger realizes it:
    // accurate forces, with the truncation torque absorbed by the evolved
    // spin field. Mechanical torque + ledger must vanish to rounding.
    tree t(unit_root());
    t.refine(root_key);
    fill_blobs(t);

    solver s({.conserve = am_mode::spin_deposit});
    s.solve(t);
    const double scale = torque_scale(t, s);
    const dvec3 mech = s.total_torque(t);
    const dvec3 ledger = s.total_spin_torque(t);
    EXPECT_GT(norm(mech) / scale, 1e-13); // forces genuinely non-central
    EXPECT_LT(norm(mech + ledger) / scale, 1e-13);
}

TEST(Solver, SpinDepositLedgerClosesOnDeepTrees) {
    // Regression: the redistribution of L3 against the children's INTERNAL
    // quadrupoles emits net forces at displaced application points on trees
    // deeper than two levels; the L2L must account for that torque (see the
    // T_deep term in solver.cpp) or the ledger leaks at ~1e-8.
    tree t(unit_root());
    t.refine(root_key);
    t.refine(amr::key_child(root_key, 0));
    t.refine(amr::key_child(amr::key_child(root_key, 0), 7));
    t.balance21();
    fill_blobs(t);
    solver s({.conserve = am_mode::spin_deposit});
    s.solve(t);
    const double scale = torque_scale(t, s);
    EXPECT_LT(norm(s.total_torque(t) + s.total_spin_torque(t)) / scale, 1e-13);
}

TEST(Solver, SpinDepositKeepsPlainAccuracy) {
    // spin_deposit must not degrade forces: it equals am_mode::none forces
    // except for which S enters the (identical) plain force term.
    tree t(unit_root());
    t.refine(root_key);
    fill_blobs(t);
    solver a({.conserve = am_mode::spin_deposit});
    a.solve(t);
    solver b({.conserve = am_mode::none});
    b.solve(t);
    for (const auto k : t.leaves_sfc()) {
        const auto& ga = a.gravity(k);
        const auto& gb = b.gravity(k);
        for (int c = 0; c < amr::INX3; ++c) {
            EXPECT_NEAR(ga.gx[c], gb.gx[c], std::abs(gb.gx[c]) * 1e-12 + 1e-16);
        }
    }
}

TEST(Solver, VectorizedAndScalarPathsAgree) {
    tree t(unit_root());
    t.refine(root_key);
    fill_blobs(t);
    solver vec({.conserve = am_mode::spin_deposit, .vectorized = true});
    vec.solve(t);
    solver sca({.conserve = am_mode::spin_deposit, .vectorized = false});
    sca.solve(t);
    for (const auto k : t.leaves_sfc()) {
        const auto& gv = vec.gravity(k);
        const auto& gs = sca.gravity(k);
        for (int c = 0; c < amr::INX3; ++c) {
            EXPECT_NEAR(gv.gx[c], gs.gx[c],
                        std::abs(gs.gx[c]) * 1e-13 + 1e-16);
            EXPECT_NEAR(gv.phi[c], gs.phi[c], std::abs(gs.phi[c]) * 1e-13);
        }
    }
}

TEST(Solver, GpuOffloadMatchesCpu) {
    // The offloaded kernels are the CPU path's own (same launch geometry,
    // same per-node order), so the results are equal, not merely close.
    tree t(unit_root());
    t.refine(root_key);
    fill_blobs(t);

    flop_reset();
    gpu::device dev(gpu::p100());
    solver gs({.conserve = am_mode::spin_deposit, .device = &dev});
    gs.solve(t);
    solver cs({.conserve = am_mode::spin_deposit});
    cs.solve(t);

    for (const auto k : t.leaves_sfc()) {
        const auto& a = gs.gravity(k);
        const auto& b = cs.gravity(k);
        for (int c = 0; c < amr::INX3; ++c) {
            EXPECT_EQ(a.gx[c], b.gx[c]) << "node " << k << " cell " << c;
            EXPECT_EQ(a.gy[c], b.gy[c]);
            EXPECT_EQ(a.gz[c], b.gz[c]);
            EXPECT_EQ(a.phi[c], b.phi[c]);
            for (int d = 0; d < 3; ++d) EXPECT_EQ(a.tq[d][c], b.tq[d][c]);
        }
    }
    EXPECT_GT(dev.kernels_executed(), 0u);
}

TEST(Solver, FlopAccountingMatchesLaunches) {
    tree t(unit_root());
    fill_blobs(t);
    flop_reset();
    solver s{solver_options{}};
    s.solve(t);
    // Root-only tree: one leaf -> exactly one monopole kernel launch with the
    // root stencil (3374 offsets).
    const auto mono = flop_snapshot(kernel_class::fmm_monopole);
    EXPECT_EQ(mono.cpu_launches, 1u);
    EXPECT_EQ(mono.cpu_flops,
              512u * 3374u * mono_flops_per_interaction);
}

TEST(Solver, PotentialEnergyIsNegative) {
    tree t(unit_root());
    fill_blobs(t);
    solver s{solver_options{}};
    s.solve(t);
    EXPECT_LT(s.potential_energy(t), 0.0);
}

TEST(Solver, PolytropeAccelerationPointsInward) {
    // Spherical blob at the center: acceleration in the outer cells must
    // point toward the center.
    tree t(unit_root());
    t.refine(root_key);
    for (const auto k : t.leaves_sfc()) {
        auto& g = t.ensure_fields(k);
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const dvec3 r = g.geom.cell_center(i, j, kk);
                    g.interior(amr::f_rho, i, j, kk) =
                        std::exp(-norm2(r) / 0.005);
                }
    }
    solver s{solver_options{}};
    s.solve(t);
    for (const auto k : t.leaves_sfc()) {
        const auto& g = s.gravity(k);
        const auto& m = s.moments(k);
        for (int c = 0; c < amr::INX3; ++c) {
            const dvec3 r{m.com[0][c], m.com[1][c], m.com[2][c]};
            if (norm(r) < 0.25) continue; // only test well outside the blob
            const dvec3 a{g.gx[c], g.gy[c], g.gz[c]};
            EXPECT_LT(dot(a, r), 0.0) << "outward gravity at r=" << norm(r);
        }
    }
}

// ---- parameterized sweep: every mode x vectorization ------------------------

class ModeSweep
    : public ::testing::TestWithParam<std::tuple<am_mode, bool>> {};

TEST_P(ModeSweep, ForceBalanceAndLedgerInvariants) {
    const auto [mode, vectorized] = GetParam();
    tree t(unit_root());
    t.refine(root_key);
    t.refine(amr::key_child(root_key, 3));
    t.balance21();
    fill_blobs(t);
    solver s({.conserve = mode, .vectorized = vectorized});
    s.solve(t);

    // Linear momentum balance holds in EVERY mode.
    double fscale = 0;
    for (const auto k : t.leaves_sfc()) {
        const auto& g = s.gravity(k);
        const auto& m = s.moments(k);
        for (int c = 0; c < amr::INX3; ++c) {
            fscale += std::abs(m.m[c] * g.gx[c]) + std::abs(m.m[c] * g.gy[c]) +
                      std::abs(m.m[c] * g.gz[c]);
        }
    }
    EXPECT_LT(norm(s.total_force(t)) / fscale, 1e-12);

    // Angular momentum: mode-specific invariant.
    const double scale = torque_scale(t, s);
    if (mode == am_mode::central_projection) {
        EXPECT_LT(norm(s.total_torque(t)) / scale, 1e-13);
    } else if (mode == am_mode::spin_deposit) {
        EXPECT_LT(norm(s.total_torque(t) + s.total_spin_torque(t)) / scale,
                  1e-13);
    }
    // Potential energy is negative in every configuration.
    EXPECT_LT(s.potential_energy(t), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ModeSweep,
    ::testing::Combine(::testing::Values(am_mode::none,
                                         am_mode::central_projection,
                                         am_mode::spin_deposit),
                       ::testing::Values(true, false)),
    [](const auto& info) {
        const char* m = std::get<0>(info.param) == am_mode::none
                            ? "none"
                            : std::get<0>(info.param) ==
                                      am_mode::central_projection
                                  ? "central"
                                  : "spin";
        return std::string(m) +
               (std::get<1>(info.param) ? "_simd" : "_scalar");
    });

// ---- legacy interaction-list kernel -----------------------------------------

TEST(LegacyIlist, MatchesStencilKernel) {
    tree t(unit_root());
    fill_blobs(t);
    solver s{solver_options{}};
    s.solve(t); // gives us moments for the root node

    const auto& mom = s.moments(root_key);
    partner_buffer buf;
    // Self-only buffer (interior cells), mirroring what the bench does.
    for (int i = 0; i < INX; ++i)
        for (int j = 0; j < INX; ++j)
            for (int k = 0; k < INX; ++k) {
                const int src = cell_index(i, j, k);
                const int dst = partner_buffer::index(i, j, k);
                buf.m[dst] = mom.m[src];
                buf.x[dst] = mom.com[0][src];
                buf.y[dst] = mom.com[1][src];
                buf.z[dst] = mom.com[2][src];
            }
    // Give empty halo cells nonzero positions to avoid r = 0.
    for (int i = -partner_buffer::reach; i < INX + partner_buffer::reach; ++i)
        for (int j = -partner_buffer::reach; j < INX + partner_buffer::reach; ++j)
            for (int k = -partner_buffer::reach; k < INX + partner_buffer::reach;
                 ++k) {
                const int d = partner_buffer::index(i, j, k);
                if (buf.x[d] == 0 && buf.y[d] == 0 && buf.z[d] == 0 &&
                    buf.m[d] == 0) {
                    buf.x[d] = 10.0 + i;
                    buf.y[d] = 10.0 + j;
                    buf.z[d] = 10.0 + k;
                }
            }

    node_gravity out;
    kernel_options opt;
    opt.stencil = &interaction_stencil(); // regular 1074 stencil
    octo::kernel::run_fmm_monopole(false, mom, buf, opt, out);

    auto receivers = to_aos_receivers(mom);
    const auto partners = to_aos_partners(buf);
    const auto list = build_interaction_list();
    // Each stencil element applies to 64 cells per enabled parity class.
    std::size_t expected = 0;
    for (const auto& e : interaction_stencil()) {
        expected += 64u * static_cast<unsigned>(__builtin_popcount(e.parity_mask));
    }
    EXPECT_EQ(list.pairs.size(), expected);
    legacy_monopole_kernel(list, receivers, partners);

    for (int c = 0; c < amr::INX3; ++c) {
        // legacy kernel accumulates g directly; stencil kernel stores L with
        // g = -L1.
        EXPECT_NEAR(receivers[static_cast<std::size_t>(c)].gx, -out.L[1][c],
                    std::abs(out.L[1][c]) * 1e-12 + 1e-15);
        EXPECT_NEAR(receivers[static_cast<std::size_t>(c)].phi, out.L[0][c],
                    std::abs(out.L[0][c]) * 1e-12 + 1e-15);
    }
}

// ---- dependency DAG and workspace recycling ---------------------------------

/// Four-level tree (levels 0..3) with blob density: every DAG edge kind
/// (M2M, coarse-fine same-level partners, L2L) occurs on it.
tree four_level_tree() {
    tree t(unit_root());
    t.refine(root_key);
    t.refine(amr::key_child(root_key, 0));
    t.refine(amr::key_child(amr::key_child(root_key, 0), 7));
    t.refine(amr::key_child(root_key, 6));
    t.balance21();
    fill_blobs(t);
    return t;
}

void expect_identical_gravity(const tree& t, const solver& a, const solver& b) {
    for (const auto k : t.leaves_sfc()) {
        const auto& ga = a.gravity(k);
        const auto& gb = b.gravity(k);
        for (int c = 0; c < amr::INX3; ++c) {
            EXPECT_EQ(ga.phi[c], gb.phi[c]);
            EXPECT_EQ(ga.gx[c], gb.gx[c]);
            EXPECT_EQ(ga.gy[c], gb.gy[c]);
            EXPECT_EQ(ga.gz[c], gb.gz[c]);
            for (int ax = 0; ax < 3; ++ax) {
                EXPECT_EQ(ga.tq[ax][c], gb.tq[ax][c]);
            }
        }
    }
}

TEST(SolverDag, BitIdenticalAcrossPoolSizes) {
    // Each node's accumulation order is fixed by the dependency graph, not by
    // which worker runs a task, so solves on private pools of 1, 2 and 4
    // workers (different interleavings and steal orders) must agree to the
    // last bit — not just to a tolerance.
    tree t = four_level_tree();
    rt::thread_pool serial(1);
    solver ref({.conserve = am_mode::spin_deposit, .pool = &serial});
    ref.solve(t);
    for (const unsigned workers : {2u, 4u}) {
        SCOPED_TRACE(workers);
        rt::thread_pool pool(workers);
        solver s({.conserve = am_mode::spin_deposit, .pool = &pool});
        s.solve(t);
        expect_identical_gravity(t, ref, s);
    }
}

TEST(SolverDag, KeepsConservationInvariants) {
    tree t = four_level_tree();
    solver s({.conserve = am_mode::spin_deposit});
    s.solve(t);

    double fscale = 0;
    for (const auto k : t.leaves_sfc()) {
        const auto& g = s.gravity(k);
        const auto& m = s.moments(k);
        for (int c = 0; c < amr::INX3; ++c) {
            fscale += std::abs(m.m[c] * g.gx[c]) + std::abs(m.m[c] * g.gy[c]) +
                      std::abs(m.m[c] * g.gz[c]);
        }
    }
    EXPECT_LT(norm(s.total_force(t)) / fscale, 1e-12);
    const double scale = torque_scale(t, s);
    EXPECT_LT(norm(s.total_torque(t) + s.total_spin_torque(t)) / scale, 1e-13);
}

TEST(SolverDag, SteadyStateSolvePerformsZeroAllocations) {
    // After the first solve has populated the workspace and the recycler
    // pool, consecutive solves on an unchanged tree must allocate nothing
    // new: every aligned buffer (partner buffers included) is served from
    // the pool. A single-worker pool makes the peak number of live buffers
    // deterministic.
    tree t = four_level_tree();
    rt::thread_pool pool(1);
    solver s({.conserve = am_mode::spin_deposit, .pool = &pool});
    s.solve(t);

    const auto before = buffer_recycler::instance().stats();
    s.solve(t);
    s.solve(t);
    const auto after = buffer_recycler::instance().stats();
    EXPECT_EQ(after.misses, before.misses) << "steady-state solve allocated";
    EXPECT_GT(after.hits, before.hits);
}

TEST(SolverDag, WorkspaceInvalidatedByTreeMutation) {
    // The persisted workspace is keyed on (tree id, revision); refining the
    // tree must rebuild it, and the recomputed field must match a fresh
    // solver exactly.
    tree t(unit_root());
    t.refine(root_key);
    fill_blobs(t);
    solver s({.conserve = am_mode::spin_deposit});
    s.solve(t);

    t.refine(amr::key_child(root_key, 3));
    t.balance21();
    fill_blobs(t);
    s.solve(t); // must notice the revision bump, not reuse stale arrays

    solver fresh({.conserve = am_mode::spin_deposit});
    fresh.solve(t);
    expect_identical_gravity(t, s, fresh);
}

} // namespace

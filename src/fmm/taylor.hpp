#pragma once
// Taylor-expansion algebra for the volume-based FMM (paper §4.3).
//
// Local expansions of the gravitational potential are stored as the raw
// derivative tensors of phi about a cell's center of mass, truncated at
// third order: 1 + 3 + 6 + 10 = 20 coefficients, mirroring Octo-Tiger's
// taylor<> type. Multipole moments per cell are (mass, center of mass, raw
// second moments); the second-moment trace never contributes because the
// derivative tensors of 1/r are traceless, which is also why a homogeneous
// cube's self-quadrupole drops out — the "locally homogeneous densities"
// assumption the paper cites as the reason Octo-Tiger needs fewer
// flops/cell than PVFMM.
//
// All functions are templates over the value type so the same code is
// instantiated with simd::pack<double, W> for the vectorized kernels (CPU
// and simulated GPU alike) and with double for the width-1 scalar reference
// and the scalar M2M/L2L passes — the Vc/CUDA trick of paper §5.1.

#include <algorithm>
#include <array>
#include <cstddef>
#include <type_traits>

#include "simd/pack.hpp"
#include "support/vec3.hpp"

namespace octo::fmm {

/// Number of local-expansion coefficients (orders 0..3).
inline constexpr int n_taylor = 20;

// Coefficient layout:
//   [0]        : phi
//   [1..3]     : d phi / dx_i                       (x, y, z)
//   [4..9]     : d2 phi (xx, xy, xz, yy, yz, zz)
//   [10..19]   : d3 phi (xxx, xxy, xxz, xyy, xyz, xzz, yyy, yyz, yzz, zzz)

/// Index of the second-derivative coefficient for (i, j), i <= j.
constexpr int idx2(int i, int j) {
    constexpr int map[3][3] = {{4, 5, 6}, {5, 7, 8}, {6, 8, 9}};
    return map[i][j];
}

/// Index of the third-derivative coefficient for (i, j, k) in any order.
constexpr int idx3(int i, int j, int k) {
    // Sorted triples over {0,1,2}: 000,001,002,011,012,022,111,112,122,222;
    // every permutation of a triple maps to its sorted entry.
    constexpr int map[3][3][3] = {
        {{10, 11, 12}, {11, 13, 14}, {12, 14, 15}},
        {{11, 13, 14}, {13, 16, 17}, {14, 17, 18}},
        {{12, 14, 15}, {14, 17, 18}, {15, 18, 19}}};
    return map[i][j][k];
}

/// Multiplicity of the (i,j) unordered pair when summing over ordered pairs.
constexpr double mult2(int i, int j) { return i == j ? 1.0 : 2.0; }
/// Multiplicity of the sorted (i,j,k) triple over ordered triples.
constexpr double mult3(int i, int j, int k) {
    if (i == j && j == k) return 1.0;
    if (i == j || j == k || i == k) return 3.0;
    return 6.0;
}

/// A 20-coefficient expansion with value type T (scalar or SIMD pack).
template <class T>
using expansion = std::array<T, n_taylor>;

/// a * b + c with one rounding where the build targets FMA hardware, and
/// with two (a product, then a sum) where it does not: exactly what
/// -ffp-contract=fast makes of `a * b + c` on each kind of build, pinned
/// so that unrolling or re-associating the caller cannot move the fusion
/// onto a different product. Lane-wise for packs; the lane loop compiles to
/// one packed FMA.
template <class T>
inline T fused(const T& a, const T& b, const T& c) {
#ifdef __FMA__
    if constexpr (std::is_floating_point_v<T>) {
        return __builtin_fma(a, b, c);
    } else {
        T r;
        for (std::size_t l = 0; l < T::size(); ++l) r.set(l, __builtin_fma(a[l], b[l], c[l]));
        return r;
    }
#else
    return a * b + c;
#endif
}

/// Derivative tensors of 1/r evaluated at x (r2 = |x|^2 must be > 0):
///   out[0]       = 1/r
///   out[1..3]    = -x_i / r^3
///   out[4..9]    = 3 x_i x_j / r^5 - delta_ij / r^3
///   out[10..19]  = -15 x_i x_j x_k / r^7 + 3 (d_ij x_k + d_jk x_i + d_ik x_j)/r^5
///
/// Straight-line code: every index is a compile-time constant, so the
/// kernel keeps x and the 20 outputs in registers. Each entry is the
/// rounded product (x_i x_j) [x_k] times the radial factor, and each delta
/// term is added to it through fused(). That pins the FMA on the delta
/// term, where -ffp-contract=fast puts it in the plain nested
/// (i, j >= i, k >= j) loop form, so both forms give the same bits at every
/// pack width (test_fmm keeps the loop form as the reference).
template <class T>
inline void greens_d3(const T x[3], T r2, expansion<T>& out) {
    using octo::simd::rsqrt;
    const T rinv = rsqrt(r2);
    const T rinv2 = rinv * rinv;
    const T rinv3 = rinv * rinv2;
    const T rinv5 = rinv3 * rinv2;
    const T rinv7 = rinv5 * rinv2;

    out[0] = rinv;
    out[1] = -x[0] * rinv3;
    out[2] = -x[1] * rinv3;
    out[3] = -x[2] * rinv3;

    const T xx = x[0] * x[0], xy = x[0] * x[1], xz = x[0] * x[2];
    const T yy = x[1] * x[1], yz = x[1] * x[2], zz = x[2] * x[2];

    const T three_rinv5 = T(3.0) * rinv5;
    const T m_rinv3 = -rinv3;
    out[4] = fused(xx, three_rinv5, m_rinv3);
    out[5] = xy * three_rinv5;
    out[6] = xz * three_rinv5;
    out[7] = fused(yy, three_rinv5, m_rinv3);
    out[8] = yz * three_rinv5;
    out[9] = fused(zz, three_rinv5, m_rinv3);

    const T m15_rinv7 = T(-15.0) * rinv7;
    // xxx, yyy, zzz: three delta terms each.
    const auto d3_diag = [&](const T& xi, const T& xi2) {
        T v = xi2 * xi * m15_rinv7;
        v = fused(three_rinv5, xi, v);
        v = fused(three_rinv5, xi, v);
        return fused(three_rinv5, xi, v);
    };
    out[10] = d3_diag(x[0], xx);
    out[11] = fused(three_rinv5, x[1], xx * x[1] * m15_rinv7); // xxy
    out[12] = fused(three_rinv5, x[2], xx * x[2] * m15_rinv7); // xxz
    out[13] = fused(three_rinv5, x[0], xy * x[1] * m15_rinv7); // xyy
    out[14] = xy * x[2] * m15_rinv7;                            // xyz
    out[15] = fused(three_rinv5, x[0], xz * x[2] * m15_rinv7); // xzz
    out[16] = d3_diag(x[1], yy);
    out[17] = fused(three_rinv5, x[2], yy * x[2] * m15_rinv7); // yyz
    out[18] = fused(three_rinv5, x[1], yz * x[2] * m15_rinv7); // yzz
    out[19] = d3_diag(x[2], zz);
}

namespace detail {

// The six (a <= b) index pairs in the storage order of second moments and
// second derivatives (xx, xy, xz, yy, yz, zz), with their mult2 weights.
inline constexpr int pair_a[6] = {0, 0, 0, 1, 1, 2};
inline constexpr int pair_b[6] = {0, 1, 2, 1, 2, 2};
inline constexpr double pair_mult[6] = {1.0, 2.0, 2.0, 1.0, 2.0, 1.0};

// d3_of[i][p]: coefficient index of the third derivative (i, a_p, b_p).
inline constexpr auto d3_of = [] {
    std::array<std::array<int, 6>, 3> m{};
    for (int i = 0; i < 3; ++i)
        for (int p = 0; p < 6; ++p) m[i][p] = idx3(i, pair_a[p], pair_b[p]);
    return m;
}();

} // namespace detail

// The rank-3 contractions below are fully unrolled, so every tensor index is
// a compile-time constant and the operands stay in registers. Each
// accumulator sums its terms in the same order as the plain nested loops
// (pairs in storage order, offsets x, y, z), so results are bit-identical
// to them.

/// t_i += sum_{a<=b} mult2(a,b) s_ab D3_iab for i = 0, 1, 2: the gradient
/// contraction of a symmetric second moment s (6 entries in storage order,
/// read as s[p]: an array or any type with operator[]) against the
/// third-derivative block of D.
template <class T, class S>
inline void contract_d3_pairs(const expansion<T>& D, const S& s, T t[3]) {
#pragma GCC unroll 3
    for (int i = 0; i < 3; ++i)
#pragma GCC unroll 6
        for (int p = 0; p < 6; ++p) {
            t[i] = t[i] + T(detail::pair_mult[p]) * s[p] * D[detail::d3_of[i][p]];
        }
}

/// v_ab += sum_e L3_abe delta_e for the six (a <= b) pairs (storage order):
/// the third-order part of translating second derivatives by delta.
template <class T>
inline void contract_d3_offset(const expansion<T>& L, const T delta[3], T v[6]) {
#pragma GCC unroll 6
    for (int p = 0; p < 6; ++p)
#pragma GCC unroll 3
        for (int e = 0; e < 3; ++e) v[p] = v[p] + L[detail::d3_of[e][p]] * delta[e];
}

/// Evaluate the expansion's value at offset delta from its center.
template <class T>
T evaluate(const expansion<T>& L, const T delta[3]) {
    T v = L[0];
    for (int i = 0; i < 3; ++i) v = v + L[1 + i] * delta[i];
    for (int i = 0; i < 3; ++i)
        for (int j = i; j < 3; ++j) {
            v = v + T(0.5 * mult2(i, j)) * L[idx2(i, j)] * delta[i] * delta[j];
        }
    for (int i = 0; i < 3; ++i)
        for (int j = i; j < 3; ++j)
            for (int k = j; k < 3; ++k) {
                v = v + T(mult3(i, j, k) / 6.0) * L[idx3(i, j, k)] * delta[i] *
                            delta[j] * delta[k];
            }
    return v;
}

/// Gradient of the expansion at offset delta (out[i] = d phi / d x_i).
template <class T>
void evaluate_gradient(const expansion<T>& L, const T delta[3], T out[3]) {
    using detail::pair_a;
    using detail::pair_b;
#pragma GCC unroll 3
    for (int i = 0; i < 3; ++i) {
        T g = L[1 + i];
#pragma GCC unroll 3
        for (int j = 0; j < 3; ++j) {
            g = g + L[idx2(std::min(i, j), std::max(i, j))] * delta[j];
        }
#pragma GCC unroll 6
        for (int p = 0; p < 6; ++p) {
            g = g + T(0.5 * detail::pair_mult[p]) * L[detail::d3_of[i][p]] *
                        delta[pair_a[p]] * delta[pair_b[p]];
        }
        out[i] = g;
    }
}

/// Translate an expansion to a new center at offset delta (L2L operator):
/// accumulates the shifted expansion of `src` into `dst`.
template <class T>
void shift_expansion(const expansion<T>& src, const T delta[3], expansion<T>& dst) {
    dst[0] = dst[0] + evaluate(src, delta);
    T grad[3];
    evaluate_gradient(src, delta, grad);
    for (int i = 0; i < 3; ++i) dst[1 + i] = dst[1 + i] + grad[i];
    // Second derivatives pick up the third-order terms.
    T v[6];
    for (int p = 0; p < 6; ++p) v[p] = src[4 + p];
    contract_d3_offset(src, delta, v);
    for (int p = 0; p < 6; ++p) dst[4 + p] = dst[4 + p] + v[p];
    for (int t = 10; t < n_taylor; ++t) dst[t] = dst[t] + src[t];
}

} // namespace octo::fmm

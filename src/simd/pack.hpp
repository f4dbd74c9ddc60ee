#pragma once
// Vc-substitute: a portable SIMD pack abstraction (DESIGN.md substitution
// table). Octo-Tiger uses Vc (Kretz 2015) so that the same cell-to-cell
// interaction template can be instantiated with vector types on the CPU and
// with scalar types inside the CUDA kernel (paper §5.1). `octo::simd::pack`
// plays exactly that role here: the FMM and hydro kernels are templates over
// the value type and are instantiated with `pack<double, 4>` for the
// vectorized CPU path and with plain `double` for the scalar / simulated-GPU
// path.
//
// Storage is the compiler's native vector type (GCC/Clang `vector_size`),
// so arithmetic, comparisons and blends map directly onto packed SIMD
// instructions; comparisons yield integer-vector masks and select() is the
// vector ternary — branchless, which matters enormously for the masked PPM
// limiter (a bool-per-lane mask compiles to a data-dependent branch per lane
// and is several times slower on mixed masks).

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ostream>

namespace octo::simd {

namespace detail {

/// Unsigned integer carrying one mask lane of T (same width as T).
template <class T> struct mask_bits;
template <> struct mask_bits<double> { using type = std::uint64_t; };
template <> struct mask_bits<float> { using type = std::uint32_t; };

/// The compiler's native vector of W lanes of T.
template <class T, std::size_t W>
struct native {
    typedef T type __attribute__((vector_size(sizeof(T) * W)));
};
template <class T, std::size_t W>
using native_t = typename native<T, W>::type;

/// Integer vector of the same lane geometry (what comparisons produce).
template <class T, std::size_t W>
using native_mask_t = typename native<typename mask_bits<T>::type, W>::type;

} // namespace detail

template <class T, std::size_t W>
class mask;

template <class T, std::size_t W>
class pack {
    static_assert(W > 0 && (W & (W - 1)) == 0, "pack width must be a power of two");
    using vec = detail::native_t<T, W>;

  public:
    using value_type = T;
    static constexpr std::size_t size() { return W; }

    pack() : v_{} {}

    /// Broadcast constructor.
    pack(T s) { // NOLINT(google-explicit-constructor): broadcast is intended
        for (std::size_t i = 0; i < W; ++i) v_[i] = s;
    }

    /// Element load from contiguous memory. The lane loop SLP-vectorizes to
    /// one unaligned vector load (measured faster than a memcpy of the
    /// vector, which GCC routes through a stack temporary here).
    static pack load(const T* p) {
        pack r;
        for (std::size_t i = 0; i < W; ++i) r.v_[i] = p[i];
        return r;
    }
    /// Element store to contiguous memory.
    void store(T* p) const {
        for (std::size_t i = 0; i < W; ++i) p[i] = v_[i];
    }

    T operator[](std::size_t i) const { return v_[i]; }
    void set(std::size_t i, T val) { v_[i] = val; }

    /// The underlying native vector (for the free functions below).
    vec native() const { return v_; }
    static pack from_native(vec v) {
        pack r;
        r.v_ = v;
        return r;
    }

    friend pack operator+(pack a, const pack& b) {
        a.v_ += b.v_;
        return a;
    }
    friend pack operator-(pack a, const pack& b) {
        a.v_ -= b.v_;
        return a;
    }
    friend pack operator*(pack a, const pack& b) {
        a.v_ *= b.v_;
        return a;
    }
    friend pack operator/(pack a, const pack& b) {
        a.v_ /= b.v_;
        return a;
    }
    friend pack operator-(const pack& a) { return pack(T{0}) - a; }

    pack& operator+=(const pack& o) { return *this = *this + o; }
    pack& operator-=(const pack& o) { return *this = *this - o; }
    pack& operator*=(const pack& o) { return *this = *this * o; }
    pack& operator/=(const pack& o) { return *this = *this / o; }

    /// Horizontal sum of all lanes (sequential lane order, so results are
    /// reproducible and independent of the instruction set).
    T hsum() const {
        T s{0};
        for (std::size_t i = 0; i < W; ++i) s += v_[i];
        return s;
    }

    friend std::ostream& operator<<(std::ostream& os, const pack& p) {
        os << '[';
        for (std::size_t i = 0; i < W; ++i) os << (i ? ", " : "") << p.v_[i];
        return os << ']';
    }

  private:
    vec v_;
};

/// sqrt applied lane-wise. Compiled with -fno-math-errno (the kernel
/// library's flags) the lane loop becomes one packed sqrt; the result is
/// the correctly rounded IEEE sqrt of each lane either way.
template <class T, std::size_t W>
pack<T, W> sqrt(pack<T, W> a) {
    pack<T, W> r;
    for (std::size_t i = 0; i < W; ++i) r.set(i, std::sqrt(a[i]));
    return r;
}

/// 1/sqrt applied lane-wise. The FMM interaction kernels are dominated by
/// this operation (computing 1/|d| for each cell pair).
template <class T, std::size_t W>
pack<T, W> rsqrt(pack<T, W> a) {
    pack<T, W> r;
    for (std::size_t i = 0; i < W; ++i) r.set(i, T{1} / std::sqrt(a[i]));
    return r;
}

template <class T, std::size_t W>
pack<T, W> max(const pack<T, W>& a, const pack<T, W>& b) {
    return pack<T, W>::from_native(a.native() > b.native() ? a.native()
                                                           : b.native());
}

template <class T, std::size_t W>
pack<T, W> min(const pack<T, W>& a, const pack<T, W>& b) {
    return pack<T, W>::from_native(a.native() < b.native() ? a.native()
                                                           : b.native());
}

template <class T, std::size_t W>
pack<T, W> abs(pack<T, W> a) {
    pack<T, W> r;
    for (std::size_t i = 0; i < W; ++i) r.set(i, std::fabs(a[i]));
    return r;
}

/// pow applied lane-wise (no fast vector form; callers guard it behind an
/// any() test so smooth flow skips it entirely).
template <class T, std::size_t W>
pack<T, W> pow(pack<T, W> a, T e) {
    pack<T, W> r;
    for (std::size_t i = 0; i < W; ++i) r.set(i, std::pow(a[i], e));
    return r;
}

// ---- lane masks ------------------------------------------------------------
// Comparisons on packs yield a mask; select() blends lane-wise. This is the
// branch-free form the PPM limiter and the dual-energy switch compile to
// (paper §4.3: the Vc port rewrites the per-cell branches as masked ops).
// The mask is the comparison's native integer vector (all-ones / all-zero
// lanes) and select() is the native vector ternary — a single blend
// instruction, bit-exact for every value including signed zeros and NaNs.

template <class T, std::size_t W>
class mask {
    using ivec = detail::native_mask_t<T, W>;
    using bits = typename detail::mask_bits<T>::type;

  public:
    static constexpr std::size_t size() { return W; }

    mask() : m_{} {}
    explicit mask(bool b) {
        for (std::size_t i = 0; i < W; ++i) m_[i] = b ? ~bits{0} : bits{0};
    }

    bool operator[](std::size_t i) const { return m_[i] != 0; }
    void set(std::size_t i, bool b) { m_[i] = b ? ~bits{0} : bits{0}; }

    ivec native() const { return m_; }
    static mask from_native(ivec v) {
        mask r;
        r.m_ = v;
        return r;
    }

    friend mask operator&&(mask a, const mask& b) {
        a.m_ &= b.m_;
        return a;
    }
    friend mask operator||(mask a, const mask& b) {
        a.m_ |= b.m_;
        return a;
    }
    friend mask operator!(mask a) {
        a.m_ = ~a.m_;
        return a;
    }

  private:
    ivec m_;
};

#define OCTO_SIMD_CMP(op)                                                      \
    template <class T, std::size_t W>                                          \
    mask<T, W> operator op(const pack<T, W>& a, const pack<T, W>& b) {         \
        return mask<T, W>::from_native(a.native() op b.native());              \
    }
OCTO_SIMD_CMP(<)
OCTO_SIMD_CMP(<=)
OCTO_SIMD_CMP(>)
OCTO_SIMD_CMP(>=)
OCTO_SIMD_CMP(==)
#undef OCTO_SIMD_CMP

/// Lane-wise blend: m ? a : b (branchless native blend).
template <class T, std::size_t W>
pack<T, W> select(const mask<T, W>& m, const pack<T, W>& a, const pack<T, W>& b) {
    return pack<T, W>::from_native(m.native() ? a.native() : b.native());
}

template <class T, std::size_t W>
bool any(const mask<T, W>& m) {
    bool r = false;
    for (std::size_t i = 0; i < W; ++i) r = r || m[i];
    return r;
}

template <class T, std::size_t W>
bool all(const mask<T, W>& m) {
    bool r = true;
    for (std::size_t i = 0; i < W; ++i) r = r && m[i];
    return r;
}

/// Horizontal max / min over lanes (CFL reductions).
template <class T, std::size_t W>
T hmax(const pack<T, W>& p) {
    T r = p[0];
    for (std::size_t i = 1; i < W; ++i) r = p[i] > r ? p[i] : r;
    return r;
}

template <class T, std::size_t W>
T hmin(const pack<T, W>& p) {
    T r = p[0];
    for (std::size_t i = 1; i < W; ++i) r = p[i] < r ? p[i] : r;
    return r;
}

// ---- Scalar counterparts so kernel templates work with T = double ---------
// (the "instantiate the same function template with scalar datatypes and call
// it within the GPU kernel" trick from paper §5.1)

inline double rsqrt(double a) { return 1.0 / std::sqrt(a); }
inline float rsqrt(float a) { return 1.0f / std::sqrt(a); }
inline double hsum(double a) { return a; }
template <class T, std::size_t W>
T hsum(const pack<T, W>& p) {
    return p.hsum();
}
inline double select(bool m, double a, double b) { return m ? a : b; }
inline bool any(bool m) { return m; }
inline bool all(bool m) { return m; }
inline double hmax(double a) { return a; }
inline double hmin(double a) { return a; }
inline double max(double a, double b) { return a > b ? a : b; }
inline double min(double a, double b) { return a < b ? a : b; }
inline double abs(double a) { return std::fabs(a); }
inline double sqrt(double a) { return std::sqrt(a); }
inline double pow(double a, double e) { return std::pow(a, e); }

/// Default vector width for double precision on this build.
inline constexpr std::size_t default_width = 8; // one AVX-512 register (or two
                                                // AVX2 ops when only 256-bit
                                                // units are available)
using dpack = pack<double, default_width>;

} // namespace octo::simd

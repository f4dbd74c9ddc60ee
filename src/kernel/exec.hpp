#pragma once
// Portable kernel layer, following "From Merging Frameworks to Merging
// Stars" (arXiv:2210.06439).
//
// Every hot kernel in src/kernel is written ONCE as a body templated on a
// value type T and reached through one `run_*(bool vectorized, ...)` entry:
//
//   vectorized = false   T = double, one lane: the width-1 reference.
//   vectorized = true    T = simd::pack<double, default_width>, the
//                        build's pack width.
//
// Both are fixed per build, like the SIMD type of a Kokkos build target.
// No runtime setting picks another width, so a run's bits depend only on
// the build and `vectorized`.
//
// The simulated device has no value type of its own: an offloaded kernel
// runs the caller's, so the device and the CPU call one compiled function
// and their results are bit-identical by construction.

#include <cstddef>

#include "simd/pack.hpp"

namespace octo::kernel {

// ---- value-type traits shared by the kernel bodies ------------------------

template <class T>
struct lane_count {
    static constexpr int value = 1;
};
template <class U, std::size_t W>
struct lane_count<simd::pack<U, W>> {
    static constexpr int value = static_cast<int>(W);
};

template <class T>
struct mask_of {
    using type = bool;
};
template <class U, std::size_t W>
struct mask_of<simd::pack<U, W>> {
    using type = simd::mask<U, W>;
};
template <class T>
using mask_t = typename mask_of<T>::type;

template <class T>
inline T load_v(const double* p) {
    if constexpr (lane_count<T>::value == 1) {
        return *p;
    } else {
        return T::load(p);
    }
}

template <class T>
inline void store_v(double* p, const T& v) {
    if constexpr (lane_count<T>::value == 1) {
        *p = v;
    } else {
        v.store(p);
    }
}

template <class T>
inline void store_add(double* p, const T& v) {
    if constexpr (lane_count<T>::value == 1) {
        *p += v;
    } else {
        (load_v<T>(p) + v).store(p);
    }
}

/// Extract lane l (scalar: the value itself) — used by the axis-2 hydro
/// flux scatter where faces are strided in memory.
template <class T>
inline double lane(const T& v, int l) {
    if constexpr (lane_count<T>::value == 1) {
        (void)l;
        return v;
    } else {
        return v[static_cast<std::size_t>(l)];
    }
}

/// Invoke `f` with a value of the build's pack type when `vectorized`,
/// else with a double; the kernel bodies take `decltype(v)` as T.
template <class F>
void dispatch(bool vectorized, F&& f) {
    if (vectorized) {
        f(simd::pack<double, simd::default_width>{});
    } else {
        f(0.0);
    }
}

} // namespace octo::kernel

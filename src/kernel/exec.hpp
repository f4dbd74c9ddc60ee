#pragma once
// Portable kernel layer: execution-space policies (ISSUE 7, following
// "From Merging Frameworks to Merging Stars", arXiv:2210.06439).
//
// Every hot kernel in src/kernel is written ONCE as a body templated on a
// value type T (double or simd::pack<double, W>) and wrapped in a thin
// policy template:
//
//   exec::scalar   — T = double, one lane.
//   exec::simd<W>  — T = simd::pack<double, W>, W lanes per op.
//
// The simulated device has no policy of its own: an offloaded kernel runs
// the caller's exec_config, so the device and the CPU call one compiled
// function and their results are bit-identical by construction.
//
// A runtime `exec_config` (backend, width, tile) — usually produced by the
// autotuner (autotune.hpp) — is mapped onto these policies by dispatch().

#include <cstddef>

#include "simd/pack.hpp"

namespace octo::kernel {

/// `gpu` names no execution policy; it keys the autotune-cache entry for
/// the device's aggregation batch and flush timeout (fmm.same_level).
enum class backend_kind : int { scalar = 0, simd = 1, gpu = 2 };

inline const char* backend_name(backend_kind b) {
    switch (b) {
        case backend_kind::scalar: return "scalar";
        case backend_kind::simd: return "simd";
        case backend_kind::gpu: return "gpu";
    }
    return "?";
}

namespace exec {

struct scalar {
    using value_type = double;
    static constexpr int width = 1;
    static constexpr backend_kind backend = backend_kind::scalar;
};

template <int W>
struct simd {
    using value_type = octo::simd::pack<double, static_cast<std::size_t>(W)>;
    static constexpr int width = W;
    static constexpr backend_kind backend = backend_kind::simd;
};

} // namespace exec

/// Runtime kernel-launch geometry; the autotuner picks these per
/// (kernel, machine, backend) and dispatch() maps them onto a policy.
struct exec_config {
    backend_kind backend = backend_kind::simd;
    int width = static_cast<int>(octo::simd::default_width);
    /// Blocking factor: receiver rows for the FMM kernels, transverse lanes
    /// for the hydro pencil passes. 0 = whole extent (the untiled default).
    int tile = 0;
};

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

/// Invoke `f` with the execution policy selected by cfg. Unknown SIMD
/// widths fall back to the build's default pack width.
template <class F>
void dispatch(const exec_config& cfg, F&& f) {
    if (cfg.backend == backend_kind::scalar || cfg.width <= 1) {
        f(exec::scalar{});
        return;
    }
    switch (cfg.width) {
        case 2: f(exec::simd<2>{}); return;
        case 4: f(exec::simd<4>{}); return;
        default: f(exec::simd<static_cast<int>(octo::simd::default_width)>{}); return;
    }
}

} // namespace octo::kernel

#pragma once
// Cache-line / SIMD-aligned storage. The FMM kernels are struct-of-arrays
// (paper §4.3) and rely on aligned, contiguous buffers for vectorization.

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "support/buffer_recycler.hpp"

namespace octo {

inline constexpr std::size_t simd_alignment = 64; // AVX-512 / cache line

/// Allocates through the buffer_recycler: freed blocks are parked in
/// size-keyed free lists instead of returned to the system, so steady-state
/// solver iterations perform zero allocations (the recycled-buffer scheme of
/// the 2022 work-aggregation follow-on paper).
template <class T, std::size_t Align = simd_alignment>
struct aligned_allocator {
    using value_type = T;

    // allocator_traits cannot synthesize rebind across the non-type Align
    // parameter, so it must be spelled out.
    template <class U>
    struct rebind {
        using other = aligned_allocator<U, Align>;
    };

    aligned_allocator() = default;
    template <class U>
    aligned_allocator(const aligned_allocator<U, Align>&) noexcept {}

    T* allocate(std::size_t n) {
        if (n == 0) return nullptr;
        void* p = buffer_recycler::instance().allocate(n * sizeof(T), Align);
        return static_cast<T*>(p);
    }
    void deallocate(T* p, std::size_t n) noexcept {
        buffer_recycler::instance().deallocate(p, n * sizeof(T), Align);
    }

    template <class U>
    bool operator==(const aligned_allocator<U, Align>&) const noexcept {
        return true;
    }
};

/// std::vector with SIMD-aligned storage.
template <class T>
using aligned_vector = std::vector<T, aligned_allocator<T>>;

/// aligned_allocator whose argument-less construct() default-initializes,
/// so resize() leaves new trivially constructible elements indeterminate
/// instead of zero-filling them. For scratch every kernel overwrites in full
/// before reading it.
template <class T, std::size_t Align = simd_alignment>
struct uninit_allocator : aligned_allocator<T, Align> {
    template <class U>
    struct rebind {
        using other = uninit_allocator<U, Align>;
    };

    uninit_allocator() = default;
    template <class U>
    uninit_allocator(const uninit_allocator<U, Align>&) noexcept {}

    // Constructions with arguments (copies, emplace) fall through
    // allocator_traits to the usual placement new.
    template <class U>
    void construct(U* p) {
        ::new (static_cast<void*>(p)) U;
    }
};

/// aligned_vector whose resize() does not initialize (see uninit_allocator).
template <class T>
using scratch_vector = std::vector<T, uninit_allocator<T>>;

} // namespace octo

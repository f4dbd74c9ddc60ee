#pragma once
// Reusable buffer pool — the allocation-churn fix from the follow-on paper
// ("From Task-Based GPU Work Aggregation to Stellar Mergers", 2022): task
// codes that allocate and free their per-task scratch on every invocation
// spend more time in the allocator than in the kernels. The recycler keeps
// freed buffers in size-keyed free lists so steady-state solves perform zero
// allocations; `aligned_allocator` routes through it, which makes every
// `aligned_vector` in the tree (FMM workspaces, partner buffers, sub-grids,
// hydro scratch, halo plans) recycle transparently.

#include <cstddef>
#include <cstdint>

namespace octo {

class buffer_recycler {
  public:
    struct stats_t {
        std::uint64_t hits = 0;       ///< allocations served from the pool
        std::uint64_t misses = 0;     ///< allocations that hit ::operator new
        std::uint64_t returns = 0;    ///< deallocations parked in the pool
        std::uint64_t pooled_bytes = 0; ///< bytes currently parked
    };

    /// Process-wide instance. Intentionally leaked so buffers freed during
    /// static destruction (thread-local scratch, global pools) never touch a
    /// destroyed registry.
    static buffer_recycler& instance();

    /// Allocate `bytes` aligned to `align`; reuses a parked buffer of the
    /// exact same (bytes, align) bucket when one exists.
    void* allocate(std::size_t bytes, std::size_t align);

    /// Return a buffer obtained from allocate(). Parks it for reuse.
    void deallocate(void* p, std::size_t bytes, std::size_t align) noexcept;

    stats_t stats() const;

    /// Free every parked buffer (keeps counters). Used by benchmarks to
    /// emulate cold-start allocation behaviour.
    void clear();

    /// Give the memory of every parked buffer back to the OS but keep the
    /// buffers parked: the whole pages inside each one are dropped (Linux
    /// madvise MADV_DONTNEED; a no-op elsewhere), and the next owner faults
    /// in fresh zero pages. Counters and pooled_bytes do not change. For
    /// points where parked buffers are idle for a while and something large
    /// is about to be allocated beside them (core::simulation restarts).
    void release_pages();

  private:
    buffer_recycler();
    ~buffer_recycler() = delete; // leaky singleton

    struct impl;
    impl* impl_;
};

} // namespace octo

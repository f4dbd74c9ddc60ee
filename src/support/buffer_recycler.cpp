#include "support/buffer_recycler.hpp"

#include <atomic>
#include <mutex>
#include <new>
#include <unordered_map>
#include <vector>

#ifdef __linux__
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "sanitize/hooks.hpp"
#include "sanitize/tsan.hpp"

namespace octo {

namespace {

/// Bucket key: buffers are only interchangeable when both size and alignment
/// match exactly. Alignment is a power of two <= 2^16 in practice, so fold it
/// into the top bits of the size.
constexpr std::uint64_t bucket_key(std::size_t bytes, std::size_t align) {
    return static_cast<std::uint64_t>(bytes) ^
           (static_cast<std::uint64_t>(align) << 48);
}

} // namespace

struct buffer_recycler::impl {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, std::vector<void*>> buckets;
    std::uint64_t pooled_bytes = 0;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> returns{0};
};

buffer_recycler::buffer_recycler() : impl_(new impl) {}

buffer_recycler& buffer_recycler::instance() {
    static buffer_recycler* const r = new buffer_recycler; // leaked on purpose
    return *r;
}

void* buffer_recycler::allocate(std::size_t bytes, std::size_t align) {
    { // pool lookup under the lock; a miss allocates outside it
        std::lock_guard lock(impl_->mutex);
        auto it = impl_->buckets.find(bucket_key(bytes, align));
        if (it != impl_->buckets.end() && !it->second.empty()) {
            void* p = it->second.back();
            it->second.pop_back();
            impl_->pooled_bytes -= bytes;
            impl_->hits.fetch_add(1, std::memory_order_relaxed);
            // Free-list hand-off, consumer side: join the parking thread's
            // clock, and tell TSan the previous owner's unsynchronized
            // payload writes are dead — this block is fresh memory to the
            // new owner.
            sanitize::hb_after(p);
            OCTO_TSAN_HB_AFTER(p);
            OCTO_TSAN_NEW_MEMORY(p, bytes);
            return p;
        }
    }
    impl_->misses.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(bytes, std::align_val_t{align});
}

void buffer_recycler::deallocate(void* p, std::size_t bytes,
                                 std::size_t align) noexcept {
    if (p == nullptr) return;
    impl_->returns.fetch_add(1, std::memory_order_relaxed);
    // Free-list hand-off, producer side: whatever the parking thread wrote
    // into the buffer happens-before the next owner's reuse.
    sanitize::hb_before(p);
    OCTO_TSAN_HB_BEFORE(p);
    std::lock_guard lock(impl_->mutex);
    impl_->buckets[bucket_key(bytes, align)].push_back(p);
    impl_->pooled_bytes += bytes;
}

buffer_recycler::stats_t buffer_recycler::stats() const {
    stats_t s;
    s.hits = impl_->hits.load(std::memory_order_relaxed);
    s.misses = impl_->misses.load(std::memory_order_relaxed);
    s.returns = impl_->returns.load(std::memory_order_relaxed);
    std::lock_guard lock(impl_->mutex);
    s.pooled_bytes = impl_->pooled_bytes;
    return s;
}

void buffer_recycler::release_pages() {
#ifdef __linux__
    const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    std::lock_guard lock(impl_->mutex);
    for (const auto& [key, list] : impl_->buckets) {
        const auto bytes = static_cast<std::uintptr_t>(key & ((std::uint64_t{1} << 48) - 1));
        for (void* p : list) {
            // Whole pages only: the allocator's bookkeeping around a block
            // and any neighbouring block keep their bytes.
            const auto b = reinterpret_cast<std::uintptr_t>(p);
            const std::uintptr_t lo = (b + page - 1) & ~(page - 1);
            const std::uintptr_t hi = (b + bytes) & ~(page - 1);
            if (hi > lo) ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
        }
    }
#endif
}

void buffer_recycler::clear() {
    std::unordered_map<std::uint64_t, std::vector<void*>> buckets;
    {
        std::lock_guard lock(impl_->mutex);
        buckets.swap(impl_->buckets);
        impl_->pooled_bytes = 0;
    }
    for (auto& [key, list] : buckets) {
        const auto align = static_cast<std::size_t>(key >> 48);
        for (void* p : list) {
            sanitize::sync_retire(p); // address may be reincarnated by new
            ::operator delete(p, std::align_val_t{align});
        }
    }
}

} // namespace octo

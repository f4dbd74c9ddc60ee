#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>

#include "runtime/future.hpp"
#include "sanitize/hooks.hpp"
#include "support/assert.hpp"

namespace octo::rt {
namespace {

// Thread-local identity of a pool worker.
thread_local thread_pool* tls_pool = nullptr;
thread_local unsigned tls_index = 0;

#ifdef OCTO_RACE_DETECT
/// Wrap a task with a per-post sync token so the detector sees the edge
/// "everything the poster did happens-before the task body" — the edge the
/// queue mutex provides for real. Odd token values never alias object
/// addresses (all tracked objects are at least 2-byte aligned).
task wrap_task_for_detector(task t) {
    static std::atomic<std::uintptr_t> counter{1};
    const void* token = reinterpret_cast<const void*>(
        counter.fetch_add(2, std::memory_order_relaxed));
    sanitize::hb_before(token);
    return [inner = std::move(t), token]() mutable {
        sanitize::hb_after(token);
        inner();
        sanitize::sync_retire(token);
    };
}
#endif

} // namespace

thread_pool::thread_pool(unsigned nthreads) {
    OCTO_ASSERT(nthreads >= 1);
    queues_.reserve(nthreads);
    for (unsigned i = 0; i < nthreads; ++i) {
        queues_.push_back(std::make_unique<worker_queue>());
    }
    workers_.reserve(nthreads);
    for (unsigned i = 0; i < nthreads; ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

thread_pool::~thread_pool() {
    {
        std::lock_guard lock(sleep_mutex_);
        stop_.store(true, std::memory_order_release);
    }
    sleep_cv_.notify_all();
    for (auto& w : workers_) w.join();
}

bool thread_pool::post(task t) {
    OCTO_ASSERT_MSG(!stop_.load(std::memory_order_acquire), "post() after shutdown");
    if (closed_.load(std::memory_order_acquire)) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
#ifdef OCTO_RACE_DETECT
    t = wrap_task_for_detector(std::move(t));
#endif
    // acq_rel: the increment must be ordered against wait_idle()'s acquire
    // load — a relaxed increment could let a concurrent wait_idle() observe
    // the pre-post zero after the task is already enqueued.
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    posted_.fetch_add(1, std::memory_order_relaxed);

    unsigned q;
    if (tls_pool == this) {
        q = tls_index; // local LIFO push for cache locality
    } else {
        q = next_victim_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
    }
    {
        std::lock_guard lock(queues_[q]->mutex);
        queues_[q]->tasks.push_back(std::move(t));
    }
    sleep_cv_.notify_one();
    return true;
}

void thread_pool::close() { closed_.store(true, std::memory_order_release); }

bool thread_pool::try_pop_or_steal(unsigned index, task& out) {
    // Local queue first (LIFO end — depth-first execution of freshly spawned
    // work keeps the working set hot).
    {
        auto& q = *queues_[index];
        std::lock_guard lock(q.mutex);
        if (!q.tasks.empty()) {
            out = std::move(q.tasks.back());
            q.tasks.pop_back();
            executed_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    // Steal from the FIFO end of other queues (oldest task: likely the root
    // of the largest remaining subtree).
    const unsigned n = static_cast<unsigned>(queues_.size());
    for (unsigned k = 1; k < n; ++k) {
        auto& q = *queues_[(index + k) % n];
        std::lock_guard lock(q.mutex);
        if (!q.tasks.empty()) {
            out = std::move(q.tasks.front());
            q.tasks.pop_front();
            executed_.fetch_add(1, std::memory_order_relaxed);
            stolen_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    return false;
}

thread_pool::statistics thread_pool::stats() const {
    return {executed_.load(std::memory_order_relaxed),
            stolen_.load(std::memory_order_relaxed),
            posted_.load(std::memory_order_relaxed),
            rejected_.load(std::memory_order_relaxed)};
}

bool thread_pool::run_pending_task() {
    const unsigned index = (tls_pool == this) ? tls_index : 0;
    task t;
    if (!try_pop_or_steal(index, t)) return false;
    t();
    if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) idle_cv_.notify_all();
    return true;
}

void thread_pool::worker_loop(unsigned index) {
    tls_pool = this;
    tls_index = index;
    for (;;) {
        task t;
        if (try_pop_or_steal(index, t)) {
            t();
            if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                idle_cv_.notify_all();
            }
            continue;
        }
        std::unique_lock lock(sleep_mutex_);
        if (stop_.load(std::memory_order_acquire)) return;
        // Re-check for work that raced with us before sleeping.
        lock.unlock();
        if (try_pop_or_steal(index, t)) {
            t();
            if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                idle_cv_.notify_all();
            }
            continue;
        }
        lock.lock();
        if (stop_.load(std::memory_order_acquire)) return;
        sleep_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
}

thread_pool* thread_pool::current() noexcept { return tls_pool; }
unsigned thread_pool::current_worker_index() noexcept { return tls_index; }

thread_pool& thread_pool::global() {
    static thread_pool pool{std::max(2u, std::thread::hardware_concurrency())};
    return pool;
}

void thread_pool::wait_idle() {
    OCTO_ASSERT_MSG(tls_pool != this, "wait_idle() from a worker would deadlock");
    std::unique_lock lock(sleep_mutex_);
    // Timed wait avoids a missed-wakeup race: workers notify idle_cv_ without
    // holding sleep_mutex_ for performance, so we re-check periodically.
    while (inflight_.load(std::memory_order_acquire) != 0) {
        idle_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
}

std::size_t for_chunks(thread_pool& pool, std::size_t count,
                       const std::function<void(std::size_t, std::size_t)>& body) {
    const std::size_t chunks = std::min<std::size_t>(count, std::size_t{4} * pool.size());
    std::vector<future<void>> fs;
    fs.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t lo = count * c / chunks;
        const std::size_t hi = count * (c + 1) / chunks;
        fs.push_back(async(pool, [&body, lo, hi] { body(lo, hi); }));
    }
    for (auto& f : fs) f.get(); // helps run the tasks while it waits
    return chunks;
}

} // namespace octo::rt

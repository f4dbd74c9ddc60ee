#pragma once
// Work-stealing task scheduler — the substrate of the HPX-substitute runtime
// (DESIGN.md). Mirrors the properties the paper relies on (§4.1):
//   * a work-stealing lightweight task scheduler for fine-grained
//     parallelization and automatic load balancing,
//   * wait-free task submission on the fast path,
//   * "work-helping" blocking: a worker that waits on a future executes
//     other pending tasks instead of blocking the OS thread (this emulates
//     HPX's user-level-thread suspension, which is what lets Octo-Tiger keep
//     thousands of tasks in flight per node).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace octo::rt {

using task = std::function<void()>;

class thread_pool {
  public:
    /// Create a pool with `nthreads` OS worker threads (>= 1).
    explicit thread_pool(unsigned nthreads);
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    /// Enqueue a task. Called from worker threads it pushes to the local
    /// deque (LIFO for locality); from external threads it pushes to the
    /// submitter's round-robin victim queue. Returns false (and drops the
    /// task) if the pool has been close()d — a dead locality's scheduler
    /// accepts nothing, it does not crash the submitter.
    bool post(task t);

    /// Stop accepting work (node-death model, ISSUE 10): subsequent post()
    /// calls drop their task and return false. Tasks already queued still
    /// run — the node died mid-step, work it had accepted may complete, but
    /// nothing new lands on it. Irreversible for the pool's lifetime.
    void close();
    bool accepting() const {
        return !closed_.load(std::memory_order_acquire);
    }

    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /// Run one pending task if any is available to this thread; returns
    /// whether a task was executed. Used by future::get() to help instead of
    /// blocking, and by parcelport polling loops.
    bool run_pending_task();

    /// Pool the calling thread is a worker of, or nullptr.
    static thread_pool* current() noexcept;
    /// Index of the calling worker within its pool (undefined if none).
    static unsigned current_worker_index() noexcept;

    /// Process-wide default pool (hardware_concurrency workers).
    static thread_pool& global();

    /// Scheduler statistics (HPX performance-counter analogue, paper §4.1).
    struct statistics {
        std::uint64_t tasks_executed = 0;
        std::uint64_t tasks_stolen = 0; ///< executed after a steal
        std::uint64_t tasks_posted = 0;
        std::uint64_t tasks_rejected = 0; ///< dropped by post() after close()
    };
    statistics stats() const;

    /// Block until all tasks posted so far (and tasks they spawned) have
    /// completed. Only callable from a non-worker thread.
    void wait_idle();

  private:
    struct worker_queue {
        std::mutex mutex;
        std::deque<task> tasks;
    };

    void worker_loop(unsigned index);
    bool try_pop_or_steal(unsigned index, task& out);

    std::vector<std::unique_ptr<worker_queue>> queues_;
    std::vector<std::thread> workers_;

    std::mutex sleep_mutex_;
    std::condition_variable sleep_cv_;
    std::condition_variable idle_cv_;

    std::atomic<unsigned> next_victim_{0};
    std::atomic<std::size_t> inflight_{0}; // queued + executing tasks
    std::atomic<bool> stop_{false};
    std::atomic<bool> closed_{false};

    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> stolen_{0};
    std::atomic<std::uint64_t> posted_{0};
    std::atomic<std::uint64_t> rejected_{0};
};

/// Run body(lo, hi) over [0, count) split into at most 4 contiguous chunks
/// per worker, as tasks on `pool`, and wait (helping) for all of them;
/// returns the number of chunks. The bodies must write disjoint data; the
/// result then does not depend on the pool.
std::size_t for_chunks(thread_pool& pool, std::size_t count,
                       const std::function<void(std::size_t, std::size_t)>& body);

} // namespace octo::rt

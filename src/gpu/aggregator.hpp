#pragma once
// GPU work aggregation (ROADMAP item 1; "From Task-Based GPU Work
// Aggregation to Stellar Mergers", arXiv:2210.06438).
//
// The paper's co-processor model launches one *small* kernel per octree node
// (8 blocks x 64 threads) on up to 128 streams — deliberately under-occupying
// a modern GPU and falling back to CPU execution whenever the launching
// thread's streams are all busy (§5.1). The follow-on paper shows how to
// recover occupancy without restructuring the solver: callers keep submitting
// fine-grained per-subgrid kernels, and an *aggregation executor* dynamically
// packs pending same-class submissions into slices of one shared staging
// buffer, issuing a single fused launch per batch.
//
// This header provides that executor for the simulated device:
//
//   * work_item     — {input slice, kernel class, flops} descriptor; the
//                     kernel closure is the simulated device code (the same
//                     compiled kernels and launch geometry the CPU path
//                     runs, so results are bit-identical by construction).
//   * device_group  — K simulated devices with independent stream pools; the
//                     executor dispatches each batch to the least-loaded
//                     device (round-robin on ties).
//   * aggregator    — the work-item queue. submit() returns a future that
//                     completes exactly once, when the item's slice of its
//                     fused batch has executed. It returns nullopt — the
//                     paper's CPU-fallback condition — when the device pool
//                     is saturated or a seeded stream-acquire fault fires,
//                     so callers keep the §5.1 per-kernel CPU fallback.
//
// A fused launch runs its items data-parallel: one device block per item,
// each a task on the host pool (the data-parallel fused kernel of
// arXiv:2210.06438). Items of one batch must therefore write disjoint
// outputs; work that must stay ordered belongs in one item.
//
// Batches flush when they reach max_batch items or when the oldest pending
// item exceeds flush_after_us (a background flusher guarantees progress, so
// joining on a submitted future can never deadlock on a partial batch).
// Staging storage is an aligned_vector recycled through buffer_recycler, and
// every slice carries race-detector read/write claims ("gpu.staging") so the
// PR-3 sanitize layer certifies the stage-before-execute ordering.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "gpu/device.hpp"
#include "runtime/future.hpp"
#include "runtime/spinlock.hpp"
#include "support/aligned.hpp"
#include "support/flops.hpp"

namespace octo::gpu {

/// One fine-grained kernel submission: what the per-subgrid launch sites
/// (fmm::solver same-level kernels, hydro flux sweeps) hand to the executor
/// instead of acquiring a stream themselves.
struct work_item {
    kernel_class kc = kernel_class::other;
    std::uint64_t flops = 0;
    /// Size (in doubles) of this item's input slice in the batch's shared
    /// staging buffer — the modeled host→device halo transfer. Zero means
    /// the kernel runs in place on host memory (unified-memory style).
    std::size_t staging_doubles = 0;
    /// Write the item's device inputs into its staging slice. May be empty
    /// when staging_doubles is zero.
    std::function<void(double* slice)> stage;
    /// Execute the kernel; `slice` points at the staged input (nullptr when
    /// staging_doubles is zero). Must be bit-identical to the CPU path.
    std::function<void(const double* slice)> kernel;
};

struct aggregator_options {
    /// Fused-launch size threshold: a batch launches as soon as this many
    /// same-class items are pending.
    unsigned max_batch = 16;
    /// Age threshold: partial batches launch once their oldest item has
    /// waited this long (the background flusher's period is half of this).
    double flush_after_us = 100.0;
    /// Saturation bound on pending + in-flight items; 0 means auto
    /// (max_batch x total streams across the devices). Submissions beyond
    /// it are rejected — the caller runs the kernel on the CPU (§5.1).
    std::size_t saturation_items = 0;
};

/// K simulated devices of the same spec, each with its own stream pool —
/// the multi-device extension of the single-device model.
class device_group {
  public:
    device_group(const device_spec& spec, unsigned count);

    std::size_t size() const { return devs_.size(); }
    device& at(std::size_t i) { return *devs_[i]; }
    const device& at(std::size_t i) const { return *devs_[i]; }
    std::vector<device*> devices();

  private:
    std::vector<std::unique_ptr<device>> devs_;
};

class aggregator {
  public:
    /// Aggregate onto a single existing device.
    explicit aggregator(device& dev, aggregator_options opt = {});
    /// Aggregate across every device of a group (least-loaded dispatch).
    explicit aggregator(device_group& group, aggregator_options opt = {});
    /// Aggregate across an explicit device set (not owned).
    explicit aggregator(std::vector<device*> devices,
                        aggregator_options opt = {});
    ~aggregator();

    aggregator(const aggregator&) = delete;
    aggregator& operator=(const aggregator&) = delete;

    /// Submit one work item. The returned future completes exactly once,
    /// when the item's slice of its fused batch has executed. nullopt means
    /// the device pool is saturated (or a seeded stream-acquire fault fired):
    /// the caller must run the kernel on the CPU — the same contract as
    /// device::try_acquire_stream() returning nullopt.
    std::optional<rt::future<void>> submit(work_item item);

    /// Launch every pending partial batch now.
    void flush();

    /// flush() and block until every submitted item has completed. On a
    /// host-pool worker it runs pending tasks while it waits.
    void drain();

    const aggregator_options& options() const { return opt_; }

    struct stats_t {
        std::uint64_t submitted = 0;        ///< items accepted by submit()
        std::uint64_t rejected = 0;         ///< submit() CPU fallbacks
        std::uint64_t fused_launches = 0;   ///< batches launched on a stream
        std::uint64_t cpu_batches = 0;      ///< batches run inline (no stream)
        std::uint64_t aggregated_items = 0; ///< items executed via batches
        std::uint64_t max_batch_seen = 0;   ///< largest batch launched
    };
    stats_t stats() const;

  private:
    struct pending_item {
        work_item item;
        rt::promise<void> done;
    };
    struct class_queue {
        std::vector<pending_item> items;
        std::chrono::steady_clock::time_point oldest{};
    };

    void flusher_loop();
    void launch_batch(std::vector<pending_item> items, kernel_class kc);
    device* pick_device();

    std::vector<device*> devices_;
    aggregator_options opt_;
    std::size_t capacity_ = 0;

    mutable rt::spinlock lock_;
    std::array<class_queue, static_cast<std::size_t>(kernel_class::count_)>
        pending_;
    stats_t stats_;

    std::atomic<std::size_t> inflight_{0}; ///< accepted, not yet completed
    std::atomic<std::uint64_t> rr_{0};     ///< round-robin tie-break
    std::atomic<bool> stop_{false};
    std::thread flusher_;
};

} // namespace octo::gpu

#include "gpu/device.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "runtime/apex.hpp"
#include "runtime/thread_pool.hpp"
#include "support/assert.hpp"
#include "support/fault.hpp"

namespace octo::gpu {

device_spec p100() {
    return {.name = "NVIDIA P100",
            .peak_gflops = 4700.0,
            .num_sms = 56,
            .max_streams = 128,
            .blocks_per_kernel = 8,
            .launch_overhead_us = 5.0};
}

device_spec v100() {
    return {.name = "NVIDIA V100",
            .peak_gflops = 7000.0,
            .num_sms = 80,
            .max_streams = 128,
            .blocks_per_kernel = 8,
            .launch_overhead_us = 5.0};
}

device::device(device_spec spec) : spec_(std::move(spec)) {
    OCTO_ASSERT(spec_.max_streams > 0);
}

device::~device() {
    // Blocks of a launch still reference this device until the last one
    // releases the stream. A destructor running on a host-pool worker helps
    // execute them, so a pool with every worker here cannot starve them.
    rt::thread_pool* pool = rt::thread_pool::current();
    while (outstanding_.load(std::memory_order_acquire) != 0) {
        if (pool == nullptr || !pool->run_pending_task()) std::this_thread::yield();
    }
}

std::optional<stream_lease> device::try_acquire_stream() {
    if (auto lease = acquire_impl()) return lease;
    // Single accounting site for both failure modes (injected fault and
    // all-streams-busy): exactly one fallback per failed acquire, so the
    // counter equals the number of kernels the caller ran on the CPU.
    rt::apex_count("gpu.stream_fallbacks");
    return std::nullopt;
}

std::optional<stream_lease> device::acquire_impl() {
    // Seeded fault injection (ISSUE 5): a real driver can fail a stream
    // acquire transiently (OOM, context pressure). The caller's contract is
    // unchanged — nullopt means "run the kernel on the CPU instead" (§5.1) —
    // so the injected failure exercises exactly the production fallback.
    if (auto* inj = support::gpu_faults();
        inj != nullptr && inj->gpu_stream_fail()) {
        return std::nullopt;
    }
    // Lock-free optimistic acquire, matching the paper's requirement that
    // scheduling stays "lock-free, low-overhead" (§1).
    unsigned cur = in_use_.load(std::memory_order_relaxed);
    while (cur < spec_.max_streams) {
        if (in_use_.compare_exchange_weak(cur, cur + 1, std::memory_order_acq_rel)) {
            return stream_lease(this);
        }
    }
    return std::nullopt; // all streams busy
}

void device::release_stream() {
    const unsigned prev = in_use_.fetch_sub(1, std::memory_order_acq_rel);
    OCTO_ASSERT(prev > 0);
}

namespace {

/// Shared by the blocks of one launch; the block that brings `remaining` to
/// zero completes the launch.
struct launch_state {
    std::function<void(std::size_t)> block;
    std::atomic<std::size_t> remaining;
    std::uint64_t flops;
    kernel_class kc;
    rt::promise<void> done;
    std::once_flag first_error;
    std::exception_ptr error;
};

} // namespace

rt::future<void> device::enqueue(std::size_t blocks,
                                 std::function<void(std::size_t)> block,
                                 std::uint64_t flops, kernel_class kc) {
    OCTO_ASSERT(blocks > 0);
    kernels_.fetch_add(1, std::memory_order_relaxed);
    count_launch(kc, exec_site::gpu);
    // Modeled occupancy at launch time: every busy stream's kernel holds
    // blocks_per_kernel SMs (§5.1) — the under-occupancy the aggregation
    // executor exists to fix (it overwrites this gauge with batch blocks/SMs).
    const std::uint64_t busy_blocks =
        static_cast<std::uint64_t>(in_use_.load(std::memory_order_relaxed)) *
        spec_.blocks_per_kernel;
    rt::apex_gauge("gpu.occupancy_pct",
                   std::min<std::uint64_t>(100, busy_blocks * 100 / spec_.num_sms));

    auto st = std::make_shared<launch_state>();
    st->block = std::move(block);
    st->remaining.store(blocks, std::memory_order_release);
    st->flops = flops;
    st->kc = kc;
    auto fut = st->done.get_future();
    outstanding_.fetch_add(1, std::memory_order_acq_rel);

    rt::thread_pool& pool = rt::thread_pool::global();
    for (std::size_t i = 0; i < blocks; ++i) {
        const bool posted = pool.post([this, st, i] {
            try {
                st->block(i);
            } catch (...) {
                std::call_once(st->first_error,
                               [&] { st->error = std::current_exception(); });
            }
            if (st->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
            count_flops(st->kc, exec_site::gpu, st->flops);
            release_stream(); // stream becomes idle once its work drained
            if (st->error) {
                st->done.set_exception(st->error);
            } else {
                st->done.set_value();
            }
            // Last touch of the device: ~device may return after this.
            outstanding_.fetch_sub(1, std::memory_order_acq_rel);
        });
        OCTO_ASSERT_MSG(posted, "device launch on a closed host pool");
    }
    return fut;
}

rt::future<void> stream_lease::launch(std::size_t blocks,
                                      std::function<void(std::size_t)> block,
                                      std::uint64_t flops, kernel_class kc) {
    OCTO_ASSERT_MSG(dev_ != nullptr, "launch on an empty stream lease");
    device* d = dev_;
    dev_ = nullptr; // the device releases the stream when the kernel completes
    return d->enqueue(blocks, std::move(block), flops, kc);
}

} // namespace octo::gpu

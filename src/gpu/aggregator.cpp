#include "gpu/aggregator.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "runtime/apex.hpp"
#include "runtime/thread_pool.hpp"
#include "sanitize/hooks.hpp"
#include "support/assert.hpp"
#include "support/fault.hpp"

namespace octo::gpu {

// ---- device_group -----------------------------------------------------------

device_group::device_group(const device_spec& spec, unsigned count) {
    OCTO_ASSERT(count > 0);
    devs_.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        devs_.push_back(std::make_unique<device>(spec));
    }
}

std::vector<device*> device_group::devices() {
    std::vector<device*> out;
    out.reserve(devs_.size());
    for (auto& d : devs_) out.push_back(d.get());
    return out;
}

// ---- aggregator -------------------------------------------------------------

aggregator::aggregator(device& dev, aggregator_options opt)
    : aggregator(std::vector<device*>{&dev}, opt) {}

aggregator::aggregator(device_group& group, aggregator_options opt)
    : aggregator(group.devices(), opt) {}

aggregator::aggregator(std::vector<device*> devices, aggregator_options opt)
    : devices_(std::move(devices)), opt_(opt) {
    OCTO_ASSERT(!devices_.empty());
    OCTO_ASSERT(opt_.max_batch > 0);
    capacity_ = opt_.saturation_items;
    if (capacity_ == 0) {
        std::size_t streams = 0;
        for (const device* d : devices_) streams += d->max_streams();
        capacity_ = static_cast<std::size_t>(opt_.max_batch) * streams;
    }
    flusher_ = std::thread([this] { flusher_loop(); });
}

aggregator::~aggregator() {
    stop_.store(true);
    flusher_.join();
    drain(); // every accepted item owes its submitter a completed future
}

std::optional<rt::future<void>> aggregator::submit(work_item item) {
    // Seeded stream-acquire faults and device saturation reject the
    // submission *here*, before it enters a batch, so the caller's CPU
    // fallback stays per-kernel (§5.1) — an item never fails after it has
    // been accepted into a fused launch.
    if (auto* inj = support::gpu_faults();
        inj != nullptr && inj->gpu_stream_fail()) {
        rt::apex_count("gpu.stream_fallbacks");
        lock_.lock();
        ++stats_.rejected;
        lock_.unlock();
        return std::nullopt;
    }
    if (inflight_.load(std::memory_order_acquire) >= capacity_) {
        rt::apex_count("gpu.stream_fallbacks");
        lock_.lock();
        ++stats_.rejected;
        lock_.unlock();
        return std::nullopt;
    }

    pending_item p;
    p.item = std::move(item);
    auto fut = p.done.get_future();
    const auto kc = p.item.kc;
    const auto ki = static_cast<std::size_t>(kc);

    inflight_.fetch_add(1, std::memory_order_acq_rel);
    std::vector<pending_item> batch;
    lock_.lock();
    ++stats_.submitted;
    auto& q = pending_[ki];
    if (q.items.empty()) q.oldest = std::chrono::steady_clock::now();
    q.items.push_back(std::move(p));
    if (q.items.size() >= opt_.max_batch) {
        batch = std::move(q.items);
        q.items.clear();
    }
    lock_.unlock();

    // Size-triggered flush runs on the submitting thread: the thread-pool
    // post inside the device launch then carries the submitter→worker
    // happens-before edge for the freshly staged slices.
    if (!batch.empty()) launch_batch(std::move(batch), kc);
    return fut;
}

void aggregator::flush() {
    for (std::size_t ki = 0; ki < pending_.size(); ++ki) {
        std::vector<pending_item> batch;
        lock_.lock();
        if (!pending_[ki].items.empty()) {
            batch = std::move(pending_[ki].items);
            pending_[ki].items.clear();
        }
        lock_.unlock();
        if (!batch.empty()) {
            launch_batch(std::move(batch), static_cast<kernel_class>(ki));
        }
    }
}

void aggregator::drain() {
    flush();
    // Fused batches execute as host-pool tasks. Called on a pool worker,
    // drain() runs pending tasks while it waits, so a pool whose every
    // worker is draining still makes progress.
    rt::thread_pool* pool = rt::thread_pool::current();
    while (inflight_.load(std::memory_order_acquire) != 0) {
        if (pool == nullptr || !pool->run_pending_task()) std::this_thread::yield();
    }
}

aggregator::stats_t aggregator::stats() const {
    lock_.lock();
    stats_t s = stats_;
    lock_.unlock();
    return s;
}

void aggregator::flusher_loop() {
    const auto period = std::chrono::duration<double, std::micro>(
        std::max(1.0, opt_.flush_after_us / 2.0));
    const auto limit = std::chrono::duration<double, std::micro>(opt_.flush_after_us);
    while (!stop_.load()) {
        std::this_thread::sleep_for(period);
        const auto now = std::chrono::steady_clock::now();
        for (std::size_t ki = 0; ki < pending_.size(); ++ki) {
            std::vector<pending_item> batch;
            lock_.lock();
            auto& q = pending_[ki];
            if (!q.items.empty() && now - q.oldest >= limit) {
                batch = std::move(q.items);
                q.items.clear();
            }
            lock_.unlock();
            if (!batch.empty()) {
                launch_batch(std::move(batch), static_cast<kernel_class>(ki));
            }
        }
    }
}

device* aggregator::pick_device() {
    // Least-loaded by streams in use; round-robin breaks ties so a K-device
    // group is exercised evenly even when everything is idle.
    const std::size_t start =
        static_cast<std::size_t>(rr_.fetch_add(1, std::memory_order_relaxed)) %
        devices_.size();
    device* best = nullptr;
    unsigned best_load = 0;
    for (std::size_t i = 0; i < devices_.size(); ++i) {
        device* d = devices_[(start + i) % devices_.size()];
        const unsigned load = d->streams_in_use();
        if (best == nullptr || load < best_load) {
            best = d;
            best_load = load;
        }
    }
    return best;
}

void aggregator::launch_batch(std::vector<pending_item> items, kernel_class kc) {
    OCTO_ASSERT(!items.empty());
    const std::size_t n = items.size();

    // Pack every item's input into one shared staging buffer (the batched
    // host→device transfer). The storage comes back from buffer_recycler in
    // steady state, and each slice carries a race-detector write claim here
    // and a read claim inside the fused kernel — the thread-pool post edge
    // of the launch is what orders them.
    std::vector<std::size_t> offsets(n, 0);
    std::size_t total_doubles = 0;
    std::uint64_t total_flops = 0;
    for (std::size_t i = 0; i < n; ++i) {
        offsets[i] = total_doubles;
        total_doubles += items[i].item.staging_doubles;
        total_flops += items[i].item.flops;
    }
    aligned_vector<double> staging(total_doubles);
    for (std::size_t i = 0; i < n; ++i) {
        if (items[i].item.staging_doubles == 0) continue;
        double* slice = staging.data() + offsets[i];
        sanitize::region_write(slice, "gpu.staging");
        if (items[i].item.stage) items[i].item.stage(slice);
    }

    lock_.lock();
    stats_.aggregated_items += n;
    stats_.max_batch_seen = std::max<std::uint64_t>(stats_.max_batch_seen, n);
    lock_.unlock();

    // The fused device function, one block per item: each block executes
    // its item's slice and completes that submitter's promise exactly once.
    // Items write disjoint outputs, so the blocks may run in any order.
    struct batch_state {
        std::vector<pending_item> items;
        aligned_vector<double> staging;
        std::vector<std::size_t> offsets;
    };
    auto batch = std::make_shared<batch_state>(
        batch_state{std::move(items), std::move(staging), std::move(offsets)});
    auto run_item = [this, batch](std::size_t i) {
        auto& p = batch->items[i];
        const double* slice = p.item.staging_doubles != 0
                                  ? batch->staging.data() + batch->offsets[i]
                                  : nullptr;
        if (slice != nullptr) sanitize::region_read(slice, "gpu.staging");
        try {
            if (p.item.kernel) p.item.kernel(slice);
            p.done.set_value();
        } catch (...) {
            p.done.set_exception(std::current_exception());
        }
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
    };

    device* dev = pick_device();
    std::optional<stream_lease> lease = dev->try_acquire_stream();
    if (!lease) {
        // The least-loaded device refused (busy or injected fault): probe the
        // rest of the group before falling back.
        for (device* d : devices_) {
            if (d == dev) continue;
            if ((lease = d->try_acquire_stream())) {
                dev = d;
                break;
            }
        }
    }

    if (lease) {
        const auto& spec = dev->spec();
        const std::uint64_t blocks =
            static_cast<std::uint64_t>(n) * spec.blocks_per_kernel;
        rt::apex_count("gpu.aggregated_launches");
        rt::apex_gauge("gpu.batch_size", n);
        rt::apex_gauge("gpu.occupancy_pct",
                       std::min<std::uint64_t>(100, blocks * 100 / spec.num_sms));
        lock_.lock();
        ++stats_.fused_launches;
        lock_.unlock();
        // One fused launch: a single stream, a single launch overhead, one
        // gpu-site accounting entry for the whole batch. Per-item completion
        // happens inside each block, so the launch future is redundant.
        rt::detach(lease->launch(n, std::move(run_item), total_flops, kc));
        return;
    }

    // No stream anywhere in the group: execute the whole batch inline on the
    // calling thread — the aggregated analogue of the paper's CPU fallback —
    // and account it at the cpu site so Table-2-style numbers still see
    // where the work actually ran.
    lock_.lock();
    ++stats_.cpu_batches;
    lock_.unlock();
    count_launch(kc, exec_site::cpu);
    count_flops(kc, exec_site::cpu, total_flops);
    for (std::size_t i = 0; i < n; ++i) run_item(i);
}

} // namespace octo::gpu

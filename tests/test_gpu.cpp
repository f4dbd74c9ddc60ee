// Tests for the simulated CUDA device: stream pool semantics, the
// kernel→future bridge, the all-streams-busy fallback condition, FLOP
// accounting per execution site (paper §5.1, §6.1), and the GPU work
// aggregation executor (arXiv:2210.06438): fused batches whose items run
// concurrently on the host pool, flush thresholds, exactly-once completion,
// fault-driven CPU fallback, multi-device dispatch, drain from a pool worker,
// and aggregated FMM solves bit-identical to the CPU path.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "amr/tree.hpp"
#include "fmm/solver.hpp"
#include "gpu/aggregator.hpp"
#include "gpu/device.hpp"
#include "runtime/apex.hpp"
#include "runtime/future.hpp"
#include "support/fault.hpp"

namespace {

using namespace octo;

TEST(DeviceSpec, PresetsMatchPaperHardware) {
    const auto p = gpu::p100();
    EXPECT_EQ(p.num_sms, 56u);        // paper §6.1.1: "contains 56 of these SMs"
    EXPECT_EQ(p.max_streams, 128u);   // "usually 128 per GPU"
    EXPECT_EQ(p.blocks_per_kernel, 8u); // "launching kernels with 8 blocks"
    EXPECT_EQ(p.kernel_slots(), 7u);
    const auto v = gpu::v100();
    EXPECT_GT(v.peak_gflops, p.peak_gflops);
    EXPECT_NEAR(p.per_kernel_gflops(), p.peak_gflops * 8.0 / 56.0, 1e-9);
}

TEST(Device, KernelExecutesAndFutureCompletes) {
    gpu::device dev(gpu::p100());
    auto lease = dev.try_acquire_stream();
    ASSERT_TRUE(lease.has_value());
    std::atomic<int> ran{0};
    auto f = lease->launch(1, [&](std::size_t) { ran = 1; }, 100,
                           kernel_class::fmm_multipole);
    f.get();
    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(dev.kernels_executed(), 1u);
}

TEST(Device, StreamReleasedAfterCompletion) {
    gpu::device dev(gpu::p100());
    {
        auto lease = dev.try_acquire_stream();
        ASSERT_TRUE(lease.has_value());
        EXPECT_EQ(dev.streams_in_use(), 1u);
        auto f = lease->launch(1, [](std::size_t) {}, 1, kernel_class::other);
        f.get();
    }
    // After completion the stream count must return to zero (release happens
    // inside the kernel completion, the lease was consumed by launch()).
    for (int spin = 0; spin < 1000 && dev.streams_in_use() != 0; ++spin) {
        std::this_thread::yield();
    }
    EXPECT_EQ(dev.streams_in_use(), 0u);
}

TEST(Device, UnusedLeaseReleasesImmediately) {
    gpu::device dev(gpu::p100());
    {
        auto lease = dev.try_acquire_stream();
        ASSERT_TRUE(lease.has_value());
        EXPECT_EQ(dev.streams_in_use(), 1u);
    }
    EXPECT_EQ(dev.streams_in_use(), 0u);
}

TEST(Device, AllStreamsBusyYieldsNullopt) {
    // The condition under which Octo-Tiger executes the kernel on the CPU
    // instead (§5.1).
    gpu::device_spec spec = gpu::p100();
    spec.max_streams = 4;
    gpu::device dev(spec);
    std::vector<gpu::stream_lease> held;
    for (unsigned i = 0; i < 4; ++i) {
        auto l = dev.try_acquire_stream();
        ASSERT_TRUE(l.has_value());
        held.push_back(std::move(*l));
    }
    EXPECT_FALSE(dev.try_acquire_stream().has_value());
    held.clear(); // releases
    EXPECT_TRUE(dev.try_acquire_stream().has_value());
}

TEST(Device, FlopAccountingPerSite) {
    flop_reset();
    gpu::device dev(gpu::p100());
    std::vector<octo::rt::future<void>> fs;
    for (int i = 0; i < 10; ++i) {
        auto lease = dev.try_acquire_stream();
        ASSERT_TRUE(lease.has_value());
        fs.push_back(lease->launch(1, [](std::size_t) {}, 455,
                                    kernel_class::fmm_multipole));
    }
    for (auto& f : fs) f.get();
    const auto s = flop_snapshot(kernel_class::fmm_multipole);
    EXPECT_EQ(s.gpu_flops, 4550u);
    EXPECT_EQ(s.gpu_launches, 10u);
    EXPECT_EQ(s.cpu_launches, 0u);
    EXPECT_DOUBLE_EQ(s.gpu_launch_fraction(), 1.0);
}

TEST(Device, ManyConcurrentKernelsAllComplete) {
    gpu::device dev(gpu::p100());
    std::atomic<int> done{0};
    std::vector<octo::rt::future<void>> fs;
    int cpu_fallbacks = 0;
    for (int i = 0; i < 500; ++i) {
        if (auto lease = dev.try_acquire_stream()) {
            fs.push_back(lease->launch(1, [&](std::size_t) { done.fetch_add(1); },
                                       1, kernel_class::other));
        } else {
            // CPU fallback path, as in the paper.
            done.fetch_add(1);
            ++cpu_fallbacks;
        }
    }
    for (auto& f : fs) f.get();
    EXPECT_EQ(done.load(), 500);
    EXPECT_EQ(dev.kernels_executed() + static_cast<unsigned>(cpu_fallbacks), 500u);
}

TEST(Device, InjectedStreamFailureFallsBackToCpu) {
    // Seeded fault injection (ISSUE 5): a transiently failing stream acquire
    // must look exactly like the all-streams-busy condition — nullopt, CPU
    // fallback — and be visible in the APEX counter.
    support::fault_config cfg;
    cfg.seed = 3;
    cfg.gpu_stream_fail_prob = 1.0;
    support::fault_injector inj(cfg);
    gpu::device dev(gpu::p100());
    const auto before =
        rt::apex_registry::instance().counter("gpu.stream_fallbacks");
    {
        support::scoped_gpu_faults guard(inj);
        EXPECT_FALSE(dev.try_acquire_stream().has_value());
        EXPECT_FALSE(dev.try_acquire_stream().has_value());
    }
    EXPECT_EQ(inj.stats().gpu_stream_failures, 2u);
    EXPECT_EQ(rt::apex_registry::instance().counter("gpu.stream_fallbacks"),
              before + 2);
    EXPECT_EQ(dev.streams_in_use(), 0u); // nothing leaked by the failures
    // With the injector uninstalled the device recovers immediately.
    EXPECT_TRUE(dev.try_acquire_stream().has_value());
}

TEST(Device, ContinuationChainsOffKernel) {
    gpu::device dev(gpu::p100());
    auto lease = dev.try_acquire_stream();
    ASSERT_TRUE(lease.has_value());
    std::atomic<int> order{0};
    auto f = lease->launch(1, [&](std::size_t) { order = 1; }, 1,
                           kernel_class::other)
                 .then([&](octo::rt::future<void>) { return order.load() + 10; });
    EXPECT_EQ(f.get(), 11);
}

TEST(Device, MultiBlockLaunchRunsEveryBlockOnceAndCountsOneKernel) {
    flop_reset();
    gpu::device dev(gpu::p100());
    constexpr std::size_t n = 64;
    std::vector<std::atomic<int>> hits(n);
    auto lease = dev.try_acquire_stream();
    ASSERT_TRUE(lease.has_value());
    lease->launch(n, [&](std::size_t i) { hits[i].fetch_add(1); }, 640,
                  kernel_class::fmm_monopole)
        .get();
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
    EXPECT_EQ(dev.kernels_executed(), 1u);
    EXPECT_EQ(dev.streams_in_use(), 0u); // released before the future fired
    const auto s = flop_snapshot(kernel_class::fmm_monopole);
    EXPECT_EQ(s.gpu_launches, 1u);
    EXPECT_EQ(s.gpu_flops, 640u);
}

TEST(Device, DestroyWaitsForOutstandingLaunch) {
    // The launch future is dropped and the device destroyed while the block
    // still runs: the destructor must wait for it, because the block's
    // completion releases the stream on the device (a use-after-free the
    // asan-ubsan preset would report otherwise).
    std::atomic<bool> finished{false};
    {
        gpu::device dev(gpu::p100());
        auto lease = dev.try_acquire_stream();
        ASSERT_TRUE(lease.has_value());
        rt::detach(lease->launch(
            1,
            [&](std::size_t) {
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
                finished.store(true);
            },
            1, kernel_class::other));
    }
    EXPECT_TRUE(finished.load());
}

// ---- aggregation executor ---------------------------------------------------

gpu::work_item counting_item(std::atomic<int>& ran, kernel_class kc,
                             std::uint64_t flops = 1) {
    gpu::work_item item;
    item.kc = kc;
    item.flops = flops;
    item.kernel = [&ran](const double*) { ran.fetch_add(1); };
    return item;
}

TEST(Aggregator, SizeThresholdFusesBatchIntoOneLaunch) {
    gpu::device dev(gpu::p100());
    gpu::aggregator agg(dev, {.max_batch = 8, .flush_after_us = 1e6});
    std::atomic<int> ran{0};
    std::vector<rt::future<void>> fs;
    for (int i = 0; i < 8; ++i) {
        auto f = agg.submit(counting_item(ran, kernel_class::fmm_multipole));
        ASSERT_TRUE(f.has_value());
        fs.push_back(std::move(*f));
    }
    for (auto& f : fs) f.get();
    EXPECT_EQ(ran.load(), 8);
    // The whole batch went up as ONE fused device launch: the flush timeout
    // (1s) cannot have fired, so reaching max_batch is what launched it.
    const auto s = agg.stats();
    EXPECT_EQ(s.submitted, 8u);
    EXPECT_EQ(s.fused_launches + s.cpu_batches, 1u);
    EXPECT_EQ(s.aggregated_items, 8u);
    EXPECT_EQ(s.max_batch_seen, 8u);
    EXPECT_EQ(dev.kernels_executed(), 1u); // one kernel on the device
}

TEST(Aggregator, TimeoutFlushesPartialBatch) {
    gpu::device dev(gpu::p100());
    gpu::aggregator agg(dev, {.max_batch = 64, .flush_after_us = 200.0});
    std::atomic<int> ran{0};
    auto f = agg.submit(counting_item(ran, kernel_class::fmm_monopole));
    ASSERT_TRUE(f.has_value());
    // Far below the size threshold: only the background flusher can launch
    // this batch. get() must complete without any help from this thread.
    f->get();
    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(agg.stats().fused_launches + agg.stats().cpu_batches, 1u);
}

TEST(Aggregator, EveryItemCompletesExactlyOnce) {
    gpu::device dev(gpu::p100());
    // A practically-infinite flush age keeps the background flusher out of
    // the picture: under TSan the submitting thread can be slowed enough
    // that a short timeout flushes singleton batches, and max_batch_seen
    // never exceeds 1. With age flushes disabled, every batch fills to
    // max_batch and the explicit drain() below launches the remainder.
    gpu::aggregator agg(dev, {.max_batch = 16, .flush_after_us = 1e7});
    constexpr int n = 500;
    std::vector<std::atomic<int>*> counts;
    std::vector<std::unique_ptr<std::atomic<int>>> storage;
    std::vector<rt::future<void>> fs;
    for (int i = 0; i < n; ++i) {
        storage.push_back(std::make_unique<std::atomic<int>>(0));
        auto* c = storage.back().get();
        gpu::work_item item;
        item.kc = kernel_class::fmm_multipole;
        item.flops = 10;
        item.kernel = [c](const double*) { c->fetch_add(1); };
        auto f = agg.submit(std::move(item));
        ASSERT_TRUE(f.has_value()) << "saturation unexpected at " << i;
        fs.push_back(std::move(*f));
    }
    agg.drain(); // launch the final partial batch (500 = 31*16 + 4)
    // Each future becomes ready exactly when ITS item ran; each item exactly
    // once.
    for (int i = 0; i < n; ++i) {
        fs[static_cast<std::size_t>(i)].get();
        EXPECT_EQ(storage[static_cast<std::size_t>(i)]->load(), 1) << i;
    }
    const auto s = agg.stats();
    EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(n));
    EXPECT_EQ(s.aggregated_items, static_cast<std::uint64_t>(n));
    // 500 submissions with size-triggered flushes only: the full batches are
    // deterministic regardless of thread timing.
    EXPECT_EQ(s.max_batch_seen, 16u);
}

TEST(Aggregator, InjectedStreamFaultRejectsSubmitForCpuFallback) {
    support::fault_config cfg;
    cfg.seed = 3;
    cfg.gpu_stream_fail_prob = 1.0;
    support::fault_injector inj(cfg);
    gpu::device dev(gpu::p100());
    gpu::aggregator agg(dev, {.max_batch = 4, .flush_after_us = 50.0});
    std::atomic<int> ran{0};
    const auto before =
        rt::apex_registry::instance().counter("gpu.stream_fallbacks");
    {
        support::scoped_gpu_faults guard(inj);
        // Every submission must be rejected — the caller's per-kernel CPU
        // fallback, exactly like a failed try_acquire_stream.
        for (int i = 0; i < 3; ++i) {
            auto f = agg.submit(counting_item(ran, kernel_class::fmm_monopole));
            EXPECT_FALSE(f.has_value());
        }
    }
    EXPECT_EQ(inj.stats().gpu_stream_failures, 3u);
    EXPECT_EQ(rt::apex_registry::instance().counter("gpu.stream_fallbacks"),
              before + 3);
    EXPECT_EQ(agg.stats().rejected, 3u);
    EXPECT_EQ(agg.stats().submitted, 0u);
    EXPECT_EQ(ran.load(), 0); // nothing was enqueued behind the caller's back
    // Injector gone: the same aggregator accepts again.
    auto f = agg.submit(counting_item(ran, kernel_class::fmm_monopole));
    ASSERT_TRUE(f.has_value());
    f->get();
    EXPECT_EQ(ran.load(), 1);
}

TEST(Aggregator, SaturationRejectsForCpuFallback) {
    gpu::device dev(gpu::p100());
    gpu::aggregator agg(dev, {.max_batch = 4,
                              .flush_after_us = 1e6,
                              .saturation_items = 3});
    // Stall the queue below the size threshold (no flush for 1s) so the
    // in-flight count pins at the saturation bound.
    std::atomic<int> ran{0};
    std::vector<rt::future<void>> fs;
    for (int i = 0; i < 3; ++i) {
        auto f = agg.submit(counting_item(ran, kernel_class::fmm_multipole));
        ASSERT_TRUE(f.has_value());
        fs.push_back(std::move(*f));
    }
    EXPECT_FALSE(
        agg.submit(counting_item(ran, kernel_class::fmm_multipole)).has_value());
    EXPECT_EQ(agg.stats().rejected, 1u);
    agg.flush();
    for (auto& f : fs) f.get();
    EXPECT_EQ(ran.load(), 3);
}

TEST(DeviceGroup, BatchesSpreadAcrossDevices) {
    gpu::device_group group(gpu::p100(), 3);
    gpu::aggregator agg(group, {.max_batch = 4, .flush_after_us = 1e6});
    std::atomic<int> ran{0};
    std::vector<rt::future<void>> fs;
    // 12 full batches; least-loaded + round-robin dispatch must not leave
    // any device idle.
    for (int i = 0; i < 12 * 4; ++i) {
        auto f = agg.submit(counting_item(ran, kernel_class::fmm_multipole));
        ASSERT_TRUE(f.has_value());
        fs.push_back(std::move(*f));
    }
    for (auto& f : fs) f.get();
    EXPECT_EQ(ran.load(), 48);
    std::uint64_t total = 0;
    for (std::size_t d = 0; d < group.size(); ++d) {
        EXPECT_GT(group.at(d).kernels_executed(), 0u) << "device " << d << " idle";
        total += group.at(d).kernels_executed();
    }
    EXPECT_EQ(total, agg.stats().fused_launches);
}

TEST(Aggregator, DrainCompletesEverythingPending) {
    gpu::device dev(gpu::p100());
    gpu::aggregator agg(dev, {.max_batch = 64, .flush_after_us = 1e6});
    std::atomic<int> ran{0};
    std::vector<rt::future<void>> fs;
    for (int i = 0; i < 10; ++i) {
        auto f = agg.submit(counting_item(ran, kernel_class::hydro));
        ASSERT_TRUE(f.has_value());
        fs.push_back(std::move(*f));
    }
    EXPECT_EQ(ran.load(), 0); // below threshold, timeout far away
    agg.drain();
    EXPECT_EQ(ran.load(), 10);
    for (auto& f : fs) f.get(); // all ready immediately
}

TEST(Aggregator, BatchItemsRunConcurrently) {
    // The items of one fused batch are independent device blocks on the
    // host pool. Two items that wait for each other can only both finish if
    // they run at the same time; the global pool has at least two workers.
    gpu::device dev(gpu::p100());
    gpu::aggregator agg(dev, {.max_batch = 2, .flush_after_us = 1e6});
    std::atomic<int> arrived{0};
    std::atomic<int> met{0};
    const auto rendezvous = [&](const double*) {
        arrived.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (arrived.load() < 2 && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
        }
        if (arrived.load() == 2) met.fetch_add(1);
    };
    std::vector<rt::future<void>> fs;
    for (int i = 0; i < 2; ++i) {
        gpu::work_item item;
        item.kc = kernel_class::fmm_multipole;
        item.kernel = rendezvous;
        auto f = agg.submit(std::move(item));
        ASSERT_TRUE(f.has_value());
        fs.push_back(std::move(*f));
    }
    for (auto& f : fs) f.get();
    EXPECT_EQ(met.load(), 2);
    EXPECT_EQ(agg.stats().fused_launches, 1u); // both items in one launch
}

TEST(Aggregator, DrainFromPoolWorkerCompletes) {
    // Every global-pool worker calls drain() at once. The fused batch runs
    // on that same pool, so drain() must execute pending tasks while it
    // waits; otherwise no worker is left to run the batch and this hangs.
    gpu::device dev(gpu::p100());
    gpu::aggregator agg(dev, {.max_batch = 1024, .flush_after_us = 1e6});
    rt::thread_pool& pool = rt::thread_pool::global();
    const unsigned workers = pool.size();
    std::atomic<int> ran{0};
    std::atomic<unsigned> inside{0};
    std::vector<rt::future<void>> tasks;
    for (unsigned w = 0; w < workers; ++w) {
        tasks.push_back(rt::async(pool, [&] {
            for (int i = 0; i < 3; ++i) {
                EXPECT_TRUE(
                    agg.submit(counting_item(ran, kernel_class::hydro)).has_value());
            }
            // Hold every worker here before anyone drains (bounded, so a
            // busy pool cannot hang the test).
            inside.fetch_add(1);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(20);
            while (inside.load() < workers &&
                   std::chrono::steady_clock::now() < deadline) {
                std::this_thread::yield();
            }
            agg.drain();
        }));
    }
    for (auto& t : tasks) t.get();
    EXPECT_EQ(inside.load(), workers);
    EXPECT_EQ(ran.load(), static_cast<int>(3 * workers));
    EXPECT_EQ(agg.stats().aggregated_items, 3u * workers);
}

// ---- aggregated FMM solve ---------------------------------------------------

amr::box_geometry unit_root() {
    amr::box_geometry g;
    g.origin = {-0.5, -0.5, -0.5};
    g.dx = 1.0 / amr::INX;
    return g;
}

void fill_blobs(amr::tree& t) {
    for (const auto k : t.leaves_sfc()) {
        auto& g = t.ensure_fields(k);
        for (int i = 0; i < amr::INX; ++i)
            for (int j = 0; j < amr::INX; ++j)
                for (int kk = 0; kk < amr::INX; ++kk) {
                    const dvec3 r = g.geom.cell_center(i, j, kk);
                    const dvec3 c1{-0.18, 0.02, 0.01};
                    const dvec3 c2{0.22, -0.03, -0.02};
                    const double rho = std::exp(-norm2(r - c1) / 0.01) +
                                       0.3 * std::exp(-norm2(r - c2) / 0.006);
                    g.interior(amr::f_rho, i, j, kk) = rho;
                }
    }
}

TEST(Aggregator, AggregatedFmmSolveBitIdenticalToCpu) {
    // An offloaded node runs the solver's own launch geometry (SIMD width,
    // tile) as one device block — the same compiled kernels the CPU path
    // runs, in the same per-node order — so the aggregated solve must be
    // BIT-identical to a CPU solve with the same options, for the
    // vectorized default and the scalar configuration alike.
    amr::tree t(unit_root());
    t.refine(amr::root_key);
    fill_blobs(t);

    for (const bool vectorized : {true, false}) {
        SCOPED_TRACE(::testing::Message() << "vectorized " << vectorized);
        gpu::device_group group(gpu::p100(), 2);
        // The solver leans on the age-flusher for its trailing partial
        // batch, so the age cannot be disabled outright here — but at the
        // 100us default a sanitizer-slowed submit gap flushes every item
        // alone and no fused batch ever forms. 20ms dwarfs any instrumented
        // gap while still bounding the trailing-batch stall.
        gpu::aggregator agg(group, {.max_batch = 8, .flush_after_us = 20000.0});
        fmm::solver gs({.conserve = fmm::am_mode::spin_deposit,
                        .vectorized = vectorized,
                        .aggregator = &agg});
        gs.solve(t);
        fmm::solver cs({.conserve = fmm::am_mode::spin_deposit,
                        .vectorized = vectorized});
        cs.solve(t);

        for (const auto k : t.leaves_sfc()) {
            const auto& a = gs.gravity(k);
            const auto& b = cs.gravity(k);
            for (int c = 0; c < amr::INX3; ++c) {
                EXPECT_EQ(a.gx[c], b.gx[c]) << "node " << k << " cell " << c;
                EXPECT_EQ(a.gy[c], b.gy[c]);
                EXPECT_EQ(a.gz[c], b.gz[c]);
                EXPECT_EQ(a.phi[c], b.phi[c]);
                for (int d = 0; d < 3; ++d) EXPECT_EQ(a.tq[d][c], b.tq[d][c]);
            }
        }
        // The solve genuinely went through fused launches, spread over
        // devices.
        const auto s = agg.stats();
        EXPECT_GT(s.fused_launches, 0u);
        EXPECT_GT(s.max_batch_seen, 1u);
        EXPECT_EQ(s.rejected, 0u);
        std::uint64_t on_device = 0;
        for (std::size_t d = 0; d < group.size(); ++d) {
            on_device += group.at(d).kernels_executed();
        }
        EXPECT_GT(on_device, 0u);
    }
}

TEST(Aggregator, FmmSolveFallsBackUnderInjectedFaults) {
    // With every stream acquire failing, the solver must complete entirely
    // on the CPU — same results, zero device kernels.
    amr::tree t(unit_root());
    fill_blobs(t);

    support::fault_config cfg;
    cfg.seed = 11;
    cfg.gpu_stream_fail_prob = 1.0;
    support::fault_injector inj(cfg);
    gpu::device dev(gpu::p100());

    fmm::solver cs({.conserve = fmm::am_mode::spin_deposit,
                    .vectorized = false});
    cs.solve(t);

    fmm::solver gs({.conserve = fmm::am_mode::spin_deposit,
                    .vectorized = false,
                    .device = &dev});
    {
        support::scoped_gpu_faults guard(inj);
        gs.solve(t);
    }
    EXPECT_GT(inj.stats().gpu_stream_failures, 0u);
    EXPECT_EQ(dev.kernels_executed(), 0u);
    const auto& a = gs.gravity(amr::root_key);
    const auto& b = cs.gravity(amr::root_key);
    for (int c = 0; c < amr::INX3; ++c) {
        EXPECT_EQ(a.gx[c], b.gx[c]);
        EXPECT_EQ(a.phi[c], b.phi[c]);
    }
}

} // namespace

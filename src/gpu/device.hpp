#pragma once
// Simulated CUDA device — the GPU substitution described in DESIGN.md.
//
// Paper §5.1: Octo-Tiger launches many *small* FMM kernels (8 blocks × 64
// threads) on up to 128 CUDA streams per GPU. For every stream event an HPX
// future is created that becomes ready once operations in the stream have
// finished; this integrates the GPU into the task scheduler. When all
// streams are busy, the kernel is executed by the launching CPU thread
// instead.
//
// No physical GPU exists in this environment, so `octo::gpu::device`
// reproduces the *semantics*: a fixed pool of streams, asynchronous kernel
// launches that really execute, and completion futures compatible with the
// runtime. A launch is a grid of independent blocks; the device runs each
// block as one task on the host pool (rt::thread_pool::global()), so a
// fused batch executes data-parallel at host speed. Timing for the paper's
// Table 2 is produced by the machine model in src/cluster, parameterized by
// the device_spec below; the futures/stream plumbing here is what the core
// simulation actually runs on. Callers launch the same compiled kernels
// they run on the CPU, so results are bit-identical between the CPU and
// "GPU" paths.

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/future.hpp"
#include "support/flops.hpp"

namespace octo::gpu {

/// Performance description of a device; used by the machine model for the
/// node-level experiment (Table 2) and by examples for reporting.
struct device_spec {
    std::string name;
    double peak_gflops = 0.0;       ///< double-precision peak
    unsigned num_sms = 0;           ///< streaming multiprocessors
    unsigned max_streams = 128;     ///< concurrent CUDA streams (paper: 128)
    unsigned blocks_per_kernel = 8; ///< FMM kernels launch 8 blocks (paper §5.1)
    double launch_overhead_us = 5.0;

    /// Number of kernels that can execute concurrently at full rate.
    unsigned kernel_slots() const { return num_sms / blocks_per_kernel; }
    /// Modeled rate of a single kernel occupying blocks_per_kernel SMs.
    double per_kernel_gflops() const {
        return peak_gflops * blocks_per_kernel / num_sms;
    }
};

/// NVIDIA P100 (Piz Daint node GPU; Table 3): 4.7 TF/s DP, 56 SMs.
device_spec p100();
/// NVIDIA V100 (PCI-E, Table 2): 7 TF/s DP, 80 SMs.
device_spec v100();

/// RAII stream lease: releases the stream back to the device when the last
/// launched kernel completes.
class stream_lease;

class device {
  public:
    /// `spec` describes the modeled hardware.
    explicit device(device_spec spec);
    /// The unnamed second parameter is ignored: it used to size a private
    /// worker pool, and stepbench still passes it. It goes away when
    /// stepbench moves to a single execution context.
    device(device_spec spec, unsigned) : device(std::move(spec)) {}
    /// Waits for every outstanding launch to finish.
    ~device();

    const device_spec& spec() const { return spec_; }

    /// Acquire an idle stream, or nullopt when all are busy — the condition
    /// under which Octo-Tiger falls back to CPU execution (§5.1).
    std::optional<stream_lease> try_acquire_stream();

    unsigned streams_in_use() const { return in_use_.load(std::memory_order_relaxed); }
    unsigned max_streams() const { return spec_.max_streams; }

    /// Total kernels executed by this device.
    std::uint64_t kernels_executed() const {
        return kernels_.load(std::memory_order_relaxed);
    }

  private:
    friend class stream_lease;

    std::optional<stream_lease> acquire_impl();
    rt::future<void> enqueue(std::size_t blocks,
                             std::function<void(std::size_t)> block,
                             std::uint64_t flops, kernel_class kc);
    void release_stream();

    device_spec spec_;
    std::atomic<unsigned> in_use_{0};
    std::atomic<std::uint64_t> kernels_{0};
    std::atomic<std::size_t> outstanding_{0}; ///< launches not yet finished
};

class stream_lease {
  public:
    stream_lease(stream_lease&& o) noexcept : dev_(o.dev_) { o.dev_ = nullptr; }
    stream_lease& operator=(stream_lease&& o) noexcept {
        if (this != &o) {
            release();
            dev_ = o.dev_;
            o.dev_ = nullptr;
        }
        return *this;
    }
    stream_lease(const stream_lease&) = delete;
    stream_lease& operator=(const stream_lease&) = delete;
    ~stream_lease() { release(); }

    /// Launch one kernel of `blocks` independent blocks on this stream:
    /// `block(i)` runs once for every i in [0, blocks), each as its own
    /// host-pool task, so blocks must write disjoint outputs. The launch
    /// counts as one kernel with `flops` FLOPs. The returned future becomes
    /// ready when the last block has executed (the CUDA-event→future bridge
    /// of paper §5.1); it carries the first exception a block threw. The
    /// lease is consumed: the stream is released when the last block
    /// finishes.
    rt::future<void> launch(std::size_t blocks,
                            std::function<void(std::size_t)> block,
                            std::uint64_t flops,
                            kernel_class kc = kernel_class::other);

  private:
    friend class device;
    explicit stream_lease(device* d) : dev_(d) {}
    void release() {
        if (dev_ != nullptr) {
            dev_->release_stream();
            dev_ = nullptr;
        }
    }
    device* dev_;
};

} // namespace octo::gpu

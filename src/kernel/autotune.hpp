#pragma once
// Offload autotune cache: the tuned fused-batch size and flush timeout of
// the GPU aggregation executor, per (machine, kernel), persisted so later
// runs — and later *processes* — start at the tuned values.
// bench_kernels seeds the entries from its modeled-machine sweep; the FMM
// solver looks them up (fmm::solver_options::autotune). Neither value can
// change a result's bits: every item of a fused batch runs the same
// compiled kernel as the CPU path. The CPU kernels have no tuned geometry
// at all: each is compiled at exactly the scalar reference and the build's
// pack width (exec.hpp), chosen by `vectorized`.
//
// Cache effectiveness is APEX-visible:
//
//   kernel.autotune.hits       warm lookups served from memory
//   kernel.autotune.disk_hits  entries served from the on-disk cache file
//
// The disk format is one entry per line:
//   machine|kernel|gpu_batch|flush_us|gflops
// keyed on the machine model name (cluster machine-model names for
// simulated nodes) and the kernel class key ("fmm.same_level"). The loader
// skips every line with another field count, so the 7- and 8-field lines
// of older caches (which also carried a CPU width and tile) are misses,
// never misparses.

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace octo::kernel {

/// One tuned offload configuration plus the throughput that won it the slot.
struct tuned_config {
    unsigned gpu_batch = 16;  ///< aggregation batch
    double flush_us = 100.0;  ///< aggregator age-flush timeout
    double gflops = 0.0;      ///< modeled throughput of this config
};

class autotune_cache {
  public:
    /// Loads `path` if it exists; store() persists back to it.
    explicit autotune_cache(std::string path);

    /// Warm lookup. Counts a hit (and, for entries that came from the cache
    /// file, a disk hit on first service).
    std::optional<tuned_config> lookup(const std::string& machine,
                                       const std::string& kernel);

    /// Insert + persist (bench_kernels seeds simulated machine models).
    void store(const std::string& machine, const std::string& kernel,
               const tuned_config& cfg);

    std::uint64_t hits() const;
    std::uint64_t disk_hits() const;
    const std::string& path() const { return path_; }

  private:
    struct entry {
        tuned_config cfg;
        bool from_disk = false;
        bool disk_counted = false;
    };

    static std::string key(const std::string& machine, const std::string& kernel);
    void load();
    void persist() const; // callers hold mutex_

    mutable std::mutex mutex_;
    std::string path_;
    std::map<std::string, entry> map_;
    std::uint64_t hits_ = 0;
    std::uint64_t disk_hits_ = 0;
};

/// The process-wide cache: path from $OCTO_AUTOTUNE_CACHE, default
/// ./octo_autotune.cache.
autotune_cache& global_autotune();

} // namespace octo::kernel

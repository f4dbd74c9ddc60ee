#include "kernel/autotune.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "runtime/apex.hpp"

namespace octo::kernel {

autotune_cache::autotune_cache(std::string path) : path_(std::move(path)) { load(); }

std::string autotune_cache::key(const std::string& machine, const std::string& kernel) {
    return machine + "|" + kernel;
}

void autotune_cache::load() {
    std::ifstream in(path_);
    if (!in) {
        return;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::vector<std::string> f;
        std::istringstream ss(line);
        for (std::string field; std::getline(ss, field, '|');) f.push_back(field);
        if (f.size() != 5) {
            continue; // another format (e.g. an old width/tile entry): a miss
        }
        entry e;
        e.cfg.gpu_batch =
            static_cast<unsigned>(std::strtoul(f[2].c_str(), nullptr, 10));
        e.cfg.flush_us = std::strtod(f[3].c_str(), nullptr);
        e.cfg.gflops = std::strtod(f[4].c_str(), nullptr);
        e.from_disk = true;
        map_[key(f[0], f[1])] = e;
    }
}

void autotune_cache::persist() const {
    std::ofstream out(path_, std::ios::trunc);
    if (!out) {
        return;
    }
    out << "# octo autotune cache: machine|kernel|gpu_batch|flush_us|gflops\n";
    for (const auto& [k, e] : map_) {
        out << k << "|" << e.cfg.gpu_batch << "|" << e.cfg.flush_us << "|"
            << e.cfg.gflops << "\n";
    }
}

std::optional<tuned_config> autotune_cache::lookup(const std::string& machine,
                                                   const std::string& kernel) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key(machine, kernel));
    if (it == map_.end()) {
        return std::nullopt;
    }
    ++hits_;
    rt::apex_count("kernel.autotune.hits");
    if (it->second.from_disk && !it->second.disk_counted) {
        it->second.disk_counted = true;
        ++disk_hits_;
        rt::apex_count("kernel.autotune.disk_hits");
    }
    return it->second.cfg;
}

void autotune_cache::store(const std::string& machine, const std::string& kernel,
                           const tuned_config& cfg) {
    const std::lock_guard<std::mutex> lock(mutex_);
    map_[key(machine, kernel)] = entry{cfg, false, false};
    persist();
}

std::uint64_t autotune_cache::hits() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t autotune_cache::disk_hits() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return disk_hits_;
}

autotune_cache& global_autotune() {
    static autotune_cache cache([] {
        const char* env = std::getenv("OCTO_AUTOTUNE_CACHE");
        return std::string(env != nullptr ? env : "./octo_autotune.cache");
    }());
    return cache;
}

} // namespace octo::kernel

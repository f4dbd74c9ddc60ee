#include "amr/cost_model.hpp"

#include <algorithm>

#include "runtime/apex.hpp"
#include "support/assert.hpp"

namespace octo::amr {

cost_model::cost_model(cost_params p) : p_(p) {
    OCTO_ASSERT(p_.ewma_alpha > 0.0 && p_.ewma_alpha <= 1.0);
}

void cost_model::observe(node_key k, double cost) {
    OCTO_ASSERT(cost > 0.0);
    auto it = w_.find(k);
    if (it == w_.end()) {
        w_.emplace(k, cost);
        sum_ += cost;
        return;
    }
    const double next = (1.0 - p_.ewma_alpha) * it->second + p_.ewma_alpha * cost;
    sum_ += next - it->second;
    it->second = next;
}

void cost_model::observe_step(const tree& t, const partition_stats& parts) {
    const auto leaves = t.leaves_sfc();
    std::unordered_map<node_key, double> sample;
    sample.reserve(leaves.size());
    for (const node_key k : leaves) sample.emplace(k, p_.monopole_cost);

    // Interior multipole kernels: charged to the first-descendant leaf — the
    // leaf whose rank the interior node lives with.
    for (const auto& level : t.levels()) {
        for (const node_key k : level) {
            if (!t.node(k).refined) continue;
            sample[first_descendant_leaf(t, k)] += p_.multipole_cost;
        }
    }

    // Cross-rank halo pairs incident on each leaf under the CURRENT owners.
    if (parts.cross_rank_neighbor_pairs > 0) {
        for (const node_key k : leaves) {
            const int own = t.node(k).owner;
            double pairs = 0;
            for (int dx = -1; dx <= 1; ++dx)
                for (int dy = -1; dy <= 1; ++dy)
                    for (int dz = -1; dz <= 1; ++dz) {
                        if (dx == 0 && dy == 0 && dz == 0) continue;
                        const node_key nb = key_neighbor(k, {dx, dy, dz});
                        if (nb == invalid_key || !t.contains(nb)) continue;
                        if (t.node(nb).owner != own) pairs += 1.0;
                    }
            sample[k] += p_.halo_pair_cost * pairs;
        }
    }

    // Feed the EWMA in SFC order: `sample` is unordered, and observe() folds
    // each cost into sum_, so hash-order iteration would tie the fallback
    // weight to the hash seed — a restarted-vs-not bit-identity hazard.
    for (const node_key k : leaves) observe(k, sample.at(k));
    rt::apex_count("lb.cost_updates");
}

double cost_model::fallback() const {
    return w_.empty() ? 1.0 : sum_ / static_cast<double>(w_.size());
}

double cost_model::weight(node_key k) const {
    const auto it = w_.find(k);
    return it != w_.end() ? it->second : fallback();
}

std::vector<double> cost_model::leaf_weights(const tree& t) const {
    const auto leaves = t.leaves_sfc();
    std::vector<double> w;
    w.reserve(leaves.size());
    for (const node_key k : leaves) w.push_back(weight(k));
    return w;
}

} // namespace octo::amr

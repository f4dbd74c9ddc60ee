#pragma once
// Per-subgrid cost model feeding the dynamic load balancer (ISSUE 8,
// ROADMAP item 2). The paper's SFC split weighs every octree node equally
// (§4.2), but per-subgrid cost is not uniform: refined interiors run the
// (much heavier) multipole kernels, subgrids on rank boundaries pay halo
// traffic, and GPU aggregation favors owners with dense same-class batches.
//
// This model turns those effects into one positive weight per leaf:
//
//   cost(leaf) = kernel base (monopole + its share of non-FMM work)
//              + multipole_cost for every interior node whose first-child
//                chain ends at this leaf (that leaf's rank runs the kernel,
//                by the partitioner's placement rule)
//              + halo_pair_cost per cross-rank same-level neighbor pair
//                incident on the leaf (ghost-fill traffic)
//   with the fixed weights of cost_params: a structural estimate, not
//   calibrated from measured counters or timers.
//
// Samples are folded into a per-leaf EWMA so a single noisy step cannot
// thrash the partition: after one observation of a transient 2x spike, the
// weight moves only `alpha` of the way there, and the bounded-migration
// re-partitioner (amr/partition.hpp) clips the resulting split movement on
// top of that.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "amr/partition.hpp"
#include "amr/tree.hpp"

namespace octo::amr {

struct cost_params {
    /// Base cost of a leaf (monopole kernel + the leaf's hydro work).
    double monopole_cost = 1.0;
    /// Cost of one interior node's multipole kernel, charged to its
    /// first-descendant leaf (the partitioner places the interior node with
    /// that leaf's rank).
    double multipole_cost = 4.0;
    /// Cost per cross-rank same-level neighbor pair incident on a leaf
    /// (per-step halo serialization + protocol work on the owner).
    double halo_pair_cost = 0.25;
    /// EWMA smoothing: weight <- (1-alpha)*weight + alpha*sample. Lower is
    /// smoother; 1.0 trusts the latest step entirely.
    double ewma_alpha = 0.3;
};

class cost_model {
  public:
    explicit cost_model(cost_params p = {});

    const cost_params& params() const { return p_; }

    /// Fold one step's structural cost sample for every leaf of `t` into the
    /// EWMA. `parts` supplies the current partition (for the cross-rank halo
    /// term); pass the stats of the assignment the step actually ran with.
    void observe_step(const tree& t, const partition_stats& parts);

    /// Fold one directly measured sample (tests, external timers).
    void observe(node_key k, double cost);

    /// Current EWMA weight of a leaf; leaves never observed report the mean
    /// of the observed weights (1.0 when nothing was observed), so a fresh
    /// leaf neither attracts nor repels the split points.
    double weight(node_key k) const;

    /// Weights for every leaf of `t` in SFC order — the exact vector
    /// partition_sfc_weighted / rebalance_sfc consume.
    std::vector<double> leaf_weights(const tree& t) const;

    std::size_t observed() const { return w_.size(); }

  private:
    double fallback() const;

    cost_params p_;
    std::unordered_map<node_key, double> w_;
    double sum_ = 0; ///< sum of stored weights (fallback = mean)
};

} // namespace octo::amr

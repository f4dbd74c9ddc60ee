#include "core/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "amr/prolong.hpp"
#include "io/checkpoint.hpp"
#include "runtime/apex.hpp"
#include "support/assert.hpp"

namespace octo::core {

using namespace octo::amr;

simulation::simulation(tree t, sim_options opt)
    : tree_(std::move(t)),
      opt_(opt),
      gravity_({.conserve = opt.conserve,
                .vectorized = opt.vectorized,
                .device = opt.device,
                .pool = opt.pool,
                .aggregator = opt.aggregator}),
      lb_cost_(opt.lb.cost) {
    if (opt_.lb.ranks > 0) {
        // Seed with the paper's equal-count split; the cost model refines the
        // weights as steps are observed.
        lb_parts_ = partition_sfc(tree_, opt_.lb.ranks);
    }
}

simulation simulation::restart(const std::string& checkpoint_path,
                               sim_options opt) {
    return restart_chain({checkpoint_path}, opt);
}

// The one restore path: restart() and recover() go through it too.
simulation simulation::restart_chain(const std::vector<std::string>& chain,
                                     sim_options opt) {
    buffer_recycler::instance().release_pages();
    io::checkpoint_data ck = io::read_checkpoint_chain(chain);
    simulation s(std::move(ck.t), opt);
    s.time_ = ck.meta.time;
    s.steps_ = ck.meta.steps;
    return s;
}

simulation simulation::recover(const std::vector<std::string>& chain,
                               sim_options opt,
                               std::vector<int> live_ranks) {
    const auto t0 = std::chrono::steady_clock::now();
    simulation s = restart_chain(chain, opt);
    if (opt.lb.ranks > 0) {
        s.live_ranks_ = std::move(live_ranks);
        // Cold cost model, exactly like any restart: equal weights. The
        // EWMA re-learns as recovered steps are observed.
        const std::vector<double> w(s.tree_.leaves_sfc().size(), 1.0);
        s.last_recovery_ = repartition_onto(s.tree_, s.live_ranks_, w);
        s.lb_parts_ = s.last_recovery_.stats;
    }
    rt::apex_count("lb.recoveries");
    rt::apex_gauge("sim.time_to_recover_us",
                   static_cast<double>(
                       std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count()));
    return s;
}

double simulation::advance() {
    hydro::step_options h;
    h.eos = opt_.eos;
    h.bc = opt_.bc;
    h.cfl = opt_.cfl;
    h.omega = opt_.omega;
    h.pool = opt_.pool;
    h.vectorized = opt_.vectorized;
    h.aggregator = gravity_.executor();
    if (opt_.self_gravity) {
        // Gravity is (re)solved before EVERY RK stage so the source terms
        // act on exactly the density the FMM saw — this is what closes the
        // momentum/angular-momentum ledger to rounding (paper §4.2, and the
        // FMM-per-timestep coupling of §4.3).
        h.before_stage = [this] {
            gravity_.solve(tree_);
            gravity_valid_ = true;
        };
        h.gravity = [this](node_key k) -> std::optional<hydro::gravity_field> {
            const auto& g = gravity_.gravity(k);
            return hydro::gravity_field{g.gx.data(),    g.gy.data(),
                                        g.gz.data(),    g.tq[0].data(),
                                        g.tq[1].data(), g.tq[2].data()};
        };
    }
    const double dt = hydro::step(tree_, h);
    time_ += dt;
    ++steps_;
    if (opt_.lb.ranks > 0) {
        // Feed the cost model with the partition this step actually ran
        // under, then (on cadence) nudge the split points. Owner labels are
        // bookkeeping only — the numerics above never consult them, so a
        // load-balanced run stays bit-identical to an unbalanced one.
        lb_cost_.observe_step(tree_, lb_parts_);
        if (opt_.lb.every_steps > 0 && steps_ % opt_.lb.every_steps == 0) {
            const rebalance_options ropt{.max_migration_fraction =
                                             opt_.lb.max_migration_fraction};
            last_rebalance_ =
                live_ranks_.empty()
                    ? rebalance_sfc(tree_, opt_.lb.ranks,
                                    lb_cost_.leaf_weights(tree_), ropt)
                    : rebalance_sfc(tree_, live_ranks_,
                                    lb_cost_.leaf_weights(tree_), ropt);
            lb_parts_ = last_rebalance_.stats;
            ++rebalances_;
        }
    }
    if (ckpt_.every_steps > 0 && steps_ % ckpt_.every_steps == 0) {
        write_periodic_checkpoint();
    }
    return dt;
}

void simulation::write_periodic_checkpoint() {
    const std::string stem = ckpt_.path_prefix + "." + std::to_string(steps_);
    // The first periodic checkpoint is always full (a delta needs a base),
    // as is every full_every-th one after it.
    const bool full = ckpt_.full_every <= 1 || ckpt_chain_.empty() ||
                      ckpt_count_ % ckpt_.full_every == 0;
    std::string path;
    if (full) {
        path = stem + ".ckpt";
        ckpt_base_digests_ = io::write_checkpoint(
            tree_, path, {.time = time_, .steps = steps_}, opt_.pool);
        ckpt_chain_ = {path};
    } else {
        path = stem + ".dckpt";
        io::write_checkpoint_delta(tree_, path, ckpt_base_digests_,
                                   {.time = time_, .steps = steps_}, opt_.pool);
        // Deltas are base-relative: the newest one supersedes any earlier
        // delta, so the chain never grows past {full, delta}.
        ckpt_chain_.resize(1);
        ckpt_chain_.push_back(path);
    }
    ++ckpt_count_;
    last_checkpoint_ = std::move(path);
}

void simulation::repartition_weighted() {
    if (live_ranks_.empty()) {
        lb_parts_ = partition_sfc_weighted(tree_, opt_.lb.ranks,
                                           lb_cost_.leaf_weights(tree_));
    } else {
        lb_parts_ = partition_sfc_weighted(tree_, live_ranks_,
                                           lb_cost_.leaf_weights(tree_));
    }
}

void simulation::refine_with_fields(node_key k) {
    auto& parent = *tree_.node(k).fields;
    tree_.refine(k);
    for (int c = 0; c < 8; ++c) {
        auto& child = tree_.ensure_fields(key_child(k, c));
        prolong_from_parent(parent, c, child, /*slopes=*/true);
    }
}

int simulation::regrid(
    const std::function<bool(node_key, const subgrid&)>& criterion, int max_level) {
    int refined = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        fill_all_ghosts(tree_, opt_.bc, opt_.pool); // prolongation slopes need ghosts
        // Criterion-driven refinement.
        for (const node_key k : tree_.leaves_sfc()) {
            if (key_level(k) >= max_level) continue;
            if (criterion(k, *tree_.node(k).fields)) {
                refine_with_fields(k);
                ++refined;
                changed = true;
            }
        }
        // Restore 2:1 balance, prolonging fields into every node the
        // balancing creates.
        bool rebalanced = true;
        while (rebalanced) {
            rebalanced = false;
            for (int level = tree_.max_level(); level >= 1; --level) {
                // refine_with_fields() appends to this level's list while we
                // scan it: iterate by index, re-fetching the vector each
                // step, instead of copying the whole list every sweep.
                // Appended nodes are simply visited later in the same pass.
                for (std::size_t idx = 0; idx < tree_.levels()[level].size();
                     ++idx) {
                    const node_key k = tree_.levels()[level][idx];
                    if (!tree_.node(k).refined) continue;
                    for (int dx = -1; dx <= 1; ++dx)
                        for (int dy = -1; dy <= 1; ++dy)
                            for (int dz = -1; dz <= 1; ++dz) {
                                if (dx == 0 && dy == 0 && dz == 0) continue;
                                const node_key nb =
                                    key_neighbor(k, {dx, dy, dz});
                                if (nb == invalid_key || tree_.contains(nb)) {
                                    continue;
                                }
                                // Refine the deepest existing ancestor leaf.
                                node_key anc = key_parent(nb);
                                while (!tree_.contains(anc)) {
                                    anc = key_parent(anc);
                                }
                                OCTO_ASSERT(!tree_.node(anc).refined);
                                refine_with_fields(anc);
                                ++refined;
                                rebalanced = true;
                                changed = true;
                            }
                }
            }
        }
    }
    gravity_valid_ = false;
    if (opt_.lb.ranks > 0 && refined > 0) {
        // New children are born with owner 0; restore a contiguous weighted
        // partition (a structural change already invalidates halo plans and
        // FMM workspaces, so a full re-split costs nothing extra here).
        repartition_weighted();
    }
    return refined;
}

int simulation::coarsen(
    const std::function<bool(node_key, const subgrid&)>& criterion) {
    int coarsened = 0;
    // Iterate coarsest-refined first so cascading coarsening in one call is
    // possible. derefine(k) mutates only the CHILDREN's level list (and may
    // trim empty trailing levels), never the non-empty list being scanned —
    // so this level's list can be iterated in place, no copy needed.
    for (int level = tree_.max_level() - 1; level >= 0; --level) {
        if (level >= static_cast<int>(tree_.levels().size())) continue;
        const std::vector<node_key>& at_level = tree_.levels()[level];
        for (const node_key k : at_level) {
            if (!tree_.contains(k) || !tree_.node(k).refined) continue;
            bool all_leaf_children = true;
            for (int c = 0; c < 8 && all_leaf_children; ++c) {
                all_leaf_children = !tree_.node(key_child(k, c)).refined;
            }
            if (!all_leaf_children) continue;
            if (!criterion(k, tree_.ensure_fields(k))) continue;
            // 2:1 safety: no neighbor of any CHILD (outside this node) may
            // be refined — a refined child-level neighbor requires the
            // children to exist.
            bool safe = true;
            for (int c = 0; c < 8 && safe; ++c) {
                const node_key ck = key_child(k, c);
                for (int dx = -1; dx <= 1 && safe; ++dx)
                    for (int dy = -1; dy <= 1 && safe; ++dy)
                        for (int dz = -1; dz <= 1 && safe; ++dz) {
                            if (dx == 0 && dy == 0 && dz == 0) continue;
                            const node_key nb = key_neighbor(ck, {dx, dy, dz});
                            if (nb == invalid_key || !tree_.contains(nb)) {
                                continue;
                            }
                            if (key_parent(nb) == k) continue; // sibling
                            if (tree_.node(nb).refined) safe = false;
                        }
            }
            if (!safe) continue;

            // Conservative restriction, then drop the children.
            subgrid& parent = tree_.ensure_fields(k);
            for (int c = 0; c < 8; ++c) {
                restrict_into_parent(*tree_.node(key_child(k, c)).fields, c,
                                     parent);
            }
            tree_.derefine(k);
            ++coarsened;
        }
    }
    if (coarsened > 0) {
        gravity_valid_ = false;
        if (opt_.lb.ranks > 0) {
            repartition_weighted();
        }
    }
    return coarsened;
}

report simulation::diagnostics() const {
    report r;
    r.hydro = hydro::compute_totals(tree_);
    if (gravity_valid_) {
        r.e_potential = gravity_.potential_energy(tree_);
    }
    r.e_total = r.hydro.egas + r.e_potential;

    double mass = 0;
    dvec3 com{0, 0, 0};
    for (const auto& level : tree_.levels()) {
        for (const node_key k : level) {
            if (tree_.node(k).refined) continue;
            const auto& g = *tree_.node(k).fields;
            const double V = g.geom.cell_volume();
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int kk = 0; kk < INX; ++kk) {
                        const double m = g.interior(f_rho, i, j, kk) * V;
                        mass += m;
                        com += m * g.geom.cell_center(i, j, kk);
                        r.rho_max = std::max(r.rho_max,
                                             g.interior(f_rho, i, j, kk));
                    }
        }
    }
    if (mass > 0) com /= mass;
    r.center_of_mass = com;
    return r;
}

} // namespace octo::core

#pragma once
// The coupled simulation driver — Octo-Tiger's top level (paper §4.2):
// a finite-volume hydro solver and an FMM gravity solver advancing an
// adaptive octree in lock-step, with the angular-momentum and spin-torque
// ledgers closing across the two solvers, optional GPU offload of the FMM
// kernels, and density-based regridding.

#include <functional>
#include <string>
#include <vector>

#include "amr/cost_model.hpp"
#include "amr/halo.hpp"
#include "amr/partition.hpp"
#include "amr/tree.hpp"
#include "fmm/solver.hpp"
#include "gpu/aggregator.hpp"
#include "gpu/device.hpp"
#include "hydro/update.hpp"
#include "io/checkpoint.hpp"
#include "physics/eos.hpp"
#include "support/buffer_recycler.hpp"

namespace octo::core {

/// Cost-driven dynamic load balancing (ISSUE 8). With `ranks > 0` the
/// driver maintains an SFC partition of the tree across that many modeled
/// ranks: every step feeds the structural cost model (amr/cost_model.hpp),
/// and every `every_steps` steps the split points are nudged toward the
/// weighted ideal under the bounded-migration constraint. Owner labels never
/// influence the numerics — a balanced run is bit-identical to an
/// unbalanced one; what changes is WHERE each subgrid's work is
/// modeled/executed.
struct lb_options {
    int ranks = 0;        ///< 0 disables load balancing entirely
    long every_steps = 1; ///< rebalance cadence (steps)
    double max_migration_fraction = 0.10;
    amr::cost_params cost{};
};

struct sim_options {
    phys::ideal_gas_eos eos{5.0 / 3.0};
    amr::boundary_kind bc = amr::boundary_kind::outflow;
    double cfl = 0.4;
    bool self_gravity = true;
    fmm::am_mode conserve = fmm::am_mode::spin_deposit;
    gpu::device* device = nullptr; ///< offload FMM + hydro kernels (§5.1)
    /// External aggregation executor (may span a device_group). When null
    /// and `device` is set, the gravity solver owns a private one; FMM and
    /// the hydro flux sweeps share it — one launch point for all offload.
    gpu::aggregator* aggregator = nullptr;
    dvec3 omega{0, 0, 0};          ///< rotating-frame angular velocity
    bool vectorized = true;        ///< SIMD FMM + hydro kernels; false = width 1
    rt::thread_pool* pool = nullptr;
    /// Both ignored: not forwarded to the gravity solver, whose private
    /// executor always runs at gpu::aggregator_options{}. stepbench still
    /// sets them; they go away when stepbench moves to a single execution
    /// context (ROADMAP item 4(b)).
    bool autotune = false;
    std::string machine = "host";
    lb_options lb{};               ///< dynamic load balancing (off by default)
};

/// Per-step energy/conservation report.
struct report {
    hydro::totals hydro;     ///< mass, momentum, L, gas energy, scalars
    double e_potential = 0;  ///< 0.5 sum m phi (gravity on) else 0
    double e_total = 0;      ///< egas + e_potential
    double rho_max = 0;
    dvec3 center_of_mass{0, 0, 0};
};

/// Periodic-checkpoint policy (ISSUE 5, incremental deltas ISSUE 10):
/// production runs are driven end to end by restart files (paper §6.2), so
/// the driver itself writes them. With `full_every > 1` only every
/// full_every-th periodic checkpoint is a full image; the ones between are
/// incremental DELTAS (only leaves whose content CRC changed since the last
/// full image, io/checkpoint.hpp) — the restartable state is then the CHAIN
/// {last full, last delta}, exposed by simulation::checkpoint_chain().
struct checkpoint_policy {
    long every_steps = 0; ///< 0 disables periodic checkpoints
    std::string path_prefix; ///< fulls at <prefix>.<step>.ckpt, deltas .dckpt
    /// Every Nth periodic checkpoint is full; the rest are deltas against the
    /// most recent full image. 1 (default) = all full, the ISSUE 5 behavior.
    long full_every = 1;
};

class simulation {
  public:
    simulation(amr::tree t, sim_options opt);

    /// Resume from a checkpoint written by a previous run: restores the
    /// tree, simulation time and step count, so the continued run is bit-
    /// identical to one that never stopped (asserted in tests/test_fault).
    /// Restarts (also restart_chain() and recover()) first release the
    /// pages of the recycler's parked scratch, so a restored tree built
    /// while the previous instance is still alive does not stack on top of
    /// it; a destroyed simulation releases its parked buffers the same way.
    static simulation restart(const std::string& checkpoint_path,
                              sim_options opt);

    /// Resume from a checkpoint CHAIN ({full} or {full, delta...}) written
    /// under a full_every > 1 policy. restart(path) is the chain {path}.
    static simulation restart_chain(const std::vector<std::string>& chain,
                                    sim_options opt);

    /// Elastic recovery (ISSUE 10): restore from the chain AND repartition
    /// the whole curve onto `live_ranks` — the survivors' membership view
    /// after a node death. The sim keeps using only these ranks for every
    /// later rebalance/regrid split. Bumps the `lb.recoveries` APEX counter
    /// and publishes the restore+repartition span as the
    /// `sim.time_to_recover_us` gauge. The recovered run is bit-identical to
    /// a never-killed restart_chain() from the same chain: owner labels
    /// never touch the numerics, and checkpoint files carry no owner state.
    static simulation recover(const std::vector<std::string>& chain,
                              sim_options opt, std::vector<int> live_ranks);

    /// Advance one coupled step (gravity solve + SSP-RK2 hydro step with
    /// source coupling); returns the dt taken. When a checkpoint policy is
    /// set, writes <prefix>.<step>.ckpt every `every_steps` steps (atomic,
    /// checksummed — io/checkpoint.hpp).
    double advance();

    void set_checkpoint_policy(checkpoint_policy p) { ckpt_ = std::move(p); }
    /// Path of the most recent periodic checkpoint ("" before the first).
    const std::string& last_checkpoint() const { return last_checkpoint_; }
    /// The minimal file set that restores the latest periodic checkpoint:
    /// {full} right after a full one, {full, delta} after a delta (later
    /// deltas supersede earlier ones — each is base-relative). Empty before
    /// the first periodic checkpoint. Feed to restart_chain()/recover().
    const std::vector<std::string>& checkpoint_chain() const {
        return ckpt_chain_;
    }

    double time() const { return time_; }
    long step_count() const { return steps_; }

    amr::tree& grid() { return tree_; }
    const amr::tree& grid() const { return tree_; }
    const fmm::solver& gravity() const { return gravity_; }

    /// Refine leaves for which `criterion` holds (up to max_level), keeping
    /// the 2:1 balance, conservatively prolonging the evolved variables into
    /// new children. Returns the number of nodes refined.
    int regrid(const std::function<bool(amr::node_key, const amr::subgrid&)>& criterion,
               int max_level);

    /// Coarsen refined nodes whose eight children are all leaves and for
    /// which `criterion` holds, conservatively restricting the children's
    /// data into the parent (the angular-momentum bookkeeping of
    /// restrict_into_parent applies, so the ledger survives coarsening).
    /// Nodes whose removal would violate the 2:1 balance are skipped.
    /// Returns the number of nodes coarsened.
    int coarsen(const std::function<bool(amr::node_key, const amr::subgrid&)>& criterion);

    report diagnostics() const;

    // ---- load balancing (enabled by sim_options::lb.ranks > 0) -------------

    /// Stats of the partition the NEXT step will run under (weighted
    /// cost_per_rank filled once the cost model has observed a step).
    const amr::partition_stats& partition() const { return lb_parts_; }
    /// Result of the most recent rebalance (empty migrations before the
    /// first); the migration schedule consumers (dist::subgrid_migrator)
    /// execute.
    const amr::rebalance_result& last_rebalance() const { return last_rebalance_; }
    long rebalance_count() const { return rebalances_; }

    // ---- elastic recovery (ISSUE 10) ---------------------------------------

    /// The ranks this sim partitions over. Empty = all of [0, lb.ranks) —
    /// the common, never-recovered case; non-empty after recover().
    const std::vector<int>& live_ranks() const { return live_ranks_; }
    /// Schedule of the recovery repartition (empty unless built by
    /// recover()): `from` may name the dead rank — those subgrids are the
    /// ones reload()ed from the chain instead of migrated from a live store.
    const amr::recovery_partition& last_recovery() const {
        return last_recovery_;
    }

  private:
    void refine_with_fields(amr::node_key k);
    void write_periodic_checkpoint();
    /// Weighted full split over the live ranks (all ranks before recovery).
    void repartition_weighted();

    /// Declared first, so destroyed last: after the members below have
    /// parked their buffers, give those buffers' pages back to the OS.
    struct release_parked_pages {
        ~release_parked_pages() { buffer_recycler::instance().release_pages(); }
    } release_on_exit_;

    amr::tree tree_;
    sim_options opt_;
    fmm::solver gravity_;
    double time_ = 0;
    long steps_ = 0;
    bool gravity_valid_ = false;
    checkpoint_policy ckpt_;
    std::string last_checkpoint_;
    /// {last full} or {last full, last delta} — see checkpoint_chain().
    std::vector<std::string> ckpt_chain_;
    /// Content CRCs of every leaf at the last FULL checkpoint — the base the
    /// next delta diffs against (io::leaf_digest_map).
    io::leaf_digest_map ckpt_base_digests_;
    long ckpt_count_ = 0; ///< periodic checkpoints written (full + delta)
    amr::cost_model lb_cost_;
    amr::partition_stats lb_parts_;
    amr::rebalance_result last_rebalance_;
    long rebalances_ = 0;
    std::vector<int> live_ranks_; ///< empty = [0, lb.ranks); set by recover()
    amr::recovery_partition last_recovery_;
};

} // namespace octo::core

#pragma once
// The gravitational FMM solver (paper §4.3): three steps on the octree —
//   1. bottom-up multipole moments + centers of mass (M2M),
//   2. same-level stencil interactions (the hotspot; optionally offloaded to
//      the simulated GPU as many small kernels on streams, §5.1),
//   3. top-down accumulation of the Taylor expansions (L2L).
//
// Coverage: every cell pair interacts exactly once — at the finest level
// where both sides exist and the two-level criterion selects the pair (see
// stencil.hpp); the root level uses a full stencil so no far pair is lost.
//
// Conservation: with conserve_angular set (default), pair forces are central
// along the line of centers of mass, so total force and total torque vanish
// to rounding — Octo-Tiger's headline property (§4.2).

#include <memory>
#include <string>
#include <unordered_map>

#include "amr/tree.hpp"
#include "fmm/kernels.hpp"
#include "gpu/aggregator.hpp"
#include "gpu/device.hpp"
#include "runtime/thread_pool.hpp"

namespace octo::fmm {

/// Solver configuration. (Namespace-scope so it can serve as a defaulted
/// constructor argument: nested classes with member initializers cannot be
/// brace-defaulted inside their still-incomplete enclosing class.)
struct solver_options {
    am_mode conserve = am_mode::spin_deposit;
    bool vectorized = true;           ///< SIMD-pack kernels on the CPU path
    gpu::device* device = nullptr;    ///< offload same-level kernels when set
    rt::thread_pool* pool = nullptr;  ///< defaults to the global pool
    /// External aggregation executor (may span a device_group). When null
    /// and `device` is set, the solver owns a private single-device
    /// aggregator — all offload goes through one launch point either way.
    gpu::aggregator* aggregator = nullptr;
    /// Both ignored: the private executor always runs at
    /// gpu::aggregator_options{}. stepbench still sets them; they go away
    /// when stepbench moves to a single execution context (ROADMAP item 4(b)).
    bool autotune = false;
    std::string machine = "host";
};

class solver {
  public:
    using options = solver_options;

    explicit solver(options o = {});

    /// Compute gravity for the whole tree as one per-node future DAG (paper
    /// §4.1 "futurization"): M2M waits only on its children, same-level on
    /// the 27 moment sets it reads, L2L on the parent's L2L plus the
    /// children's same-level. Leaf nodes must hold field data (rho is read;
    /// everything else is untouched). Results are stored per node and
    /// available via gravity(); they are bit-identical for any pool size and
    /// task interleaving.
    void solve(amr::tree& t);

    [[nodiscard]] const node_gravity& gravity(amr::node_key k) const;
    [[nodiscard]] const node_moments& moments(amr::node_key k) const;

    /// The offload launch point (null = CPU only): the external aggregator
    /// or the solver's own. The coupled driver hands it to the hydro sweeps.
    [[nodiscard]] gpu::aggregator* executor() const { return agg_; }

    // ---- diagnostics (used by tests and the conservation ledger) ----------

    /// Sum over leaf cells of m * g — zero to rounding in conserving mode.
    [[nodiscard]] dvec3 total_force(const amr::tree& t) const;
    /// Sum over leaf cells of com x (m * g) — zero to rounding in
    /// central_projection mode; cancelled by total_spin_torque() in
    /// spin_deposit mode.
    [[nodiscard]] dvec3 total_torque(const amr::tree& t) const;
    /// Sum of the per-cell spin-torque deposits over all leaves
    /// (am_mode::spin_deposit): total_torque() + total_spin_torque() is zero
    /// to rounding.
    [[nodiscard]] dvec3 total_spin_torque(const amr::tree& t) const;
    /// Gravitational potential energy 0.5 * sum m * phi.
    [[nodiscard]] double potential_energy(const amr::tree& t) const;

    /// Evaluate the potential at an arbitrary point by Taylor-evaluating the
    /// containing leaf cell's local expansion about its center of mass.
    /// Used by the SCF solver, which needs smooth point values.
    [[nodiscard]] double potential_at(const amr::tree& t, const dvec3& r) const;

  private:
    void compute_leaf_moments(amr::tree& t, amr::node_key k);
    void m2m(amr::tree& t, amr::node_key k);
    void same_level(amr::tree& t, amr::node_key k,
                    std::vector<rt::future<void>>& pending);
    void l2l(amr::node_key k);
    void evaluate_node(amr::node_key k);
    void fill_buffer_region(amr::node_key nb, const ivec3& off,
                            partner_buffer& buf) const;

    /// (Re)create the per-node workspace maps only when the tree structure
    /// changed since the previous solve (identified by tree id + revision);
    /// otherwise the existing buffers are reused as-is — zero allocations.
    void prepare_workspace(amr::tree& t);
    void solve_dag(amr::tree& t);

    options opt_;
    rt::thread_pool* pool_;
    gpu::aggregator* agg_ = nullptr; ///< offload launch point (null = CPU only)
    std::unordered_map<amr::node_key, node_moments> moments_;
    std::unordered_map<amr::node_key, node_gravity> gravity_;
    std::unordered_map<amr::node_key, aligned_vector<double>> invm_;
    std::uint64_t workspace_tree_id_ = 0;
    std::uint64_t workspace_revision_ = 0;
    bool workspace_valid_ = false;
    /// Declared last: its destructor drains in-flight batches while the
    /// moment/gravity maps their kernels reference are still alive.
    std::unique_ptr<gpu::aggregator> own_agg_;
};


} // namespace octo::fmm

#pragma once
// The finite-volume update over the AMR tree: PPM reconstruction per pencil,
// Kurganov–Tadmor fluxes, SSP-RK2 time integration with a global timestep
// (as in Octo-Tiger), flux refluxing at coarse–fine boundaries, the
// angular-momentum ledger that keeps total L = sum V (r x s + l) conserved
// to rounding (paper §4.2, Després–Labourasse-style spin absorption), the
// dual-energy bookkeeping, and optional gravity / rotating-frame sources.

#include <functional>
#include <optional>
#include <string>

#include "amr/halo.hpp"
#include "amr/tree.hpp"
#include "hydro/state.hpp"
#include "physics/eos.hpp"
#include "runtime/thread_pool.hpp"
#include "support/vec3.hpp"

namespace octo::gpu {
class aggregator; // gpu/aggregator.hpp — kept out of this header's includes
}

namespace octo::hydro {

/// Per-node gravity data supplied by the gravity solver (cell index order
/// (i*8+j)*8+k over interior cells): accelerations and the spin-torque
/// ledger deposits (total torque per cell per unit time).
struct gravity_field {
    const double* gx;
    const double* gy;
    const double* gz;
    const double* tqx;
    const double* tqy;
    const double* tqz;
};

/// Lookup for the gravity of a leaf node; empty means no gravity.
using gravity_lookup =
    std::function<std::optional<gravity_field>(amr::node_key)>;

struct step_options {
    phys::ideal_gas_eos eos{};
    amr::boundary_kind bc = amr::boundary_kind::outflow;
    double cfl = 0.4;
    bool use_ppm = true;        ///< false: piecewise-constant (ablation)
    /// SoA pencil kernels on simd::pack (paper §4.3) vs the width-1
    /// instantiation of the same portable kernel source (src/kernel), which
    /// is the scalar reference of the agreement tests. The same decision as
    /// sim_options::vectorized and fmm::solver_options::vectorized.
    bool vectorized = true;
    /// Both ignored: the hydro kernels have no tuned geometry and the
    /// offload executor no tuned batch. Kept only because stepbench sets
    /// them; they go away when stepbench moves to a single execution
    /// context (ROADMAP item 4(b)).
    bool autotune = false;
    std::string machine = "host";
    double fixed_dt = 0.0;      ///< >0: skip the CFL computation
    dvec3 omega{0, 0, 0};       ///< rotating-frame angular velocity
    gravity_lookup gravity;     ///< optional gravitational coupling
    /// Invoked before each RK stage (after the previous stage's update, with
    /// current fields). The coupled driver re-solves gravity here so the
    /// source terms see exactly the mass distribution the FMM solved — the
    /// requirement for machine-precision momentum conservation.
    std::function<void()> before_stage;
    rt::thread_pool* pool = nullptr;
    /// Offload flux sweeps through the GPU aggregation executor when set
    /// (the same launch point the FMM solver uses — arXiv:2210.06439's
    /// "one launch point" lesson). Null keeps the pure-CPU schedule. The
    /// executor may reject a submission (saturated device, injected fault);
    /// the sweep then runs inline on the CPU as before.
    gpu::aggregator* aggregator = nullptr;
};

/// Advance the whole tree by one SSP-RK2 step; returns the dt taken.
/// Leaves must hold field data. The step runs as a per-leaf future pipeline
/// (flux sweeps, refluxes and updates chained as continuations, RK stages
/// overlapped); each flux sweep gathers its face ghosts straight from its
/// donors' interiors through the halo plan. The dt and the fields are
/// bit-identical for any pool size and task interleaving.
/// Ghost contract: step() reads and writes no ghost cell; every ghost holds
/// after the step what it held before, so call amr::fill_all_ghosts before
/// reading any ghost. The radiation fields' interiors are left bitwise as
/// they were.
/// Discarding the dt loses the only record of how far time advanced.
[[nodiscard]] double step(amr::tree& t, const step_options& opt);

/// Global CFL timestep for the current state: bit-identical to the dt
/// step() takes without fixed_dt. Reads only leaf interiors (no ghosts).
[[nodiscard]] double cfl_timestep(const amr::tree& t, const step_options& opt);

/// Conserved-quantity ledger over all leaves.
struct totals {
    double mass = 0;
    dvec3 momentum{0, 0, 0};
    dvec3 angular_momentum{0, 0, 0}; ///< orbital (r x s) + spin (l)
    double egas = 0;                 ///< gas total energy
    double tau = 0;
    double passive[amr::n_passive] = {0, 0, 0, 0, 0};
};
[[nodiscard]] totals compute_totals(const amr::tree& t);

} // namespace octo::hydro

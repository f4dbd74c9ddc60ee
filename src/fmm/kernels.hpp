#pragma once
// The same-level FMM interaction kernels — the application hotspot the whole
// paper revolves around (§4.3, §5.1). Two compute kernels, exactly as in
// Octo-Tiger after the multipole-multipole / multipole-monopole merge:
//
//   * monopole_kernel: leaf receiver cells interacting with leaf partner
//     cells (point masses at cell centers) — the cheap, 1/r^3 central-force
//     kernel (paper: 12 flops/interaction).
//   * multipole_kernel: the combined kernel — any receiver interacting with
//     partner cells carrying multipole moments, or multipole receivers with
//     monopole partners (partner moments zero). Computes the order-3 local
//     expansion, with the optional angular-momentum-conserving force term.
//
// Both are function templates over the value type T: instantiated with
// simd::pack<double,W> for the vectorized path (W = 8 by default) and plain
// double for the width-1 scalar reference (paper §5.1: "we can simply
// instance the same function template with scalar datatypes and call it
// within the GPU kernel"). The simulated GPU runs the same vectorized
// instantiation as the CPU, so offloaded results are bit-identical.
//
// Conservation (paper §4.2/§4.3): pair interactions are evaluated from both
// sides with bitwise-mirrored arithmetic (the Green's-function derivatives
// are exactly odd/even in x), so accumulated forces are antisymmetric to
// rounding. In conserving mode the non-central component of the
// second-moment force is projected onto the line between the centers of
// mass, making the pair torque vanish identically — our substitution for
// Marcello's expansion-level correction (see DESIGN.md).

#include <cstdint>

#include "fmm/node_data.hpp"
#include "simd/pack.hpp"

namespace octo::fmm {

/// FLOPs per monopole-monopole interaction (per scalar lane). The paper
/// counts 12 for the force-only kernel; ours also accumulates the potential.
inline constexpr std::uint64_t mono_flops_per_interaction = 15;
/// FLOPs per multipole interaction (per scalar lane), hand-counted from the
/// kernel body in src/kernel/fmm.cpp (paper: 455 with its higher-order
/// expansions).
inline constexpr std::uint64_t multi_flops_per_interaction = 262;

/// Angular-momentum conservation strategy for the multipole force terms.
/// (Linear momentum is conserved to rounding in every mode: pair forces are
/// built from odd/even-symmetric Green's derivatives and the redistribution
/// identities of the L2L pass.)
enum class am_mode {
    /// Standard FMM: most accurate forces; total torque violated at the
    /// truncation level (what the paper's §4.2 says of typical codes).
    none,
    /// Project each pair's moment force onto the line of centers: pair
    /// torque vanishes identically. Cheap; loses the tangential (tidal)
    /// component of the second-moment force.
    central_projection,
    /// Full-accuracy forces; each pair's net torque is deposited (with the
    /// opposite sign) into a per-cell spin-torque ledger that the hydro
    /// solver adds to the evolved spin field — total (orbital + spin)
    /// angular momentum is conserved to rounding. This mirrors Octo-Tiger's
    /// coupling of the gravity solver to the spin degrees of freedom.
    spin_deposit
};

struct kernel_options {
    bool use_inner_mask = false;          ///< skip |d|^2<=8 (refined-refined)
    am_mode conserve = am_mode::spin_deposit;
    /// Stencil to apply; nullptr means the regular 1074-element stencil.
    /// The root node passes its full stencil (no parent to defer to).
    const std::vector<stencil_element>* stencil = nullptr;
};

// The kernel bodies themselves live in src/kernel/fmm.{hpp,cpp}: one body
// per kernel, templated on its value type.
// This header keeps the shared option/metadata types and the paper-style
// flop accounting.

/// Number of stencil interactions one kernel launch performs
/// (512 cells x 1074 stencil elements = 549'888; paper §4.3).
std::uint64_t interactions_per_launch(bool inner_masked);

/// Total FLOPs of one kernel launch (for the paper-style accounting).
std::uint64_t mono_kernel_flops();
std::uint64_t multi_kernel_flops(bool inner_masked);

} // namespace octo::fmm

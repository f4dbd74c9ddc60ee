#pragma once
// Portable FMM kernels (ISSUE 7): the same-level monopole / multipole
// interaction kernels and the tree-transfer M2M / L2L kernels, each written
// ONCE and instantiated per execution-space policy (exec.hpp).
//
// The bodies live in fmm.cpp; this header declares the policy wrappers
// (explicitly instantiated there) plus runtime dispatchers taking the
// `vectorized` flag — the form the solver and benches use.
//
// Unlike the historical src/fmm/kernels.cpp variants, the kernel layer does
// not silently fall back to interaction_stencil(): callers must resolve
// kernel_options::stencil before the launch.

#include "amr/subgrid.hpp"
#include "fmm/kernels.hpp"
#include "fmm/node_data.hpp"
#include "kernel/exec.hpp"
#include "support/aligned.hpp"

namespace octo::kernel {

/// Same-level monopole-monopole interactions (paper §4.3), receiver rows
/// (i, j) in row order, W cells along k per step.
template <class Exec>
void fmm_monopole(const fmm::node_moments& self, const fmm::partner_buffer& partners,
                  const fmm::kernel_options& opt, fmm::node_gravity& out);

/// Same-level multipole (and multipole-monopole) interactions.
template <class Exec>
void fmm_multipole(const fmm::node_moments& self, const aligned_vector<double>& self_invm,
                   const fmm::partner_buffer& partners, const fmm::kernel_options& opt,
                   fmm::node_gravity& out);

/// M2M: reduce the 8 children's moments (indexed by octant) into the parent
/// node. Octant-strided gather bound — scalar policy only.
template <class Exec>
void fmm_m2m(const fmm::node_moments* const children[8], const amr::box_geometry& geom,
             fmm::node_moments& mom, aligned_vector<double>& invm);

/// L2L: translate the parent's local expansions (and the spin-torque
/// ledger) down to the 8 children. Scalar policy only.
template <class Exec>
void fmm_l2l(const fmm::node_gravity& parentL, const fmm::node_moments& pm,
             const fmm::node_moments* const childM[8],
             fmm::node_gravity* const childLw[8], fmm::am_mode conserve);

// ---- runtime dispatch on `vectorized` (exec.hpp dispatch()) -----------------
// (M2M and L2L have the scalar policy only; callers instantiate it directly.)

void run_fmm_monopole(bool vectorized, const fmm::node_moments& self,
                      const fmm::partner_buffer& partners,
                      const fmm::kernel_options& opt, fmm::node_gravity& out);

void run_fmm_multipole(bool vectorized, const fmm::node_moments& self,
                       const aligned_vector<double>& self_invm,
                       const fmm::partner_buffer& partners,
                       const fmm::kernel_options& opt, fmm::node_gravity& out);

} // namespace octo::kernel

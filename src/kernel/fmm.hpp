#pragma once
// Portable FMM kernels: the same-level monopole / multipole interaction
// kernels, each written ONCE as a T-templated body (exec.hpp) and reached
// through a `run_*` entry taking the `vectorized` flag, and the tree-transfer
// M2M / L2L kernels, which are octant-strided-gather bound and run at width 1
// only. The bodies live in fmm.cpp.
//
// The kernels do not fall back to interaction_stencil(): callers must
// resolve kernel_options::stencil before the launch.

#include "amr/subgrid.hpp"
#include "fmm/kernels.hpp"
#include "fmm/node_data.hpp"
#include "kernel/exec.hpp"
#include "support/aligned.hpp"

namespace octo::kernel {

/// Same-level monopole-monopole interactions (paper §4.3), receiver rows
/// (i, j) in row order, one lane per cell along k.
void run_fmm_monopole(bool vectorized, const fmm::node_moments& self,
                      const fmm::partner_buffer& partners,
                      const fmm::kernel_options& opt, fmm::node_gravity& out);

/// Same-level multipole (and multipole-monopole) interactions.
void run_fmm_multipole(bool vectorized, const fmm::node_moments& self,
                       const aligned_vector<double>& self_invm,
                       const fmm::partner_buffer& partners,
                       const fmm::kernel_options& opt, fmm::node_gravity& out);

/// M2M: reduce the 8 children's moments (indexed by octant) into the parent
/// node.
void fmm_m2m(const fmm::node_moments* const children[8], const amr::box_geometry& geom,
             fmm::node_moments& mom, aligned_vector<double>& invm);

/// L2L: translate the parent's local expansions (and the spin-torque
/// ledger) down to the 8 children.
void fmm_l2l(const fmm::node_gravity& parentL, const fmm::node_moments& pm,
             const fmm::node_moments* const childM[8],
             fmm::node_gravity* const childLw[8], fmm::am_mode conserve);

} // namespace octo::kernel

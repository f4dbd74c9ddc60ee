#pragma once
// Conservative restriction (fine -> coarse) and prolongation (coarse ->
// fine) operators. The paper's scaling runs are started by "conservative
// interpolation of the evolved variables" from a coarser restart file (§6.2);
// these are the operators that do that, and they also feed the FMM (interior
// nodes hold restricted data) and AMR ghost fills.
//
// Angular momentum bookkeeping: the spin fields (lx, ly, lz) hold angular
// momentum *about each cell's own center*. Moving momentum between grid
// levels changes which center the orbital part is measured about, so both
// operators shift the orbital term (r_child - r_coarse) x s into/out of the
// spin field. This keeps the total inertial angular momentum
//   L = sum_cells V * (r x s + l)
// exactly invariant under restriction and prolongation — one half of the
// machine-precision angular momentum conservation claim (paper §4.2).

#include "amr/subgrid.hpp"

namespace octo::amr {

/// Restrict the child's interior into the parent's octant region
/// (each parent cell becomes the average of its 8 children).
void restrict_into_parent(const subgrid& child, int octant, subgrid& parent);

/// Fill the child's interior from the parent's octant region.
/// With `slopes`, a minmod-limited linear profile is used (still exactly
/// conservative: slopes integrate to zero over each coarse cell).
void prolong_from_parent(const subgrid& parent, int octant, subgrid& child,
                         bool slopes = true);

/// Inertial angular momentum of a sub-grid's interior about the origin:
/// sum of V * (r x s + l). Used by conservation tests.
dvec3 interior_angular_momentum(const subgrid& g);

} // namespace octo::amr

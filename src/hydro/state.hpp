#pragma once
// Conserved state of one cell of the finite-volume hydro solver (paper
// §4.2): mass density, momentum density, gas total energy, the entropy
// tracer tau of the dual-energy formalism, spin angular momentum density,
// and five passive scalars — plus the density and tracer floors. Primitives
// and fluxes are derived inside the portable kernels (kernel/hydro.hpp).

#include <array>

#include "amr/config.hpp"

namespace octo::hydro {

using amr::n_fields;

/// Full conserved state of one cell.
using state = std::array<double, n_fields>;

/// Density floor applied everywhere (vacuum regions of the scenario).
inline constexpr double rho_floor = 1e-14;
/// Tracer floor consistent with the density floor.
inline constexpr double tau_floor = 1e-18;

} // namespace octo::hydro

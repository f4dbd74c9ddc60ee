#pragma once
// Portable hydro kernels: gather, primitives, PPM reconstruction,
// Kurganov–Tadmor flux, wave-speed reduction, flux divergence, RK blend and
// the dual-energy fixup. Each is written ONCE over the SoA pencil layout of
// hydro/pencil.hpp, as a body templated on its value type (exec.hpp); the
// scalar path (hydro::step_options::vectorized = false) is its width-1
// instantiation.

#include <span>

#include "amr/halo.hpp"
#include "amr/subgrid.hpp"
#include "hydro/pencil.hpp"
#include "kernel/exec.hpp"
#include "physics/eos.hpp"
#include "support/aligned.hpp"

namespace octo::kernel {

/// The full flux sweep of leaf `leaf.g` along `axis`: gather + primitives +
/// per-variable reconstruction + KT flux, at the width `vectorized` selects.
/// The gather reads the leaf's interior and replays the two face regions of
/// `axis` from its plan (amr::gather_face_ghosts); no ghost cell is read.
void run_leaf_fluxes(bool vectorized, const amr::node_ghost_plan& leaf, int axis,
                     const phys::ideal_gas_eos& eos, bool use_ppm,
                     hydro::pencil_workspace& ws, hydro::leaf_flux_soa& out,
                     double* max_speed);

/// PPM (CW84) or PCM reconstruction of one variable plane of the pencil
/// bundle: the C + 1 interface values into `iface`, then the limited lower
/// and upper face states of the reconstructed cells into `flo` and `fhi`.
void run_reconstruct(bool vectorized, const double* q, bool use_ppm,
                     double* iface, double* flo, double* fhi);

/// Max signal speed over the interior of one leaf (per-leaf CFL reduction).
double run_wave_speed(bool vectorized, const amr::subgrid& g,
                      const phys::ideal_gas_eos& eos);

/// Flux divergence + Després–Labourasse spin absorption.
void run_flux_divergence(bool vectorized, amr::subgrid& g,
                         const hydro::leaf_flux_soa& lf, double dt);

/// Second RK stage blend of the hydro fields: U <- (U0 + U) / 2, with u0
/// the [n_hydro_fields][INX][INX][INX] interior snapshot. The radiation
/// fields are left as they are.
void run_blend(bool vectorized, amr::subgrid& g, std::span<const double> u0);

/// Dual-energy bookkeeping + floors (Bryan et al. switch).
void run_dual_energy(bool vectorized, amr::subgrid& g,
                     const phys::ideal_gas_eos& eos);

} // namespace octo::kernel

#pragma once
// Portable hydro kernels (ISSUE 7): gather, primitives, PPM reconstruction,
// Kurganov–Tadmor flux, wave-speed reduction, flux divergence, RK blend and
// the dual-energy fixup — each written ONCE over the SoA pencil layout of
// hydro/pencil.hpp and instantiated per execution-space policy (exec.hpp).
// The scalar path (hydro::step_options::vectorized = false) is simply the
// width-1 instantiation.

#include <span>

#include "amr/subgrid.hpp"
#include "hydro/pencil.hpp"
#include "kernel/exec.hpp"
#include "physics/eos.hpp"
#include "support/aligned.hpp"

namespace octo::kernel {

/// Transpose the sub-grid into the axis-ordered pencil bundle:
/// u[(q*P + p)*L + (b*INX + c)] with p the (ghost-inclusive) cell index
/// along `axis` and (b, c) the transverse interior cell in axis order.
/// Pure data movement — one body, no per-backend math.
void hydro_gather(const amr::subgrid& g, int axis, double* u);

/// Cell primitives for reconstruction (dual-energy switch as masked select).
template <class Exec>
void hydro_primitives(const double* u, const phys::ideal_gas_eos& eos, double* qv);

/// PPM (CW84) or PCM reconstruction of one variable plane of the bundle.
template <class Exec>
void hydro_reconstruct(const double* q, bool use_ppm, double* iface, double* flo,
                       double* fhi);

/// Kurganov–Tadmor flux over every face plane of the sweep; accumulates the
/// maximum signal speed into *max_speed.
template <class Exec>
void hydro_flux(const double* flo, const double* fhi, int axis,
                const phys::ideal_gas_eos& eos, hydro::leaf_flux_soa& out,
                double* max_speed);

/// Max signal speed over the interior of one leaf (per-leaf CFL reduction).
template <class Exec>
double hydro_wave_speed(const amr::subgrid& g, const phys::ideal_gas_eos& eos);

/// Flux divergence + Després–Labourasse spin absorption.
template <class Exec>
void hydro_flux_divergence(amr::subgrid& g, const hydro::leaf_flux_soa& lf,
                           double dt);

/// Second RK stage blend of the hydro fields: U <- (U0 + U) / 2, with u0
/// the [n_hydro_fields][INX][INX][INX] interior snapshot. The radiation
/// fields are left as they are.
template <class Exec>
void hydro_blend(amr::subgrid& g, std::span<const double> u0);

/// Dual-energy bookkeeping + floors (Bryan et al. switch).
template <class Exec>
void hydro_dual_energy(amr::subgrid& g, const phys::ideal_gas_eos& eos);

// ---- runtime dispatch on `vectorized` (exec.hpp dispatch()) -----------------

/// The full flux sweep of one leaf along `axis`: gather + primitives +
/// per-variable reconstruction + KT flux, through the policy `vectorized`
/// selects.
void run_leaf_fluxes(bool vectorized, const amr::subgrid& g, int axis,
                     const phys::ideal_gas_eos& eos, bool use_ppm,
                     hydro::pencil_workspace& ws, hydro::leaf_flux_soa& out,
                     double* max_speed);

double run_wave_speed(bool vectorized, const amr::subgrid& g,
                      const phys::ideal_gas_eos& eos);

void run_flux_divergence(bool vectorized, amr::subgrid& g,
                         const hydro::leaf_flux_soa& lf, double dt);

void run_blend(bool vectorized, amr::subgrid& g, std::span<const double> u0);

void run_dual_energy(bool vectorized, amr::subgrid& g,
                     const phys::ideal_gas_eos& eos);

} // namespace octo::kernel

#pragma once
// Grid configuration constants shared by the AMR, hydro and FMM modules.
//
// Paper §4.2: "Each node is an N^3 sub-grid (with N = 8 for all runs in this
// paper) containing the evolved variables, and can be further refined into
// eight child nodes."

#include <array>
#include <cstddef>

namespace octo::amr {

/// Cells per sub-grid dimension (the paper's N).
inline constexpr int INX = 8;
/// Ghost (halo) width for the hydro solver. PPM face reconstruction needs
/// two cells on each side of a face, and fluxes are needed one cell into the
/// ghost region for the reconstruction at sub-grid boundaries: 3 suffices.
inline constexpr int H_BW = 3;
/// Total cells per dimension including ghosts.
inline constexpr int NX = INX + 2 * H_BW;
/// Cells per sub-grid (interior only): 8^3 = 512 (paper §4.3).
inline constexpr int INX3 = INX * INX * INX;
/// Cells per sub-grid including ghosts.
inline constexpr int NX3 = NX * NX * NX;

/// Evolved fields (paper §4.2): mass density, momentum density, gas total
/// energy, entropy tracer tau, spin angular momentum density (the three
/// extra variables of the Després–Labourasse angular momentum scheme), and
/// five passive scalars tracking fluid fractions of the V1309 scenario.
enum field : int {
    f_rho = 0,
    f_sx,
    f_sy,
    f_sz,
    f_egas,
    f_tau,
    f_lx, ///< spin angular momentum about x
    f_ly,
    f_lz,
    f_frac_accretor_core,
    f_frac_accretor_env,
    f_frac_donor_core,
    f_frac_donor_env,
    f_frac_atmosphere,
    // Radiation moments (the paper's §7 extension: "we have already
    // developed a radiation transport module for Octo-Tiger based on the
    // two moment approach"). These ride on the same sub-grids (ghost fill,
    // prolongation, checkpointing for free) but are transported by the
    // radiation solver, NOT by the hydro fluxes.
    f_erad, ///< radiation energy density
    f_frx,  ///< radiation flux
    f_fry,
    f_frz,
    n_fields
};

/// Fields transported by the hydro fluxes (radiation moments ride on the
/// sub-grids but are advanced by the radiation solver, not here): the fields
/// the flux sweeps read, and so the ones the hydro step's ghost fill copies.
inline constexpr int n_hydro_fields = f_frac_atmosphere + 1;

/// Human-readable field names (I/O, diagnostics).
const char* field_name(int f);

/// Fields evolved with a conservative flux update (all of them).
inline constexpr int n_passive = 5;
inline constexpr int first_passive = f_frac_accretor_core;

} // namespace octo::amr

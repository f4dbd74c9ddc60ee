#pragma once
// SoA pencil kernels for the hydro hot path (paper §4.3: "we changed it to a
// stencil-based approach and are now utilizing a struct-of-arrays
// datastructure", which together with Vc vectorization accounts for the
// 1.90–2.22x hydro speedup of the ablation study).
//
// The 64 transverse pencils of one sweep axis are processed together: every
// quantity becomes a plane of 64 lanes (the transverse cells) per pencil
// position, and the PPM limiter, the dual-energy switch and the
// Kurganov–Tadmor flux run on `simd::pack<double, W>` with masked selects
// instead of branches — the along-axis data dependencies of the
// reconstruction never cross lanes, so the kernel needs no shuffles. The
// scalar path is the width-1 instantiation over the same layout. Spin (the
// Després–Labourasse angular momentum fields) is reconstructed and fluxed
// like every other variable, so the L ledger survives vectorization.

#include "amr/subgrid.hpp"
#include "hydro/state.hpp"
#include "physics/eos.hpp"
#include "simd/pack.hpp"
#include "support/aligned.hpp"

namespace octo::hydro {

/// Pencil geometry of the flux sweeps (every instantiation width).
inline constexpr int pencil_len = amr::INX + 2 * amr::H_BW; ///< cells incl. ghosts
inline constexpr int pencil_lanes = amr::INX * amr::INX;    ///< transverse pencils
inline constexpr int recon_cells = amr::INX + 2;            ///< cells -1..INX
inline constexpr int n_faces = amr::INX + 1;
/// Reconstructed variables: rho, v, p as primitives; tau, passives and spin
/// as mass fractions (q/rho).
inline constexpr int n_recon_vars = 6 + amr::n_passive + 3;

/// Face-flux storage of one leaf, struct-of-arrays: for each axis,
/// n_hydro_fields planes of (INX+1) x INX x INX face values. Plane index p
/// along the axis is the face between cells p-1 and p. The radiation fields
/// have no planes: the radiation solver advances them, the hydro step leaves
/// them untouched. Recycled storage, never zero-filled: every sweep's
/// flux_body writes every face of its axis's planes before any reflux or
/// update reads them.
struct leaf_flux_soa {
    scratch_vector<double> f[3];
    static constexpr int plane_size = n_faces * pencil_lanes;

    /// Size every axis to n_hydro_fields planes (contents indeterminate).
    void allocate() {
        for (auto& a : f) {
            a.resize(static_cast<std::size_t>(amr::n_hydro_fields) * plane_size);
        }
    }

    double* plane(int axis, int q) {
        return f[axis].data() + static_cast<std::size_t>(q) * plane_size;
    }
    const double* plane(int axis, int q) const {
        return f[axis].data() + static_cast<std::size_t>(q) * plane_size;
    }

    /// Flat face index within one field plane: p the face plane along the
    /// axis, (b, c) the transverse cell in axis order ((y,z) for x, (x,z)
    /// for y, (x,y) for z). Axes 0/1 are face-plane-major so the conserved
    /// update's innermost-k loads are contiguous; axis 2 is transverse-major
    /// so faces at fixed (i, j) are contiguous in p for the same reason.
    static constexpr int findex(int axis, int p, int b, int c) {
        return axis == 2 ? (b * amr::INX + c) * n_faces + p
                         : (p * amr::INX + b) * amr::INX + c;
    }

    double& at(int axis, int q, int p, int b, int c) {
        return plane(axis, q)[findex(axis, p, b, c)];
    }
    double at(int axis, int q, int p, int b, int c) const {
        return plane(axis, q)[findex(axis, p, b, c)];
    }
};

/// Scratch of one flux sweep. Each worker thread keeps one and reuses it for
/// every sweep it runs; gather, primitives, reconstruction and flux overwrite
/// every element a later stage reads, so it is sized once and never
/// initialized.
struct pencil_workspace {
    scratch_vector<double> u;     ///< [n_hydro_fields][pencil_len][lanes] conserved
    scratch_vector<double> qv;    ///< [n_recon_vars][pencil_len][lanes]
    scratch_vector<double> iface; ///< [recon_cells+1][lanes] interface values
    scratch_vector<double> flo;   ///< [n_recon_vars][recon_cells][lanes]
    scratch_vector<double> fhi;   ///< [n_recon_vars][recon_cells][lanes]
};

// The flux-sweep kernels over this layout live in src/kernel/hydro.{hpp,cpp}:
// one body per kernel, templated on its value type — the scalar path is the
// width-1 instantiation of the same source.

} // namespace octo::hydro

#pragma once
// The per-octree-node field container: an 8^3 block of evolved variables
// with a 3-cell ghost shell, stored struct-of-arrays (one contiguous array
// per field) as required by the vectorized kernels (paper §4.3: "we changed
// it to a stencil-based approach and are now utilizing a struct-of-arrays
// datastructure").

#include <cstddef>

#include "amr/config.hpp"
#include "support/aligned.hpp"
#include "support/assert.hpp"
#include "support/vec3.hpp"

namespace octo::amr {

/// Geometry of a sub-grid: position of its lower corner and cell width.
struct box_geometry {
    dvec3 origin;    ///< lower corner of the *interior* region
    double dx = 1.0; ///< cell width

    /// Center of interior cell (i, j, k), 0-based interior indices.
    dvec3 cell_center(int i, int j, int k) const {
        return {origin.x + (i + 0.5) * dx, origin.y + (j + 0.5) * dx,
                origin.z + (k + 0.5) * dx};
    }
    double cell_volume() const { return dx * dx * dx; }
};

class subgrid {
  public:
    subgrid() : data_(static_cast<std::size_t>(n_fields) * NX3, 0.0) {}

    /// Flat index of cell (i, j, k) where indices include ghosts: 0..NX-1.
    static constexpr int index(int i, int j, int k) {
        return (i * NX + j) * NX + k;
    }
    /// Flat index of an interior cell, 0-based interior coordinates.
    static constexpr int interior_index(int i, int j, int k) {
        return index(i + H_BW, j + H_BW, k + H_BW);
    }
    static constexpr bool is_interior(int i, int j, int k) {
        return i >= H_BW && i < H_BW + INX && j >= H_BW && j < H_BW + INX &&
               k >= H_BW && k < H_BW + INX;
    }

    /// Start of field f's NX3 plane. The planes are consecutive in one
    /// allocation: field_data(f) == field_data(0) + f * NX3.
    double* field_data(int f) {
        OCTO_ASSERT(f >= 0 && f < n_fields);
        return data_.data() + static_cast<std::size_t>(f) * NX3;
    }
    const double* field_data(int f) const {
        OCTO_ASSERT(f >= 0 && f < n_fields);
        return data_.data() + static_cast<std::size_t>(f) * NX3;
    }

    double& at(int f, int i, int j, int k) { return field_data(f)[index(i, j, k)]; }
    double at(int f, int i, int j, int k) const { return field_data(f)[index(i, j, k)]; }

    double& interior(int f, int i, int j, int k) {
        return field_data(f)[interior_index(i, j, k)];
    }
    double interior(int f, int i, int j, int k) const {
        return field_data(f)[interior_index(i, j, k)];
    }

    box_geometry geom;

    /// Sum of a field over the interior (times cell volume gives the integral).
    double interior_sum(int f) const;

    /// Set every value (ghosts included) of every field to zero.
    void clear();

  private:
    aligned_vector<double> data_;
};

} // namespace octo::amr

#pragma once
// Ghost-zone (halo) machinery over the octree. In the paper the halo
// exchange between neighbouring octree nodes is the dominant communication
// pattern (§5.2, §6.3); here the same data movement is organised per leaf:
// each ghost cell is sourced from the same-level neighbor if it exists
// (leaf interior, or restricted data of a refined node), from the covering
// coarser leaf otherwise (the 2:1 balance guarantees one level at most), or
// from the physical boundary condition outside the domain.

#include <cstdint>
#include <vector>

#include "amr/tree.hpp"
#include "runtime/thread_pool.hpp"

namespace octo::amr {

enum class boundary_kind {
    outflow,    ///< zero-gradient copy of the nearest interior value
    reflecting, ///< mirror with normal-momentum sign flip
    periodic    ///< wrap around the domain
};

// ---- ghost-fill plan -------------------------------------------------------
//
// Resolving a ghost cell is pure address computation on the tree structure:
// for an unchanged tree it yields the same (source sub-grid, cell, flip,
// correction) tuple every time, so the resolved addresses are cached as a
// plan keyed on (tree id, revision, boundary kind) and replayed. Along the
// innermost (k) axis consecutive ghost cells mostly read consecutive cells of
// one donor, or one donor cell repeatedly, so the plan stores *runs* of such
// cells and the replay copies a run's cells with one fixed-length field loop
// per cell and one sign flip per (run, flipped momentum field).
//
// The plan is split per *region* of the ghost shell — the six faces plus one
// bucket for all edges and corners — and each region records the set of
// donor nodes it reads. That is exactly the granularity the futurized hydro
// stage needs: a flux sweep along axis `a` only consumes the two face
// regions 2a and 2a+1, so it replays their runs straight into its pencil
// bundle (gather_face_ghosts) as soon as those regions' (few) donors are
// ready, instead of waiting on a whole-tree barrier.
//
// Ghost contract: fill_all_ghosts makes every ghost of every field current.
// hydro::step reads and writes no ghost cell: its sweeps gather face ghosts
// from the donors' interiors, and the shell holds whatever it held before the
// step. Call fill_all_ghosts before reading any ghost.

/// A run of ghost cells: `len` consecutive destination cells starting at
/// flat index `dst`, read from sub-grid `sg` starting at flat index `src`
/// with `stride` 1 (consecutive source cells) or 0 (one source cell for the
/// whole run: an outflow clamp or a coarse donor's cell pair), under one set
/// of reflecting-boundary momentum flips (bit a: negate component a).
struct ghost_run {
    const subgrid* sg;
    std::int16_t dst;
    std::int16_t src;
    std::int16_t len;
    std::uint8_t stride;
    std::uint8_t flip;
};
static_assert(NX3 <= 32767, "ghost_run indices are 16-bit");

/// Coarse-donor spin correction: the ghost's momentum, sampled about the
/// coarse cell center, carries an orbital-L offset folded into spin.
struct ghost_correction {
    std::int32_t dst;
    dvec3 dr;
};

/// Ghost-shell regions: 0..5 = faces (-x,+x,-y,+y,-z,+z), 6 = edges+corners.
inline constexpr int n_ghost_faces = 6;
inline constexpr int n_ghost_regions = n_ghost_faces + 1;

/// Face region index for axis a and direction dir (-1/+1).
inline constexpr int ghost_face_region(int a, int dir) {
    return 2 * a + (dir > 0 ? 1 : 0);
}

struct ghost_region_plan {
    std::vector<ghost_run> runs;
    std::vector<ghost_correction> corrections;
    std::vector<node_key> donors; ///< unique nodes whose data the runs read
};

struct node_ghost_plan {
    node_key key = invalid_key;
    subgrid* g = nullptr;
    bool leaf = false;
    ghost_region_plan regions[n_ghost_regions];
};

struct ghost_plan {
    std::uint64_t tree_id = 0;
    std::uint64_t revision = 0;
    boundary_kind bc = boundary_kind::outflow;
    bool valid = false;
    std::vector<node_ghost_plan> nodes;
};

/// The cached plan for (t, bc), rebuilt when the tree structure changed.
/// A rebuild resolves the nodes as tasks on `pool` (the global pool when
/// null); the plan is the same for any pool. The returned reference stays
/// valid until the next rebuild. Like fill_all_ghosts, not callable
/// concurrently with tree mutation.
const ghost_plan& acquire_ghost_plan(tree& t, boundary_kind bc,
                                     rt::thread_pool* pool = nullptr);

/// The face ghosts of `np`'s axis-`axis` pencil bundle, replayed from regions
/// 2a and 2a+1 of its plan straight out of the donors' interiors. The bundle
/// is the flux sweeps' gather layout: the first n_hydro_fields fields,
/// u[(q * NX + p) * INX * INX + b * INX + c] with p the ghost-inclusive cell
/// index along `axis` and (b, c) the transverse interior cell in axis order
/// ((j, k) for x, (i, k) for y, (i, j) for z). Writes exactly the slots with
/// p < H_BW or p >= H_BW + INX, bit for bit the values fill_all_ghosts writes
/// into the shell (the same runs, flips and spin correction). Thread-safe as
/// long as no task writes the donors' interiors concurrently.
void gather_face_ghosts(const node_ghost_plan& np, int axis, double* u);

/// Restrict the eight children of refined node `k` into its own field data.
/// The parent storage must already exist (see acquire_ghost_plan, which
/// allocates refined-node storage up front so this never mutates the tree).
void restrict_node(tree& t, node_key k);

/// Bottom-up pass: restrict every refined node's children into it, so all
/// interior nodes hold valid (conservatively averaged) field data. Allocates
/// missing refined-node storage first, then restricts level by level, each
/// level's nodes as tasks on `pool` (the global pool when null).
void restrict_tree(tree& t, rt::thread_pool* pool = nullptr);

/// Fill the ghost shell of node `k` (which must have field storage) cell by
/// cell, without the plan: the reference the plan replay is tested against.
void fill_ghosts(tree& t, node_key k, boundary_kind bc);

/// restrict_tree + every ghost region of every field on every node with
/// field data, replayed from the cached plan, so in steady state the per-cell
/// neighbor resolution is skipped entirely. The only writer of the ghost
/// shell: hydro::step leaves it as it was.
/// Restriction and the replay (node by node) run as tasks on `pool` (the
/// global pool when null); the result is the same for any pool.
/// Not callable concurrently with anything else touching the tree.
void fill_all_ghosts(tree& t, boundary_kind bc, rt::thread_pool* pool = nullptr);

} // namespace octo::amr

#include "amr/halo.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "amr/prolong.hpp"
#include "runtime/apex.hpp"
#include "runtime/thread_pool.hpp"
#include "support/assert.hpp"

namespace octo::amr {
namespace {

/// Clamp v into [0, n).
int clamp_idx(int v, int n) { return std::max(0, std::min(n - 1, v)); }

/// Euclidean-style floor division/modulo for negative coordinates.
int floor_div(int a, int b) { return a >= 0 ? a / b : -((-a + b - 1) / b); }
int mod_pos(int a, int b) {
    const int m = a % b;
    return m < 0 ? m + b : m;
}

/// Where one ghost cell's data comes from: the source node and flat cell
/// index, which momentum components a reflecting boundary flips, and the
/// spin correction offset when the source is one level coarser.
struct ghost_source {
    const subgrid* sg = nullptr;
    node_key src_key = invalid_key;
    std::int32_t src = 0;   ///< flat index within one field plane of *sg
    std::uint8_t flip = 0;  ///< bit a set: negate momentum component a
    bool coarse = false;    ///< source is coarser: spin correction applies
    dvec3 dr{0, 0, 0};      ///< fine ghost center minus coarse source center
};

/// Resolve ghost cell (i, j, kk) of node `k`: apply the physical boundary
/// remap, locate the covering sub-grid (walking up one level when the
/// same-level neighbor does not exist), and precompute the coarse-source
/// spin-correction offset. Pure address computation — no field data is read.
ghost_source resolve_ghost(const tree& t, node_key k, int i, int j, int kk,
                           boundary_kind bc) {
    const int level = key_level(k);
    const int extent_subgrids = 1 << level;         // sub-grids per dimension
    const int extent_cells = extent_subgrids * INX; // cells per dimension
    const ivec3 base = key_coords(k);

    // Global cell coordinates of this ghost cell at this level.
    int gc[3] = {base.x * INX + (i - H_BW), base.y * INX + (j - H_BW),
                 base.z * INX + (kk - H_BW)};

    // Physical boundary handling first.
    ghost_source out;
    for (int a = 0; a < 3; ++a) {
        if (gc[a] >= 0 && gc[a] < extent_cells) continue;
        switch (bc) {
            case boundary_kind::outflow:
                gc[a] = clamp_idx(gc[a], extent_cells);
                break;
            case boundary_kind::periodic:
                gc[a] = mod_pos(gc[a], extent_cells);
                break;
            case boundary_kind::reflecting:
                // Mirror across the wall; flip normal momentum.
                gc[a] = gc[a] < 0 ? -1 - gc[a] : 2 * extent_cells - 1 - gc[a];
                out.flip |= static_cast<std::uint8_t>(1u << a);
                break;
        }
    }

    // Locate the sub-grid containing the (possibly remapped) cell.
    const ivec3 src_sub{floor_div(gc[0], INX), floor_div(gc[1], INX),
                        floor_div(gc[2], INX)};
    node_key src = key_from_coords(level, src_sub);
    int src_level = level;
    int cell[3] = {mod_pos(gc[0], INX), mod_pos(gc[1], INX), mod_pos(gc[2], INX)};

    // Walk up until a node with data exists (2:1 balance makes this at most
    // one step for valid trees, but the loop is general). Cell coordinates
    // coarsen by halving global coords.
    int ggc[3] = {gc[0], gc[1], gc[2]};
    while (!t.contains(src)) {
        OCTO_ASSERT_MSG(src_level > 0, "no covering node found");
        --src_level;
        for (int a = 0; a < 3; ++a) ggc[a] = floor_div(ggc[a], 2);
        const ivec3 csub{floor_div(ggc[0], INX), floor_div(ggc[1], INX),
                         floor_div(ggc[2], INX)};
        src = key_from_coords(src_level, csub);
        for (int a = 0; a < 3; ++a) cell[a] = mod_pos(ggc[a], INX);
    }

    const auto& src_node = t.node(src);
    OCTO_ASSERT_MSG(src_node.fields != nullptr,
                    "fill_ghosts: source node without data (run "
                    "restrict_tree first)");
    out.sg = src_node.fields.get();
    out.src_key = src;
    out.src = subgrid::interior_index(cell[0], cell[1], cell[2]);

    // When the source is coarser, momentum sampled piecewise-constantly
    // carries an orbital angular momentum offset about the coarse cell
    // center; shift it into the spin field so the ghost data is consistent
    // with the prolongation operator.
    if (src_level != level) {
        out.coarse = true;
        const box_geometry src_geom = t.geometry(src);
        const dvec3 R = src_geom.cell_center(cell[0], cell[1], cell[2]);
        const box_geometry my_geom = t.geometry(k);
        const dvec3 r = my_geom.cell_center(i - H_BW, j - H_BW, kk - H_BW);
        out.dr = r - R;
    }
    return out;
}

/// Copy one ghost cell from its resolved source into `g` at flat index
/// `dst`, applying the reflecting momentum flips. (Negation is exactly
/// multiplication by -1.0, so this matches the historical momentum_sign path
/// bit for bit.)
void apply_ghost(subgrid& g, std::int32_t dst, const subgrid& sg,
                 std::int32_t src, std::uint8_t flip) {
    for (int f = 0; f < n_fields; ++f) {
        double v = sg.field_data(f)[src];
        if ((f == f_sx && (flip & 1u) != 0) || (f == f_sy && (flip & 2u) != 0) ||
            (f == f_sz && (flip & 4u) != 0)) {
            v = -v;
        }
        g.field_data(f)[dst] = v;
    }
}

/// Coarse-source spin correction of one copied ghost cell whose field f is
/// at cell[f * fstride]. The one definition behind the shell and the pencil
/// replays (and the per-cell reference): kept out of line so that
/// -ffp-contract=fast fuses its products the same way for every caller.
[[gnu::noinline]] void correct_spin(double* cell, std::ptrdiff_t fstride,
                                    const dvec3& dr) {
    const dvec3 s{cell[f_sx * fstride], cell[f_sy * fstride], cell[f_sz * fstride]};
    const dvec3 corr = cross(dr, s);
    cell[f_lx * fstride] -= corr.x;
    cell[f_ly * fstride] -= corr.y;
    cell[f_lz * fstride] -= corr.z;
}

/// Replay region `r` into `out`: ghost cell `dst` of the shell lands at
/// out + slot(dst), the consecutive cells of a run `step` apart, and field f
/// of a cell `fstride` past field 0, for fields 0..nf-1. Run by run, with the
/// fields innermost: the copy loop has a fixed trip count and no sign test,
/// and the reflecting flips are applied once per (run, flipped field)
/// afterwards. Field-major order (all runs of one field, then the next) pays
/// a mispredicted short-loop exit per (run, field); it replayed 25-35%
/// slower on a 4-vCPU AVX-512 Xeon (EXPERIMENTS.md).
template <class Slot>
void replay_region(const ghost_region_plan& r, double* out, const Slot& slot,
                   int step, std::ptrdiff_t fstride, int nf) {
    for (const ghost_run& run : r.runs) {
        const double* in = run.sg->field_data(0) + run.src;
        double* d = out + slot(run.dst);
        for (int n = 0; n < run.len; ++n) {
            for (int f = 0; f < nf; ++f) d[n * step + f * fstride] = in[n * run.stride + f * NX3];
        }
        for (int a = 0; a < 3; ++a) {
            if ((run.flip & (1u << a)) == 0) continue;
            double* m = d + (f_sx + a) * fstride;
            for (int n = 0; n < run.len; ++n) m[n * step] = -m[n * step];
        }
    }
    for (const auto& c : r.corrections) correct_spin(out + slot(c.dst), fstride, c.dr);
}

/// Every field of region `r` into `g`'s own ghost shell.
void apply_ghost_region(subgrid& g, const ghost_region_plan& r) {
    replay_region(r, g.field_data(0), [](std::int32_t dst) { return dst; }, 1, NX3,
                  n_fields);
}

/// Ghost-shell region of cell (i, j, kk) in full (ghost-inclusive) coords:
/// one of the six faces when exactly one coordinate is outside the interior
/// slab, the edges+corners bucket otherwise.
int ghost_region_of(int i, int j, int kk) {
    const int c[3] = {i, j, kk};
    int region = -1;
    int outside = 0;
    for (int a = 0; a < 3; ++a) {
        if (c[a] < H_BW) {
            ++outside;
            region = ghost_face_region(a, -1);
        } else if (c[a] >= H_BW + INX) {
            ++outside;
            region = ghost_face_region(a, +1);
        }
    }
    OCTO_ASSERT(outside > 0);
    return outside == 1 ? region : n_ghost_regions - 1;
}

/// Single cached plan. fill_all_ghosts mutates sub-grids and was never
/// callable concurrently; the cache inherits that contract.
ghost_plan& cached_plan() {
    static ghost_plan plan;
    return plan;
}

/// Append ghost cell `dst` (resolved to `s`) to a region's runs: it extends
/// the last run when it continues both the destination and the source
/// pattern of that run, and starts a new run otherwise. A run's second cell
/// fixes its stride.
void append_cell(ghost_region_plan& r, std::int32_t dst, const ghost_source& s) {
    if (!r.runs.empty()) {
        ghost_run& last = r.runs.back();
        if (last.sg == s.sg && last.flip == s.flip && last.dst + last.len == dst) {
            const int step = s.src - (last.src + (last.len - 1) * last.stride);
            if (last.len == 1 && (step == 0 || step == 1)) {
                last.stride = static_cast<std::uint8_t>(step);
                ++last.len;
                return;
            }
            if (step == last.stride) {
                ++last.len;
                return;
            }
        }
    }
    r.runs.push_back({s.sg, static_cast<std::int16_t>(dst),
                      static_cast<std::int16_t>(s.src), 1, 1, s.flip});
    // A donor can only change where a run starts.
    if (std::find(r.donors.begin(), r.donors.end(), s.src_key) == r.donors.end()) {
        r.donors.push_back(s.src_key);
    }
}

/// Resolve every ghost cell of node `np.key` into `np`'s region runs, in
/// (i, j, kk) order so that runs follow the contiguous k axis. `scratch`
/// keeps its capacity across the nodes of one task; `np` gets exact copies.
void resolve_node(const tree& t, boundary_kind bc, node_ghost_plan& scratch,
                  node_ghost_plan& np) {
    for (auto& r : scratch.regions) {
        r.runs.clear();
        r.corrections.clear();
        r.donors.clear();
    }
    for (int i = 0; i < NX; ++i)
        for (int j = 0; j < NX; ++j)
            for (int kk = 0; kk < NX; ++kk) {
                if (subgrid::is_interior(i, j, kk)) continue;
                const ghost_source s = resolve_ghost(t, np.key, i, j, kk, bc);
                const auto dst = static_cast<std::int32_t>(subgrid::index(i, j, kk));
                auto& r = scratch.regions[ghost_region_of(i, j, kk)];
                append_cell(r, dst, s);
                if (s.coarse) r.corrections.push_back({dst, s.dr});
            }
    for (int r = 0; r < n_ghost_regions; ++r) {
        const auto& from = scratch.regions[r];
        auto& to = np.regions[r];
        to.runs.assign(from.runs.begin(), from.runs.end());
        to.corrections.assign(from.corrections.begin(), from.corrections.end());
        to.donors.assign(from.donors.begin(), from.donors.end());
    }
}

/// Field storage for every refined node. Allocating bumps the tree revision,
/// so it runs serially, before any plan check or task that needs the storage.
void allocate_refined_storage(tree& t) {
    for (int level = t.max_level() - 1; level >= 0; --level) {
        for (const node_key k : t.levels()[level]) {
            if (t.node(k).refined) t.ensure_fields(k);
        }
    }
}

/// Rebuild the plan for every node with field data, coarse to fine. The
/// slots are laid out serially; the per-cell resolution of the nodes runs as
/// tasks on `pool`, each writing only its own slots, so the plan does not
/// depend on the pool.
void rebuild_plan(ghost_plan& plan, tree& t, boundary_kind bc,
                  rt::thread_pool& pool) {
    plan.nodes.clear();
    plan.nodes.reserve(t.size());
    for (int level = 0; level <= t.max_level(); ++level) {
        for (const node_key k : t.levels()[level]) {
            auto& n = t.node(k);
            if (n.fields == nullptr) continue;
            node_ghost_plan& np = plan.nodes.emplace_back();
            np.key = k;
            np.g = n.fields.get();
            np.leaf = !n.refined;
        }
    }
    rt::for_chunks(pool, plan.nodes.size(), [&plan, &t, bc](std::size_t lo, std::size_t hi) {
        node_ghost_plan scratch;
        for (std::size_t n = lo; n < hi; ++n) {
            resolve_node(t, bc, scratch, plan.nodes[n]);
        }
    });
    plan.tree_id = t.id();
    plan.revision = t.revision();
    plan.bc = bc;
    plan.valid = true;
    rt::apex_count("amr.halo_plan_rebuilds");
}

} // namespace

const ghost_plan& acquire_ghost_plan(tree& t, boundary_kind bc,
                                     rt::thread_pool* pool) {
    // Refined-node storage is allocated up front: it would bump the tree
    // revision and invalidate the plan mid-flight otherwise.
    allocate_refined_storage(t);
    ghost_plan& plan = cached_plan();
    if (!plan.valid || plan.tree_id != t.id() || plan.revision != t.revision() ||
        plan.bc != bc) {
        rebuild_plan(plan, t, bc,
                     pool != nullptr ? *pool : rt::thread_pool::global());
    } else {
        rt::apex_count("amr.halo_plan_hits");
    }
    return plan;
}

void gather_face_ghosts(const node_ghost_plan& np, int axis, double* u) {
    constexpr int L = INX * INX;
    // Shell cell (i, j, k) of a face region of `axis` is pencil position
    // p = the coordinate along `axis` in lane (b, c) = the other two, minus
    // the ghost width; a run's consecutive k cells are consecutive lanes,
    // except along z, where they are consecutive pencil positions.
    const auto slot = [axis](std::int32_t dst) {
        const int i = dst / (NX * NX);
        const int j = dst / NX % NX;
        const int k = dst % NX;
        switch (axis) {
            case 0: return i * L + (j - H_BW) * INX + (k - H_BW);
            case 1: return j * L + (i - H_BW) * INX + (k - H_BW);
            default: return k * L + (i - H_BW) * INX + (j - H_BW);
        }
    };
    for (const int dir : {-1, +1}) {
        replay_region(np.regions[ghost_face_region(axis, dir)], u, slot,
                      axis == 2 ? L : 1, NX * L, n_hydro_fields);
    }
}

void restrict_node(tree& t, node_key k) {
    auto& n = t.node(k);
    OCTO_ASSERT(n.refined);
    OCTO_ASSERT_MSG(n.fields != nullptr,
                    "restrict_node: parent storage not allocated");
    subgrid& parent = *n.fields;
    for (int c = 0; c < 8; ++c) {
        const node_key ck = key_child(k, c);
        const auto& child = t.node(ck);
        OCTO_ASSERT_MSG(child.fields != nullptr,
                        "restrict_node: child without field data");
        restrict_into_parent(*child.fields, c, parent);
    }
}

void restrict_tree(tree& t, rt::thread_pool* pool) {
    rt::thread_pool& p = pool != nullptr ? *pool : rt::thread_pool::global();
    allocate_refined_storage(t);
    // Finest to coarsest so parents always see up-to-date children. The
    // refined nodes of one level write disjoint parents.
    std::vector<node_key> refined;
    for (int level = t.max_level() - 1; level >= 0; --level) {
        refined.clear();
        for (const node_key k : t.levels()[level]) {
            if (t.node(k).refined) refined.push_back(k);
        }
        rt::for_chunks(p, refined.size(), [&t, &refined](std::size_t lo, std::size_t hi) {
            for (std::size_t n = lo; n < hi; ++n) restrict_node(t, refined[n]);
        });
    }
}

void fill_ghosts(tree& t, node_key k, boundary_kind bc) {
    auto& n = t.node(k);
    OCTO_ASSERT_MSG(n.fields != nullptr, "fill_ghosts: node without field data");
    subgrid& g = *n.fields;

    for (int i = 0; i < NX; ++i) {
        for (int j = 0; j < NX; ++j) {
            for (int kk = 0; kk < NX; ++kk) {
                if (subgrid::is_interior(i, j, kk)) continue;
                const ghost_source s = resolve_ghost(t, k, i, j, kk, bc);
                const auto dst =
                    static_cast<std::int32_t>(subgrid::index(i, j, kk));
                apply_ghost(g, dst, *s.sg, s.src, s.flip);
                if (s.coarse) correct_spin(g.field_data(0) + dst, NX3, s.dr);
            }
        }
    }
}

void fill_all_ghosts(tree& t, boundary_kind bc, rt::thread_pool* pool) {
    rt::thread_pool& p = pool != nullptr ? *pool : rt::thread_pool::global();
    // restrict_tree may allocate parent field storage (bumping the tree
    // revision), so it runs before the plan check.
    restrict_tree(t, &p);
    const ghost_plan& plan = acquire_ghost_plan(t, bc, &p);

    // Replay: each node writes only its own ghost shell and reads only
    // donor interiors, which nothing writes any more.
    rt::for_chunks(p, plan.nodes.size(), [&plan](std::size_t lo, std::size_t hi) {
        for (std::size_t n = lo; n < hi; ++n) {
            const node_ghost_plan& np = plan.nodes[n];
            for (const auto& r : np.regions) apply_ghost_region(*np.g, r);
        }
    });
}

} // namespace octo::amr

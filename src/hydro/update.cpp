#include "hydro/update.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "gpu/aggregator.hpp"
#include "hydro/pencil.hpp"
#include "kernel/hydro.hpp"
#include "runtime/apex.hpp"
#include "runtime/future.hpp"
#include "support/aligned.hpp"
#include "support/assert.hpp"

namespace octo::hydro {

using namespace octo::amr;

namespace {

/// Modeled cost of one axis flux sweep over a 8^3 leaf (reconstruction +
/// Riemann per face) — accounting only; the machine model consumes it.
constexpr std::uint64_t flux_sweep_flops =
    static_cast<std::uint64_t>(amr::INX3) * 400;

/// Cell (i,j,k) from axis-ordered (p, b, c).
void axis_cell(int axis, int p, int b, int c, int& i, int& j, int& k) {
    switch (axis) {
        case 0: i = p; j = b; k = c; break;
        case 1: i = b; j = p; k = c; break;
        default: i = b; j = c; k = p; break;
    }
}

/// One leaf's flux sweep along `axis` through the portable kernel layer
/// (gather of the interior and the plan's face ghosts + primitives +
/// reconstruction + KT flux, at the width opt.vectorized selects). The
/// workspace is the calling thread's own — a pool worker's, or the offload
/// executor's — sized by its first sweep and reused, never cleared, by every
/// later one.
void compute_axis_fluxes(const node_ghost_plan& leaf, int axis,
                         const step_options& opt, leaf_flux_soa& out) {
    double ms = 0.0; // diagnostic only; dt comes from the CFL reduction
    thread_local pencil_workspace ws;
    kernel::run_leaf_fluxes(opt.vectorized, leaf, axis, opt.eos, opt.use_ppm, ws,
                            out, &ms);
}

// ---- reflux ----------------------------------------------------------------

struct reflux_moment {
    dvec3 m{0, 0, 0};
};

/// One coarse face adjacent to a refined same-level neighbor; the moments
/// are rewritten by reflux_face every stage.
struct reflux_entry {
    node_key leaf;
    int axis;
    int dir;
    std::vector<reflux_moment> moments;
};

/// The four children of `nb` that touch its shared face with a coarse
/// neighbor in direction -dir (the enumeration reflux_face walks).
std::array<node_key, 4> face_children(node_key nb, int axis, int dir) {
    std::array<node_key, 4> out{};
    int n = 0;
    for (int bb = 0; bb < 2; ++bb) {
        for (int cc = 0; cc < 2; ++cc) {
            int obit[3];
            obit[axis] = dir > 0 ? 0 : 1;
            const int ta = axis == 0 ? 1 : 0;
            const int tb = axis == 2 ? 1 : 2;
            obit[ta] = bb;
            obit[tb] = cc;
            out[static_cast<std::size_t>(n++)] =
                key_child(nb, obit[0] | (obit[1] << 1) | (obit[2] << 2));
        }
    }
    return out;
}

/// Replace the coarse side's boundary fluxes with the restriction of the
/// fine side's, and collect the tangential moment needed by the angular
/// momentum ledger (see update_leaf). `flux_of` maps a leaf to its fluxes.
template <class FluxOf>
void reflux_face(tree& t, node_key coarse, int axis, int dir,
                 leaf_flux_soa& cf, const FluxOf& flux_of,
                 std::vector<reflux_moment>& moments) {
    const node_key nb = key_neighbor(coarse, {axis == 0 ? dir : 0,
                                              axis == 1 ? dir : 0,
                                              axis == 2 ? dir : 0});
    OCTO_ASSERT(nb != invalid_key && t.contains(nb) && t.node(nb).refined);

    const box_geometry cg = t.geometry(coarse);
    const double dxf = cg.dx / 2.0;

    // Coarse boundary plane index and the fine plane on the children.
    const int cplane = dir > 0 ? INX : 0;
    const int fplane = dir > 0 ? 0 : INX;

    moments.assign(INX * INX, reflux_moment{});

    for (int b = 0; b < INX; ++b) {
        for (int c = 0; c < INX; ++c) {
            // Child of nb covering coarse transverse cell (b, c): the child
            // must touch the shared face: its octant bit along `axis` is 0
            // for dir>0 (the -axis side of nb), 1 for dir<0.
            int obit[3];
            obit[axis] = dir > 0 ? 0 : 1;
            // Transverse axes in axis order.
            const int ta = axis == 0 ? 1 : 0;
            const int tb = axis == 2 ? 1 : 2;
            obit[ta] = b / (INX / 2);
            obit[tb] = c / (INX / 2);
            const int oct = obit[0] | (obit[1] << 1) | (obit[2] << 2);
            const node_key child = key_child(nb, oct);
            OCTO_ASSERT(t.contains(child));
            const leaf_flux_soa& ff = flux_of(child);

            state sum{};
            dvec3 moment{0, 0, 0};
            // Coarse face center (for the tangential moment).
            int ci, cj, ck;
            axis_cell(axis, cplane, b, c, ci, cj, ck);
            dvec3 face_center = cg.cell_center(ci, cj, ck);
            face_center[axis] -= 0.5 * cg.dx; // center of the lower face of cell

            const box_geometry fg = t.geometry(child);
            for (int db = 0; db < 2; ++db) {
                for (int dc = 0; dc < 2; ++dc) {
                    const int fb = 2 * (b % (INX / 2)) + db;
                    const int fc = 2 * (c % (INX / 2)) + dc;
                    const int fi = leaf_flux_soa::findex(axis, fplane, fb, fc);
                    state f;
                    for (int q = 0; q < n_hydro_fields; ++q) {
                        f[static_cast<std::size_t>(q)] = ff.plane(axis, q)[fi];
                    }
                    for (int q = 0; q < n_hydro_fields; ++q) {
                        sum[static_cast<std::size_t>(q)] +=
                            f[static_cast<std::size_t>(q)];
                    }
                    // Fine face center.
                    int fi2, fj2, fk2;
                    axis_cell(axis, fplane, fb, fc, fi2, fj2, fk2);
                    dvec3 fcc = fg.cell_center(fi2, fj2, fk2);
                    fcc[axis] -= 0.5 * fg.dx;
                    dvec3 tang = fcc - face_center;
                    tang[axis] = 0.0;
                    const dvec3 Fs{f[f_sx], f[f_sy], f[f_sz]};
                    moment += cross(tang, Fs) * (dxf * dxf); // A_f * (t x F)
                }
            }
            const int cfi = leaf_flux_soa::findex(axis, cplane, b, c);
            for (int q = 0; q < n_hydro_fields; ++q) {
                cf.plane(axis, q)[cfi] = sum[static_cast<std::size_t>(q)] / 4.0;
            }
            moments[static_cast<std::size_t>(b * INX + c)].m = moment;
        }
    }
}

// ---- conserved update ------------------------------------------------------

/// Pre-update density/momentum snapshot for the source terms.
void snapshot_sources(const subgrid& g, aligned_vector<double>& old_rho,
                      aligned_vector<dvec3>& old_s) {
    old_rho.resize(INX3);
    old_s.resize(INX3);
    for (int i = 0; i < INX; ++i)
        for (int j = 0; j < INX; ++j)
            for (int kk = 0; kk < INX; ++kk) {
                const auto c =
                    static_cast<std::size_t>(((i * INX) + j) * INX + kk);
                old_rho[c] = g.interior(f_rho, i, j, kk);
                old_s[c] = {g.interior(f_sx, i, j, kk),
                            g.interior(f_sy, i, j, kk),
                            g.interior(f_sz, i, j, kk)};
            }
}

/// Coarse-fine residual moments for one refluxed face of this leaf.
void apply_reflux_moments(subgrid& g, const reflux_entry& e, double dt) {
    const double V = g.geom.cell_volume();
    for (int b = 0; b < INX; ++b)
        for (int c = 0; c < INX; ++c) {
            const dvec3 M = e.moments[static_cast<std::size_t>(b * INX + c)].m;
            // Residual spin: -dt * sum A_f (t x F) / V, signed by which side
            // of the cell the face is.
            const double sgn = e.dir > 0 ? -1.0 : 1.0;
            int ci, cj, ck;
            axis_cell(e.axis, e.dir > 0 ? INX - 1 : 0, b, c, ci, cj, ck);
            const dvec3 corr = (sgn * dt / V) * M;
            g.interior(f_lx, ci, cj, ck) += corr.x;
            g.interior(f_ly, ci, cj, ck) += corr.y;
            g.interior(f_lz, ci, cj, ck) += corr.z;
        }
}

/// Gravity (+ spin-torque deposits) and rotating frame. They must use the
/// PRE-update state: the FMM solved for that density, so only then does
/// sum(V rho g) vanish to rounding (machine-precision momentum conservation).
void apply_sources(subgrid& g, node_key k, const step_options& opt, double dt,
                   const aligned_vector<double>& old_rho,
                   const aligned_vector<dvec3>& old_s) {
    std::optional<gravity_field> gf;
    if (opt.gravity) gf = opt.gravity(k);
    const double V = g.geom.cell_volume();
    for (int i = 0; i < INX; ++i)
        for (int j = 0; j < INX; ++j)
            for (int kk = 0; kk < INX; ++kk) {
                const std::size_t old_idx =
                    static_cast<std::size_t>(((i * INX) + j) * INX + kk);
                const double rho = old_rho[old_idx];
                const dvec3 s = old_s[old_idx];
                if (gf) {
                    const int cidx = (i * INX + j) * INX + kk;
                    const dvec3 acc{gf->gx[cidx], gf->gy[cidx], gf->gz[cidx]};
                    g.interior(f_sx, i, j, kk) += dt * rho * acc.x;
                    g.interior(f_sy, i, j, kk) += dt * rho * acc.y;
                    g.interior(f_sz, i, j, kk) += dt * rho * acc.z;
                    g.interior(f_egas, i, j, kk) += dt * dot(s, acc);
                    // FMM spin-torque ledger (per-cell total torque -> spin
                    // density).
                    g.interior(f_lx, i, j, kk) += dt * gf->tqx[cidx] / V;
                    g.interior(f_ly, i, j, kk) += dt * gf->tqy[cidx] / V;
                    g.interior(f_lz, i, j, kk) += dt * gf->tqz[cidx] / V;
                }
                if (norm2(opt.omega) > 0.0) {
                    // Rotating frame: Coriolis + centrifugal (pre-update
                    // state, like gravity).
                    const dvec3 r = g.geom.cell_center(i, j, kk);
                    const dvec3 v = s / std::max(rho, rho_floor);
                    const dvec3 a = -2.0 * cross(opt.omega, v) -
                                    cross(opt.omega, cross(opt.omega, r));
                    g.interior(f_sx, i, j, kk) += dt * rho * a.x;
                    g.interior(f_sy, i, j, kk) += dt * rho * a.y;
                    g.interior(f_sz, i, j, kk) += dt * rho * a.z;
                    g.interior(f_egas, i, j, kk) += dt * rho * dot(v, a);
                }
            }
}

/// u0 snapshot layout: [q][i][j][k] over the interior cells of the hydro
/// fields (the blend reads nothing else).
void save_u0(const subgrid& g, scratch_vector<double>& v) {
    v.resize(static_cast<std::size_t>(n_hydro_fields) * INX3);
    std::size_t idx = 0;
    for (int q = 0; q < n_hydro_fields; ++q)
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk, ++idx) {
                    v[idx] = g.interior(q, i, j, kk);
                }
}

/// The full per-leaf update (flux divergence, reflux moments, sources, RK
/// blend, dual-energy bookkeeping + floors).
void update_leaf(node_key k, subgrid& g, const leaf_flux_soa& lf, double dt,
                 const step_options& opt,
                 const std::vector<const reflux_entry*>& refl,
                 const scratch_vector<double>* u0) {
    const bool need_sources =
        static_cast<bool>(opt.gravity) || norm2(opt.omega) > 0.0;
    aligned_vector<double> old_rho;
    aligned_vector<dvec3> old_s;
    if (need_sources) snapshot_sources(g, old_rho, old_s);

    kernel::run_flux_divergence(opt.vectorized, g, lf, dt);
    for (const reflux_entry* e : refl) apply_reflux_moments(g, *e, dt);
    if (need_sources) apply_sources(g, k, opt, dt, old_rho, old_s);
    if (u0 != nullptr) kernel::run_blend(opt.vectorized, g, *u0);
    // Dual-energy bookkeeping + floors after the blend so the committed
    // state is consistent.
    kernel::run_dual_energy(opt.vectorized, g, opt.eos);
}

/// The CFL dt from each leaf's cell width and maximum signal speed: the one
/// min-reduction behind cfl_timestep() and the step pipeline's dt.
double cfl_dt(double cfl, const std::vector<double>& dxs,
              const std::vector<double>& speeds) {
    double dt = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < speeds.size(); ++i) {
        dt = std::min(dt, cfl * dxs[i] / speeds[i]);
    }
    return dt;
}

} // namespace

double cfl_timestep(const tree& t, const step_options& opt) {
    rt::thread_pool& pool =
        opt.pool != nullptr ? *opt.pool : rt::thread_pool::global();
    const std::vector<node_key> leaves = t.leaves_sfc();
    std::vector<double> dxs(leaves.size());
    std::vector<double> speeds(leaves.size());
    const std::size_t tasks =
        rt::for_chunks(pool, leaves.size(), [&](std::size_t lo, std::size_t hi) {
            for (std::size_t n = lo; n < hi; ++n) {
                const subgrid& g = *t.node(leaves[n]).fields;
                dxs[n] = g.geom.dx;
                speeds[n] = kernel::run_wave_speed(opt.vectorized, g, opt.eos);
            }
        });
    rt::apex_count("hydro.cfl_tasks", tasks);
    return cfl_dt(opt.cfl, dxs, speeds);
}

namespace {

// ---- per-leaf pipeline -----------------------------------------------------
//
// The step as one future graph, in the style of the FMM DAG (solver.cpp):
// every restriction, flux sweep, reflux and leaf update is its own task
// gated by when_all() on exactly the data it reads — plus the
// anti-dependencies on tasks still *reading* data it overwrites. There is no
// ghost-fill task and no global barrier: each flux sweep gathers its face
// ghosts straight from its donors' interiors, so halo exchange is part of
// the compute it feeds. The second stage's sweeps start as soon as their
// donor leaves completed stage one, while unrelated stage-one updates are
// still in flight, and the gravity re-solve of the coupled driver
// (before_stage) runs concurrently with the flux sweeps of the stage that
// consumes it. No task touches a ghost cell.
//
// Every task writes its own region, and each region's writers are ordered
// by the graph, so the dt and the fields are bit-identical for any pool size
// and steal order (test_hydro and test_core assert this).

struct leaf_ctx {
    subgrid* g = nullptr;
    const node_ghost_plan* plan = nullptr; ///< plan->g == g
    leaf_flux_soa fluxes;
    scratch_vector<double> u0;
    std::vector<const reflux_entry*> refluxes;
};

// Race-detector region keys: one logical region per sub-object of a leaf a
// task can touch independently. The keys are synthetic addresses derived
// from stable objects (a subgrid / flux workspace is far larger than the
// small offsets used), so distinct regions never collide and survive for the
// whole step. The names show up in detector reports.
const void* interior_region(const subgrid* g) { return g; }
const void* flux_region(const leaf_flux_soa* f, int axis) {
    return reinterpret_cast<const char*>(f) + 1 + axis;
}

double step_pipeline(tree& t, const step_options& opt, rt::thread_pool& pool) {
    // Serial prologue: plan acquisition (allocates refined-node storage so no
    // task mutates the tree), the leaf contexts and the pure-structure task
    // lists. The contexts' flux planes come out of the recycler unfilled, so
    // building them costs a few free-list pops per leaf.
    const ghost_plan& gp = acquire_ghost_plan(t, opt.bc, &pool);
    std::unordered_map<node_key, const node_ghost_plan*> plans;
    std::vector<node_key> refined; // coarse-to-fine order
    plans.reserve(gp.nodes.size());
    for (const auto& np : gp.nodes) {
        plans[np.key] = &np;
        if (!np.leaf) refined.push_back(np.key);
    }

    const std::vector<node_key> leaves = t.leaves_sfc();
    std::unordered_map<node_key, leaf_ctx> ctx;
    ctx.reserve(leaves.size());
    for (const node_key k : leaves) {
        leaf_ctx& lc = ctx[k];
        lc.g = t.node(k).fields.get();
        lc.plan = plans.at(k);
        lc.fluxes.allocate();
    }

    // Reflux adjacency (structure only; moments rewritten each stage).
    std::vector<reflux_entry> rentries;
    for (const node_key k : leaves) {
        for (int axis = 0; axis < 3; ++axis) {
            for (int dir = -1; dir <= 1; dir += 2) {
                const node_key nb = key_neighbor(k, {axis == 0 ? dir : 0,
                                                     axis == 1 ? dir : 0,
                                                     axis == 2 ? dir : 0});
                if (nb == invalid_key || !t.contains(nb)) continue;
                if (!t.node(nb).refined) continue;
                rentries.push_back({k, axis, dir, {}});
            }
        }
    }
    for (const auto& e : rentries) ctx.at(e.leaf).refluxes.push_back(&e);

    // Dependency handles are minted by aliasing the shared state (the FMM
    // DAG's trick): when_all() consumers get aliases, the join list gets one
    // alias per task, and get() runs exactly once there.
    const auto alias = [](const rt::future<void>& f) {
        return rt::future<void>(f.state());
    };
    std::vector<rt::future<void>> join;
    std::size_t task_count = 0;

    // CFL reduction: one task per leaf, joined by when_all into the dt value
    // every update task depends on. The flux sweeps do not need dt, so the
    // whole reduction overlaps them.
    auto dt_val = std::make_shared<double>(opt.fixed_dt);
    rt::future<void> dt_ready;
    if (opt.fixed_dt > 0.0) {
        dt_ready = rt::make_ready_future();
    } else {
        auto speeds = std::make_shared<std::vector<double>>(leaves.size());
        std::vector<double> dxs(leaves.size());
        std::vector<rt::future<void>> cfs;
        cfs.reserve(leaves.size());
        for (std::size_t idx = 0; idx < leaves.size(); ++idx) {
            const node_key k = leaves[idx];
            dxs[idx] = ctx.at(k).g->geom.dx;
            cfs.push_back(rt::async(pool, [&ctx, &opt, speeds, idx, k] {
                sanitize::region_read(interior_region(ctx.at(k).g),
                                      "hydro.interior");
                (*speeds)[idx] =
                    kernel::run_wave_speed(opt.vectorized, *ctx.at(k).g, opt.eos);
            }));
        }
        rt::apex_count("hydro.cfl_tasks", leaves.size());
        task_count += leaves.size();
        dt_ready = rt::when_all(std::move(cfs))
                       .then(pool, [speeds, dt_val, dxs = std::move(dxs),
                                    cfl = opt.cfl](auto) {
                           sanitize::region_write(dt_val.get(), "hydro.dt");
                           *dt_val = cfl_dt(cfl, dxs, *speeds);
                       });
    }
    join.push_back(alias(dt_ready));

    // Producer futures of the previous stage (leaf updates), anti-dependency
    // reader lists, and flux-buffer reader lists carried across stages.
    std::unordered_map<node_key, rt::future<void>> ready;
    std::unordered_map<node_key, std::vector<rt::future<void>>> readers_prev;
    std::unordered_map<node_key, std::vector<rt::future<void>>> fluxreaders_prev;

    for (int s = 0; s < 2; ++s) {
        const bool second = s == 1;

        // Gravity re-solve for this stage: stage one's runs immediately
        // (pre-step state), stage two's as a continuation of all stage-one
        // updates. Restricts and flux sweeps overlap it — the FMM
        // only reads leaf interiors, which no task of this stage writes
        // before its update (and updates wait for gravity).
        rt::future<void> gravity_done;
        if (opt.before_stage) {
            if (!second) {
                gravity_done = rt::async(pool, [&opt] { opt.before_stage(); });
            } else {
                std::vector<rt::future<void>> deps;
                deps.reserve(leaves.size());
                for (const node_key k : leaves) {
                    deps.push_back(alias(ready.at(k)));
                }
                gravity_done = rt::when_all(std::move(deps))
                                   .then(pool, [&opt](auto) {
                                       opt.before_stage();
                                   });
            }
            ++task_count;
        } else {
            gravity_done = rt::make_ready_future();
        }
        join.push_back(alias(gravity_done));

        // 1. Restriction tasks for refined nodes, constructed fine-to-coarse
        // so parents can depend on child restrictions of the same stage.
        std::unordered_map<node_key, rt::future<void>> restrict_f;
        std::unordered_map<node_key, std::vector<rt::future<void>>> readers_cur;
        std::unordered_map<node_key, std::vector<rt::future<void>>>
            fluxreaders_cur;
        for (auto it = refined.rbegin(); it != refined.rend(); ++it) {
            const node_key k = *it;
            std::vector<rt::future<void>> deps;
            for (int c = 0; c < 8; ++c) {
                const node_key ck = key_child(k, c);
                if (!plans.at(ck)->leaf) {
                    deps.push_back(alias(restrict_f.at(ck)));
                } else if (second) {
                    deps.push_back(alias(ready.at(ck)));
                }
            }
            // Anti-dependency: last stage's flux sweeps may still read this
            // node's (previously restricted) interior.
            if (auto pr = readers_prev.find(k); pr != readers_prev.end()) {
                for (auto& f : pr->second) deps.push_back(std::move(f));
                pr->second.clear();
            }
            auto f = rt::when_all(std::move(deps)).then(pool, [&t, k](auto) {
                for (int c = 0; c < 8; ++c) {
                    sanitize::region_read(
                        interior_region(t.node(key_child(k, c)).fields.get()),
                        "hydro.interior");
                }
                sanitize::region_write(interior_region(t.node(k).fields.get()),
                                       "hydro.interior");
                restrict_node(t, k);
            });
            for (int c = 0; c < 8; ++c) {
                readers_cur[key_child(k, c)].push_back(alias(f));
            }
            join.push_back(alias(f));
            restrict_f.emplace(k, std::move(f));
            ++task_count;
        }

        // Donor readiness: a refined donor's data is its restriction of this
        // stage; a leaf donor's is its previous-stage update.
        const auto donor_ready = [&](node_key d,
                                     std::vector<rt::future<void>>& deps) {
            if (!plans.at(d)->leaf) {
                deps.push_back(alias(restrict_f.at(d)));
            } else if (second) {
                deps.push_back(alias(ready.at(d)));
            }
        };

        // 2. Flux sweeps: one task per (leaf, axis), gated on the donors of
        // the two face regions of that axis (the sweep gathers those ghosts
        // from their interiors) plus the leaf's own previous-stage update,
        // plus any reflux of the previous stage that still reads this leaf's
        // flux buffers. The sweep registers as a reader of every other
        // donor, so the donor's update and the next stage's restriction into
        // it wait for the sweep.
        std::unordered_map<node_key, std::array<rt::future<void>, 3>> flux_f;
        std::vector<node_key> donors;
        for (const node_key k : leaves) {
            leaf_ctx& lc = ctx.at(k);
            auto& fx = flux_f[k];
            for (int axis = 0; axis < 3; ++axis) {
                donors.clear();
                for (const int dir : {-1, +1}) {
                    for (const node_key d :
                         lc.plan->regions[ghost_face_region(axis, dir)].donors) {
                        if (d != k && std::find(donors.begin(), donors.end(), d) ==
                                          donors.end()) {
                            donors.push_back(d);
                        }
                    }
                }
                std::vector<rt::future<void>> deps;
                for (const node_key d : donors) donor_ready(d, deps);
                if (second) deps.push_back(alias(ready.at(k)));
                // Anti-dependency: previous-stage refluxes still reading
                // this leaf's flux buffers.
                if (auto fr = fluxreaders_prev.find(k);
                    fr != fluxreaders_prev.end()) {
                    for (const auto& f : fr->second) deps.push_back(alias(f));
                }
                // The sweep itself is an offloadable stage: when an
                // aggregation executor is configured, the dependency-released
                // continuation SUBMITS the sweep as a work item (batched into
                // a fused launch) and a bridge promise completes the task's
                // future when the item's slice finishes; otherwise — or when
                // the executor rejects (saturated / injected fault) — the
                // sweep runs inline as before. Both gather the same pencils.
                rt::promise<void> done;
                auto f = done.get_future();
                rt::detach(rt::when_all(std::move(deps))
                             .then(pool, [&opt, &t, leaf = lc.plan, lf = &lc.fluxes,
                                          axis, done](auto) mutable {
                                 sanitize::region_read(interior_region(leaf->g),
                                                       "hydro.interior");
                                 for (const int dir : {-1, +1}) {
                                     for (const node_key d :
                                          leaf->regions[ghost_face_region(axis, dir)]
                                              .donors) {
                                         sanitize::region_read(
                                             interior_region(t.node(d).fields.get()),
                                             "hydro.interior");
                                     }
                                 }
                                 sanitize::region_write(flux_region(lf, axis),
                                                        "hydro.flux");
                                 if (opt.aggregator != nullptr) {
                                     gpu::work_item item;
                                     item.kc = kernel_class::hydro;
                                     item.flops = flux_sweep_flops;
                                     item.kernel = [&opt, leaf, lf,
                                                    axis](const double*) {
                                         compute_axis_fluxes(*leaf, axis, opt, *lf);
                                     };
                                     if (auto af = opt.aggregator->submit(
                                             std::move(item))) {
                                         rt::detach(std::move(*af).then(
                                             [done](rt::future<void>) mutable {
                                                 done.set_value();
                                             }));
                                         return;
                                     }
                                 }
                                 compute_axis_fluxes(*leaf, axis, opt, *lf);
                                 done.set_value();
                             }));
                for (const node_key d : donors) readers_cur[d].push_back(alias(f));
                join.push_back(alias(f));
                fx[static_cast<std::size_t>(axis)] = std::move(f);
                ++task_count;
            }
        }

        // 3. Reflux tasks: restrict fine boundary fluxes onto the coarse
        // neighbor as soon as the five flux sweeps involved are done.
        std::unordered_map<node_key, std::vector<rt::future<void>>> refl_f;
        for (auto& e : rentries) {
            std::vector<rt::future<void>> deps;
            deps.push_back(
                alias(flux_f.at(e.leaf)[static_cast<std::size_t>(e.axis)]));
            const node_key nb =
                key_neighbor(e.leaf, {e.axis == 0 ? e.dir : 0,
                                      e.axis == 1 ? e.dir : 0,
                                      e.axis == 2 ? e.dir : 0});
            const auto children = face_children(nb, e.axis, e.dir);
            for (const node_key c : children) {
                deps.push_back(
                    alias(flux_f.at(c)[static_cast<std::size_t>(e.axis)]));
            }
            auto f = rt::when_all(std::move(deps))
                         .then(pool, [&t, &ctx, e_ptr = &e, children](auto) {
                             sanitize::region_read(
                                 flux_region(&ctx.at(e_ptr->leaf).fluxes,
                                             e_ptr->axis),
                                 "hydro.flux");
                             for (const node_key c : children) {
                                 sanitize::region_read(
                                     flux_region(&ctx.at(c).fluxes,
                                                 e_ptr->axis),
                                     "hydro.flux");
                             }
                             sanitize::region_write(e_ptr,
                                                    "hydro.reflux_moments");
                             reflux_face(
                                 t, e_ptr->leaf, e_ptr->axis, e_ptr->dir,
                                 ctx.at(e_ptr->leaf).fluxes,
                                 [&ctx](node_key c) -> const leaf_flux_soa& {
                                     return ctx.at(c).fluxes;
                                 },
                                 e_ptr->moments);
                         });
            // The next stage's flux sweeps of the fine children must not
            // overwrite the buffers this reflux reads.
            for (const node_key c : children) {
                fluxreaders_cur[c].push_back(alias(f));
            }
            join.push_back(alias(f));
            refl_f[e.leaf].push_back(std::move(f));
            ++task_count;
        }

        // 4. Update tasks: everything the leaf's update reads or overwrites —
        // its flux sweeps, refluxes into it, every task still reading its
        // interior (other leaves' sweeps and restricts of this stage), dt,
        // and gravity.
        std::unordered_map<node_key, rt::future<void>> ready_next;
        for (const node_key k : leaves) {
            leaf_ctx& lc = ctx.at(k);
            std::vector<rt::future<void>> deps;
            for (auto& f : flux_f.at(k)) deps.push_back(alias(f));
            if (auto rf = refl_f.find(k); rf != refl_f.end()) {
                for (auto& f : rf->second) deps.push_back(std::move(f));
            }
            if (auto rc = readers_cur.find(k); rc != readers_cur.end()) {
                for (auto& f : rc->second) deps.push_back(std::move(f));
                rc->second.clear();
            }
            deps.push_back(alias(dt_ready));
            deps.push_back(alias(gravity_done));
            auto f = rt::when_all(std::move(deps))
                         .then(pool, [&opt, k, lc_ptr = &lc, dt_val,
                                      second](auto) {
                             for (int axis = 0; axis < 3; ++axis) {
                                 sanitize::region_read(
                                     flux_region(&lc_ptr->fluxes, axis),
                                     "hydro.flux");
                             }
                             for (const reflux_entry* e : lc_ptr->refluxes) {
                                 sanitize::region_read(
                                     e, "hydro.reflux_moments");
                             }
                             sanitize::region_read(dt_val.get(), "hydro.dt");
                             sanitize::region_write(interior_region(lc_ptr->g),
                                                    "hydro.interior");
                             if (!second) {
                                 sanitize::region_write(&lc_ptr->u0,
                                                        "hydro.u0");
                                 save_u0(*lc_ptr->g, lc_ptr->u0);
                             } else {
                                 sanitize::region_read(&lc_ptr->u0,
                                                       "hydro.u0");
                             }
                             update_leaf(k, *lc_ptr->g, lc_ptr->fluxes,
                                         *dt_val, opt, lc_ptr->refluxes,
                                         second ? &lc_ptr->u0 : nullptr);
                         });
            join.push_back(alias(f));
            ready_next.emplace(k, std::move(f));
            ++task_count;
        }

        ready = std::move(ready_next);
        readers_prev = std::move(readers_cur);
        fluxreaders_prev = std::move(fluxreaders_cur);
    }

    for (auto& f : join) f.get();

    rt::apex_count("hydro.stage_tasks", task_count);
    return *dt_val;
}

} // namespace

double step(tree& t, const step_options& opt) {
    rt::apex_timer timer("hydro::step");
    rt::apex_count("hydro::steps");
    rt::apex_gauge("hydro.simd_width",
                   static_cast<std::uint64_t>(opt.vectorized ? simd::default_width : 1));
    rt::thread_pool& pool =
        opt.pool != nullptr ? *opt.pool : rt::thread_pool::global();
    return step_pipeline(t, opt, pool);
}

totals compute_totals(const tree& t) {
    totals out;
    for (const auto& level : t.levels()) {
        for (const node_key k : level) {
            if (t.node(k).refined) continue;
            const auto& g = *t.node(k).fields;
            const double V = g.geom.cell_volume();
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int kk = 0; kk < INX; ++kk) {
                        out.mass += V * g.interior(f_rho, i, j, kk);
                        const dvec3 s{g.interior(f_sx, i, j, kk),
                                      g.interior(f_sy, i, j, kk),
                                      g.interior(f_sz, i, j, kk)};
                        const dvec3 l{g.interior(f_lx, i, j, kk),
                                      g.interior(f_ly, i, j, kk),
                                      g.interior(f_lz, i, j, kk)};
                        out.momentum += V * s;
                        out.angular_momentum +=
                            V * (cross(g.geom.cell_center(i, j, kk), s) + l);
                        out.egas += V * g.interior(f_egas, i, j, kk);
                        out.tau += V * g.interior(f_tau, i, j, kk);
                        for (int s2 = 0; s2 < n_passive; ++s2) {
                            out.passive[s2] +=
                                V * g.interior(first_passive + s2, i, j, kk);
                        }
                    }
        }
    }
    return out;
}

} // namespace octo::hydro

#include "fmm/solver.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "kernel/fmm.hpp"
#include "runtime/apex.hpp"
#include "runtime/future.hpp"
#include "sanitize/hooks.hpp"
#include "support/assert.hpp"
#include "support/buffer_recycler.hpp"

namespace octo::fmm {

using amr::box_geometry;
using amr::H_BW;
using amr::key_child;
using amr::key_neighbor;
using amr::node_key;
using amr::tree;

solver::solver(options o)
    : opt_(o), pool_(o.pool != nullptr ? o.pool : &rt::thread_pool::global()) {
    // One launch point for all offload (the Kokkos/HPX lesson of
    // arXiv:2210.06439): an externally provided executor wins; otherwise a
    // device implies a private single-device executor at the
    // gpu::aggregator_options defaults.
    if (opt_.aggregator != nullptr) {
        agg_ = opt_.aggregator;
    } else if (opt_.device != nullptr) {
        own_agg_ = std::make_unique<gpu::aggregator>(*opt_.device);
        agg_ = own_agg_.get();
    }
}

const node_gravity& solver::gravity(node_key k) const {
    auto it = gravity_.find(k);
    OCTO_ASSERT_MSG(it != gravity_.end(), "gravity not computed for node");
    return it->second;
}

const node_moments& solver::moments(node_key k) const {
    auto it = moments_.find(k);
    OCTO_ASSERT_MSG(it != moments_.end(), "moments not computed for node");
    return it->second;
}

void solver::compute_leaf_moments(tree& t, node_key k) {
    const auto& n = t.node(k);
    OCTO_ASSERT_MSG(n.fields != nullptr, "leaf without field data");
    const auto& g = *n.fields;
    const double V = g.geom.cell_volume();

    auto& mom = moments_.at(k);
    auto& invm = invm_.at(k);
    // Race-detector region claims: reads the leaf's hydro interior (rho),
    // writes the node's moment set. The same keys are used by the hydro
    // pipeline, so an FMM solve overlapping a hydro stage is checked too.
    sanitize::region_read(n.fields.get(), "hydro.interior");
    sanitize::region_write(&mom, "fmm.moments");
    for (int i = 0; i < INX; ++i)
        for (int j = 0; j < INX; ++j)
            for (int kk = 0; kk < INX; ++kk) {
                const int c = cell_index(i, j, kk);
                const double m = g.interior(amr::f_rho, i, j, kk) * V;
                mom.m[c] = m;
                const dvec3 ctr = g.geom.cell_center(i, j, kk);
                mom.com[0][c] = ctr.x;
                mom.com[1][c] = ctr.y;
                mom.com[2][c] = ctr.z;
                for (auto& q : mom.q) q[c] = 0.0; // homogeneous cell: the
                // isotropic cube moment never contributes (traceless tensors)
                invm[c] = m > 0.0 ? 1.0 / m : 0.0;
            }
}

void solver::m2m(tree& t, node_key k) {
    auto& mom = moments_.at(k);
    auto& invm = invm_.at(k);
    const box_geometry geom = t.geometry(k);
    sanitize::region_write(&mom, "fmm.moments");

    const node_moments* children[8];
    for (int c = 0; c < 8; ++c) {
        const auto& cm = moments_.at(key_child(k, c));
        sanitize::region_read(&cm, "fmm.moments");
        children[c] = &cm;
    }
    kernel::fmm_m2m(children, geom, mom, invm);
}

void solver::fill_buffer_region(node_key nb, const ivec3& off,
                                partner_buffer& buf) const {
    constexpr int R = partner_buffer::reach;
    const auto& mom = moments_.at(nb);
    sanitize::region_read(&mom, "fmm.moments");
    // Padded-region index range covered by this neighbor.
    const int lo[3] = {std::max(off.x * INX, -R), std::max(off.y * INX, -R),
                       std::max(off.z * INX, -R)};
    const int hi[3] = {std::min(off.x * INX + INX, INX + R),
                       std::min(off.y * INX + INX, INX + R),
                       std::min(off.z * INX + INX, INX + R)};
    for (int i = lo[0]; i < hi[0]; ++i)
        for (int j = lo[1]; j < hi[1]; ++j)
            for (int k = lo[2]; k < hi[2]; ++k) {
                const int src = cell_index(i - off.x * INX, j - off.y * INX,
                                           k - off.z * INX);
                const int dst = partner_buffer::index(i, j, k);
                if (mom.m[src] == 0.0) continue;
                buf.m[dst] = mom.m[src];
                buf.x[dst] = mom.com[0][src];
                buf.y[dst] = mom.com[1][src];
                buf.z[dst] = mom.com[2][src];
                for (int s = 0; s < 6; ++s) buf.q[s][dst] = mom.q[s][src];
                buf.any = true;
                buf.include_mass_cell(i, j, k);
            }
}

namespace {

/// Initialize a buffer's partner positions to the geometric cell centers of
/// the padded region so that distances are never zero for empty cells.
void init_buffer_geometry(const box_geometry& geom, partner_buffer& buf) {
    constexpr int R = partner_buffer::reach;
    for (int i = -R; i < INX + R; ++i)
        for (int j = -R; j < INX + R; ++j)
            for (int k = -R; k < INX + R; ++k) {
                const int d = partner_buffer::index(i, j, k);
                const dvec3 c = geom.cell_center(i, j, k);
                buf.x[d] = c.x;
                buf.y[d] = c.y;
                buf.z[d] = c.z;
            }
}

std::uint64_t stencil_interactions(const std::vector<stencil_element>& st,
                                   bool masked) {
    std::uint64_t n = 0;
    for (const auto& e : st) {
        if (masked && e.inner) continue;
        ++n;
    }
    return n * static_cast<std::uint64_t>(INX3);
}

} // namespace

void solver::same_level(tree& t, node_key k, std::vector<rt::future<void>>& pending) {
    // First writer of the node's output each solve: clear the recycled
    // accumulators (phi/g are overwritten by evaluate_node, so only L and tq
    // need zeroing). The parent's L2L depends on all children's same-level
    // tasks, so nothing has accumulated into this node yet when its
    // same-level task starts.
    auto& out = gravity_.at(k);
    sanitize::region_write(&out, "fmm.gravity");
    for (auto& l : out.L) std::fill(l.begin(), l.end(), 0.0);
    for (auto& q : out.tq) std::fill(q.begin(), q.end(), 0.0);

    const bool self_refined = t.node(k).refined;
    const bool is_root = (k == amr::root_key);
    const auto* stencil = is_root ? &root_stencil() : &interaction_stencil();

    // Assemble the partner buffers: cells from leaf neighbors (monopole
    // partners) and from refined neighbors (multipole partners). The node's
    // own cells go into the buffer matching its own type. A class no
    // existing neighbor belongs to gets no buffer at all: it would stay
    // empty (any == false) and never be launched.
    struct neighbor_ref {
        node_key key;
        ivec3 off;
        bool refined;
    };
    neighbor_ref nbs[27];
    int nnb = 0;
    for (int dx = -1; dx <= 1; ++dx)
        for (int dy = -1; dy <= 1; ++dy)
            for (int dz = -1; dz <= 1; ++dz) {
                node_key nb = k;
                if (dx != 0 || dy != 0 || dz != 0) {
                    nb = key_neighbor(k, {dx, dy, dz});
                    if (nb == amr::invalid_key || !t.contains(nb)) continue;
                }
                nbs[nnb++] = {nb, {dx, dy, dz}, t.node(nb).refined};
            }

    const box_geometry geom = t.geometry(k);
    auto make_buffer = [&geom] {
        auto buf = std::make_shared<partner_buffer>();
        init_buffer_geometry(geom, *buf);
        buf->reset_mass_bounds();
        return buf;
    };
    std::shared_ptr<partner_buffer> mono, multi;
    for (int n = 0; n < nnb; ++n) {
        auto& buf = nbs[n].refined ? multi : mono;
        if (!buf) buf = make_buffer();
        fill_buffer_region(nbs[n].key, nbs[n].off, *buf);
    }

    const auto& self_mom = moments_.at(k);
    const auto& self_invm = invm_.at(k);

    // Launch one kernel per non-empty partner class. GPU offload follows the
    // paper's policy (§5.1): hand the kernels to the device if it accepts
    // them, otherwise the launching thread runs them itself. Either way they
    // run the kernel instantiation opt_.vectorized selects.
    struct launch_spec {
        kernel_class kc;
        bool monopole_math; // both sides leaves: the cheap kernel
        kernel_options opt;
        std::shared_ptr<partner_buffer> buf;
        std::uint64_t flops;
    };
    std::vector<launch_spec> launches;

    if (mono && mono->any) {
        launch_spec s;
        s.buf = mono;
        s.opt.stencil = stencil;
        s.opt.conserve = opt_.conserve;
        s.opt.use_inner_mask = false; // leaf partners: nothing to defer to
        if (self_refined) {
            // multipole-monopole (merged kernel; partner moments are zero)
            s.kc = kernel_class::fmm_multipole;
            s.monopole_math = false;
            s.flops = stencil_interactions(*stencil, false) *
                      multi_flops_per_interaction;
        } else {
            s.kc = kernel_class::fmm_monopole;
            s.monopole_math = true;
            s.flops = stencil_interactions(*stencil, false) *
                      mono_flops_per_interaction;
        }
        launches.push_back(std::move(s));
    }
    if (multi && multi->any) {
        launch_spec s;
        s.buf = multi;
        s.opt.stencil = stencil;
        s.opt.conserve = opt_.conserve;
        // refined partners: inner pairs deferred only if we are refined too
        s.opt.use_inner_mask = self_refined;
        s.kc = self_refined ? kernel_class::fmm_multipole
                            : kernel_class::fmm_monopole_multipole;
        s.monopole_math = false;
        s.flops = stencil_interactions(*stencil, s.opt.use_inner_mask) *
                  multi_flops_per_interaction;
        launches.push_back(std::move(s));
    }

    // Both partner classes accumulate into the same output arrays, so when
    // offloading, the node's launches form ONE work item: the item runs them
    // in order as one device block, so the accumulation order and the
    // compiled kernels match the CPU path exactly (a run with the device is
    // bit-identical to one without), and no two blocks of a batch touch the
    // same node. The executor may pack many such items into one launch
    // (arXiv:2210.06438); if it refuses (saturated, or an injected
    // stream-acquire fault), we fall through to the CPU path below — the
    // per-kernel fallback of §5.1, unchanged.
    if (agg_ != nullptr && !launches.empty()) {
        std::uint64_t flops = 0;
        for (const auto& s : launches) flops += s.flops;
        gpu::work_item item;
        item.kc = launches.front().kc;
        item.flops = flops;
        // The modeled host→device transfer: the node's mass + center-of-mass
        // arrays travel in the item's slice of the batched staging buffer.
        item.staging_doubles = 4 * static_cast<std::size_t>(amr::INX3);
        item.stage = [&self_mom](double* slice) {
            std::copy(self_mom.m.begin(), self_mom.m.end(), slice);
            for (int a = 0; a < 3; ++a) {
                std::copy(self_mom.com[a].begin(), self_mom.com[a].end(),
                          slice + (a + 1) * amr::INX3);
            }
        };
        auto batch =
            std::make_shared<std::vector<launch_spec>>(std::move(launches));
        item.kernel = [&self_mom, &self_invm, &out, batch,
                       vectorized = opt_.vectorized](const double*) {
            for (const auto& s : *batch) {
                if (s.monopole_math) {
                    kernel::run_fmm_monopole(vectorized, self_mom, *s.buf, s.opt, out);
                } else {
                    kernel::run_fmm_multipole(vectorized, self_mom, self_invm,
                                              *s.buf, s.opt, out);
                }
            }
        };
        if (auto f = agg_->submit(std::move(item))) {
            pending.push_back(std::move(*f));
            return;
        }
        launches = std::move(*batch); // rejected: run them on the CPU
    }

    // CPU path: the same kernels, run by the launching thread.
    for (auto& s : launches) {
        count_launch(s.kc, exec_site::cpu);
        if (s.monopole_math) {
            kernel::run_fmm_monopole(opt_.vectorized, self_mom, *s.buf, s.opt, out);
        } else {
            kernel::run_fmm_multipole(opt_.vectorized, self_mom, self_invm, *s.buf,
                                      s.opt, out);
        }
        count_flops(s.kc, exec_site::cpu, s.flops);
    }
}

void solver::l2l(node_key k) {
    const auto& parentL = gravity_.at(k);
    const auto& pm = moments_.at(k);
    sanitize::region_read(&parentL, "fmm.gravity");
    sanitize::region_read(&pm, "fmm.moments");

    // Gather pointers to the 8 children's data once.
    const node_moments* childM[8];
    node_gravity* childLw[8];
    for (int c = 0; c < 8; ++c) {
        const node_key ck = key_child(k, c);
        childLw[c] = &gravity_.at(ck);
        childM[c] = &moments_.at(ck);
        sanitize::region_write(childLw[c], "fmm.gravity");
        sanitize::region_read(childM[c], "fmm.moments");
    }

    kernel::fmm_l2l(parentL, pm, childM, childLw, opt_.conserve);
}


void solver::evaluate_node(node_key k) {
    auto& g = gravity_.at(k);
    sanitize::region_write(&g, "fmm.gravity");
    for (int c = 0; c < INX3; ++c) {
        g.phi[c] = g.L[0][c];
        g.gx[c] = -g.L[1][c];
        g.gy[c] = -g.L[2][c];
        g.gz[c] = -g.L[3][c];
    }
}

void solver::prepare_workspace(tree& t) {
    if (workspace_valid_ && workspace_tree_id_ == t.id() &&
        workspace_revision_ == t.revision()) {
        return; // same tree, same structure: reuse every buffer as-is
    }
    moments_.clear();
    gravity_.clear();
    invm_.clear();

    // Pre-create all entries single-threaded so parallel phases never mutate
    // the maps. The aligned_vector payloads come from the buffer_recycler,
    // so after a regrid the previous workspace's storage is reused rather
    // than reallocated.
    for (const auto& level : t.levels()) {
        for (const node_key k : level) {
            moments_.emplace(k, node_moments{});
            gravity_.emplace(k, node_gravity{});
            invm_.emplace(k, aligned_vector<double>(INX3, 0.0));
        }
    }
    workspace_tree_id_ = t.id();
    workspace_revision_ = t.revision();
    workspace_valid_ = true;
}

void solver::solve(tree& t) {
    const auto rec_before = buffer_recycler::instance().stats();
    prepare_workspace(t);
    {
        rt::apex_timer total_timer("fmm::solve");
        solve_dag(t);
    }
    const auto rec_after = buffer_recycler::instance().stats();
    rt::apex_count("fmm.recycler_hits", rec_after.hits - rec_before.hits);
    rt::apex_count("fmm.recycler_misses", rec_after.misses - rec_before.misses);
}

// The solve as one dependency graph over the whole tree (paper §4.1). Each
// node's tasks wait only on the data they actually read:
//
//   moments(leaf)            : nothing (chunked with its level siblings)
//   m2m(node)                : moments of its 8 children
//   same_level(node)         : moments of the node and its <=26 neighbors
//   l2l(node)                : l2l of the parent + same_level of children
//   evaluate(node)           : folded into the parent's l2l task
//                              (root: folded into its same_level completion)
//
// so the L2L sweep of one subtree overlaps same-level kernels of another.
// Every output element has exactly one writer task at a time, and each
// node's accumulation order (its partner classes, then its parent's L2L) is
// fixed by the graph, not by which worker runs what: the result is
// bit-identical for any pool size and steal order (test_fmm and test_core
// assert this).
void solver::solve_dag(tree& t) {
    rt::thread_pool& pool = *pool_;
    std::uint64_t tasks = 0;

    // Completion future of each node's moment data (leaf moments or M2M)
    // and of each node's same-level accumulation.
    std::unordered_map<node_key, rt::future<void>> moment_done;
    std::unordered_map<node_key, rt::future<void>> same_done;
    // Completion of the L2L contribution *into* a node (the parent's L2L
    // task; the root has no parent, so its own same-level completion).
    std::unordered_map<node_key, rt::future<void>> down_ready;
    std::vector<rt::future<void>> l2l_tasks;
    moment_done.reserve(t.size());
    same_done.reserve(t.size());
    down_ready.reserve(t.size());

    // Futures are one-shot, but any number of continuations may key off one
    // state: alias() mints a dependency handle onto the same shared state.
    const auto alias = [](const rt::future<void>& f) {
        return rt::future<void>(f.state());
    };

    // ---- Stage 1: moments, bottom-up. Leaf tasks are chunked (a single
    // leaf's moment pass is far smaller than a kernel launch, so per-leaf
    // tasks would be mostly scheduling overhead); each leaf still fulfills
    // its own promise so consumers wake as soon as *their* inputs exist.
    constexpr std::size_t leaf_chunk = 16;
    using leaf_promises = std::vector<std::pair<node_key, rt::promise<void>>>;
    for (int level = t.max_level(); level >= 0; --level) {
        std::vector<node_key> leaves;
        for (const node_key k : t.levels()[level]) {
            if (!t.node(k).refined) leaves.push_back(k);
        }
        for (std::size_t base = 0; base < leaves.size(); base += leaf_chunk) {
            const std::size_t n = std::min(leaf_chunk, leaves.size() - base);
            auto chunk = std::make_shared<leaf_promises>();
            chunk->reserve(n);
            for (std::size_t i = 0; i < n; ++i) {
                chunk->emplace_back(leaves[base + i], rt::promise<void>{});
                moment_done.emplace(leaves[base + i],
                                    chunk->back().second.get_future());
            }
            pool.post([this, &t, chunk] {
                for (auto& [k, p] : *chunk) {
                    try {
                        compute_leaf_moments(t, k);
                        p.set_value();
                    } catch (...) {
                        p.set_exception(std::current_exception());
                    }
                }
            });
            ++tasks;
        }
        // Refined nodes at this level: children (level+1) already have
        // moment futures from the previous iteration.
        for (const node_key k : t.levels()[level]) {
            if (!t.node(k).refined) continue;
            std::vector<rt::future<void>> deps;
            deps.reserve(8);
            for (int c = 0; c < 8; ++c) {
                deps.push_back(alias(moment_done.at(key_child(k, c))));
            }
            auto f = rt::when_all(std::move(deps))
                         .then(pool, [this, &t, k](auto) { m2m(t, k); });
            ++tasks;
            moment_done.emplace(k, std::move(f));
        }
    }

    // ---- Stage 2: same-level interactions, gated on exactly the moment
    // sets the node's partner buffers read. Device launches chain onto the
    // completion promise instead of being joined globally.
    for (const auto& level : t.levels()) {
        for (const node_key k : level) {
            std::vector<rt::future<void>> deps;
            deps.reserve(27);
            deps.push_back(alias(moment_done.at(k)));
            for (int dx = -1; dx <= 1; ++dx)
                for (int dy = -1; dy <= 1; ++dy)
                    for (int dz = -1; dz <= 1; ++dz) {
                        if (dx == 0 && dy == 0 && dz == 0) continue;
                        const node_key nb = key_neighbor(k, {dx, dy, dz});
                        if (nb == amr::invalid_key || !t.contains(nb)) continue;
                        deps.push_back(alias(moment_done.at(nb)));
                    }
            auto done = std::make_shared<rt::promise<void>>();
            same_done.emplace(k, done->get_future());
            // Fire-and-forget chains: completion is signalled through the
            // `done` promise, so the then() handles are detached explicitly.
            rt::detach(rt::when_all(std::move(deps))
                           .then(pool, [this, &t, k, done](auto) {
                try {
                    std::vector<rt::future<void>> pending;
                    same_level(t, k, pending);
                    if (pending.empty()) {
                        // The root's expansion has no parent contribution:
                        // it is final right here.
                        if (k == amr::root_key) evaluate_node(k);
                        done->set_value();
                        return;
                    }
                    rt::detach(rt::when_all(std::move(pending))
                                   .then(*pool_, [this, k, done](auto fs) {
                                       try {
                                           // lint: allow(blocking-in-task): when_all-gated, every element ready; get() only rethrows
                                           for (auto& f : fs.get()) f.get();
                                           if (k == amr::root_key) {
                                               evaluate_node(k);
                                           }
                                           done->set_value();
                                       } catch (...) {
                                           done->set_exception(
                                               std::current_exception());
                                       }
                                   }));
                } catch (...) {
                    done->set_exception(std::current_exception());
                }
            }));
            ++tasks;
        }
    }

    // ---- Stage 3: L2L top-down + per-node evaluation. A node's L2L may
    // only run once (a) its own expansion is final (parent's L2L done — which
    // itself waited for this node's same-level) and (b) the children it
    // accumulates into have finished their own same-level accumulation.
    down_ready.emplace(amr::root_key, alias(same_done.at(amr::root_key)));
    for (int level = 0; level < t.max_level(); ++level) {
        for (const node_key k : t.levels()[level]) {
            if (!t.node(k).refined) continue;
            std::vector<rt::future<void>> deps;
            deps.reserve(9);
            deps.push_back(alias(down_ready.at(k)));
            for (int c = 0; c < 8; ++c) {
                deps.push_back(alias(same_done.at(key_child(k, c))));
            }
            auto f = rt::when_all(std::move(deps)).then(pool, [this, k](auto) {
                l2l(k);
                // The children's expansions are final now (their own L2L
                // writes only grandchildren): evaluate them inline instead
                // of spawning eight micro-tasks.
                for (int c = 0; c < 8; ++c) evaluate_node(key_child(k, c));
            });
            ++tasks;
            for (int c = 0; c < 8; ++c) {
                down_ready.emplace(key_child(k, c), alias(f));
            }
            l2l_tasks.push_back(std::move(f));
        }
    }

    // ---- Join: wait for every task; rethrows the first stored exception.
    // (down_ready holds aliases of futures joined here, so it is not drained
    // itself.)
    for (auto& kv : moment_done) kv.second.get();
    for (auto& kv : same_done) kv.second.get();
    for (auto& f : l2l_tasks) f.get();

    rt::apex_count("fmm.dag_tasks", tasks);
}

dvec3 solver::total_force(const tree& t) const {
    dvec3 F{0, 0, 0};
    for (const auto& level : t.levels()) {
        for (const node_key k : level) {
            if (t.node(k).refined) continue;
            const auto& mom = moments_.at(k);
            const auto& g = gravity_.at(k);
            for (int c = 0; c < INX3; ++c) {
                F += mom.m[c] * dvec3{g.gx[c], g.gy[c], g.gz[c]};
            }
        }
    }
    return F;
}

dvec3 solver::total_torque(const tree& t) const {
    dvec3 T{0, 0, 0};
    for (const auto& level : t.levels()) {
        for (const node_key k : level) {
            if (t.node(k).refined) continue;
            const auto& mom = moments_.at(k);
            const auto& g = gravity_.at(k);
            for (int c = 0; c < INX3; ++c) {
                const dvec3 r{mom.com[0][c], mom.com[1][c], mom.com[2][c]};
                T += cross(r, mom.m[c] * dvec3{g.gx[c], g.gy[c], g.gz[c]});
            }
        }
    }
    return T;
}

double solver::potential_at(const tree& t, const dvec3& r) const {
    node_key k = amr::root_key;
    while (t.node(k).refined) {
        const box_geometry g = t.geometry(k);
        const double half = g.dx * INX / 2.0;
        const int cx = r.x >= g.origin.x + half ? 1 : 0;
        const int cy = r.y >= g.origin.y + half ? 1 : 0;
        const int cz = r.z >= g.origin.z + half ? 1 : 0;
        k = key_child(k, cx | (cy << 1) | (cz << 2));
    }
    const box_geometry g = t.geometry(k);
    const int i = std::clamp(static_cast<int>((r.x - g.origin.x) / g.dx), 0, INX - 1);
    const int j = std::clamp(static_cast<int>((r.y - g.origin.y) / g.dx), 0, INX - 1);
    const int kk = std::clamp(static_cast<int>((r.z - g.origin.z) / g.dx), 0, INX - 1);
    const int c = cell_index(i, j, kk);
    const auto& L = gravity_.at(k);
    const auto& mom = moments_.at(k);
    expansion<double> e;
    for (int s = 0; s < n_taylor; ++s) e[s] = L.L[s][c];
    const double delta[3] = {r.x - mom.com[0][c], r.y - mom.com[1][c],
                             r.z - mom.com[2][c]};
    return evaluate(e, delta);
}

dvec3 solver::total_spin_torque(const tree& t) const {
    dvec3 T{0, 0, 0};
    for (const auto& level : t.levels()) {
        for (const node_key k : level) {
            if (t.node(k).refined) continue;
            const auto& g = gravity_.at(k);
            for (int c = 0; c < INX3; ++c) {
                T += dvec3{g.tq[0][c], g.tq[1][c], g.tq[2][c]};
            }
        }
    }
    return T;
}

double solver::potential_energy(const tree& t) const {
    double U = 0.0;
    for (const auto& level : t.levels()) {
        for (const node_key k : level) {
            if (t.node(k).refined) continue;
            const auto& mom = moments_.at(k);
            const auto& g = gravity_.at(k);
            for (int c = 0; c < INX3; ++c) U += 0.5 * mom.m[c] * g.phi[c];
        }
    }
    return U;
}

} // namespace octo::fmm

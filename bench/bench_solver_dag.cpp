// Solve-to-solve latency of the gravity solver's per-node dependency DAG on
// a deep AMR tree. One solver is reused across solves (workspace persisted
// via the tree revision), so after the cold first solve every aligned buffer
// comes from the recycler: steady-state solves must report `misses 0`.
//
// The tree is the level-14 analogue used for profiling: blob density refined
// toward the domain center to level 5 (1273 nodes / 1114 leaves at INX = 8),
// the same per-node work a production level-14 run does per octree node.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "amr/tree.hpp"
#include "fmm/solver.hpp"
#include "runtime/apex.hpp"
#include "support/buffer_recycler.hpp"
#include "support/timer.hpp"

using namespace octo;
using namespace octo::fmm;
using amr::box_geometry;
using amr::INX;

namespace {

amr::tree make_scene(int max_level) {
    box_geometry g;
    g.origin = {-0.5, -0.5, -0.5};
    g.dx = 1.0 / INX;
    amr::tree t(g);
    t.refine_by(
        [](amr::node_key, const box_geometry& bg) {
            const dvec3 c = bg.cell_center(INX / 2, INX / 2, INX / 2);
            return norm(c) < 0.28 * (bg.dx * INX * 8);
        },
        max_level);
    for (const auto k : t.leaves_sfc()) {
        auto& sg = t.ensure_fields(k);
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const dvec3 r = sg.geom.cell_center(i, j, kk);
                    const dvec3 c1{-0.18, 0.02, 0.01};
                    const dvec3 c2{0.22, -0.03, -0.02};
                    sg.interior(amr::f_rho, i, j, kk) =
                        std::exp(-norm2(r - c1) / 0.01) +
                        0.3 * std::exp(-norm2(r - c2) / 0.006);
                }
    }
    return t;
}

} // namespace

int main(int argc, char** argv) {
    const int max_level = std::max(0, argc > 1 ? std::atoi(argv[1]) : 5);
    const int solves = std::max(1, argc > 2 ? std::atoi(argv[2]) : 3);

    std::printf("=== fmm::solve latency (dependency DAG, recycled workspace) "
                "===\n\n");
    auto t = make_scene(max_level);
    std::printf("tree: %zu nodes, %zu leaves, max_level %d, %d solves\n\n",
                t.size(), t.leaf_count(), t.max_level(), solves);

    auto& rec = buffer_recycler::instance();
    rec.clear(); // cold start: the first solve fills the pool
    double first_ms = 0;  // cold solve (workspace + pool build-up)
    double steady_ms = 0; // mean of the remaining solves
    solver s({.conserve = am_mode::spin_deposit});
    for (int i = 0; i < solves; ++i) {
        const auto before = rec.stats();
        stopwatch sw;
        s.solve(t);
        const double ms = sw.seconds() * 1e3;
        const auto after = rec.stats();
        std::printf("solve %d: %9.3f ms   recycler hits %llu  misses %llu\n", i,
                    ms,
                    static_cast<unsigned long long>(after.hits - before.hits),
                    static_cast<unsigned long long>(after.misses - before.misses));
        if (i == 0) first_ms = ms;
        else steady_ms += ms / (solves - 1);
    }

    const auto& apex = rt::apex_registry::instance();
    std::printf("\napex counters: fmm.dag_tasks=%llu  fmm.recycler_hits=%llu  "
                "fmm.recycler_misses=%llu\n",
                static_cast<unsigned long long>(apex.counter("fmm.dag_tasks")),
                static_cast<unsigned long long>(
                    apex.counter("fmm.recycler_hits")),
                static_cast<unsigned long long>(
                    apex.counter("fmm.recycler_misses")));

    std::printf("\nfirst solve: %.3f ms   steady-state mean: ", first_ms);
    if (solves > 1) std::printf("%.3f ms\n", steady_ms);
    else std::printf("n/a (need >= 2 solves)\n");
    return 0;
}

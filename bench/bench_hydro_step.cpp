// Step-to-step latency of the hydro solver on a deep AMR tree: SoA pencils
// on simd::pack lanes (paper §4.3's stencil/SoA rewrite) driven by the
// per-leaf pipeline (restrictions / flux sweeps that gather their face
// ghosts from the donors / refluxes / updates as dependency-gated tasks, CFL
// folded in), at the build's pack width. It
// reuses recycled scratch, so steady-state steps report `misses 0`.
//
// The tree is the level-14 analogue used for profiling: blob density refined
// toward the domain center to level 5 (1273 nodes / 1114 leaves at INX = 8),
// the same per-leaf work a production level-14 run does per octree node.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "amr/tree.hpp"
#include "hydro/update.hpp"
#include "runtime/apex.hpp"
#include "simd/pack.hpp"
#include "support/buffer_recycler.hpp"
#include "support/timer.hpp"

using namespace octo;
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
    const phys::ideal_gas_eos eos(5.0 / 3.0);
    for (const auto k : t.leaves_sfc()) {
        auto& sg = t.ensure_fields(k);
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const dvec3 r = sg.geom.cell_center(i, j, kk);
                    const dvec3 c1{-0.18, 0.02, 0.01};
                    const dvec3 c2{0.22, -0.03, -0.02};
                    const double rho = 1e-6 +
                                       std::exp(-norm2(r - c1) / 0.01) +
                                       0.3 * std::exp(-norm2(r - c2) / 0.006);
                    const dvec3 v =
                        0.1 * cross(dvec3{0, 0, 1}, r - c1) * (rho > 1e-3);
                    const double internal = 1e-8 + 0.05 * rho;
                    sg.interior(amr::f_rho, i, j, kk) = rho;
                    sg.interior(amr::f_sx, i, j, kk) = rho * v.x;
                    sg.interior(amr::f_sy, i, j, kk) = rho * v.y;
                    sg.interior(amr::f_sz, i, j, kk) = rho * v.z;
                    sg.interior(amr::f_egas, i, j, kk) =
                        internal + 0.5 * rho * norm2(v);
                    sg.interior(amr::f_tau, i, j, kk) =
                        eos.tau_from_internal(internal);
                    sg.interior(amr::first_passive, i, j, kk) = 0.5 * rho;
                }
    }
    return t;
}

struct run_result {
    double first_ms = 0;  ///< cold step (plan + workspace build-up)
    double steady_ms = 0; ///< mean of the remaining steps
};

run_result run(amr::tree& t, const hydro::step_options& opt, int steps) {
    auto& rec = buffer_recycler::instance();
    run_result r;
    for (int i = 0; i < steps; ++i) {
        const auto before = rec.stats();
        stopwatch sw;
        (void)hydro::step(t, opt);
        const double ms = sw.seconds() * 1e3;
        const auto after = rec.stats();
        std::printf("step %d: %9.3f ms   recycler hits %llu  misses %llu\n", i,
                    ms, static_cast<unsigned long long>(after.hits - before.hits),
                    static_cast<unsigned long long>(after.misses - before.misses));
        if (i == 0) r.first_ms = ms;
        else r.steady_ms += ms / (steps - 1);
    }
    return r;
}

} // namespace

int main(int argc, char** argv) {
    const int max_level = std::max(0, argc > 1 ? std::atoi(argv[1]) : 5);
    const int steps = std::max(1, argc > 2 ? std::atoi(argv[2]) : 5);

    std::printf("=== hydro::step latency (SoA-SIMD pencils, per-leaf "
                "pipeline) ===\n\n");
    auto t = make_scene(max_level);
    std::printf("tree: %zu nodes, %zu leaves, max_level %d, %d steps\n\n",
                t.size(), t.leaf_count(), t.max_level(), steps);
    buffer_recycler::instance().clear();
    std::printf("--- vectorized (SoA pencils x%d lanes) ---\n",
                static_cast<int>(simd::default_width));
    hydro::step_options opt;
    opt.eos = phys::ideal_gas_eos(5.0 / 3.0);
    const run_result vec = run(t, opt, steps);

    const auto& apex = rt::apex_registry::instance();
    std::printf("\napex counters: hydro.stage_tasks=%llu  hydro.cfl_tasks=%llu"
                "  hydro.simd_width=%llu\n",
                static_cast<unsigned long long>(
                    apex.counter("hydro.stage_tasks")),
                static_cast<unsigned long long>(apex.counter("hydro.cfl_tasks")),
                static_cast<unsigned long long>(
                    apex.counter("hydro.simd_width")));

    std::printf("\n%-42s %12s %12s\n", "configuration", "first[ms]",
                "steady[ms]");
    std::printf("%-42s %12.3f %12.3f\n", "vectorized (default width)",
                vec.first_ms, vec.steady_ms);
    return 0;
}

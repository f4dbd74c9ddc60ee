// The flagship scenario: a scaled V1309 Scorpii contact-binary merger run
// (paper §3, §6). Builds the SCF initial model, refines the rotating AMR
// grid around the stars, couples the FMM gravity solver (with the simulated
// GPU offloading the same-level kernels), advances the coupled system, and
// writes Fig-1-style density slices plus the conservation ledger.
//
//   ./v1309_merger [steps] [output_prefix]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/scenario.hpp"
#include "runtime/apex.hpp"
#include "gpu/device.hpp"
#include "io/writers.hpp"
#include "support/flops.hpp"
#include "support/timer.hpp"

using namespace octo;

int main(int argc, char** argv) {
    const int steps = argc > 1 ? std::atoi(argv[1]) : 5;
    const std::string prefix = argc > 2 ? argv[2] : "/tmp/v1309";

    std::printf("=== V1309 Scorpii (scaled) with GPU-offloaded FMM ===\n\n");

    // Simulated P100 co-processor (the Piz Daint configuration, Table 3).
    gpu::device device(gpu::p100());

    core::v1309_config cfg;
    cfg.domain_over_separation = 8.0; // paper: 160; scaled for a laptop run
    cfg.base_depth = 1;
    cfg.max_level = 3;
    cfg.scf_iterations = 20;

    core::sim_options opt;
    opt.eos = phys::ideal_gas_eos(1.0 + 1.0 / 1.5);
    opt.device = &device;
    opt.conserve = fmm::am_mode::spin_deposit;

    octo::stopwatch build_timer;
    auto sim = core::make_v1309(cfg, opt);
    std::printf("SCF model + AMR grid built in %.1fs: %zu octree nodes, "
                "%zu leaves, max level %d\n",
                build_timer.seconds(), sim.grid().size(),
                sim.grid().leaf_count(), sim.grid().max_level());

    flop_reset();
    const auto d0 = sim.diagnostics();
    std::printf("initial: M = %.4f, Lz = %.5f, rho_max = %.3f\n\n",
                d0.hydro.mass, d0.hydro.angular_momentum.z, d0.rho_max);

    std::printf("%5s %10s %12s %14s %14s %12s\n", "step", "dt", "mass",
                "Lz (orb+spin)", "E_gas+E_pot", "rho_max");
    octo::stopwatch run_timer;
    for (int s = 0; s < steps; ++s) {
        const double dt = sim.advance();
        const auto d = sim.diagnostics();
        std::printf("%5ld %10.2e %12.8f %14.8f %14.6f %12.4f\n",
                    sim.step_count(), dt, d.hydro.mass,
                    d.hydro.angular_momentum.z, d.e_total, d.rho_max);
    }
    const double wall = run_timer.seconds();

    const auto d1 = sim.diagnostics();
    std::printf("\nconservation over %d coupled steps:\n", steps);
    std::printf("  mass drift: %.2e (relative)\n",
                (d1.hydro.mass - d0.hydro.mass) / d0.hydro.mass);
    std::printf("  Lz drift:   %.2e (relative)  <- the paper's "
                "machine-precision claim\n",
                (d1.hydro.angular_momentum.z - d0.hydro.angular_momentum.z) /
                    d0.hydro.angular_momentum.z);

    // FMM kernel accounting (paper §6.1.1 style).
    const auto multi = flop_snapshot(kernel_class::fmm_multipole);
    const auto mono = flop_snapshot(kernel_class::fmm_monopole);
    std::printf("\nFMM kernels: %llu multipole + %llu monopole launches, "
                "%.1f%% of multipole launches on the (simulated) GPU\n",
                static_cast<unsigned long long>(multi.launches()),
                static_cast<unsigned long long>(mono.launches()),
                100.0 * multi.gpu_launch_fraction());
    std::printf("wall time: %.1fs (%.1f sub-grids/s)\n", wall,
                steps * static_cast<double>(sim.grid().size()) / wall);

    // APEX-style profile (paper §4.1: "these diagnostic tools were
    // instrumental in scaling Octo-Tiger to the full machine"). The timers
    // nest (hydro::step contains both fmm::solve calls), so the rows are
    // inclusive times, not a breakdown of the wall time.
    std::printf("\nAPEX profile (inclusive, nested timers):\n");
    for (const auto& [name, st] : rt::apex_registry::instance().timer_report()) {
        std::printf("  %-18s %6llu calls %10.3f s\n", name.c_str(),
                    static_cast<unsigned long long>(st.count),
                    st.total_seconds);
    }
    const auto pstats = rt::thread_pool::global().stats();
    std::printf("scheduler: %llu tasks executed, %llu stolen (%.1f%%)\n",
                static_cast<unsigned long long>(pstats.tasks_executed),
                static_cast<unsigned long long>(pstats.tasks_stolen),
                100.0 * pstats.tasks_stolen /
                    std::max<std::uint64_t>(pstats.tasks_executed, 1));

    // Fig-1-style output: density slice through the orbital plane.
    const std::string slice = prefix + "_density_slice.csv";
    io::write_slice_csv(sim.grid(), amr::f_rho, 0.0, 128, slice);
    const std::string cells = prefix + "_cells.csv";
    io::write_cells_csv(sim.grid(), cells);
    std::printf("\nwrote %s (128x128 orbital-plane density) and %s\n",
                slice.c_str(), cells.c_str());
    return 0;
}

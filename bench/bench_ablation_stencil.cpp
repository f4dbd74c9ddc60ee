// Reproduces the §4.3 ablation: the stencil-based struct-of-arrays FMM
// kernels versus the legacy interaction-list array-of-structs organisation.
// Paper: "this led to a speedup of the total application runtime between
// 1.90 and 2.22 on AVX512 CPUs and between 1.23 and 1.35 on AVX2 CPUs" —
// with the FMM at ~40% of total runtime, that corresponds to kernel-level
// speedups of roughly 2-6x. Run on THIS host, real measurements.

#include <benchmark/benchmark.h>

#include "fmm/kernels.hpp"
#include "fmm/legacy_ilist.hpp"
#include "fmm/stencil.hpp"
#include "kernel/fmm.hpp"
#include "support/rng.hpp"

using namespace octo;
using namespace octo::fmm;

namespace {

node_moments make_moments() {
    node_moments m;
    xoshiro256 rng(7);
    for (int i = 0; i < INX3; ++i) {
        m.m[i] = rng.uniform(0.1, 1.0);
        m.com[0][i] = rng.uniform(0, 1);
        m.com[1][i] = rng.uniform(0, 1);
        m.com[2][i] = rng.uniform(0, 1);
    }
    return m;
}

partner_buffer make_buffer() {
    partner_buffer buf;
    xoshiro256 rng(11);
    for (int i = 0; i < partner_buffer::P3; ++i) {
        buf.m[i] = rng.uniform(0.1, 1.0);
        buf.x[i] = rng.uniform(-2, 3);
        buf.y[i] = rng.uniform(-2, 3);
        buf.z[i] = rng.uniform(-2, 3);
    }
    buf.any = true;
    return buf;
}

void bench_stencil_soa_vectorized(benchmark::State& state) {
    const auto mom = make_moments();
    const auto buf = make_buffer();
    node_gravity out;
    kernel_options opt;
    opt.stencil = &interaction_stencil();
    for (auto _ : state) {
        kernel::run_fmm_monopole(true, mom, buf, opt, out);
        benchmark::DoNotOptimize(out.L[0][0]);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(interactions_per_launch(false)));
}
BENCHMARK(bench_stencil_soa_vectorized);

void bench_stencil_soa_scalar(benchmark::State& state) {
    const auto mom = make_moments();
    const auto buf = make_buffer();
    node_gravity out;
    kernel_options opt;
    opt.stencil = &interaction_stencil();
    for (auto _ : state) {
        kernel::run_fmm_monopole(false, mom, buf, opt, out);
        benchmark::DoNotOptimize(out.L[0][0]);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(interactions_per_launch(false)));
}
BENCHMARK(bench_stencil_soa_scalar);

void bench_legacy_ilist_aos(benchmark::State& state) {
    const auto mom = make_moments();
    const auto buf = make_buffer();
    auto receivers = to_aos_receivers(mom);
    const auto partners = to_aos_partners(buf);
    const auto list = build_interaction_list();
    for (auto _ : state) {
        legacy_monopole_kernel(list, receivers, partners);
        benchmark::DoNotOptimize(receivers[0].gx);
    }
    state.SetItemsProcessed(state.iterations() * static_cast<long>(list.pairs.size()));
}
BENCHMARK(bench_legacy_ilist_aos);

} // namespace

BENCHMARK_MAIN();

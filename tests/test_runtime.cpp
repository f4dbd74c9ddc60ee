// Tests for the HPX-substitute runtime: thread pool, futures/continuations,
// when_all, channels, latch. These check the invariants DESIGN.md lists:
// continuations fire exactly once, when_all joins all states, work-helping
// get() cannot deadlock a small pool, channels deliver in order.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "amr/tree.hpp"
#include "dist/locality.hpp"
#include "hydro/update.hpp"
#include "net/faulty.hpp"
#include "net/parcelport.hpp"
#include "runtime/apex.hpp"
#include "runtime/channel.hpp"
#include "runtime/future.hpp"
#include "runtime/latch.hpp"
#include "runtime/thread_pool.hpp"
#include "simd/pack.hpp"

namespace {

using namespace octo;
using namespace octo::rt;

TEST(ThreadPool, ExecutesPostedTasks) {
    thread_pool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i) pool.post([&] { count.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NestedSpawnsComplete) {
    thread_pool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 10; ++i) {
        pool.post([&, i] {
            for (int j = 0; j < i; ++j) pool.post([&] { count.fetch_add(1); });
        });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), 45);
}

TEST(ThreadPool, CurrentIdentifiesWorkers) {
    thread_pool pool(2);
    EXPECT_EQ(thread_pool::current(), nullptr);
    std::atomic<bool> ok{false};
    pool.post([&] { ok = (thread_pool::current() == &pool); });
    pool.wait_idle();
    EXPECT_TRUE(ok.load());
}

TEST(ThreadPool, WorkStealingBalances) {
    // One task fans out 1000 children from a single worker; stealing must let
    // the other worker participate: total completes quickly either way, we
    // just assert completion.
    thread_pool pool(4);
    std::atomic<int> done{0};
    pool.post([&] {
        for (int i = 0; i < 1000; ++i) pool.post([&] { done.fetch_add(1); });
    });
    pool.wait_idle();
    EXPECT_EQ(done.load(), 1000);
}

TEST(ForChunks, VisitsEveryIndexOnce) {
    for (const unsigned workers : {1u, 4u}) {
        thread_pool pool(workers);
        const std::size_t max_bodies = std::size_t{4} * workers;
        for (const std::size_t count :
             {std::size_t{0}, std::size_t{1}, std::size_t{3}, max_bodies + 1,
              std::size_t{1000}}) {
            std::vector<std::atomic<int>> visits(count);
            std::atomic<std::size_t> bodies{0};
            const std::size_t chunks =
                for_chunks(pool, count, [&](std::size_t lo, std::size_t hi) {
                    bodies.fetch_add(1);
                    for (std::size_t n = lo; n < hi; ++n) visits[n].fetch_add(1);
                });
            EXPECT_EQ(chunks, bodies.load());
            EXPECT_LE(bodies.load(), max_bodies);
            for (std::size_t n = 0; n < count; ++n) {
                ASSERT_EQ(visits[n].load(), 1)
                    << "index " << n << " of " << count << ", " << workers
                    << " workers";
            }
        }
    }
}

TEST(Future, AsyncReturnsValue) {
    thread_pool pool(2);
    auto f = async(pool, [] { return 42; });
    EXPECT_EQ(f.get(), 42);
}

TEST(Future, VoidAsync) {
    thread_pool pool(2);
    std::atomic<bool> ran{false};
    auto f = async(pool, [&] { ran = true; });
    f.get();
    EXPECT_TRUE(ran.load());
}

TEST(Future, MakeReadyFuture) {
    auto f = make_ready_future(std::string("hello"));
    EXPECT_TRUE(f.is_ready());
    EXPECT_EQ(f.get(), "hello");
    auto fv = make_ready_future();
    EXPECT_TRUE(fv.is_ready());
}

TEST(Future, ExceptionPropagates) {
    thread_pool pool(2);
    auto f = async(pool, []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(Future, ThenChainsValues) {
    thread_pool pool(2);
    auto f = async(pool, [] { return 10; })
                 .then(pool, [](future<int> g) { return g.get() * 2; })
                 .then(pool, [](future<int> g) { return g.get() + 1; });
    EXPECT_EQ(f.get(), 21);
}

TEST(Future, ThenOnReadyFutureRuns) {
    thread_pool pool(2);
    auto f = make_ready_future(5).then(pool, [](future<int> g) { return g.get() * 3; });
    EXPECT_EQ(f.get(), 15);
}

TEST(Future, ThenFiresExactlyOnce) {
    thread_pool pool(2);
    std::atomic<int> fires{0};
    std::vector<future<void>> fs;
    for (int i = 0; i < 200; ++i) {
        fs.push_back(async(pool, [] {}).then(pool, [&](future<void>) { fires.fetch_add(1); }));
    }
    for (auto& f : fs) f.get();
    EXPECT_EQ(fires.load(), 200);
}

TEST(Future, ExceptionThroughThen) {
    thread_pool pool(2);
    auto f = async(pool, []() -> int { throw std::runtime_error("x"); })
                 .then(pool, [](future<int> g) { return g.get() + 1; });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(Future, GetFromWorkerHelpsInsteadOfDeadlocking) {
    // A 1-thread pool where a task blocks on a future produced by another
    // task would deadlock with OS-blocking get(); work-helping must resolve it.
    thread_pool pool(1);
    auto inner_done = async(pool, [&pool] {
        auto inner = async(pool, [] { return 7; });
        return inner.get() + 1; // worker helps here
    });
    EXPECT_EQ(inner_done.get(), 8);
}

TEST(Future, DeepHelpChain) {
    thread_pool pool(1);
    // Chain of 50 nested gets on a single worker.
    std::function<int(int)> spawn = [&](int depth) -> int {
        if (depth == 0) return 0;
        auto f = async(pool, [&, depth] { return spawn(depth - 1) + 1; });
        return f.get();
    };
    EXPECT_EQ(spawn(50), 50);
}

TEST(Future, PromiseSetBeforeGetFuture) {
    promise<int> p;
    auto f = p.get_future();
    p.set_value(9);
    EXPECT_TRUE(f.is_ready());
    EXPECT_EQ(f.get(), 9);
}

TEST(WhenAll, VectorJoinsAll) {
    thread_pool pool(4);
    std::vector<future<int>> fs;
    for (int i = 0; i < 64; ++i) fs.push_back(async(pool, [i] { return i; }));
    auto joined = when_all(std::move(fs)).get();
    int sum = 0;
    for (auto& f : joined) sum += f.get();
    EXPECT_EQ(sum, 64 * 63 / 2);
}

TEST(WhenAll, EmptyVectorIsReady) {
    auto f = when_all(std::vector<future<int>>{});
    EXPECT_TRUE(f.is_ready());
    EXPECT_TRUE(f.get().empty());
}

TEST(WhenAll, Heterogeneous) {
    thread_pool pool(2);
    auto fa = async(pool, [] { return 1; });
    auto fb = async(pool, [] { return std::string("two"); });
    auto [ra, rb] = when_all(std::move(fa), std::move(fb)).get();
    EXPECT_EQ(ra.get(), 1);
    EXPECT_EQ(rb.get(), "two");
}

TEST(WhenAll, ContinuationAfterJoin) {
    thread_pool pool(2);
    std::vector<future<int>> fs;
    for (int i = 0; i < 8; ++i) fs.push_back(async(pool, [i] { return i * i; }));
    auto total = when_all(std::move(fs)).then(pool, [](future<std::vector<future<int>>> g) {
        int s = 0;
        for (auto& f : g.get()) s += f.get();
        return s;
    });
    EXPECT_EQ(total.get(), 140);
}

TEST(Channel, InOrderDelivery) {
    channel<int> ch;
    ch.set(1);
    ch.set(2);
    ch.set(3);
    EXPECT_EQ(ch.get().get(), 1);
    EXPECT_EQ(ch.get().get(), 2);
    EXPECT_EQ(ch.get().get(), 3);
}

TEST(Channel, GetBeforeSet) {
    thread_pool pool(2);
    channel<int> ch;
    auto f0 = ch.get();
    auto f1 = ch.get(); // fetch two timesteps ahead (paper §5.2)
    EXPECT_FALSE(f0.is_ready());
    ch.set(10);
    ch.set(20);
    EXPECT_EQ(f0.get(), 10);
    EXPECT_EQ(f1.get(), 20);
}

TEST(Channel, ContinuationOnReceive) {
    thread_pool pool(2);
    channel<int> ch;
    auto doubled = ch.get().then(pool, [](future<int> g) { return g.get() * 2; });
    ch.set(21);
    EXPECT_EQ(doubled.get(), 42);
}

TEST(Channel, ManyProducersManyConsumers) {
    thread_pool pool(4);
    channel<int> ch;
    constexpr int n = 500;
    std::vector<future<int>> gets;
    gets.reserve(n);
    for (int i = 0; i < n; ++i) gets.push_back(ch.get());
    for (int i = 0; i < n; ++i) pool.post([&ch, i] { ch.set(i); });
    long long sum = 0;
    for (auto& f : gets) sum += f.get();
    EXPECT_EQ(sum, static_cast<long long>(n) * (n - 1) / 2);
}

TEST(Channel, BufferedCount) {
    channel<int> ch;
    EXPECT_EQ(ch.buffered(), 0u);
    ch.set(1);
    ch.set(2);
    EXPECT_EQ(ch.buffered(), 2u);
    (void)ch.get();
    EXPECT_EQ(ch.buffered(), 1u);
}

TEST(Latch, CountsDownToReady) {
    latch l(3);
    EXPECT_FALSE(l.try_wait());
    l.count_down();
    l.count_down(2);
    EXPECT_TRUE(l.try_wait());
    l.wait(); // must not block
}

TEST(Latch, ZeroIsImmediatelyReady) {
    latch l(0);
    EXPECT_TRUE(l.try_wait());
}

TEST(Latch, FutureIntegration) {
    thread_pool pool(2);
    latch l(2);
    std::atomic<bool> fired{false};
    auto f = l.done_future().then(pool, [&](future<void>) { fired = true; });
    pool.post([&] { l.count_down(); });
    pool.post([&] { l.count_down(); });
    f.get();
    EXPECT_TRUE(fired.load());
}

// Property-style sweep: futurized divide-and-conquer sums match serial sums
// for many sizes and pool widths — exercises stealing, helping and joins.
class FuturizedReduce : public ::testing::TestWithParam<std::tuple<int, int>> {};

int par_sum(thread_pool& pool, const std::vector<int>& v, std::size_t lo, std::size_t hi) {
    if (hi - lo <= 16) {
        return std::accumulate(v.begin() + static_cast<long>(lo),
                               v.begin() + static_cast<long>(hi), 0);
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    auto left = async(pool, [&, lo, mid] { return par_sum(pool, v, lo, mid); });
    const int right = par_sum(pool, v, mid, hi);
    return left.get() + right;
}

TEST_P(FuturizedReduce, MatchesSerial) {
    const auto [threads, size] = GetParam();
    thread_pool pool(static_cast<unsigned>(threads));
    std::vector<int> v(static_cast<std::size_t>(size));
    std::iota(v.begin(), v.end(), 1);
    const int expect = size * (size + 1) / 2;
    EXPECT_EQ(par_sum(pool, v, 0, v.size()), expect);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FuturizedReduce,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 17, 256, 1000)));

// ---- performance counters (APEX substitute, paper §4.1) --------------------

TEST(Apex, CountersAccumulate) {
    auto& reg = apex_registry::instance();
    reg.reset();
    apex_count("test.parcels");
    apex_count("test.parcels", 4);
    EXPECT_EQ(reg.counter("test.parcels"), 5u);
    EXPECT_EQ(reg.counter("nonexistent"), 0u);
}

TEST(Apex, ScopedTimersAggregateByName) {
    auto& reg = apex_registry::instance();
    reg.reset();
    for (int i = 0; i < 3; ++i) {
        apex_timer t("test.phase");
        volatile double x = 0;
        for (int j = 0; j < 10000; ++j) x = x + 1.0;
        (void)x;
    }
    const auto st = reg.timer("test.phase");
    EXPECT_EQ(st.count, 3u);
    EXPECT_GT(st.total_seconds, 0.0);
}

TEST(Apex, GaugeOverwritesInsteadOfAccumulating) {
    auto& reg = apex_registry::instance();
    reg.reset();
    apex_gauge("test.width", 4);
    apex_gauge("test.width", 8);
    EXPECT_EQ(reg.counter("test.width"), 8u);
}

TEST(Apex, ReliabilityCountersSurfaceInTheRegistry) {
    // The fault-tolerance counters of ISSUE 5 flow into APEX the same way
    // the hydro pipeline counters do, so a campaign's health is observable
    // through the one registry the paper's workflow reads.
    auto& reg = apex_registry::instance();
    const auto retries0 = reg.counter("net.retries");
    const auto dups0 = reg.counter("net.dups_dropped");
    {
        support::fault_config cfg;
        cfg.seed = 13;
        cfg.drop_prob = 0.4;
        cfg.dup_prob = 0.4;
        dist::reliability_params rel;
        rel.retransmit_timeout = std::chrono::microseconds(500);
        rel.tick = std::chrono::microseconds(100);
        dist::runtime rt(2, net::make_faulty_port(net::make_mpi_port(), cfg),
                         1, rel);
        std::atomic<int> ran{0};
        const auto act = rt.register_action(
            "tick", [&](int, dist::iarchive) { ran.fetch_add(1); });
        for (int i = 0; i < 60; ++i) rt.apply(1, act, dist::oarchive{});
        rt.wait_quiet();
        EXPECT_EQ(ran.load(), 60);
    }
    EXPECT_GT(reg.counter("net.retries"), retries0);
    EXPECT_GT(reg.counter("net.dups_dropped"), dups0);
    // The counter report carries them alongside the rest.
    bool found = false;
    for (const auto& [name, value] : reg.counter_report()) {
        if (name == "net.retries") found = value > 0;
    }
    EXPECT_TRUE(found);
}

TEST(Apex, PeerDeathCountersSurfaceInTheRegistry) {
    // The elastic-recovery counters of ISSUE 10 flow through the same
    // registry: one increment per declared death, and every parcel swallowed
    // by (or addressed to) a dead rank is accounted.
    auto& reg = apex_registry::instance();
    const auto deaths0 = reg.counter("net.peer_deaths");
    const auto dropped0 = reg.counter("net.dead_dropped");
    {
        dist::runtime rt(3, net::make_mpi_port());
        std::atomic<int> ran{0};
        const auto act = rt.register_action(
            "post-death", [&](int, dist::iarchive) { ran.fetch_add(1); });
        rt.kill(1);
        rt.apply(1, act, dist::oarchive{}); // swallowed unacked by the corpse
        rt.declare_dead(1);
        rt.apply(1, act, dist::oarchive{}); // dropped at the source now
        rt.wait_quiet();
        EXPECT_EQ(ran.load(), 0);
        EXPECT_EQ(rt.net_stats().peer_deaths, 1u);
    }
    EXPECT_EQ(reg.counter("net.peer_deaths"), deaths0 + 1);
    EXPECT_GT(reg.counter("net.dead_dropped"), dropped0);
}

TEST(Apex, HydroStepRegistersPipelineCounters) {
    // The hydro step pipeline must publish its task-graph counters: the
    // number of pipeline tasks, the per-leaf CFL reduction tasks and the
    // SIMD lane width gauge.
    auto& reg = apex_registry::instance();
    reg.reset();

    amr::box_geometry root;
    root.origin = {0, 0, 0};
    root.dx = 1.0 / amr::INX;
    amr::tree t(root);
    for (const auto k : t.leaves_sfc()) t.refine(k);
    t.refine(t.leaves_sfc().front()); // coarse-fine faces: refluxes
    phys::ideal_gas_eos eos(1.4);
    for (const auto k : t.leaves_sfc()) {
        auto& g = t.ensure_fields(k);
        for (int i = 0; i < amr::INX; ++i)
            for (int j = 0; j < amr::INX; ++j)
                for (int kk = 0; kk < amr::INX; ++kk) {
                    g.interior(amr::f_rho, i, j, kk) = 1.0;
                    g.interior(amr::f_egas, i, j, kk) = 1.0;
                    g.interior(amr::f_tau, i, j, kk) =
                        eos.tau_from_internal(1.0);
                }
    }
    hydro::step_options opt; // defaults: vectorized
    opt.eos = eos;
    (void)hydro::step(t, opt);

    const auto leaves = t.leaves_sfc().size();
    // The graph, exactly: per stage one restriction per refined node, three
    // flux sweeps per leaf, one reflux per coarse face next to a refined
    // node and one update per leaf (there is no ghost-fill task), plus the
    // per-leaf CFL tasks.
    std::uint64_t refined = 0, refluxes = 0;
    for (const auto& level : t.levels()) {
        for (const amr::node_key k : level) {
            if (t.node(k).refined) {
                ++refined;
                continue;
            }
            for (int axis = 0; axis < 3; ++axis) {
                for (int dir = -1; dir <= 1; dir += 2) {
                    const amr::node_key nb = amr::key_neighbor(
                        k, {axis == 0 ? dir : 0, axis == 1 ? dir : 0, axis == 2 ? dir : 0});
                    refluxes += nb != amr::invalid_key && t.contains(nb) && t.node(nb).refined;
                }
            }
        }
    }
    ASSERT_GT(refluxes, 0u);
    EXPECT_EQ(reg.counter("hydro.stage_tasks"),
              2 * (refined + 3 * leaves + refluxes + leaves) + leaves);
    EXPECT_EQ(reg.counter("hydro.cfl_tasks"), leaves);
    EXPECT_EQ(reg.counter("hydro.simd_width"),
              static_cast<std::uint64_t>(octo::simd::default_width));

    // The scalar-kernel ablation reports lane width 1 and still runs one
    // CFL task per leaf.
    reg.reset();
    opt.vectorized = false;
    (void)hydro::step(t, opt);
    EXPECT_EQ(reg.counter("hydro.simd_width"), 1u);
    EXPECT_EQ(reg.counter("hydro.cfl_tasks"), leaves);
}

TEST(Apex, ReportSortsByTotalTime) {
    auto& reg = apex_registry::instance();
    reg.reset();
    reg.record_time("small", 0.001);
    reg.record_time("big", 1.0);
    const auto report = reg.timer_report();
    ASSERT_EQ(report.size(), 2u);
    EXPECT_EQ(report[0].first, "big");
    EXPECT_EQ(report[1].first, "small");
}

TEST(ThreadPool, StatisticsCountExecutionAndSteals) {
    thread_pool pool(2);
    std::atomic<int> done{0};
    // The producer posts into its own local queue and then refuses to return
    // until every posted task has run. Since it occupies its worker the whole
    // time, the only way its queue can drain is the other worker stealing —
    // making the steal count deterministic instead of a scheduling race.
    pool.post([&] {
        for (int i = 0; i < 500; ++i) pool.post([&] { done.fetch_add(1); });
        while (done.load(std::memory_order_acquire) < 500) {
            std::this_thread::yield();
        }
    });
    pool.wait_idle();
    const auto st = pool.stats();
    EXPECT_EQ(done.load(), 500);
    EXPECT_EQ(st.tasks_posted, 501u);
    EXPECT_EQ(st.tasks_executed, 501u);
    // All 500 child tasks were stolen; the producer task itself may add one
    // more steal depending on which worker claimed it.
    EXPECT_GE(st.tasks_stolen, 500u);
    EXPECT_LE(st.tasks_stolen, 501u);
}

TEST(ThreadPool, CloseRejectsNewWorkButRunsQueuedTasks) {
    // A killed locality's pool stops ACCEPTING work (ISSUE 10); tasks that
    // made it in before the close still run — death is not memory unsafety.
    thread_pool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 50; ++i) pool.post([&] { ran.fetch_add(1); });
    EXPECT_TRUE(pool.accepting());
    pool.close();
    EXPECT_FALSE(pool.accepting());
    EXPECT_FALSE(pool.post([&] { ran.fetch_add(1); }));
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 50);
    const auto st = pool.stats();
    EXPECT_EQ(st.tasks_rejected, 1u);
    EXPECT_EQ(st.tasks_posted, 50u);
    EXPECT_EQ(st.tasks_executed, 50u);
}

} // namespace

// stepbench: the measured coupled-step benchmark of core::simulation::advance().
//
// One process drives one workload through the public API on the global
// thread pool (hardware_concurrency workers):
//
//   --mode setup  builds the workload and runs its cold first step, then
//                 reports the set-up time only (run.py repeats this in fresh
//                 processes, so every set-up sample is a cold one);
//   --mode run    set-up, then the timed driver loop for --seconds, then the
//                 correctness gates. With --trace 1 the untraced loop gets
//                 half the time, and a fresh instance of the same workload
//                 replays the same iterations through the layers' public
//                 calls with a span around each. The replay must reproduce
//                 the untraced dt sequence and final leaf digests bit for
//                 bit; its spans are written as Chrome trace-event JSON.
//
// The last line of stdout is one JSON object with the raw measurements;
// run.py turns it into the benchmark's metrics. Exit code 1 means a
// correctness gate failed, 2 a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "amr/cost_model.hpp"
#include "amr/partition.hpp"
#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "fmm/solver.hpp"
#include "gpu/aggregator.hpp"
#include "gpu/device.hpp"
#include "hydro/update.hpp"
#include "io/checkpoint.hpp"
#include "physics/polytrope.hpp"
#include "runtime/apex.hpp"
#include "runtime/thread_pool.hpp"
#include "support/buffer_recycler.hpp"
#include "support/flops.hpp"
#include "support/rng.hpp"

using namespace octo;
using amr::INX;
using amr::node_key;
using clock_type = std::chrono::steady_clock;
namespace fs = std::filesystem;

namespace {

double seconds_since(clock_type::time_point t0) {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

// ---- workloads --------------------------------------------------------------

/// What a workload runs. The cadences are in steps; step 1 is the cold
/// set-up step, so a cadence > 1 never fires inside set-up.
struct workload {
    std::string name;
    bool v1309 = false;     ///< make_v1309 with the simulated P100; else blobs
    int max_level = 3;
    bool self_gravity = true;
    /// Every regrid_every steps, alternately refine the regrid_leaves
    /// densest finest-level leaves one level and coarsen them back.
    long regrid_every = 0;
    long ckpt_every = 0;    ///< periodic checkpoint cadence (0 = none)
    long ckpt_full_every = 1;
    int lb_ranks = 0;       ///< modeled ranks for load balancing (0 = off)
    long lb_every = 1;
    /// Restart from the initial state every episode_steps steps (0 = never):
    /// the longest stretch over which nothing reaches the outflow boundary,
    /// so the ledger gate holds however many steps a run gets to.
    long episode_steps = 0;
};

constexpr std::size_t regrid_leaves = 8;

std::optional<workload> find_workload(const std::string& name) {
    if (name == "blob_gravity") {
        return workload{.name = name, .max_level = 3, .episode_steps = 40};
    }
    if (name == "blob_hydro_regrid") {
        return workload{.name = name,
                        .max_level = 4,
                        .self_gravity = false,
                        .regrid_every = 5,
                        .ckpt_every = 4,
                        .ckpt_full_every = 3,
                        .lb_ranks = 16,
                        .lb_every = 2};
    }
    if (name == "v1309_offload") {
        return workload{
            .name = name, .v1309 = true, .max_level = 2, .episode_steps = 16};
    }
    return std::nullopt;
}

/// The level-14-analogue tree of bench/bench_hydro_step.cpp (refined toward
/// the domain center), holding two blobs at that bench's blob centers. The
/// blobs are n = 1.5 polytropes in hydrostatic equilibrium on a circular
/// orbit, over a 1e-14 atmosphere: unlike the bench's gaussian tails they
/// have compact support and stay bound, so for about 60 steps nothing
/// reaches the outflow boundary and the coupled ledger closes to rounding.
amr::tree make_blobs(int max_level) {
    amr::box_geometry g;
    g.origin = {-0.5, -0.5, -0.5};
    g.dx = 1.0 / INX;
    amr::tree t(g);
    t.refine_by(
        [](node_key, const amr::box_geometry& bg) {
            const dvec3 c = bg.cell_center(INX / 2, INX / 2, INX / 2);
            return norm(c) < 0.28 * (bg.dx * INX * 8);
        },
        max_level);
    struct blob {
        phys::polytrope star;
        dvec3 center, velocity;
    };
    const double m1 = 1.0, m2 = 0.3;
    const dvec3 c1{-0.18, 0.02, 0.01}, c2{0.22, -0.03, -0.02};
    const dvec3 sep = c2 - c1;
    const dvec3 along = cross(dvec3{0, 0, 1}, sep) / norm(cross(dvec3{0, 0, 1}, sep));
    const double v_rel = std::sqrt((m1 + m2) / norm(sep)); // G = 1
    const blob blobs[2] = {
        {phys::polytrope(m1, 0.15), c1, -(m2 / (m1 + m2) * v_rel) * along},
        {phys::polytrope(m2, 0.10), c2, (m1 / (m1 + m2) * v_rel) * along}};
    const double atmosphere = 1e-14;
    const phys::ideal_gas_eos eos(5.0 / 3.0);
    for (const auto k : t.leaves_sfc()) {
        auto& sg = t.ensure_fields(k);
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const dvec3 r = sg.geom.cell_center(i, j, kk);
                    double rho = atmosphere;
                    double p = 1e-3 * atmosphere;
                    dvec3 s{0, 0, 0};
                    int owner = 0;
                    for (int b = 0; b < 2; ++b) {
                        const double d = norm(r - blobs[b].center);
                        const double rb = blobs[b].star.rho(d);
                        if (rb <= 0) continue;
                        rho += rb;
                        p += blobs[b].star.pressure(d);
                        s += rb * blobs[b].velocity;
                        owner = b;
                    }
                    const double internal = p / (eos.gamma() - 1.0);
                    sg.interior(amr::f_rho, i, j, kk) = rho;
                    sg.interior(amr::f_sx, i, j, kk) = s.x;
                    sg.interior(amr::f_sy, i, j, kk) = s.y;
                    sg.interior(amr::f_sz, i, j, kk) = s.z;
                    sg.interior(amr::f_egas, i, j, kk) =
                        internal + 0.5 * norm2(s) / rho;
                    sg.interior(amr::f_tau, i, j, kk) =
                        eos.tau_from_internal(internal);
                    sg.interior(amr::first_passive + 2 * owner, i, j, kk) = rho;
                }
    }
    return t;
}

/// The seed's only effect: scale each cell's density by 1 + 1e-3 (u - 0.5)
/// at fixed velocity and specific energy (tau, an internal-energy density to
/// the power 1/gamma, scales by the factor to the 1/gamma).
void perturb(amr::tree& t, std::uint64_t seed, double gamma) {
    xoshiro256 rng(seed);
    for (const auto k : t.leaves_sfc()) {
        auto& g = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const double f = 1.0 + 1e-3 * (rng.uniform() - 0.5);
                    for (int fld = amr::f_rho; fld <= amr::f_frac_atmosphere;
                         ++fld) {
                        g.interior(fld, i, j, kk) *=
                            fld == amr::f_tau ? std::pow(f, 1.0 / gamma) : f;
                    }
                }
    }
}

/// One live copy of a workload. Declaration order matters: the simulation
/// references the aggregator, which references the device.
struct instance {
    std::unique_ptr<gpu::device> device;
    std::unique_ptr<gpu::aggregator> agg;
    core::sim_options opt;
    std::optional<core::simulation> sim;
    std::set<node_key> base_refined; ///< refined nodes of the generated tree
};

/// Build the workload's initial state and simulation. `replay` builds the
/// simulation without load balancing (the replay drives the balancer's
/// public calls itself) and seeds the partition the constructor would have.
void build(instance& in, const workload& w, std::uint64_t seed, bool replay,
           amr::partition_stats* parts) {
    core::sim_options& opt = in.opt;
    opt.self_gravity = w.self_gravity;
    opt.conserve = fmm::am_mode::spin_deposit;
    opt.lb.ranks = replay ? 0 : w.lb_ranks;
    opt.lb.every_steps = w.lb_every;
    if (w.v1309) {
        // examples/v1309_merger's settings at max_level 2, with the simulated
        // P100 feeding one shared aggregation executor.
        in.device = std::make_unique<gpu::device>(gpu::p100(), 2);
        in.agg = std::make_unique<gpu::aggregator>(*in.device);
        opt.eos = phys::ideal_gas_eos(1.0 + 1.0 / 1.5);
        opt.device = in.device.get();
        opt.aggregator = in.agg.get();
        core::v1309_config cfg;
        cfg.domain_over_separation = 8.0;
        cfg.base_depth = 1;
        cfg.max_level = w.max_level;
        cfg.scf_iterations = 20;
        in.sim.emplace(core::make_v1309(cfg, opt));
        perturb(in.sim->grid(), seed, opt.eos.gamma());
    } else {
        opt.eos = phys::ideal_gas_eos(5.0 / 3.0);
        amr::tree t = make_blobs(w.max_level);
        perturb(t, seed, opt.eos.gamma());
        in.sim.emplace(std::move(t), opt);
    }
    for (const auto& level : in.sim->grid().levels()) {
        for (const node_key k : level) {
            if (in.sim->grid().node(k).refined) in.base_refined.insert(k);
        }
    }
    if (replay && w.lb_ranks > 0) {
        *parts = amr::partition_sfc(in.sim->grid(), w.lb_ranks);
    }
}

double leaf_rho_max(const amr::subgrid& g) {
    double m = 0;
    for (int i = 0; i < INX; ++i)
        for (int j = 0; j < INX; ++j)
            for (int kk = 0; kk < INX; ++kk)
                m = std::max(m, g.interior(amr::f_rho, i, j, kk));
    return m;
}

/// The regrid half of the schedule: refine the densest finest-level leaves
/// one level. Ties break by key, so the choice is deterministic.
int refine_densest(core::simulation& sim, std::size_t count) {
    const amr::tree& t = sim.grid();
    const int finest = t.max_level();
    std::vector<std::pair<double, node_key>> cand;
    for (const node_key k : t.leaves_sfc()) {
        if (amr::key_level(k) == finest) {
            cand.emplace_back(leaf_rho_max(*t.node(k).fields), k);
        }
    }
    count = std::min(count, cand.size());
    std::partial_sort(cand.begin(), cand.begin() + count, cand.end(),
                      [](const auto& a, const auto& b) {
                          return a.first != b.first ? a.first > b.first
                                                    : a.second < b.second;
                      });
    std::set<node_key> pick;
    for (std::size_t i = 0; i < count; ++i) pick.insert(cand[i].second);
    return sim.regrid(
        [&](node_key k, const amr::subgrid&) { return pick.count(k) != 0; },
        finest + 1);
}

/// The coarsen half: remove every refinement the generator did not make.
int coarsen_back(instance& in) {
    return in.sim->coarsen([&](node_key k, const amr::subgrid&) {
        return in.base_refined.count(k) == 0;
    });
}

// ---- correctness: the conservation ledger -----------------------------------

/// Momentum and Lz (orbital + spin) of the live tree, with the L1 scales the
/// drift is measured against.
struct ledger {
    dvec3 momentum{0, 0, 0};
    double lz = 0;
    double p_scale = 0;
    double lz_scale = 0;
};

ledger take_ledger(const amr::tree& t) {
    ledger l;
    const hydro::totals tot = hydro::compute_totals(t);
    l.momentum = tot.momentum;
    l.lz = tot.angular_momentum.z;
    for (const node_key k : t.leaves_sfc()) {
        const auto& g = *t.node(k).fields;
        const double V = g.geom.cell_volume();
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const dvec3 r = g.geom.cell_center(i, j, kk);
                    const dvec3 s{g.interior(amr::f_sx, i, j, kk),
                                  g.interior(amr::f_sy, i, j, kk),
                                  g.interior(amr::f_sz, i, j, kk)};
                    l.p_scale += V * norm(s);
                    l.lz_scale += V * (std::abs(cross(r, s).z) +
                                       std::abs(g.interior(amr::f_lz, i, j, kk)));
                }
    }
    return l;
}

/// The bound tests/test_core asserts for the coupled self-gravity ledger.
constexpr double ledger_tolerance = 1e-12;

// ---- tracing ----------------------------------------------------------------

/// Spans kept in memory and written as Chrome trace-event JSON at the end.
/// Times are integer nanoseconds from the tracer's origin, so a child that
/// closed before its parent never appears to outlive it after rounding.
class tracer {
  public:
    struct span {
        std::string name; ///< "<layer>.<call>"
        int parent;
        long step;
        std::int64_t start_ns;
        std::int64_t end_ns;
        int tid;
    };

    int open(std::string name, int parent, long step) {
        const std::int64_t t = now_ns();
        std::lock_guard lock(mutex_);
        spans_.push_back({std::move(name), parent, step, t, -1, thread_slot()});
        return static_cast<int>(spans_.size()) - 1;
    }
    void close(int id) {
        const std::int64_t t = now_ns();
        std::lock_guard lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end_ns = t;
    }
    template <class F>
    auto scoped(std::string name, int parent, long step, F&& f) {
        const int id = open(std::move(name), parent, step);
        struct closer {
            tracer* tr;
            int id;
            ~closer() { tr->close(id); }
        } c{this, id};
        return f();
    }

    void write_chrome_json(const std::string& path, const std::string& meta) const {
        std::ofstream out(path);
        out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << meta
            << ",\"traceEvents\":[\n";
        char buf[512];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const span& s = spans_[i];
            const std::string& n = s.name;
            const std::string layer = n.substr(0, n.find('.'));
            std::snprintf(buf, sizeof buf,
                          "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                          "\"pid\":1,\"tid\":%d,\"ts\":%lld.%03lld,"
                          "\"dur\":%lld.%03lld,\"args\":{\"id\":%zu,"
                          "\"parent\":%d,\"step\":%ld}}",
                          i == 0 ? "" : ",\n", n.c_str(), layer.c_str(), s.tid,
                          static_cast<long long>(s.start_ns / 1000),
                          static_cast<long long>(s.start_ns % 1000),
                          static_cast<long long>((s.end_ns - s.start_ns) / 1000),
                          static_cast<long long>((s.end_ns - s.start_ns) % 1000),
                          i, s.parent, s.step);
            out << buf;
        }
        out << "\n]}\n";
    }

  private:
    std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   clock_type::now() - origin_)
            .count();
    }
    /// 0 for the main thread, 1 + worker index on the global pool.
    static int thread_slot() {
        if (rt::thread_pool::current() == &rt::thread_pool::global()) {
            return 1 + static_cast<int>(rt::thread_pool::current_worker_index());
        }
        return 0;
    }

    clock_type::time_point origin_ = clock_type::now();
    mutable std::mutex mutex_;
    std::vector<span> spans_;
};

// ---- the host FMA peak ------------------------------------------------------

/// Measured double-precision FMA rate of this host over every hardware
/// thread (best of five): 12 independent chains of 8-lane multiply-adds,
/// which -ffp-contract=fast compiles to FMA instructions.
double host_peak_gflops() {
    typedef double v8 __attribute__((vector_size(64)));
    constexpr int chains = 12;
    constexpr long iters = 10'000'000;
    const unsigned nthreads = std::max(1u, std::thread::hardware_concurrency());
    std::vector<double> sink(nthreads, 0.0);
    auto body = [&](unsigned tid) {
        v8 acc[chains];
        const v8 m = v8{} + (1.0 - 1e-9);
        const v8 c = v8{} + 1e-9 * (tid + 1);
        for (int j = 0; j < chains; ++j) acc[j] = v8{} + 0.5 * j;
        for (long it = 0; it < iters; ++it) {
            for (int j = 0; j < chains; ++j) acc[j] = acc[j] * m + c;
        }
        double s = 0;
        for (int j = 0; j < chains; ++j)
            for (int l = 0; l < 8; ++l) s += acc[j][l];
        sink[tid] = s;
    };
    double best = 0;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = clock_type::now();
        std::vector<std::thread> threads;
        for (unsigned i = 0; i < nthreads; ++i) threads.emplace_back(body, i);
        for (auto& th : threads) th.join();
        const double s = seconds_since(t0);
        best = std::max(best, 2.0 * 8 * chains * iters * nthreads / s / 1e9);
    }
    static volatile double keep; // the chains' results must stay live
    for (const double v : sink) keep = keep + v;
    return best;
}

// ---- counters ---------------------------------------------------------------

std::uint64_t total_fmm_flops() {
    std::uint64_t f = 0;
    for (const kernel_class k :
         {kernel_class::fmm_multipole, kernel_class::fmm_monopole,
          kernel_class::fmm_monopole_multipole, kernel_class::fmm_m2m,
          kernel_class::fmm_l2l}) {
        f += flop_snapshot(k).flops();
    }
    return f;
}

/// Every counter the traced run reports, read at one instant.
struct counters {
    std::uint64_t fmm_flops = 0;
    flop_totals all{};
    std::uint64_t stage_tasks = 0, plan_rebuilds = 0, plan_hits = 0;
    rt::thread_pool::statistics pool{};
    buffer_recycler::stats_t rec{};
    gpu::aggregator::stats_t agg{};

    static counters read(const instance& in) {
        counters c;
        c.fmm_flops = total_fmm_flops();
        c.all = flop_snapshot_all();
        const auto& apex = rt::apex_registry::instance();
        c.stage_tasks = apex.counter("hydro.stage_tasks");
        c.plan_rebuilds = apex.counter("amr.halo_plan_rebuilds");
        c.plan_hits = apex.counter("amr.halo_plan_hits");
        c.pool = rt::thread_pool::global().stats();
        c.rec = buffer_recycler::instance().stats();
        if (in.agg) c.agg = in.agg->stats();
        return c;
    }
};

// ---- JSON output ------------------------------------------------------------

std::string quote(const std::string& v) {
    std::string e = "\"";
    for (const char ch : v) {
        if (ch == '"' || ch == '\\') e += '\\';
        e += (ch == '\n' || ch == '\t') ? ' ' : ch;
    }
    return e + "\"";
}

class json_object {
  public:
    json_object& num(const std::string& k, double v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        return raw(k, buf);
    }
    json_object& integer(const std::string& k, long long v) {
        return raw(k, std::to_string(v));
    }
    json_object& str(const std::string& k, const std::string& v) {
        return raw(k, quote(v));
    }
    json_object& nums(const std::string& k, const std::vector<double>& v) {
        std::string s = "[";
        char buf[64];
        for (std::size_t i = 0; i < v.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
            s += buf;
        }
        return raw(k, s + "]");
    }
    json_object& strs(const std::string& k, const std::vector<std::string>& v) {
        std::string s = "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i != 0) s += ',';
            s += quote(v[i]);
        }
        return raw(k, s + "]");
    }
    json_object& raw(const std::string& k, const std::string& v) {
        if (!body_.empty()) body_ += ',';
        body_ += quote(k) + ":" + v;
        return *this;
    }
    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

// ---- the driver loop --------------------------------------------------------

/// Failure and operation accounting shared by every phase of a run.
struct ops {
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> failures;
    void fail(const std::string& what) {
        ++failed;
        if (failures.size() < 20) failures.push_back(what);
        std::fprintf(stderr, "stepbench: FAIL %s\n", what.c_str());
    }
};

/// Per-run checkpoint bookkeeping: a private directory, superseded files
/// removed as the chain moves on, so disk use stays at one chain.
struct ckpt_dir {
    fs::path dir;
    std::vector<std::string> written;
    explicit ckpt_dir(fs::path d) : dir(std::move(d)) {
        fs::remove_all(dir);
        fs::create_directories(dir);
    }
    ~ckpt_dir() {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
    ckpt_dir(const ckpt_dir&) = delete;
    ckpt_dir& operator=(const ckpt_dir&) = delete;
    std::string prefix(const std::string& name) const {
        return (dir / name).string();
    }
    void prune(const std::vector<std::string>& chain) {
        std::vector<std::string> keep;
        for (const auto& p : written) {
            if (std::find(chain.begin(), chain.end(), p) != chain.end()) {
                keep.push_back(p);
            } else {
                std::error_code ec;
                fs::remove(p, ec);
            }
        }
        for (const auto& p : chain) {
            if (std::find(keep.begin(), keep.end(), p) == keep.end()) {
                keep.push_back(p);
            }
        }
        written = std::move(keep);
    }
};

struct loop_record {
    std::vector<double> iter_s;   ///< wall time per iteration after step 1
    std::vector<double> leaves;   ///< leaves advanced per iteration
    std::vector<double> dts;      ///< dt of every step, step 1 included
    double build_s = 0;
    double first_step_s = 0;
    std::size_t nodes = 0;        ///< generated tree
    std::size_t leaf_count = 0;
    std::uint64_t setup_recycler_misses = 0; ///< build + cold step
    double peak_rss_mb = 0; ///< by the end of the timed loop
    double max_p_drift = 0;
    double max_lz_drift = 0;
    long ckpt_writes = 0;
    io::leaf_digest_map final_digests;
};

/// The schedule's structural change for `step`, if any: returns true when
/// the tree structure changed.
bool apply_regrid_schedule(instance& in, const workload& w, long step,
                           bool& refine_next) {
    if (w.regrid_every <= 0 || step % w.regrid_every != 0) return false;
    const int changed = refine_next ? refine_densest(*in.sim, regrid_leaves)
                                    : coarsen_back(in);
    refine_next = !refine_next;
    return changed > 0;
}

void check_ledger(const workload& w, const ledger& base, const amr::tree& t,
                  long step, loop_record& rec, ops& o) {
    if (!w.self_gravity) return;
    const ledger now = take_ledger(t);
    const double dp = norm(now.momentum - base.momentum) / base.p_scale;
    const double dl = std::abs(now.lz - base.lz) / base.lz_scale;
    rec.max_p_drift = std::max(rec.max_p_drift, dp);
    rec.max_lz_drift = std::max(rec.max_lz_drift, dl);
    if (!(dp <= ledger_tolerance && dl <= ledger_tolerance)) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "ledger at step %ld: momentum drift %.3e, Lz drift %.3e",
                      step, dp, dl);
        o.fail(buf);
    }
}

/// Read the chain back and compare its leaf digests with the live tree's.
void check_readback(const std::vector<std::string>& chain, const amr::tree& t,
                    long steps, ops& o, tracer* tr, long span_step) {
    ++o.attempted;
    try {
        auto read = [&] { return io::read_checkpoint_chain(chain); };
        io::checkpoint_data ck =
            tr ? tr->scoped("io.read_checkpoint_chain", -1, span_step, read)
               : read();
        if (ck.meta.steps != steps || io::leaf_digests(ck.t) != io::leaf_digests(t)) {
            o.fail("checkpoint chain readback differs from the live tree");
        }
    } catch (const std::exception& e) {
        o.fail(std::string("checkpoint readback threw: ") + e.what());
    }
}

/// Write the restart file episodes start from; "" when the workload has no
/// episodes. Untimed: it is the benchmark's preparation, not the scenario's.
std::string write_initial(const instance& in, const workload& w,
                          const ckpt_dir* dir) {
    if (w.episode_steps <= 0) return "";
    const std::string path = dir->prefix(w.name) + ".initial.ckpt";
    io::write_checkpoint(in.sim->grid(), path, {.time = 0, .steps = 0});
    return path;
}

/// The process's peak resident set so far (VmHWM). Read at the end of the
/// timed loop, it leaves out the checks that follow, such as the readback's
/// second copy of the tree.
double read_peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Set-up (build + cold first advance) and the untraced timed loop. Runs
/// until `seconds` have passed, then on to the next step whose checkpoint
/// captures the final state, so the chain can be checked against the live
/// tree.
loop_record run_untraced(const workload& w, std::uint64_t seed, double seconds,
                         const fs::path& out, ops& o, bool setup_only) {
    loop_record rec;
    instance in;
    std::optional<ckpt_dir> dir;
    if (w.ckpt_every > 0 || w.episode_steps > 0) {
        dir.emplace(out / ("ckpt-" + w.name));
    }
    const std::uint64_t misses0 = buffer_recycler::instance().stats().misses;
    const auto t0 = clock_type::now();
    build(in, w, seed, false, nullptr);
    rec.build_s = seconds_since(t0);
    const std::string initial =
        setup_only ? "" : write_initial(in, w, dir ? &*dir : nullptr);
    rec.nodes = in.sim->grid().size();
    rec.leaf_count = in.sim->grid().leaf_count();
    const ledger base = take_ledger(in.sim->grid());

    if (w.ckpt_every > 0) {
        in.sim->set_checkpoint_policy({.every_steps = w.ckpt_every,
                                       .path_prefix = dir->prefix(w.name),
                                       .full_every = w.ckpt_full_every});
    }
    const auto t1 = clock_type::now();
    rec.dts.push_back(in.sim->advance());
    rec.first_step_s = seconds_since(t1);
    rec.setup_recycler_misses = buffer_recycler::instance().stats().misses - misses0;
    if (setup_only) return rec;
    ++o.attempted;
    check_ledger(w, base, in.sim->grid(), 1, rec, o);

    bool refine_next = true;
    io::leaf_digest_map episode_end; ///< digests at the first episode's end
    const auto loop0 = clock_type::now();
    bool chain_current = w.ckpt_every <= 0;
    while (seconds_since(loop0) < seconds || !chain_current) {
        const bool restart =
            w.episode_steps > 0 && in.sim->step_count() == w.episode_steps;
        const long step = restart ? 1 : in.sim->step_count() + 1;
        const std::string before = in.sim->last_checkpoint();
        const double leaves = static_cast<double>(in.sim->grid().leaf_count());
        ++o.attempted;
        bool restructured = false;
        try {
            const auto it0 = clock_type::now();
            if (restart) in.sim.emplace(core::simulation::restart(initial, in.opt));
            rec.dts.push_back(in.sim->advance());
            restructured = apply_regrid_schedule(in, w, step, refine_next);
            rec.iter_s.push_back(seconds_since(it0));
            rec.leaves.push_back(leaves);
        } catch (const std::exception& e) {
            o.fail("step " + std::to_string(step) + " threw: " + e.what());
            break;
        }
        check_ledger(w, base, in.sim->grid(), step, rec, o);
        if (w.episode_steps > 0) {
            // A restarted episode must retrace the first one bit for bit.
            if (restart) ++o.attempted;
            const bool later = rec.dts.size() > static_cast<std::size_t>(w.episode_steps);
            if (later && rec.dts.back() != rec.dts[static_cast<std::size_t>(step - 1)]) {
                o.fail("restarted episode took a different dt at step " +
                       std::to_string(step));
            }
            if (step == w.episode_steps) {
                io::leaf_digest_map d = io::leaf_digests(in.sim->grid());
                if (!later) episode_end = std::move(d);
                else if (d != episode_end) o.fail("restarted episode ended elsewhere");
            }
        }
        const bool wrote = in.sim->last_checkpoint() != before;
        if (wrote) {
            ++o.attempted; // the checkpoint write is an operation of its own
            ++rec.ckpt_writes;
            dir->prune(in.sim->checkpoint_chain());
        }
        chain_current = w.ckpt_every <= 0 || (wrote && !restructured);
    }
    rec.peak_rss_mb = read_peak_rss_mb();
    rec.final_digests = io::leaf_digests(in.sim->grid());
    if (w.ckpt_every > 0 && o.failed == 0) {
        check_readback(in.sim->checkpoint_chain(), in.sim->grid(),
                       in.sim->step_count(), o, nullptr, 0);
    }
    return rec;
}

/// What the traced replay measures besides its spans.
struct replay_record {
    std::vector<double> dts;
    io::leaf_digest_map final_digests;
    std::vector<double> full_bytes, delta_bytes, dirty_frac;
    double lb_migrated = 0;
    double lb_imbalance_pct = 0;
    counters steady_begin, steady_end;
};

/// Replay `iters` iterations after the cold step of a fresh instance,
/// calling what simulation::advance() calls, in its order, with a span
/// around each call. Regrid and coarsen go through the simulation as in the
/// untraced loop; the replay owns the balancer's partition and the
/// checkpoint chain the simulation would otherwise keep.
replay_record run_traced(const workload& w, std::uint64_t seed, long iters,
                         const fs::path& out, tracer& tr, ops& o) {
    replay_record rec;
    instance in;
    amr::partition_stats parts;
    std::optional<ckpt_dir> dir;
    if (w.ckpt_every > 0 || w.episode_steps > 0) {
        dir.emplace(out / ("ckpt-traced-" + w.name));
    }
    tr.scoped("core.build", -1, 0, [&] { build(in, w, seed, true, &parts); });
    const std::string initial = write_initial(in, w, dir ? &*dir : nullptr);
    const core::sim_options& opt = in.opt;

    fmm::solver gravity({.conserve = opt.conserve,
                         .vectorized = opt.vectorized,
                         .device = opt.device,
                         .pool = opt.pool,
                         .aggregator = opt.aggregator,
                         .autotune = opt.autotune,
                         .machine = opt.machine});
    amr::cost_model cost(opt.lb.cost);
    std::vector<std::string> chain;
    io::leaf_digest_map base_digests;
    long ckpt_count = 0;
    double time = 0;
    long sim_step = 0;
    bool refine_next = true;

    // Iteration `it` (spans' step id) runs simulation step `step`; the two
    // differ once an episode restarts.
    for (long it = 1; it <= iters + 1; ++it) {
        if (it == 2) rec.steady_begin = counters::read(in);
        const int root = tr.open("core.iteration", -1, it);
        if (w.episode_steps > 0 && sim_step == w.episode_steps) {
            tr.scoped("core.restart", root, it, [&] {
                in.sim.emplace(core::simulation::restart(initial, in.opt));
            });
            sim_step = 0;
            time = 0;
        }
        const long step = ++sim_step;
        amr::tree& tree = in.sim->grid();
        // simulation::advance(), call by call.
        hydro::step_options h;
        h.eos = opt.eos;
        h.bc = opt.bc;
        h.cfl = opt.cfl;
        h.omega = opt.omega;
        h.pool = opt.pool;
        h.aggregator = opt.aggregator;
        h.autotune = opt.autotune;
        h.machine = opt.machine;
        const int hspan = tr.open("hydro.step", root, it);
        if (opt.self_gravity) {
            h.before_stage = [&, hspan, it] {
                tr.scoped("fmm.solve", hspan, it,
                          [&] { gravity.solve(tree); });
            };
            h.gravity = [&](node_key k) -> std::optional<hydro::gravity_field> {
                const auto& g = gravity.gravity(k);
                return hydro::gravity_field{g.gx.data(),    g.gy.data(),
                                            g.gz.data(),    g.tq[0].data(),
                                            g.tq[1].data(), g.tq[2].data()};
            };
        }
        const double dt = hydro::step(tree, h);
        tr.close(hspan);
        time += dt;
        rec.dts.push_back(dt);
        if (w.lb_ranks > 0) {
            tr.scoped("amr.observe_step", root, it,
                      [&] { cost.observe_step(tree, parts); });
            if (w.lb_every > 0 && step % w.lb_every == 0) {
                const amr::rebalance_result r = tr.scoped(
                    "amr.rebalance", root, it, [&] {
                        return amr::rebalance_sfc(
                            tree, w.lb_ranks, cost.leaf_weights(tree),
                            {.max_migration_fraction =
                                 opt.lb.max_migration_fraction});
                    });
                parts = r.stats;
                if (it >= 2) {
                    rec.lb_migrated += static_cast<double>(r.migrations.size());
                    rec.lb_imbalance_pct = r.stats.imbalance_pct();
                }
            }
        }
        if (w.ckpt_every > 0 && step % w.ckpt_every == 0) {
            const std::string stem =
                dir->prefix(w.name) + "." + std::to_string(step);
            const io::checkpoint_meta meta{.time = time, .steps = step};
            const bool full = w.ckpt_full_every <= 1 || chain.empty() ||
                              ckpt_count % w.ckpt_full_every == 0;
            if (full) {
                const std::string path = stem + ".ckpt";
                tr.scoped("io.write_checkpoint", root, it,
                          [&] { io::write_checkpoint(tree, path, meta); });
                base_digests = tr.scoped("io.leaf_digests", root, it,
                                         [&] { return io::leaf_digests(tree); });
                chain = {path};
                rec.full_bytes.push_back(static_cast<double>(fs::file_size(path)));
            } else {
                const std::string path = stem + ".dckpt";
                const io::delta_stats ds =
                    tr.scoped("io.write_checkpoint_delta", root, it, [&] {
                        return io::write_checkpoint_delta(tree, path,
                                                          base_digests, meta);
                    });
                chain.resize(1);
                chain.push_back(path);
                rec.delta_bytes.push_back(static_cast<double>(ds.bytes));
                rec.dirty_frac.push_back(static_cast<double>(ds.dirty_leaves) /
                                         std::max<std::size_t>(ds.total_leaves, 1));
            }
            ++ckpt_count;
        }
        // The driver loop's own schedule, as in run_untraced.
        if (w.regrid_every > 0 && step % w.regrid_every == 0) {
            const char* name = refine_next ? "amr.regrid" : "amr.coarsen";
            tr.scoped(name, root, it, [&] {
                if (apply_regrid_schedule(in, w, step, refine_next) &&
                    w.lb_ranks > 0) {
                    // What simulation::regrid/coarsen do after a structural
                    // change when they own the balancer.
                    parts = amr::partition_sfc_weighted(tree, w.lb_ranks,
                                                        cost.leaf_weights(tree));
                }
            });
        }
        tr.close(root);
        if (dir) dir->prune(chain);
    }
    rec.steady_end = counters::read(in);
    rec.final_digests = io::leaf_digests(in.sim->grid());
    if (w.ckpt_every > 0) {
        check_readback(chain, in.sim->grid(), sim_step, o, &tr, iters + 2);
    }
    return rec;
}

struct args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool setup_only = false;
    std::string out = ".bench_build/out";
};

std::optional<args> parse(int argc, char** argv) {
    args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        try {
            if (k == "--workload") a.workload = v;
            else if (k == "--seed") a.seed = std::stoull(v);
            else if (k == "--seconds") a.seconds = std::stod(v);
            else if (k == "--trace") a.trace = std::stoi(v) != 0;
            else if (k == "--mode") {
                if (v != "run" && v != "setup") return std::nullopt;
                a.setup_only = v == "setup";
            } else if (k == "--out") a.out = v;
            else return std::nullopt;
        } catch (const std::exception&) {
            return std::nullopt;
        }
    }
    if (argc % 2 == 0 || a.workload.empty() || !(a.seconds > 0)) return std::nullopt;
    return a;
}

} // namespace

int main(int argc, char** argv) {
    const std::optional<args> a = parse(argc, argv);
    if (!a) {
        std::fprintf(stderr,
                     "usage: stepbench --workload NAME [--seed N] [--seconds S]"
                     " [--trace 0|1] [--mode run|setup] [--out DIR]\n");
        return 2;
    }
    const std::optional<workload> w = find_workload(a->workload);
    if (!w) {
        std::fprintf(stderr, "stepbench: unknown workload '%s'\n",
                     a->workload.c_str());
        return 2;
    }
    const fs::path out = a->out;
    fs::create_directories(out);
    ops o;
    json_object res;
    res.str("workload", w->name).integer("seed", static_cast<long long>(a->seed));
    res.integer("threads", rt::thread_pool::global().size());

    // With tracing, the untraced loop gets half the time: the replay of the
    // same iterations takes about as long again.
    const double untraced_seconds = a->trace ? a->seconds / 2 : a->seconds;
    loop_record u;
    try {
        u = run_untraced(*w, a->seed, untraced_seconds, out, o, a->setup_only);
    } catch (const std::exception& e) {
        o.fail(std::string("set-up threw: ") + e.what());
    }
    res.num("build_s", u.build_s).num("first_step_s", u.first_step_s);
    res.integer("tree_nodes", static_cast<long long>(u.nodes));
    res.integer("tree_leaves", static_cast<long long>(u.leaf_count));
    res.integer("setup_recycler_misses",
                static_cast<long long>(u.setup_recycler_misses));
    if (!a->setup_only) {
        res.nums("iter_s", u.iter_s).nums("iter_leaves", u.leaves);
        res.num("max_p_drift", u.max_p_drift).num("max_lz_drift", u.max_lz_drift);
        res.integer("ckpt_writes", u.ckpt_writes);
        res.num("peak_rss_mb", u.peak_rss_mb);
    }

    if (a->trace && !a->setup_only && o.failed == 0) {
        tracer tr;
        const long iters = static_cast<long>(u.iter_s.size());
        replay_record r;
        ++o.attempted; // the replay's bit-identity is an operation too
        try {
            r = run_traced(*w, a->seed, iters, out, tr, o);
            if (r.dts != u.dts) {
                o.fail("traced replay took a different dt sequence");
            } else if (r.final_digests != u.final_digests) {
                o.fail("traced replay ended with different leaf digests");
            }
        } catch (const std::exception& e) {
            o.fail(std::string("traced replay threw: ") + e.what());
        }
        const std::string trace_path =
            (out / ("trace-" + w->name + "-" + std::to_string(a->seed) + ".json"))
                .string();
        tr.write_chrome_json(
            trace_path, json_object().str("workload", w->name)
                            .integer("seed", static_cast<long long>(a->seed))
                            .str());
        const counters& b = r.steady_begin;
        const counters& e = r.steady_end;
        const flop_totals& fb = b.all;
        const flop_totals& fe = e.all;
        json_object t;
        t.str("trace_file", trace_path)
            .num("fmm_flops", static_cast<double>(e.fmm_flops - b.fmm_flops))
            .num("launches", static_cast<double>(fe.launches() - fb.launches()))
            .num("gpu_launches",
                 static_cast<double>(fe.gpu_launches - fb.gpu_launches))
            .num("stage_tasks", static_cast<double>(e.stage_tasks - b.stage_tasks))
            .num("halo_plan_rebuilds",
                 static_cast<double>(e.plan_rebuilds - b.plan_rebuilds))
            .num("halo_plan_hits", static_cast<double>(e.plan_hits - b.plan_hits))
            .num("pool_tasks", static_cast<double>(e.pool.tasks_executed -
                                                   b.pool.tasks_executed))
            .num("pool_stolen",
                 static_cast<double>(e.pool.tasks_stolen - b.pool.tasks_stolen))
            .num("recycler_hits", static_cast<double>(e.rec.hits - b.rec.hits))
            .num("recycler_misses",
                 static_cast<double>(e.rec.misses - b.rec.misses))
            .num("gpu_submitted",
                 static_cast<double>(e.agg.submitted - b.agg.submitted))
            .num("gpu_rejected", static_cast<double>(e.agg.rejected - b.agg.rejected))
            .num("gpu_items", static_cast<double>(e.agg.aggregated_items -
                                                  b.agg.aggregated_items))
            .num("gpu_fused_launches",
                 static_cast<double>(e.agg.fused_launches - b.agg.fused_launches))
            .num("gpu_cpu_batches",
                 static_cast<double>(e.agg.cpu_batches - b.agg.cpu_batches))
            .num("lb_migrated", r.lb_migrated)
            .num("lb_imbalance_pct", r.lb_imbalance_pct)
            .nums("full_bytes", r.full_bytes)
            .nums("delta_bytes", r.delta_bytes)
            .nums("dirty_frac", r.dirty_frac)
            .num("host_peak_gflops", host_peak_gflops());
        res.raw("traced", t.str());
    }

    res.integer("attempted", o.attempted).integer("failed", o.failed);
    res.strs("failures", o.failures);
    std::printf("%s\n", res.str().c_str());
    return o.failed == 0 ? 0 : 1;
}

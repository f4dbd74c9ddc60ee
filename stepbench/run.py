#!/usr/bin/env python3
"""Coupled-step benchmark: builds stepbench from this checkout, runs one
workload (or `all`), checks the physics, and prints the metrics.

    python3 stepbench/run.py --workload blob_gravity --seed 1 --seconds 30 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 its per-layer metrics (from a traced replay whose
spans are written as Chrome trace-event JSON under .bench_build/out). Any
correctness failure makes the exit code nonzero.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import metrics as mx  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "stepbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD_DIR, "stepbench")

WORKLOADS = ("blob_gravity", "blob_hydro_regrid", "v1309_offload")
# Set-up samples per run, each in a fresh process so each one is cold.
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "step_s_p50": "s",
    "step_s_tail": "s",
    "subgrids_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "fmm.solve_s": "s",
    "fmm.solves": "count",
    "fmm.share": "ratio",
    "kernel.fmm_flops": "count",
    "kernel.fmm_gflops": "GFLOP/s",
    "kernel.host_peak_gflops": "GFLOP/s",
    "kernel.fmm_peak_frac": "ratio",
    "hydro.self_s": "s",
    "hydro.stage_tasks": "count",
    "hydro.share": "ratio",
    "amr.regrid_s": "s",
    "amr.coarsen_s": "s",
    "amr.halo_plan_rebuilds": "count",
    "amr.halo_plan_hits": "count",
    "amr.lb_s": "s",
    "amr.lb_migrated": "count",
    "amr.lb_imbalance_pct": "%",
    "amr.share": "ratio",
    "io.full_write_s": "s",
    "io.full_bytes": "bytes",
    "io.delta_write_s": "s",
    "io.delta_bytes": "bytes",
    "io.delta_dirty_frac": "ratio",
    "io.restart_s": "s",
    "io.share": "ratio",
    "gpu.items": "count",
    "gpu.fused_launches": "count",
    "gpu.mean_batch": "count",
    "gpu.rejected_frac": "ratio",
    "gpu.launch_frac": "ratio",
    "runtime.tasks": "count",
    "runtime.steal_frac": "ratio",
    "support.recycler_hits": "count",
    "support.recycler_misses": "count",
    "support.setup_recycler_misses": "count",
    "core.build_s": "s",
    "core.first_step_s": "s",
    "core.restart_s": "s",
    "core.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

# The traced run's span budget: unattributed iteration time above this share
# means a layer call is missing from the replay.
MAX_UNATTRIBUTED = 0.05


class BenchError(Exception):
    """The benchmark itself could not run (build, crash, bad output)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError("cmake configure failed")
    r = subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "stepbench",
                        "-j", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError("build failed")


def stepbench(args):
    """Run the binary; return (exit code, its JSON result)."""
    try:
        r = subprocess.run([BINARY, *args, "--out", OUT_DIR],
                           stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError("stepbench timed out: %s" % " ".join(args)) from e
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        raise BenchError("stepbench exited %d: %s" % (r.returncode, " ".join(args)))
    return r.returncode, json.loads(lines[-1])


def declared_metrics(key):
    """{name: unit} that BENCHMARK.json declares under `key`, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return {m["name"]: m["unit"] for m in json.load(f)[key]}
    except (OSError, ValueError, KeyError):
        return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds):
    code, res = stepbench(["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"])
    setups = [res["build_s"] + res["first_step_s"]]
    for _ in range(SETUP_SAMPLES - 1):
        _, s = stepbench(["--workload", workload, "--seed", str(seed),
                          "--mode", "setup"])
        setups.append(s["build_s"] + s["first_step_s"])
    it = res["iter_s"]
    attempted, failed = res["attempted"], res["failed"]
    if not it:
        raise BenchError("no timed iterations")
    tail, pct, beyond = mx.tail_percentile(it)
    out = {
        "setup_s": mx.median(setups),
        "step_s_p50": mx.median(it),
        "step_s_tail": tail,
        "subgrids_per_s": sum(res["iter_leaves"]) / sum(it),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    log("%s seed %d: tree %d nodes / %d leaves, %d pool workers, %d timed "
        "iterations, step_s_tail is p%.1f with %d samples beyond it, setup "
        "samples %s" % (workload, seed, res["tree_nodes"], res["tree_leaves"],
                        res["threads"], len(it), pct, beyond,
                        ", ".join("%.3f" % s for s in setups)))
    log("ledger drift: momentum %.2e, Lz %.2e; checkpoint writes %d"
        % (res["max_p_drift"], res["max_lz_drift"], res["ckpt_writes"]))
    return code, attempted, failed, res["failures"], \
        {k: metric(v, END_TO_END[k]) for k, v in out.items()}


def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [{"id": e["args"]["id"], "parent": e["args"]["parent"],
             "step": e["args"]["step"], "name": e["name"],
             "start": e["ts"] * 1e-6, "end": (e["ts"] + e["dur"]) * 1e-6}
            for e in events]


def per_layer(workload, seed, seconds):
    code, res = stepbench(["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "1"])
    attempted, failed = res["attempted"], res["failed"]
    failures = list(res["failures"])
    t = res.get("traced")
    if t is None:
        raise BenchError("no traced run: %s" % "; ".join(failures))
    spans = load_spans(t["trace_file"])
    selfs = mx.self_times(spans)
    roots = [sp for sp in spans
             if sp["name"] == "core.iteration" and sp["step"] >= 2]
    n = len(roots)
    if n == 0:
        raise BenchError("no steady traced iterations")

    # Trace sanity: every steady iteration's layer self times plus its
    # unattributed remainder add up to the iteration.
    attempted += 1
    if not all(mx.reconciles(spans, r["id"], selfs) for r in roots):
        failed += 1
        failures.append("layer self times do not reconcile to the iteration")
    steady = [sp for r in roots for sp in mx.subtree(spans, r["id"])]
    iter_total = sum(r["end"] - r["start"] for r in roots)

    def total(name):
        return sum(selfs[sp["id"]] for sp in steady if sp["name"] == name)

    def count(name):
        return sum(1 for sp in steady if sp["name"] == name)

    def layer_share(layer):
        return sum(selfs[sp["id"]] for sp in steady
                   if mx.layer_of(sp["name"]) == layer) / iter_total

    def per_write(names, count_name):  # mean seconds per occurrence
        c = count(count_name)
        return sum(total(nm) for nm in names) / c if c else 0.0

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    unattributed = total("core.iteration") / iter_total
    attempted += 1
    if unattributed > MAX_UNATTRIBUTED:
        failed += 1
        failures.append("unattributed share %.3f above %.2f"
                        % (unattributed, MAX_UNATTRIBUTED))
    fmm_s = total("fmm.solve")
    gflops = ratio(t["fmm_flops"], fmm_s) / 1e9
    readbacks = [sp for sp in spans if sp["name"] == "io.read_checkpoint_chain"]
    build_span = next(sp for sp in spans if sp["name"] == "core.build")
    traced_iters = [r["end"] - r["start"] for r in roots]
    out = {
        "fmm.solve_s": fmm_s / n,
        "fmm.solves": count("fmm.solve") / n,
        "fmm.share": layer_share("fmm"),
        "kernel.fmm_flops": t["fmm_flops"] / n,
        "kernel.fmm_gflops": gflops,
        "kernel.host_peak_gflops": t["host_peak_gflops"],
        "kernel.fmm_peak_frac": ratio(gflops, t["host_peak_gflops"]),
        "hydro.self_s": total("hydro.step") / n,
        "hydro.stage_tasks": t["stage_tasks"] / n,
        "hydro.share": layer_share("hydro"),
        "amr.regrid_s": total("amr.regrid") / n,
        "amr.coarsen_s": total("amr.coarsen") / n,
        "amr.halo_plan_rebuilds": t["halo_plan_rebuilds"] / n,
        "amr.halo_plan_hits": t["halo_plan_hits"] / n,
        "amr.lb_s": (total("amr.observe_step") + total("amr.rebalance")) / n,
        "amr.lb_migrated": t["lb_migrated"] / n,
        "amr.lb_imbalance_pct": t["lb_imbalance_pct"],
        "amr.share": layer_share("amr"),
        "io.full_write_s": per_write(("io.write_checkpoint", "io.leaf_digests"),
                                     "io.write_checkpoint"),
        "io.full_bytes": mean(t["full_bytes"]),
        "io.delta_write_s": per_write(("io.write_checkpoint_delta",),
                                      "io.write_checkpoint_delta"),
        "io.delta_bytes": mean(t["delta_bytes"]),
        "io.delta_dirty_frac": mean(t["dirty_frac"]),
        "io.restart_s": mean([sp["end"] - sp["start"] for sp in readbacks]),
        "io.share": layer_share("io"),
        "gpu.items": t["gpu_items"] / n,
        "gpu.fused_launches": t["gpu_fused_launches"] / n,
        "gpu.mean_batch": ratio(t["gpu_items"],
                                t["gpu_fused_launches"] + t["gpu_cpu_batches"]),
        "gpu.rejected_frac": ratio(t["gpu_rejected"],
                                   t["gpu_submitted"] + t["gpu_rejected"]),
        "gpu.launch_frac": ratio(t["gpu_launches"], t["launches"]),
        "runtime.tasks": t["pool_tasks"] / n,
        "runtime.steal_frac": ratio(t["pool_stolen"], t["pool_tasks"]),
        "support.recycler_hits": t["recycler_hits"] / n,
        "support.recycler_misses": t["recycler_misses"] / n,
        "support.setup_recycler_misses": res["setup_recycler_misses"],
        "core.build_s": res["build_s"],
        "core.first_step_s": res["first_step_s"],
        "core.restart_s": per_write(("core.restart",), "core.restart"),
        "core.unattributed_frac": unattributed,
        "trace.overhead_frac": mx.median(traced_iters) / mx.median(res["iter_s"]),
    }
    log("%s seed %d: %d traced iterations, trace %s; traced build %.3f s"
        % (workload, seed, n, t["trace_file"],
           build_span["end"] - build_span["start"]))
    log("layer shares: " + ", ".join(
        "%s %.3f" % (k, out[k + ".share"]) for k in ("fmm", "hydro", "amr", "io"))
        + ", unattributed %.4f" % unattributed)
    return code, attempted, failed, failures, \
        {k: metric(v, PER_LAYER[k]) for k, v in out.items()}


def run_one(workload, seed, seconds, trace):
    measure = per_layer if trace else end_to_end
    code, attempted, failed, failures, ms = measure(workload, seed, seconds)
    for f in failures:
        log("FAIL: " + f)
    log("fail_frac %.4g (%d failed of %d operations)"
        % (failed / attempted, failed, attempted))
    declared = declared_metrics("per_layer" if trace else "end_to_end")
    problems = mx.check_metric_names(ms, declared if declared is not None else
                                     {k: v["unit"] for k, v in ms.items()})
    if problems:
        raise BenchError("; ".join(problems))
    correct = failed == 0 and code == 0
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": ms}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seconds <= 0 or a.seed < 0:
        p.error("--seconds must be positive and --seed non-negative")
    try:
        build()
        names = WORKLOADS if a.workload == "all" else (a.workload,)
        results = {w: run_one(w, a.seed, a.seconds, a.trace) for w in names}
    except BenchError as e:
        log("stepbench: %s" % e)
        return 3
    for w, r in results.items():
        log("%s: " % w + ", ".join("%s %.6g %s" % (k, m["value"], m["unit"])
                                   for k, m in r["metrics"].items()))
    if a.workload == "all":
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s.%s" % (w, k): m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    else:
        final = results[a.workload]
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

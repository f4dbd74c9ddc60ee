"""The six futurization lint rules, re-hosted on the shared source model.

Semantics are identical to the original stand-alone regex pass — same
patterns, same messages, same path gating — but they run over the TU's
stripped text/statement stream from cxx.py, and suppression handling lives
in the driver (which also detects stale allows).
"""

import os
import re

from cxx import statements

DROP_STARTERS = re.compile(
    r"^\s*(?:octo::)?(?:rt::)?(?:async|when_all)\s*\("
)
THEN_CHAIN = re.compile(r"\)\s*\.\s*then\s*\(")
SAFE_PREFIX = re.compile(
    r"^\s*(?:return\b|co_return\b|\(void\)|\[\[|(?:octo::)?(?:rt::)?detach\s*\()"
)
HAS_ASSIGN = re.compile(r"^[^(]*(?:[^=!<>]=[^=]|\breturn\b)")
CONSUMED = re.compile(r"\.\s*(?:get|wait)\s*\(\s*\)\s*;?\s*$")

RAW_ALLOC = re.compile(
    r"\bnew\s+[\w:<>,\s]+\[|\b(?:malloc|calloc|realloc)\s*\(|::operator\s+new\b"
)
RELAXED_PUBLISH = re.compile(
    r"\.\s*(?:store|exchange)\s*\([^;]*memory_order_relaxed"
)
DIRECT_STREAM_ACQUIRE = re.compile(r"\btry_acquire_stream\s*\(")
# The kernel names the portable layer (src/kernel) replaced. The trailing
# [(< keeps workload fields like mono_kernel_flops out of the match.
BACKEND_VARIANT = re.compile(
    r"\b(?:monopole_kernel|multipole_kernel"
    r"|compute_leaf_fluxes_simd|compute_leaf_fluxes_scalar"
    r"|flux_divergence_simd|flux_divergence_scalar"
    r"|blend_simd|blend_scalar"
    r"|dual_energy_simd|dual_energy_scalar"
    r"|leaf_max_wave_speed_simd|leaf_max_wave_speed_scalar)\s*[(<]"
)

NODISCARD_REQUIRED = [
    ("src/runtime/future.hpp", r"class\s+\[\[nodiscard\]\]\s+future",
     "class future must be declared class [[nodiscard]] future"),
    ("src/runtime/future.hpp", r"\[\[nodiscard\]\][^;{]{0,120}?\bwhen_all\s*\(",
     "when_all must be [[nodiscard]]"),
    ("src/runtime/channel.hpp", r"\[\[nodiscard\]\]\s+future<T>\s+get",
     "channel::get must be [[nodiscard]]"),
    ("src/runtime/channel.hpp", r"\[\[nodiscard\]\]\s+future<T>\s+recv",
     "channel::recv must be [[nodiscard]]"),
    ("src/runtime/latch.hpp", r"\[\[nodiscard\]\]\s+future<void>\s+done_future",
     "latch::done_future must be [[nodiscard]]"),
    ("src/hydro/update.hpp", r"\[\[nodiscard\]\]\s+double\s+step",
     "hydro::step must be [[nodiscard]] (the dt is the step's only output)"),
    ("src/hydro/update.hpp", r"\[\[nodiscard\]\]\s+double\s+cfl_timestep",
     "hydro::cfl_timestep must be [[nodiscard]]"),
]


def check_dropped_futures(tu, findings):
    for start_line, stmt in statements(tu.legacy_clean):
        body = stmt.strip()
        if not body.endswith(";"):
            continue
        if SAFE_PREFIX.match(body):
            continue
        minted = bool(DROP_STARTERS.match(body)) or bool(THEN_CHAIN.search(body))
        if not minted:
            continue
        # Assignments ("auto f = when_all(...)"), returns and consumed chains
        # keep the future alive; only a bare expression statement drops it.
        if HAS_ASSIGN.match(body):
            continue
        if CONSUMED.search(body):
            continue
        findings.append(
            (tu.rel, start_line, "dropped-future",
             "future-minting expression statement is discarded; "
             "assign it, .get()/.wait() it, or wrap in rt::detach(...)")
        )


def check_raw_allocs(tu, findings):
    for idx, line in enumerate(tu.legacy_clean.splitlines(), start=1):
        if RAW_ALLOC.search(line):
            findings.append(
                (tu.rel, idx, "raw-hot-alloc",
                 "raw allocation in an FMM/hydro hot path; route it "
                 "through octo::buffer_recycler")
            )


def check_relaxed_publish(tu, findings):
    # Join continuation lines so a call split across lines is still seen.
    joined = tu.legacy_clean.splitlines()
    for idx, line in enumerate(joined, start=1):
        window = line
        if idx < len(joined):
            window += " " + joined[idx]
        m = RELAXED_PUBLISH.search(window)
        if m and m.start() < len(line):
            findings.append(
                (tu.rel, idx, "relaxed-publish",
                 "relaxed store/exchange cannot publish data to another "
                 "thread; use release ordering or take a lock")
            )


def check_direct_stream_acquire(tu, findings):
    for idx, line in enumerate(tu.legacy_clean.splitlines(), start=1):
        if DIRECT_STREAM_ACQUIRE.search(line):
            findings.append(
                (tu.rel, idx, "direct-stream-acquire",
                 "direct device::try_acquire_stream() outside src/gpu; "
                 "submit a gpu::work_item through gpu::aggregator instead "
                 "(one launch point, batched occupancy, shared fallback "
                 "policy)")
            )


def check_backend_variant(tu, findings):
    for idx, line in enumerate(tu.legacy_clean.splitlines(), start=1):
        if BACKEND_VARIANT.search(line):
            findings.append(
                (tu.rel, idx, "backend-variant",
                 "backend-specific kernel variant outside src/kernel; the "
                 "portable layer has ONE body per kernel — dispatch through "
                 "kernel::run_*")
            )


def check_nodiscard(root, findings):
    """Whole-repo API-surface check; only meaningful for roots that actually
    contain the runtime (the driver gates on src/runtime/future.hpp)."""
    for rel, pattern, msg in NODISCARD_REQUIRED:
        path = os.path.join(root, rel)
        try:
            text = open(path, encoding="utf-8").read()
        except OSError:
            findings.append((rel, 1, "nodiscard", "missing file: " + msg))
            continue
        if not re.search(pattern, text, re.S):
            findings.append((rel, 1, "nodiscard", msg))


def run(tu, findings):
    """Run the per-file legacy rules with the historical path gating."""
    rel = tu.rel.replace(os.sep, "/")
    check_dropped_futures(tu, findings)
    if rel.startswith(("src/fmm", "src/hydro", "src/kernel")):
        check_raw_allocs(tu, findings)
    if rel.startswith("src/"):
        check_relaxed_publish(tu, findings)
    if not rel.startswith("src/gpu"):
        check_direct_stream_acquire(tu, findings)
    if not rel.startswith("src/kernel"):
        check_backend_variant(tu, findings)

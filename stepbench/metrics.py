"""Pure helpers of the coupled-step benchmark: percentiles, span self times,
layer attribution and metric-name checks. No I/O; run.py does that."""

import re

# BENCHMARK.json's naming rules for metric names and units.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def median(values):
    """Median of a non-empty sequence."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def tail_percentile(values, min_beyond=10):
    """The highest percentile of `values` that still has at least
    `min_beyond` samples above it.

    Returns (value, percentile, samples_beyond). The percentile is the share
    of samples at or below the returned one. With `min_beyond` or fewer
    samples no percentile qualifies; the maximum is returned with 0 samples
    beyond it, so callers can see that the tail is unresolved.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= min_beyond:
        return s[-1], 100.0, 0
    idx = n - 1 - min_beyond
    return s[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, end = 0.0, lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def children_of(spans):
    """{parent id: [its child spans]}."""
    children = {}
    for sp in spans:
        children.setdefault(sp["parent"], []).append(sp)
    return children


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover (children may overlap each other and run on
    other threads). `spans` is a list of dicts with id, parent, start, end;
    returns {id: self_time}."""
    children = children_of(spans)
    out = {}
    for sp in spans:
        kids = children.get(sp["id"], [])
        cov = covered_length([(k["start"], k["end"]) for k in kids],
                             sp["start"], sp["end"])
        out[sp["id"]] = (sp["end"] - sp["start"]) - cov
    return out


def layer_of(name):
    """Layer of a span name '<layer>.<call>'."""
    return name.split(".", 1)[0]


def subtree(spans, root_id):
    """Every span under `root_id`, the root included."""
    children = children_of(spans)
    by_id = {sp["id"]: sp for sp in spans}
    out, todo = [], [root_id]
    while todo:
        sid = todo.pop()
        out.append(by_id[sid])
        todo.extend(k["id"] for k in children.get(sid, []))
    return out


def reconciles(spans, root_id, selfs, rel_tol=1e-6):
    """True when the self times of a root span's subtree add up to the
    root's duration, which holds exactly when every child lies inside its
    parent and siblings never overlap."""
    root = next(sp for sp in spans if sp["id"] == root_id)
    total = sum(selfs[sp["id"]] for sp in subtree(spans, root_id))
    dur = root["end"] - root["start"]
    return abs(total - dur) <= rel_tol * max(dur, 1e-12)


def check_metric_names(metrics, declared):
    """Problems with emitted metrics: a name or unit breaking the naming
    rules, or a set of names that differs from `declared` ({name: unit})."""
    problems = []
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            problems.append("bad metric name %r" % name)
        if not UNIT_RE.match(m["unit"]):
            problems.append("bad unit %r for %s" % (m["unit"], name))
        if name in declared and declared[name] != m["unit"]:
            problems.append("%s: unit %r, declared %r"
                            % (name, m["unit"], declared[name]))
    for name in sorted(set(declared) - set(metrics)):
        problems.append("declared metric %s not emitted" % name)
    for name in sorted(set(metrics) - set(declared)):
        problems.append("metric %s not declared" % name)
    return problems

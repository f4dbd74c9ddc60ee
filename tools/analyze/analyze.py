#!/usr/bin/env python3
"""octo-analyze: scope-aware static analysis for the octo-sim tree.

Runs ten rules over src/, examples/ and bench/ on a shared C++ source model
(comment/string stripping, brace/scope tree, lambda-launch detection, per-TU
symbol tables — see cxx.py / symbols.py):

  futurization lint tier (the original regex rules, rules_legacy.py):
    dropped-future, raw-hot-alloc, relaxed-publish, nodiscard,
    direct-stream-acquire, backend-variant

  futurization deadlocks (rules_tasks.py):
    blocking-in-task     .get()/.wait()/pool-quiescence inside a pool task
    lock-across-wait     a lock scope enclosing a blocking wait

  distribution correctness (rules_dist.py):
    serialization-coverage   struct members a serializer never touches
    nondet-iteration         unordered iteration feeding FP accumulation or
                             parcel emission (bit-identity hazard)

Suppressions: `// lint: allow(<rule>): <reason>` on the finding's line or
the line above. The reason is mandatory, an allow naming an unknown rule is
an error, and a stale allow (one that no longer suppresses anything) is an
error — suppression debt cannot rot.

Usage: tools/analyze/analyze.py [repo-root] [--json FILE]
Exits 1 on findings.
"""

import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import rules_dist
import rules_legacy
import rules_tasks
from symbols import TU

RULES = {
    "dropped-future": "future-minting expression statement discarded",
    "raw-hot-alloc": "raw allocation in an FMM/hydro hot path",
    "relaxed-publish": "relaxed store/exchange used as a publish",
    "nodiscard": "future/dt-returning entry point lacks [[nodiscard]]",
    "direct-stream-acquire": "GPU stream grabbed outside the aggregator",
    "backend-variant": "backend-specific kernel variant outside src/kernel",
    "blocking-in-task": "blocking wait inside a pool task",
    "lock-across-wait": "lock held across a blocking wait",
    "serialization-coverage": "struct member never serialized",
    "nondet-iteration": "unordered iteration feeding order-sensitive state",
}

_ALLOW = re.compile(r"//\s*lint:\s*allow\(([^)]*)\)\s*:?\s*(.*)")


class Allow:
    __slots__ = ("line", "rule", "reason", "used", "claimed")

    def __init__(self, line, rule, reason):
        self.line = line
        self.rule = rule.strip()
        self.reason = reason.strip()
        self.used = False
        self.claimed = None  # the one finding line this allow suppresses


def collect_allows(raw_lines):
    allows = []
    for idx, line in enumerate(raw_lines, start=1):
        m = _ALLOW.search(line)
        if m:
            allows.append(Allow(idx, m.group(1), m.group(2)))
    return allows


def iter_sources(root, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _dirnames, filenames in os.walk(base):
            for f in sorted(filenames):
                if f.endswith((".hpp", ".cpp", ".h", ".cc", ".cu")):
                    yield os.path.join(dirpath, f)


def analyze_tree(root):
    """Returns (findings, n_files): the post-suppression finding list
    [(rel, line, rule, msg)] including meta-findings about the suppression
    comments themselves."""
    tus = []
    for path in iter_sources(root, ["src", "examples", "bench"]):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        text = open(path, encoding="utf-8").read()
        tus.append(TU(path, rel, text))

    # Project-wide struct index; a name defined twice is ambiguous and
    # resolves to nothing (rules must not guess).
    struct_index = {}
    ambiguous = set()
    for tu in tus:
        for name, info in tu.structs.items():
            if name in struct_index:
                ambiguous.add(name)
            else:
                struct_index[name] = info
    for name in ambiguous:
        struct_index[name] = None

    raw = []
    for tu in tus:
        rules_legacy.run(tu, raw)
        rules_tasks.run(tu, struct_index, raw)
        rules_dist.run(tu, struct_index, raw)
    if os.path.exists(os.path.join(root, "src/runtime/future.hpp")):
        rules_legacy.check_nodiscard(root, raw)

    # Suppression pass: an allow matches a finding of its rule on the same
    # line or the line below (i.e. the allow sits on the line or the line
    # above the finding — the historical contract).
    allows = {}  # rel -> [Allow]
    for tu in tus:
        allows[tu.rel] = collect_allows(tu.raw_lines)

    findings = []
    for rel, line, rule, msg in raw:
        # An allow suppresses findings of its rule on its own line or the
        # line below — but only at ONE line (multiple findings on that line
        # are all covered), so a stack of per-line allows can't let one
        # comment absorb its neighbour's finding.
        candidates = [a for a in allows.get(rel, ())
                      if a.rule == rule and a.line in (line, line - 1)
                      and a.claimed in (None, line)]
        candidates.sort(key=lambda a: (a.claimed != line, line - a.line))
        hit = candidates[0] if candidates else None
        if hit:
            hit.used = True
            hit.claimed = line
            continue
        findings.append((rel, line, rule, msg))

    for rel, file_allows in allows.items():
        for a in file_allows:
            if a.used and not a.reason:
                findings.append(
                    (rel, a.line, "suppression-missing-reason",
                     f"allow({a.rule}) has no reason; write "
                     f"`// lint: allow({a.rule}): <why this is safe>`"))

    # Meta: unknown rules and stale allows are errors in their own right.
    for rel, file_allows in allows.items():
        for a in file_allows:
            if a.rule not in RULES:
                findings.append(
                    (rel, a.line, "unknown-rule",
                     f"allow names unknown rule '{a.rule}'; known rules: "
                     + ", ".join(sorted(RULES))))
            elif not a.used:
                findings.append(
                    (rel, a.line, "stale-suppression",
                     f"allow({a.rule}) no longer suppresses any finding; "
                     "delete it so suppression debt cannot rot"))

    findings.sort(key=lambda f: (f[0], f[1], f[2]))
    return findings, len(tus)


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    root = os.path.abspath(args[0] if args else ".")
    json_path = None
    if "--json" in argv:
        json_path = argv[argv.index("--json") + 1]

    findings, n_files = analyze_tree(root)

    if json_path:
        payload = {
            "root": root,
            "files": n_files,
            "rules": RULES,
            "findings": [
                {"file": rel, "line": line, "rule": rule, "message": msg}
                for rel, line, rule, msg in findings
            ],
        }
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    for rel, line, rule, msg in findings:
        print(f"{rel}:{line}: [{rule}] {msg}")
    if findings:
        print(f"\nanalyze: {len(findings)} violation(s) in {n_files} files")
        return 1
    print(f"analyze: clean ({n_files} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

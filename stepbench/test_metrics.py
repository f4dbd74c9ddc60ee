"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s stepbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics as mx  # noqa: E402
import run  # noqa: E402


def span(sid, parent, start, end, name="x.y"):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "name": name}


class TailPercentile(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        values = list(range(100, 0, -1))  # input order must not matter
        value, pct, beyond = mx.tail_percentile(values)
        self.assertEqual(value, 90)
        self.assertEqual(pct, 90.0)
        self.assertEqual(beyond, 10)

    def test_small_sample_count(self):
        value, pct, beyond = mx.tail_percentile([5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11])
        self.assertEqual((value, beyond), (1, 10))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_unresolved_tail_reports_the_maximum(self):
        self.assertEqual(mx.tail_percentile([3, 1, 2]), (3, 100.0, 0))

    def test_median(self):
        self.assertEqual(mx.median([3, 1, 2]), 2)
        self.assertEqual(mx.median([4, 1, 2, 3]), 2.5)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # root [0,10] > a [1,4] > b [2,3]; root > c [5,9]
        spans = [span(0, -1, 0, 10), span(1, 0, 1, 4), span(2, 1, 2, 3),
                 span(3, 0, 5, 9)]
        selfs = mx.self_times(spans)
        self.assertEqual(selfs, {0: 3, 1: 2, 2: 1, 3: 4})
        self.assertTrue(mx.reconciles(spans, 0, selfs))

    def test_overlapping_children_count_once(self):
        # Two gravity solves on worker threads overlapping each other.
        spans = [span(0, -1, 0, 10), span(1, 0, 2, 6), span(2, 0, 4, 8)]
        self.assertEqual(mx.self_times(spans)[0], 4)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, -1, 0, 10), span(1, 0, 8, 12)]
        self.assertEqual(mx.self_times(spans)[0], 8)

    def test_overlap_breaks_reconciliation(self):
        spans = [span(0, -1, 0, 10), span(1, 0, 2, 6), span(2, 0, 4, 8)]
        self.assertFalse(mx.reconciles(spans, 0, mx.self_times(spans)))

    def test_layer_of(self):
        self.assertEqual(mx.layer_of("io.write_checkpoint_delta"), "io")


class MetricNames(unittest.TestCase):
    def test_valid_names_pass(self):
        ms = {"fmm.solve_s": {"value": 1.0, "unit": "s"}}
        self.assertEqual(mx.check_metric_names(ms, {"fmm.solve_s": "s"}), [])

    def test_rules(self):
        ms = {"_bad": {"value": 1, "unit": "s"},
              "ok": {"value": 1, "unit": "per second"}}
        problems = mx.check_metric_names(ms, {"_bad": "s", "ok": "per second"})
        self.assertEqual(len(problems), 2)

    def test_declared_set_and_units_must_match(self):
        ms = {"a": {"value": 1, "unit": "s"}, "b": {"value": 1, "unit": "ms"}}
        problems = mx.check_metric_names(ms, {"b": "s", "c": "s"})
        self.assertEqual(len(problems), 3)  # b's unit, c missing, a undeclared

    def test_benchmark_json_matches_run_py(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        for key, emitted in (("end_to_end", run.END_TO_END),
                             ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in bench[key]}
            fake = {k: {"value": 1.0, "unit": u} for k, u in emitted.items()}
            self.assertEqual(mx.check_metric_names(fake, declared), [], key)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""The benchmark's own tests: metric names, span arithmetic, output checks,
and a smoke-size run of every workload through the real driver.

    python3 perfbench/test_perfbench.py

The smoke runs build perfbench_driver first (as run.py does), so the first
invocation in a fresh checkout takes a couple of minutes.
"""

import contextlib
import io
import json
import os
import re
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# BENCHMARK.json's rule for metric names.
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def span(sid, name, start, end, parent=-1, iteration=0):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "iteration": iteration, "counts": {}}


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed(self):
        for name in list(run.END_TO_END) + list(run.PER_LAYER) + list(run.UNGATED):
            self.assertRegex(name, NAME)
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")

    def test_units_are_well_formed(self):
        units = list(run.END_TO_END.values()) + list(run.PER_LAYER.values())
        for unit in units + list(run.UNGATED.values()):
            self.assertRegex(unit, r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_every_workload_records_one_digest_per_instance(self):
        with open(run.EXPECTED, encoding="utf-8") as f:
            table = json.load(f)
        for size in ("full", "smoke"):
            for workload in run.WORKLOADS:
                with self.subTest(size=size, workload=workload):
                    entry = table[size][workload]
                    self.assertGreaterEqual(entry["instances"], 1)
                    self.assertEqual(len(entry["digests"]), entry["instances"])


class SpanArithmetic(unittest.TestCase):
    def test_covered_merges_overlaps(self):
        self.assertAlmostEqual(run.covered([(1, 3), (2, 5), (7, 8)]), 5.0)
        self.assertAlmostEqual(run.covered([(0, 1), (1, 2)]), 2.0)
        self.assertEqual(run.covered([]), 0.0)

    def test_self_time_subtracts_children_once(self):
        spans = [
            span(0, "root", 0.0, 10.0),
            span(1, "a", 1.0, 3.0, parent=0),
            span(2, "b", 2.0, 5.0, parent=0),   # overlaps a: counted once
            span(3, "c", 8.0, 12.0, parent=0),  # runs past root: clipped
            span(4, "leaf", 1.5, 2.5, parent=1),
        ]
        st = run.self_times(spans)
        self.assertAlmostEqual(st[0], 10.0 - (4.0 + 2.0))
        self.assertAlmostEqual(st[1], 2.0 - 1.0)  # only its own child
        self.assertAlmostEqual(st[2], 3.0)
        self.assertAlmostEqual(st[3], 4.0)
        self.assertAlmostEqual(st[4], 1.0)

    def test_self_time_by_name_sums_then_takes_the_median(self):
        spans = []
        for it, tick in enumerate((1.0, 2.0, 9.0)):
            base = 100.0 * it
            spans += [
                span(len(spans), "sim.run", base, base + 10.0, iteration=it),
                span(len(spans) + 1, "sim.tick", base, base + tick, len(spans), it),
                span(len(spans) + 2, "sim.tick", base + 5.0, base + 5.0 + tick,
                     len(spans), it),
            ]
        by_name = run.self_time_by_name(spans)
        self.assertAlmostEqual(by_name["sim.tick"], 4.0)  # median of 2, 4, 18
        self.assertAlmostEqual(by_name["sim.run"], 6.0)   # median of 8, 6, 0
        self.assertEqual(by_name["core.build"], 0.0)


class Aggregation(unittest.TestCase):
    def test_passes_fit_in_seconds_at_the_recorded_pass_time(self):
        self.assertEqual(run.passes_for(45, 13.0), 3)
        self.assertEqual(run.passes_for(26, 13.0), 2)
        self.assertEqual(run.passes_for(12.9, 13.0), 1)
        self.assertEqual(run.passes_for(0, 13.0), 1)

    def test_end_to_end_keeps_each_instances_fastest_pass(self):
        def it(run_s, setup_s, makespan_ms=10.0):
            return {"values": {"run_s": run_s, "total_s": run_s + 1.0, "setup_s": setup_s,
                               "flows": 5, "completed": 5, "makespan_ms": makespan_ms,
                               "peak_rss_mb": 20.0}}
        # Two instances, three passes, in pass order: a0 b0 a1 b1 a2 b2.
        raw = {"untraced": [it(4.0, 0.3, 8.0), it(2.0, 0.2), it(3.0, 0.5), it(6.0, 0.1),
                            it(5.0, 0.4), it(2.5, 0.6)],
               "pooled_fct_p50_us": 1.0, "pooled_fct_p99_us": 2.0}
        m = run.end_to_end(raw, 2)
        self.assertEqual(m["setup_s"], 0.1)              # fastest of all six builds
        self.assertAlmostEqual(m["run_s"], 2.5)          # median of a's 3.0 and b's 2.0
        self.assertAlmostEqual(m["total_s"], 3.5)
        self.assertAlmostEqual(m["flows_per_s"], 10 / 5.0)
        self.assertAlmostEqual(m["sim_ms_per_s"], (8.0 / 3.0 + 10.0 / 2.0) / 2)
        self.assertAlmostEqual(m["sim_makespan_ms"], 9.0)  # over the first pass
        self.assertEqual(m["failed_frac"], 0.0)


def iteration(digest, flows=10, completed=10, errors=()):
    return {"digest": digest, "errors": list(errors),
            "values": {"flows": flows, "completed": completed}}


class OutputChecks(unittest.TestCase):
    expected = {"seed": 7, "digests": ["aa", "bb"]}

    def test_clean_run_passes(self):
        raw = {"untraced": [iteration("aa"), iteration("bb"), iteration("cc")],
               "traced": [iteration("aa")]}
        self.assertEqual(run.check(raw, self.expected, 7), (40, 0, []))

    def test_recorded_digest_mismatch_fails_only_on_the_recorded_seed(self):
        raw = {"untraced": [iteration("aa"), iteration("xx")], "traced": []}
        self.assertEqual(len(run.check(raw, self.expected, 7)[2]), 1)
        self.assertEqual(run.check(raw, self.expected, 8)[2], [])

    def test_traced_digest_must_match_untraced(self):
        raw = {"untraced": [iteration("aa")], "traced": [iteration("ab")]}
        self.assertEqual(len(run.check(raw, self.expected, 8)[2]), 1)

    def test_unfinished_flows_fail(self):
        raw = {"untraced": [iteration("aa", completed=9)], "traced": []}
        attempted, failed, problems = run.check(raw, self.expected, 8)
        self.assertEqual((attempted, failed, len(problems)), (10, 1, 1))

    def test_driver_errors_fail(self):
        raw = {"untraced": [iteration("aa", errors=["out of order"])], "traced": []}
        self.assertEqual(len(run.check(raw, self.expected, 8)[2]), 1)


def invoke(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(list(argv))
    lines = out.getvalue().strip().splitlines()
    return code, (json.loads(lines[-1]) if lines else None)


class SmokeRuns(unittest.TestCase):
    """Each workload at smoke size, through build, driver, checks and report."""

    def run_smoke(self, workload, trace, seed=1):
        return invoke("--workload", workload, "--seed", str(seed), "--seconds", "0",
                      "--trace", str(trace), "--smoke")

    def test_every_workload_passes_its_checks(self):
        for workload in run.WORKLOADS:
            for trace, names in ((0, list(run.END_TO_END)), (1, list(run.PER_LAYER))):
                with self.subTest(workload=workload, trace=trace):
                    code, result = self.run_smoke(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                                      "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(list(result["metrics"]), names)

    def test_a_wrong_recorded_digest_fails_loudly(self):
        with open(run.EXPECTED, encoding="utf-8") as f:
            table = json.load(f)
        workload = "opera_websearch"
        table["smoke"][workload]["digests"] = ["0" * 16]
        path = os.path.join(run.build_dir(), "wrong_expected.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(table, f)
        seed = table["smoke"][workload]["seed"]
        with mock.patch.object(run, "EXPECTED", path):
            code, result = self.run_smoke(workload, 0, seed=seed)
            self.assertEqual(code, 1)
            self.assertFalse(result["correct"])
            # Another seed skips the recorded comparison but keeps the rest.
            code, result = self.run_smoke(workload, 0, seed=seed + 1)
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Run from the root of a checkout; takes about five minutes.  It checks:

- the seed reaches the generators: the held-out seed changes
  stall_per_req on plan_zipf_1m;
- determinism: two runs with the same seed repeat every exact count
  (stall, peak heap, fetches, refills, pivots, useful_ratio) to the last
  digit, and every word count to one part in a million; only wall-clock
  figures may differ;
- tracing leaves the program unchanged: a traced run compares every
  schedule and stream outcome of its traced rounds with its untraced
  rounds and counts any difference as a failed pass, so each traced run
  must come back with no failures.
"""

import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EXACT_UNITS = ("count", "words", "words/req", "units/req", "MB", "fraction")
# Ratios of two wall-clock figures, so not exact.
NOT_EXACT = ("trace.overhead_frac",)
# The OCaml runtime's allocation counters differ between processes by a
# few words per pass (a few in 10^8): the heap lands at other addresses.
WORDS_UNITS = ("words", "words/req")
WORDS_TOLERANCE = 1e-6

_cache = {}


def measure(workload, seed, trace):
    """One run of one second (a single round of each kind), memoized."""
    key = (workload, seed, trace)
    if key not in _cache:
        _, result = run.run_workload(workload, seed, 1, trace, time.monotonic() + 600)
        _cache[key] = result
    return _cache[key]


def rerun(workload, seed, trace):
    _cache.pop((workload, seed, trace), None)
    return measure(workload, seed, trace)


def exact_metrics(result):
    return {name: m for name, m in result["metrics"].items()
            if m["unit"] in EXACT_UNITS and name not in NOT_EXACT}


class Bench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def assert_clean(self, result):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_held_out_seed_reaches_generators(self):
        a = measure("plan_zipf_1m", run.DEFAULT_SEED, 0)
        b = measure("plan_zipf_1m", run.HELD_OUT_SEED, 0)
        self.assert_clean(a)
        self.assert_clean(b)
        self.assertNotEqual(a["metrics"]["stall_per_req"]["value"],
                            b["metrics"]["stall_per_req"]["value"])

    def test_exact_counts_repeat(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    first = measure(workload, run.DEFAULT_SEED, trace)
                    second = rerun(workload, run.DEFAULT_SEED, trace)
                    self.assert_clean(first)
                    self.assert_clean(second)
                    a, b = exact_metrics(first), exact_metrics(second)
                    self.assertTrue(a)
                    self.assertEqual(a.keys(), b.keys())
                    for name, m in a.items():
                        x, y = m["value"], b[name]["value"]
                        if m["unit"] in WORDS_UNITS:
                            self.assertLessEqual(abs(x - y), WORDS_TOLERANCE * abs(x), name)
                        else:
                            self.assertEqual(x, y, name)

    def test_traced_rounds_match_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = measure(workload, run.DEFAULT_SEED, 1)
                # Both kinds of round ran: one untraced and one traced.
                self.assertGreaterEqual(result["attempted"], 2)
                self.assert_clean(result)

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = measure(workload, run.DEFAULT_SEED, 0)
                for m in run.contract_metrics(0):
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])


if __name__ == "__main__":
    unittest.main(verbosity=2)

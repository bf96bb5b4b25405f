#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 wildbench/test_harness.py

The last test builds the harness and runs every workload, traced, at a small
size under two seeds (about a minute).
"""
import sys

sys.dont_write_bytecode = True

import importlib.util  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import unittest  # noqa: E402
from pathlib import Path  # noqa: E402

_spec = importlib.util.spec_from_file_location("wildbench_run", Path(__file__).with_name("run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMALL = ("--users", 4, "--days", 6)


def rec(digest="00ff", baseline="", checks_ok=True):
    return {"checks": [{"name": "run", "ok": checks_ok, "detail": ""}],
            "digest": digest, "baseline_digest": baseline}


class Names(unittest.TestCase):
    def test_every_name_is_well_formed_and_unique(self):
        names = list(run.WORKLOADS) + [n for n, _, _ in run.END_TO_END + run.PER_LAYER]
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches_the_harness(self):
        path = run.ROOT / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json next to wildbench/")
        bench = json.loads(path.read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench[key]],
                             list(table))
        for entry in bench["workloads"] + bench["end_to_end"] + bench["per_layer"]:
            self.assertIsNotNone(NAME.fullmatch(entry["name"]), entry["name"])


class FailureCounting(unittest.TestCase):
    def test_matching_digests_pass(self):
        self.assertEqual(run.rep_failures(rec(), expect_digest="00ff"), [])

    def test_mismatched_digest_counts_as_a_failure(self):
        r = rec(digest="00ff")
        failures = run.rep_failures(r, expect_digest="ff00")
        self.assertEqual(len(failures), 1)
        self.assertIn("digest", failures[0])
        result = {"trace": 0, "errors": [],
                  "reps": [{"record": r, "warmup": False, "failures": failures}]}
        self.assertEqual(run.counts(result), (1, 1))

    def test_mismatched_baseline_digest_counts_as_a_failure(self):
        failures = run.rep_failures(rec(baseline="aa"), expect_baseline="bb")
        self.assertEqual(len(failures), 1)

    def test_failed_check_and_missing_checks_count(self):
        self.assertEqual(len(run.rep_failures(rec(checks_ok=False))), 1)
        self.assertEqual(len(run.rep_failures({"checks": []})), 1)

    def test_harness_error_fails_the_whole_run(self):
        result = {"trace": 1, "errors": ["reference crashed"], "reps": []}
        self.assertEqual(run.counts(result), (1, 1))


class SecondSeed(unittest.TestCase):
    """Another seed makes other inputs, and every output check still passes."""

    @classmethod
    def setUpClass(cls):
        run.build()

    def test_two_seeds_differ_and_pass(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                results = [run.run_workload(workload, seed, 0.01, trace=1, sizes=SMALL)
                           for seed in (1, 2)]
                for r in results:
                    self.assertEqual(r["errors"], [])
                    attempted, failed = run.counts(r)
                    self.assertGreater(attempted, run.MIN_REPS)
                    self.assertEqual(failed, 0, [x["failures"] for x in r["reps"]])
                    self.assertEqual(r["traced_failures"], [])
                self.assertNotEqual(results[0]["provenance"]["input_digest"],
                                    results[1]["provenance"]["input_digest"])
                self.assertNotEqual(results[0]["reps"][0]["record"]["digest"],
                                    results[1]["reps"][0]["record"]["digest"])


if __name__ == "__main__":
    unittest.main()

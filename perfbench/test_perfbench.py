#!/usr/bin/env python3
"""Tests of the job benchmark itself, on small inputs (about a minute).

    python3 perfbench/test_perfbench.py

Checks that BENCHMARK.json is well formed and matches what the binary prints,
that a wrong pinned table FNV, a forced checksum mismatch, a drifting layer
composition and a composition slower than the driver each fail the run, that gen_verify's cycle metric repeats for one
seed, and that the benchmark refuses to run outside a full checkout.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out", "test")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload, *extra, seed=1, trace=0, cwd=ROOT):
    """Runs perfbench/run.py; returns (exit code, result JSON or None)."""
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--out", OUT] + list(extra)
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    def test_spec_is_well_formed(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        names = [w["name"] for w in s["workloads"]]
        names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertRegex(m["unit"], UNIT)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower",
                       "bound": max(m["bound"] for m in s["end_to_end"])},
                      s["end_to_end"])

    def check_metrics(self, result, declared):
        self.assertIsNotNone(result)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        for name in got:
            self.assertRegex(name, NAME)
        self.assertEqual(got, {m["name"]: m["unit"] for m in declared})

    def test_untraced_metrics_match_spec(self):
        rc, result = bench("gen_verify", "--gen-count", "3")
        self.assertEqual(rc, 0)
        self.check_metrics(result, spec()["end_to_end"])

    def test_traced_metrics_match_spec_and_pass_drift_guard(self):
        rc, result = bench("gen_verify", "--gen-count", "3", trace=1)
        self.assertEqual(rc, 0)
        self.check_metrics(result, spec()["per_layer"])
        self.assertEqual(result["metrics"]["bench.drift_checked"]["value"],
                         3 * 14)

    def test_paper_table_matches_pin(self):
        rc, result = bench("paper_cold", "--tables", "table1_workload")
        self.assertEqual(rc, 0)
        self.assertTrue(result["correct"])

    def test_corrupted_pin_fails(self):
        os.makedirs(OUT, exist_ok=True)
        pins = os.path.join(OUT, "corrupt_pins.txt")
        with open(os.path.join(HERE, "pinned_fnv.txt")) as f:
            text = f.read()
        line = re.search(r"^table1_workload ([0-9a-f]{16})$", text, re.M)
        wrong = "%016x" % (int(line.group(1), 16) ^ 1)
        with open(pins, "w") as f:
            f.write(text.replace(line.group(1), wrong))
        rc, result = bench("paper_cold", "--tables", "table1_workload",
                           "--pins", pins)
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_checksum_mismatch_fails(self):
        rc, result = bench("gen_verify", "--gen-count", "2",
                           "--inject", "checksum")
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_drift_fails(self):
        rc, result = bench("gen_verify", "--gen-count", "2",
                           "--inject", "drift", trace=1)
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])

    def test_slow_composition_fails_timing_guard(self):
        # 200 programs keep the untraced job phase above the guard's 1 s
        # floor; the hook sleeps as long as each traced job took.
        rc, result = bench("gen_verify", "--gen-count", "200",
                           "--inject", "slow", trace=1)
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["metrics"]["bench.job_phase_ratio"]["value"],
                           1.5)

    def test_gen_cycles_repeat_for_one_seed(self):
        runs = [bench("gen_verify", "--gen-count", "5", seed=7)[1]
                for _ in range(2)]
        values = [r["metrics"]["sim_cycles_geomean"]["value"] for r in runs]
        self.assertEqual(values[0], values[1])
        other = bench("gen_verify", "--gen-count", "5", seed=8)[1]
        self.assertNotEqual(values[0],
                            other["metrics"]["sim_cycles_geomean"]["value"])

    def test_refuses_outside_a_checkout(self):
        bare = os.path.join(OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out"))
        rc, result = bench("paper_cold", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(rc, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny windows.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark the way perfbench/run.py does (into $CARGO_TARGET_DIR,
default .bench_build) and checks that every workload runs, that every
metric of BENCHMARK.json is printed with its unit, and that the output check
rejects a run whose repetitions disagree.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BINARY = None


def invoke(workload, trace, *extra, seed=7):
    """Runs the binary; returns (exit code, parsed last stdout line or None)."""
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--models",
         os.path.join(ROOT, "pretrain_cache"), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def setUpModule():
    global BINARY
    BINARY = run.build(run.build_dir())


class EveryWorkload(unittest.TestCase):
    def check_metrics(self, trace, listed):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                code, result = invoke(name, trace)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                printed = result["metrics"]
                self.assertEqual(list(printed), [m["name"] for m in listed])
                for m in listed:
                    self.assertEqual(printed[m["name"]]["unit"], m["unit"])
                    self.assertIsInstance(printed[m["name"]]["value"],
                                          (int, float))

    def test_end_to_end_metrics_printed_with_units(self):
        self.check_metrics(0, SPEC["end_to_end"])

    def test_per_layer_metrics_printed_with_units(self):
        self.check_metrics(1, SPEC["per_layer"])


class OutputCheck(unittest.TestCase):
    def test_perturbed_repetition_digest_fails_the_run(self):
        code, result = invoke("ls32-secn1", 0, "--perturb-digest")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertEqual(result["metrics"], {})

    def test_same_seed_same_simulated_outcome(self):
        _, a = invoke("ls32-pet", 0, seed=3)
        _, b = invoke("ls32-pet", 0, seed=3)
        for key in ("fct_avg_us", "fct_p99_us", "mice_fct_p99_us",
                    "flows_unfinished_frac"):
            self.assertEqual(a["metrics"][key], b["metrics"][key], key)

    def test_missing_model_is_an_input_error(self):
        proc = subprocess.run(
            [BINARY, "--workload", "ls32-pet", "--seed", "1", "--seconds", "1",
             "--trace", "0", "--tiny", "--models",
             os.path.join(HERE, "no-such-dir")],
            capture_output=True, text=True, timeout=120)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout.strip(), "")


class LayerStress(unittest.TestCase):
    def test_agents_and_serving_only_where_expected(self):
        layers = {}
        for name in WORKLOADS:
            code, result = invoke(name, 1)
            self.assertEqual(code, 0)
            layers[name] = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(layers["ls32-secn1"]["core.pet_tick.calls"], 0)
        self.assertEqual(layers["ls32-secn1"]["acc.tick.calls"], 0)
        self.assertGreater(layers["ls32-pet"]["core.pet_tick.calls"], 0)
        self.assertGreater(layers["ls16-acc"]["acc.tick.calls"], 0)
        for name, values in layers.items():
            if name == "ft8-pet-int8":
                self.assertGreater(values["rl.serve_version"], 0)
            else:
                self.assertEqual(values["rl.serve_version"], 0, name)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Unit tests of tools/perf_pairs.py's summary math (no builds, no runs).

    python3 tests/test_perf_pairs.py
"""

import os
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import perf_pairs  # noqa: E402  (tools/perf_pairs.py)


class Quartiles(unittest.TestCase):
    def test_single_value(self):
        self.assertEqual(perf_pairs.quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_odd_count_interpolates(self):
        # Positions 0.25*4 = 1, 2 and 3 of the sorted list.
        self.assertEqual(perf_pairs.quartiles([5, 1, 4, 2, 3]), (2, 3, 4))

    def test_even_count_interpolates(self):
        q1, med, q3 = perf_pairs.quartiles([1, 2, 3, 4])
        self.assertAlmostEqual(q1, 1.75)
        self.assertAlmostEqual(med, 2.5)
        self.assertAlmostEqual(q3, 3.25)

    def test_empty_rejected(self):
        with self.assertRaises(ValueError):
            perf_pairs.quartiles([])


class Summarize(unittest.TestCase):
    def test_lower_is_better(self):
        pairs = [(100, 90), (110, 95), (105, 106), (120, 100), (100, 80)]
        s = perf_pairs.summarize(pairs, "lower")
        self.assertEqual(s["pairs"], 5)
        self.assertEqual(s["wins"], 4)
        self.assertEqual(s["parent_median"], 105)
        self.assertEqual(s["change_median"], 95)
        self.assertEqual(s["gap"], 10)
        self.assertEqual(s["parent_iqr"], 10)  # q1 100, q3 110
        self.assertFalse(s["beats_iqr"])       # a gap equal to the IQR is not more
        self.assertAlmostEqual(s["delta_pct"], -100.0 * 10 / 105)

    def test_higher_is_better_flips_sign(self):
        s = perf_pairs.summarize([(1.0, 2.0), (1.0, 3.0), (2.0, 1.0)], "higher")
        self.assertEqual(s["wins"], 2)
        self.assertEqual(s["gap"], 1.0)
        self.assertTrue(s["beats_iqr"])

    def test_ties_are_not_wins(self):
        s = perf_pairs.summarize([(7, 7), (7, 7)], "lower")
        self.assertEqual(s["wins"], 0)
        self.assertEqual(s["gap"], 0)
        self.assertEqual(s["delta_pct"], 0.0)
        self.assertFalse(s["beats_iqr"])

    def test_zero_parent_median_has_no_percentage(self):
        self.assertIsNone(perf_pairs.summarize([(0.0, 0.0)], "lower")["delta_pct"])

    def test_bad_direction_and_empty_rejected(self):
        with self.assertRaises(ValueError):
            perf_pairs.summarize([(1, 2)], "faster")
        with self.assertRaises(ValueError):
            perf_pairs.summarize([], "lower")


class SimulatedMetrics(unittest.TestCase):
    def test_host_metrics_may_differ(self):
        p = {"host_ref_per_sim_ms": {"value": 600}, "setup_s": {"value": 0.1},
             "peak_rss_mb": {"value": 7.2}, "net.tx.ns": {"value": 3},
             "core.pet_tick.us": {"value": 9}, "exp.build_ms": {"value": 1},
             "fct_avg_us": {"value": 1861.27}}
        c = {"host_ref_per_sim_ms": {"value": 560}, "setup_s": {"value": 0.2},
             "peak_rss_mb": {"value": 7.1}, "net.tx.ns": {"value": 4},
             "core.pet_tick.us": {"value": 8}, "exp.build_ms": {"value": 2},
             "fct_avg_us": {"value": 1861.27}}
        self.assertEqual(perf_pairs.simulated_mismatches(p, c), [])

    def test_simulated_metrics_must_match(self):
        p = {"fct_avg_us": {"value": 1.0}, "sim.events": {"value": 10},
             "exp.pkt_latency_p99_us": {"value": 5.0}}
        c = {"fct_avg_us": {"value": 1.0000001}, "sim.events": {"value": 10},
             "exp.pkt_latency_p99_us": {"value": 5.5}}
        self.assertEqual(perf_pairs.simulated_mismatches(p, c),
                         ["exp.pkt_latency_p99_us", "fct_avg_us"])

    def test_metric_on_one_side_only_is_a_mismatch(self):
        self.assertEqual(
            perf_pairs.simulated_mismatches({"sim.events": {"value": 1}}, {}),
            ["sim.events"])


class Seeds(unittest.TestCase):
    def test_ranges_and_lists(self):
        self.assertEqual(perf_pairs.parse_seeds("71-74,80"), [71, 72, 73, 74, 80])
        self.assertEqual(perf_pairs.parse_seeds("5"), [5])

    def test_bad_input_rejected(self):
        for text in ("", "9-3", "a"):
            with self.assertRaises(ValueError):
                perf_pairs.parse_seeds(text)


class LastJsonLine(unittest.TestCase):
    def test_picks_the_last_object(self):
        text = "table\n{\"a\": 1}\nmore\n{\"correct\": true}\n"
        self.assertEqual(perf_pairs.last_json_line(text), {"correct": True})

    def test_none_without_json(self):
        self.assertIsNone(perf_pairs.last_json_line("no json here\n"))


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Unit tests for ab_compare.py on canned perfbench outputs. Run directly
(python3 scripts/test_ab_compare.py) or via ctest (registered in
CMakeLists.txt).

Covers: parsing a run (result line, every calibration dram_ms, traced
runs with two calibration pairs), per-pair ratios and the median, the
median's bootstrap interval, the direction of "better", the refusal to give a verdict when calibration
spreads beyond the bound, dropping (and counting) a pair whose run drifted
from its start to its end calibration, and failure on an incorrect run.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab_compare  # noqa: E402


def output(tokens_per_s, dram=(7.0, 7.2), correct=True, failed=0,
           compute=(14.0, 14.0, 14.0, 14.0)):
    lines = []
    for when, ms, cms in zip(("start", "end") * 2, dram, compute):
        lines.append(f"# calibration {when}: compute_ms {cms:.3f} cache_ms "
                     f"4.000 dram_ms {ms:.3f} load_ns 200.0 (checksum 1)")
    lines.insert(1, "# inputs b7ad2caa5d6e6910")
    lines.append(
        '{"correct": %s, "attempted": 8192, "failed": %d, "metrics": '
        '{"tokens_per_s": {"value": %r, "unit": "1/s"}, '
        '"latency_ms_p50": {"value": 12.5, "unit": "ms"}}}'
        % ("true" if correct else "false", failed, tokens_per_s))
    return "\n".join(lines) + "\n"


class ParseRun(unittest.TestCase):
    def test_reads_result_and_calibration(self):
        run = ab_compare.parse_run(output(600.0, dram=(7.5, 8.0)))
        self.assertEqual(run["metrics"]["tokens_per_s"], 600.0)
        self.assertEqual(run["metrics"]["latency_ms_p50"], 12.5)
        self.assertTrue(run["correct"])
        self.assertEqual(run["failed"], 0)
        self.assertEqual(run["dram_ms"], [7.5, 8.0])

    def test_traced_run_keeps_every_calibration_line(self):
        run = ab_compare.parse_run(output(600.0, dram=(7.0, 7.1, 7.2, 7.3)))
        self.assertEqual(run["dram_ms"], [7.0, 7.1, 7.2, 7.3])

    def test_reads_compute_ms_and_when(self):
        run = ab_compare.parse_run(output(600.0, dram=(7.5, 8.0),
                                          compute=(13.5, 16.9)))
        self.assertEqual(run["calibration"],
                         [("start", 13.5, 7.5), ("end", 16.9, 8.0)])

    def test_missing_result_line_raises(self):
        with self.assertRaises(ValueError):
            ab_compare.parse_run("# calibration start: dram_ms 7.0\n")


def pair(seed, a, b, dram_a=(7.0, 7.2), dram_b=(7.0, 7.2),
         compute_a=(14.0, 14.0, 14.0, 14.0), **kw):
    return (seed, ab_compare.parse_run(output(a, dram_a, compute=compute_a)),
            ab_compare.parse_run(output(b, dram_b, **kw)))


class Summarize(unittest.TestCase):
    def test_ratios_and_median(self):
        pairs = [pair(1, 470.0, 707.0), pair(2, 520.0, 687.0),
                 pair(3, 471.0, 567.0)]
        lines, status = ab_compare.summarize(pairs, "tokens_per_s",
                                             "higher", 0.30)
        self.assertEqual(status, 0)
        text = "\n".join(lines)
        self.assertIn("1.504", text)  # 707 / 470
        self.assertIn("median ratio 1.321", text)  # 687 / 520
        self.assertIn("change better in 3 of 3 pairs", text)

    def test_equal_ratios_give_a_zero_width_interval(self):
        self.assertEqual(ab_compare.bootstrap_interval([1.25] * 8),
                         (1.25, 1.25))
        pairs = [pair(s, 400.0, 500.0) for s in (1, 2, 3)]
        lines, _ = ab_compare.summarize(pairs, "tokens_per_s", "higher", 0.30)
        self.assertIn("[95% bootstrap 1.250, 1.250]", "\n".join(lines))

    def test_ratios_straddling_one_give_an_interval_containing_one(self):
        lo, hi = ab_compare.bootstrap_interval(
            [0.90, 1.08, 0.95, 1.04, 0.98, 1.10, 0.93, 1.02])
        self.assertLess(lo, 1.0)
        self.assertGreater(hi, 1.0)

    def test_interval_is_seeded(self):
        ratios = [1.1, 1.3, 1.2, 1.4, 1.15]
        self.assertEqual(ab_compare.bootstrap_interval(ratios),
                         ab_compare.bootstrap_interval(ratios))

    def test_lower_is_better_counts_wins_the_other_way(self):
        pairs = [pair(1, 10.0, 8.0), pair(2, 10.0, 11.0)]
        lines, status = ab_compare.summarize(pairs, "tokens_per_s",
                                             "lower", 0.30)
        self.assertEqual(status, 0)
        self.assertIn("change better in 1 of 2 pairs", "\n".join(lines))

    def test_calibration_spread_beyond_bound_gives_no_verdict(self):
        pairs = [pair(1, 470.0, 707.0, dram_a=(6.5, 6.6),
                      dram_b=(9.5, 9.6))]
        lines, status = ab_compare.summarize(pairs, "tokens_per_s",
                                             "higher", 0.30)
        self.assertEqual(status, 3)
        text = "\n".join(lines)
        self.assertIn("no verdict", text)
        self.assertNotIn("median ratio", text)

    def test_spread_is_max_over_min_of_run_means(self):
        runs = [ab_compare.parse_run(output(1.0, d))
                for d in ((7.0, 7.0), (8.0, 8.4))]
        self.assertAlmostEqual(ab_compare.calibration_spread(runs),
                               8.2 / 7.0 - 1.0)

    def test_incorrect_run_fails(self):
        pairs = [pair(1, 470.0, 707.0, correct=False)]
        lines, status = ab_compare.summarize(pairs, "tokens_per_s",
                                             "higher", 0.30)
        self.assertEqual(status, 1)
        self.assertNotIn("median ratio", "\n".join(lines))

    def test_failed_ops_fail(self):
        pairs = [pair(1, 470.0, 707.0, failed=3)]
        _, status = ab_compare.summarize(pairs, "tokens_per_s", "higher",
                                         0.30)
        self.assertEqual(status, 1)

    def test_run_drift_is_the_largest_start_to_end_change(self):
        run = ab_compare.parse_run(output(1.0, dram=(7.0, 7.7, 7.0, 7.0),
                                          compute=(13.5, 16.9, 14.0, 14.0)))
        drift, text = ab_compare.run_drift(run)
        self.assertAlmostEqual(drift, 16.9 / 13.5 - 1.0)
        self.assertEqual(text, "compute_ms 13.500 -> 16.900")
        # A start line without its end line has no drift.
        lone = ab_compare.parse_run(output(1.0, dram=(7.0,)))
        self.assertIsNone(ab_compare.run_drift(lone))

    def test_drifted_pair_is_dropped_and_counted(self):
        # The change's seed-3 run stalls inside itself (compute_ms +25%)
        # and reads 0.6x; without the drift check it would drag the
        # median down.
        pairs = [pair(1, 500.0, 510.0), pair(2, 500.0, 505.0),
                 pair(3, 500.0, 300.0, compute=(13.5, 16.9)),
                 pair(4, 500.0, 495.0, compute_a=(14.0, 10.0))]
        lines, status = ab_compare.summarize(pairs, "tokens_per_s",
                                             "higher", 0.30)
        self.assertEqual(status, 0)
        text = "\n".join(lines)
        self.assertIn("seed 3: dropped: change run drifted 25.2% start to "
                      "end (compute_ms 13.500 -> 16.900; bound 20%)", text)
        self.assertIn("seed 4: dropped: parent run drifted 28.6%", text)
        self.assertIn("median ratio 1.015", text)  # of 1.02 and 1.01
        self.assertIn("change better in 2 of 2 pairs; 2 of 4 pairs "
                      "dropped for drift", text)

    def test_drift_within_the_bound_keeps_the_pair(self):
        pairs = [pair(1, 500.0, 510.0, compute=(14.0, 14.0 * 1.19))]
        lines, _ = ab_compare.summarize(pairs, "tokens_per_s", "higher",
                                        0.30)
        self.assertIn("0 of 1 pairs dropped for drift", "\n".join(lines))

    def test_undrifted_set_keeps_its_verdict(self):
        pairs = [pair(1, 470.0, 707.0), pair(2, 520.0, 687.0),
                 pair(3, 471.0, 567.0)]
        lines, status = ab_compare.summarize(pairs, "tokens_per_s",
                                             "higher", 0.30)
        self.assertEqual(status, 0)
        text = "\n".join(lines)
        self.assertNotIn("dropped:", text)
        self.assertIn("median ratio 1.321", text)
        self.assertIn("change better in 3 of 3 pairs; 0 of 3 pairs dropped "
                      "for drift", text)

    def test_every_pair_dropped_gives_no_verdict(self):
        pairs = [pair(1, 500.0, 510.0, dram_b=(7.0, 9.0))]
        lines, status = ab_compare.summarize(pairs, "tokens_per_s",
                                             "higher", 0.30)
        self.assertEqual(status, 3)
        text = "\n".join(lines)
        self.assertIn("dram_ms 7.000 -> 9.000", text)
        self.assertIn("no verdict: all 1 pairs dropped for drift", text)
        self.assertNotIn("median ratio", text)

    def test_missing_metric_fails(self):
        pairs = [pair(1, 470.0, 707.0)]
        _, status = ab_compare.summarize(pairs, "gflops", "higher", 0.30)
        self.assertEqual(status, 1)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the benchmark harness arithmetic: the percentile rule, span
self time, and the reduction of a raw driver document to metrics and checks.

    python3 perfbench/test_harness.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# The top-level phases a round span carries as children.
PHASES = ("fault", "workload", "fair_share", "queue", "predict", "manage")


def round_span(span_id, parent, dur, children, parts=None):
    return {"name": "round", "id": span_id, "parent": parent, "start_ns": 0, "dur_ns": dur,
            "children": children, "parts": parts or {}}


def raw_document(durations, csv_hashes=("a", "a", "a"), slowdown=(1, 1, 1), seeds=(4, 4, 4)):
    """A driver document with one repetition per csv hash, each simulating
    its sub-seed and timing `durations` (times the repetition's slowdown)
    as its rounds."""
    spans, reps = [], []
    for i, csv_hash in enumerate(csv_hashes):
        rep_id = len(spans)
        spans.append({"name": "rep", "id": rep_id, "parent": -1, "start_ns": 0, "dur_ns": 0})
        for name, dur in (("setup.topology", 1e8), ("setup.engine", 2e8 + i * 1e8),
                          ("checkpoint.save", 4e6), ("checkpoint.load", 6e6)):
            spans.append({"name": name, "id": len(spans), "parent": rep_id, "start_ns": 0,
                          "dur_ns": dur})
        for dur in durations:
            dur *= slowdown[i]
            spans.append(round_span(len(spans), rep_id, dur, {p: dur // 10 for p in PHASES}))
        reps.append({"span": rep_id, "seed": seeds[i], "observe": False, "error": "", "csv_hash": csv_hash,
                     "checkpoint_hash": "c", "checkpoint_bytes": 10, "resume_parity": True,
                     "peak_rss_kib": 2048.0 * (i + 1), "counts": {}})
    return {"workload": "w", "seed": 1, "trace": False, "threads": 1,
            "timed_rounds": len(durations), "calibration_ms": [1.0], "reps": reps,
            "spans": spans}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 11))
        self.assertEqual(run.percentile(values, 50), 5)
        self.assertEqual(run.percentile(values, 90), 9)
        self.assertEqual(run.percentile(values, 100), 10)
        self.assertEqual(run.percentile([7], 90), 7)

    def test_ten_samples_beyond(self):
        self.assertEqual(run.samples_beyond(100, 90), 10)
        self.assertEqual(run.highest_percentile(100), 90)
        # 99 rounds leave only nine samples above p90: fall back to p50.
        self.assertEqual(run.highest_percentile(99), 50)
        self.assertEqual(run.highest_percentile(200), 95)
        self.assertEqual(run.highest_percentile(1000), 99)
        self.assertEqual(run.highest_percentile(10000), 99.9)
        self.assertEqual(run.highest_percentile(20), 50)
        self.assertIsNone(run.highest_percentile(19))


class SpanSelfTime(unittest.TestCase):
    def test_round_minus_children(self):
        span = round_span(0, -1, 100, {"workload": 30, "manage": 20}, {"manage.commit": 15})
        # Parts nest inside a child and are not subtracted again.
        self.assertEqual(run.self_time_ns(span), 50)

    def test_span_without_children(self):
        self.assertEqual(run.self_time_ns({"dur_ns": 42}), 42)

    def test_self_time_and_children_account_for_the_round(self):
        span = round_span(0, -1, 1000, {p: 100 + i for i, p in enumerate(PHASES)})
        total = run.self_time_ns(span) + sum(span["children"].values())
        self.assertEqual(total, span["dur_ns"])


class Reduction(unittest.TestCase):
    def store(self):
        return {"digest": "d", "runs": {}}

    def test_end_to_end(self):
        raw = raw_document([10e6] * 90 + [20e6] * 10)
        metrics = run.end_to_end(raw)
        self.assertEqual(set(metrics), set(run.END_TO_END_UNITS))
        self.assertAlmostEqual(metrics["round_ms_p50"]["value"], 10.0)
        self.assertAlmostEqual(metrics["round_ms_p90"]["value"], 10.0)
        self.assertAlmostEqual(metrics["rounds_per_s"]["value"], 100 / 1.1)
        self.assertAlmostEqual(metrics["setup_s"]["value"], 0.4)  # median of 0.3/0.4/0.5
        self.assertAlmostEqual(metrics["checkpoint_save_ms"]["value"], 4.0)
        self.assertAlmostEqual(metrics["checkpoint_load_ms"]["value"], 6.0)
        self.assertAlmostEqual(metrics["peak_rss_mb"]["value"], 4.0)  # median of 2/4/6 MiB

    def test_round_times_take_each_rounds_fastest_repetition(self):
        raw = raw_document([10e6, 30e6], slowdown=(3, 1, 2))
        self.assertEqual(run.best_round_ns(raw, raw["reps"]), [10e6, 30e6])
        raw["reps"][1]["error"] = "boom"  # a failed repetition is left out
        metrics = run.end_to_end(raw)
        self.assertAlmostEqual(metrics["round_ms_p50"]["value"], 20.0)
        self.assertAlmostEqual(metrics["round_ms_p90"]["value"], 60.0)

    def test_clean_run_passes_every_check(self):
        checks = run.Checks()
        run.check_run(raw_document([1e6] * 100), checks, self.store())
        self.assertGreater(checks.attempted, 0)
        self.assertEqual(checks.failures, [])

    def test_failed_checks_are_counted_not_raised(self):
        raw = raw_document([1e6] * 100, csv_hashes=("a", "b", "a"))
        raw["reps"][2]["resume_parity"] = False
        checks = run.Checks()
        run.check_run(raw, checks, self.store())
        self.assertEqual(len(checks.failures), 2)

    def test_too_few_rounds_for_p90_fails_a_check(self):
        checks = run.Checks()
        run.check_run(raw_document([1e6] * 30, csv_hashes=("a", "a")), checks, self.store())
        self.assertEqual(len(checks.failures), 1)

    def test_later_run_of_the_same_seed_must_match(self):
        store = self.store()
        run.check_run(raw_document([1e6] * 100), run.Checks(), store)
        checks = run.Checks()
        run.check_run(raw_document([1e6] * 100, csv_hashes=("z", "z", "z")), checks, store)
        self.assertEqual(checks.failures, ["seed 4: metrics CSV differs from an earlier run"])

    def test_sub_seeds_pool_their_own_fastest_rounds(self):
        # Sub-seed 4 runs twice (3x slower the first time); sub-seed 5 once,
        # simulating other rounds, so it is never compared with sub-seed 4.
        raw = raw_document([10e6, 30e6], csv_hashes=("a", "b", "a"), slowdown=(3, 1, 1),
                           seeds=(4, 5, 4))
        self.assertEqual(run.pooled_round_ns(raw, raw["reps"]), [10e6, 30e6, 10e6, 30e6])
        raw["reps"][0]["peak_rss_kib"] = 1024.0
        metrics = run.end_to_end(raw)
        # Sub-seed 4: median of 1 and 6 MiB; sub-seed 5: 4 MiB; then the mean.
        self.assertAlmostEqual(metrics["peak_rss_mb"]["value"], (3.5 + 4.0) / 2)
        # Hashes agree within each sub-seed, and two sub-seeds of 50 rounds
        # pool 100 samples, enough for p90.
        raw = raw_document([1e6] * 50, csv_hashes=("a", "b", "a"), seeds=(4, 5, 4))
        checks = run.Checks()
        run.check_run(raw, checks, self.store())
        self.assertEqual(checks.failures, [])


if __name__ == "__main__":
    unittest.main()

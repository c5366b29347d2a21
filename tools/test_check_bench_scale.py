#!/usr/bin/env python3
"""Self-test of the bench_scale perf gate (tools/check_bench_scale.py): the
budget comparison, the missing-scenario rule, the retired-schema rejection,
and the calibration sanity check.

    python3 tools/test_check_bench_scale.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_scale as gate  # noqa: E402


def bench(scenarios):
    """A v6 bench document; `scenarios` maps name -> (calibration_ms, median_ms)."""
    return {
        "schema": gate.BENCH_SCHEMA,
        "scenarios": [
            {"name": name, "calibration_ms": cal, "median_ms": medians}
            for name, (cal, medians) in scenarios.items()
        ],
    }


def baseline(budgets):
    return {"schema": gate.BASELINE_SCHEMA, "scenarios": budgets}


class BudgetComparison(unittest.TestCase):
    def test_exactly_at_budget_passes(self):
        # 0.5 ms / 2.0 ms = 0.25 exactly in binary floating point.
        _, violations = gate.evaluate(bench({"a": (2.0, {"net": 0.5})}),
                                      baseline({"a": {"net": 0.25}}))
        self.assertEqual(violations, [])

    def test_just_over_budget_fails(self):
        _, violations = gate.evaluate(bench({"a": (2.0, {"net": 0.5000001})}),
                                      baseline({"a": {"net": 0.25}}))
        self.assertEqual(len(violations), 1)
        self.assertIn("a: net", violations[0])
        self.assertIn("over budget", violations[0])

    def test_every_budgeted_phase_is_checked(self):
        _, violations = gate.evaluate(
            bench({"a": (1.0, {"round": 3.0, "manage": 0.1})}),
            baseline({"a": {"round": 2.0, "manage": 0.2}}))
        self.assertEqual(len(violations), 1)
        self.assertIn("a: round", violations[0])

    def test_budgeted_phase_missing_from_bench_fails(self):
        _, violations = gate.evaluate(bench({"a": (1.0, {"round": 1.0})}),
                                      baseline({"a": {"net": 1.0}}))
        self.assertEqual(len(violations), 1)
        self.assertIn("no median", violations[0])

    def test_main_exit_status(self):
        with tempfile.TemporaryDirectory() as tmp:
            current = os.path.join(tmp, "current.json")
            ref = os.path.join(tmp, "baseline.json")
            with open(current, "w", encoding="utf-8") as f:
                json.dump(bench({"a": (2.0, {"net": 0.5})}), f)
            with open(ref, "w", encoding="utf-8") as f:
                json.dump(baseline({"a": {"net": 0.25}}), f)
            self.assertEqual(gate.main(["gate", current, ref]), 0)
            with open(ref, "w", encoding="utf-8") as f:
                json.dump(baseline({"a": {"net": 0.24}}), f)
            self.assertEqual(gate.main(["gate", current, ref]), 1)


class HardFailures(unittest.TestCase):
    def test_missing_scenario_names_the_set_difference(self):
        with self.assertRaises(gate.GateFailure) as caught:
            gate.evaluate(bench({"a": (1.0, {"net": 0.1})}),
                          baseline({"a": {"net": 1.0}, "b": {"net": 1.0}, "c": {"net": 1.0}}))
        message = str(caught.exception)
        self.assertIn("missing from the bench output: b, c", message)
        self.assertIn("bench produced ['a']", message)

    def test_retired_bench_schemas_are_rejected_by_name(self):
        for version in range(1, 6):
            schema = f"sheriff.bench_scale.v{version}"
            document = bench({"a": (1.0, {"net": 0.1})})
            document["schema"] = schema
            with self.assertRaises(gate.GateFailure) as caught:
                gate.evaluate(document, baseline({"a": {"net": 1.0}}))
            self.assertIn(repr(schema), str(caught.exception))
            self.assertIn("retired", str(caught.exception))

    def test_retired_baseline_schemas_are_rejected_by_name(self):
        for version in range(1, 6):
            schema = f"sheriff.bench_scale.baseline.v{version}"
            reference = baseline({"a": {"net": 1.0}})
            reference["schema"] = schema
            with self.assertRaises(gate.GateFailure) as caught:
                gate.evaluate(bench({"a": (1.0, {"net": 0.1})}), reference)
            self.assertIn(repr(schema), str(caught.exception))
            self.assertIn("retired", str(caught.exception))

    def test_unknown_schema_is_rejected(self):
        document = bench({"a": (1.0, {"net": 0.1})})
        document["schema"] = "sheriff.bench_scale.v7"
        with self.assertRaises(gate.GateFailure):
            gate.evaluate(document, baseline({"a": {"net": 1.0}}))

    def test_zero_or_negative_calibration_is_rejected(self):
        for calibration in (0.0, -1.5, None):
            with self.assertRaises(gate.GateFailure) as caught:
                gate.evaluate(bench({"a": (calibration, {"net": 0.1})}),
                              baseline({"a": {"net": 1.0}}))
            self.assertIn("calibration_ms must be positive", str(caught.exception))


if __name__ == "__main__":
    unittest.main()

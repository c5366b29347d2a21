#!/usr/bin/env python3
"""Perf-regression gate for bench_scale.

Holds a freshly produced BENCH_scale.json (schema sheriff.bench_scale.v6)
to the per-scenario budgets of the committed baseline
(bench/baselines/BENCH_scale_baseline.json, schema
sheriff.bench_scale.baseline.v6).

bench_scale runs the production engine on a one-thread pool and reports,
per scenario, the median CPU time per round of each phase (`median_ms`)
and the fastest run of a calibration kernel swept before every round
(`calibration_ms`, a graph::dijkstra_into sweep over the k=16 Fat-Tree hop
graph). The gate divides each budgeted phase's median by the calibration —
which cancels most of the machine's speed — and requires

    median_ms[phase] / calibration_ms <= budget[phase]

for every phase the baseline budgets. A normalized value exactly at its
budget passes.

Hard failures, before any budget is checked:
  * a bench or baseline schema other than v6 — the v1-v5 formats carried
    naive/optimized ratios, which this gate no longer reads, and are
    rejected by name;
  * a scenario named in the baseline but absent from the bench output
    (the set difference is spelled out), so a run that silently drops a
    scenario cannot pass on the survivors;
  * a zero, negative or missing calibration, which would make every
    normalized value meaningless.

The fat_tree_k32 regional-sharding ablation (`ablation.sharded_manage_ratio`,
legacy interleaved manage sweep over sharded manage) is printed, not gated.

Usage: check_bench_scale.py CURRENT_JSON [BASELINE_JSON]
Exit status: 0 on pass, 1 on any violation or malformed input.
"""

import json
import sys

BENCH_SCHEMA = "sheriff.bench_scale.v6"
BASELINE_SCHEMA = "sheriff.bench_scale.baseline.v6"
RETIRED_BENCH_SCHEMAS = tuple(f"sheriff.bench_scale.v{v}" for v in range(1, 6))
RETIRED_BASELINE_SCHEMAS = tuple(f"sheriff.bench_scale.baseline.v{v}" for v in range(1, 6))


class GateFailure(Exception):
    """A malformed or incompatible input: the gate fails before any budget."""


def check_schema(doc, expected, retired, what):
    schema = doc.get("schema")
    if schema in retired:
        raise GateFailure(
            f"{what} schema {schema!r} is a retired naive/optimized ratio format; "
            f"this gate reads {expected!r} (calibrated per-phase budgets)"
        )
    if schema != expected:
        raise GateFailure(f"unexpected {what} schema {schema!r} (expected {expected!r})")


def evaluate(current, baseline):
    """Returns (report lines, violations); raises GateFailure on bad input."""
    check_schema(current, BENCH_SCHEMA, RETIRED_BENCH_SCHEMAS, "bench")
    check_schema(baseline, BASELINE_SCHEMA, RETIRED_BASELINE_SCHEMAS, "baseline")
    measured = {s["name"]: s for s in current.get("scenarios", [])}
    budgets = baseline["scenarios"]

    missing = sorted(set(budgets) - set(measured))
    if missing:
        raise GateFailure(
            f"scenarios missing from the bench output: {', '.join(missing)} "
            f"(baseline gates {sorted(budgets)}, bench produced {sorted(measured)})"
        )

    lines, violations = [], []
    for name, budget in budgets.items():
        got = measured[name]
        calibration = got.get("calibration_ms")
        if not isinstance(calibration, (int, float)) or calibration <= 0:
            raise GateFailure(f"{name}: calibration_ms must be positive, got {calibration!r}")
        medians = got.get("median_ms", {})
        for phase, limit in budget.items():
            if phase not in medians:
                violations.append(f"{name}: baseline budgets {phase} but the bench has no median")
                continue
            normalized = float(medians[phase]) / float(calibration)
            verdict = "ok" if normalized <= float(limit) else "OVER BUDGET"
            lines.append(
                f"  {name}: {phase} {float(medians[phase]):.3f} ms/round = "
                f"{normalized:.3f} x calibration (budget {float(limit):.3f}) {verdict}"
            )
            if normalized > float(limit):
                violations.append(
                    f"{name}: {phase} {normalized:.3f} x calibration over budget {float(limit):.3f}"
                )
    for name, got in measured.items():
        ratio = got.get("ablation", {}).get("sharded_manage_ratio")
        if ratio is not None:
            lines.append(
                f"  {name}: sharded manage {ratio:.2f}x faster than the legacy sweep "
                f"(reported, not gated)"
            )
        if name not in budgets:
            lines.append(f"  {name}: no budget (informational)")
    return lines, violations


def main(argv):
    if len(argv) < 2:
        print("check_bench_scale: FAIL: usage: check_bench_scale.py CURRENT_JSON [BASELINE_JSON]")
        return 1
    current_path = argv[1]
    baseline_path = argv[2] if len(argv) > 2 else "bench/baselines/BENCH_scale_baseline.json"
    with open(current_path, encoding="utf-8") as f:
        current = json.load(f)
    with open(baseline_path, encoding="utf-8") as f:
        baseline = json.load(f)
    try:
        lines, violations = evaluate(current, baseline)
    except GateFailure as e:
        print(f"check_bench_scale: FAIL: {e}")
        return 1
    print("\n".join(lines))
    if violations:
        print(f"check_bench_scale: FAIL: {'; '.join(violations)}")
        return 1
    print("check_bench_scale: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

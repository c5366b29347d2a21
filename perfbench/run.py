#!/usr/bin/env python3
"""Sheriff benchmark: build the driver from source, run one workload, check
its outputs and print its metrics.

    python3 perfbench/run.py --workload reroute_k16 --seed 2015 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones (tracing off); with `--trace 1` they are the
per-layer ones, derived from the spans of a traced run, which are also
written to `.bench_build/spans/`. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction

WORKLOADS = ["reroute_k32", "reroute_k16", "migrate_k24", "faulted_k16", "kmedian_k16"]
DEFAULT_SEED = 2015
DEFAULT_SECONDS = 55

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
HASH_STORE = os.path.join(BUILD_DIR, "run_hashes.json")
DRIVER = os.path.join(BUILD_DIR, "sheriff_perfbench")
DRIVER_TIMEOUT_S = 170

# Standard percentiles a timing may be reported at; a run reports the
# highest one that still has at least ten samples beyond it.
PERCENTILES = (50, 90, 95, 99, 99.9)
MIN_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "rounds_per_s": "rounds/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "checkpoint_save_ms": "ms",
    "checkpoint_load_ms": "ms",
    "peak_rss_mb": "MiB",
}


# --- statistics ---------------------------------------------------------------


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), p) - 1]


def nearest_rank(n, p):
    """1-based rank of the p-th percentile of n samples, in exact arithmetic
    (99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - nearest_rank(n, p)


def highest_percentile(n):
    """The highest standard percentile with >= MIN_BEYOND samples beyond it
    (None when even the median has fewer)."""
    allowed = [p for p in PERCENTILES if samples_beyond(n, p) >= MIN_BEYOND]
    return allowed[-1] if allowed else None


def self_time_ns(span):
    """A span's duration minus the part its child spans cover."""
    return span["dur_ns"] - sum(span.get("children", {}).values())


def ratio(num, den):
    return num / den if den else 0.0


# --- build and run --------------------------------------------------------------


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver; build output goes to stderr
    so that stdout ends with the result line."""
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail(f"no Sheriff sources: {required} is missing from {ROOT}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build failed")


def run_driver(workload, seed, seconds, trace):
    """Runs one workload in the driver process and returns its raw document."""
    command = [DRIVER, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                                timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish {workload} within {DRIVER_TIMEOUT_S} s")
    if result.returncode != 0:
        fail(f"driver exited with code {result.returncode} on {workload}")
    try:
        return json.loads(result.stdout)
    except json.JSONDecodeError as error:
        fail(f"driver output is not JSON: {error}")


def driver_digest():
    with open(DRIVER, "rb") as binary:
        return hashlib.sha256(binary.read()).hexdigest()[:16]


# --- reduction ------------------------------------------------------------------


class Checks:
    """Output checks: each one counts as attempted; a failure never stops
    the run, it is counted and named."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, name):
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def spans_of(raw, reps, name):
    ids = {rep["span"] for rep in reps}
    return [s for s in raw["spans"] if s["name"] == name and s["parent"] in ids]


def round_spans(raw, reps):
    return spans_of(raw, reps, "round")


def rep_spans(raw, rep, name):
    return [s for s in raw["spans"] if s["name"] == name and s["parent"] == rep["span"]]


def rounds_per_s(rounds):
    return ratio(len(rounds), sum(s["dur_ns"] for s in rounds) / 1e9)


def ms(ns):
    return ns / 1e6


def by_seed(reps):
    """The repetitions grouped by the sub-seed they simulated, in run order."""
    groups = {}
    for rep in reps:
        groups.setdefault(rep["seed"], []).append(rep)
    return list(groups.values())


def check_run(raw, checks, store):
    """Per-repetition and cross-run output checks."""
    reps = raw["reps"]
    timed = raw["timed_rounds"]
    untraced = [r for r in reps if not r["observe"]]
    traced = [r for r in reps if r["observe"]]
    for i, rep in enumerate(reps):
        checks.check(not rep["error"], f"rep {i} raised: {rep['error']}")
        if rep["error"]:
            continue
        checks.check(rep["resume_parity"], f"rep {i}: resumed engine diverged from the original")
        rounds = rep_spans(raw, rep, "round")
        checks.check(len(rounds) == timed, f"rep {i}: {len(rounds)} of {timed} rounds timed")
        checks.check(all(self_time_ns(s) >= 0 for s in rounds),
                     f"rep {i}: phase children exceed a round's wall time")
    ok_untraced = [r for r in untraced if not r["error"]]
    first_of_seed = {}
    for group in by_seed(ok_untraced):
        first = first_of_seed[group[0]["seed"]] = group[0]
        for i, rep in enumerate(group[1:], 1):
            checks.check(rep["csv_hash"] == first["csv_hash"],
                         f"seed {rep['seed']} untraced rep {i}: metrics CSV differs from rep 0")
            checks.check(rep["checkpoint_hash"] == first["checkpoint_hash"],
                         f"seed {rep['seed']} untraced rep {i}: checkpoint bytes differ from rep 0")
        # The same driver binary on the same (workload, seed) must reproduce
        # the hashes of every earlier run in this build directory.
        key = f"{store['digest']}/{raw['workload']}/{first['seed']}"
        seen = store["runs"].setdefault(key, {"csv": first["csv_hash"],
                                              "checkpoint": first["checkpoint_hash"]})
        checks.check(seen["csv"] == first["csv_hash"],
                     f"seed {first['seed']}: metrics CSV differs from an earlier run")
        checks.check(seen["checkpoint"] == first["checkpoint_hash"],
                     f"seed {first['seed']}: checkpoint bytes differ from an earlier run")
    for rep in traced:
        if rep["error"]:
            continue
        if rep["seed"] in first_of_seed:
            checks.check(rep["csv_hash"] == first_of_seed[rep["seed"]]["csv_hash"],
                         f"seed {rep['seed']} traced rep: observability changed the metrics CSV")
        counts = rep["counts"]
        checks.check(counts.get("auditor.violations", -1) == 0,
                     f"auditor reported {counts.get('auditor.violations')} violations")
        checks.check(counts.get("auditor.rounds_audited", -1) == timed,
                     f"auditor audited {counts.get('auditor.rounds_audited')} of {timed} rounds")
    if raw["trace"]:
        n = len(round_spans(raw, [r for r in traced if not r["error"]]))
    else:
        n = len(pooled_round_ns(raw, ok_untraced))
    top = highest_percentile(n)
    checks.check(top is not None and top >= 90,
                 f"{n} round samples: p90 has fewer than {MIN_BEYOND} samples beyond it")


def best_round_ns(raw, reps):
    """Per round index, the fastest host time across repetitions of one
    sub-seed. Every such repetition simulates the same rounds (the checks
    pin this), so the minimum filters out interference from other load on
    the host, never simulated work."""
    columns = zip(*([s["dur_ns"] for s in rep_spans(raw, rep, "round")] for rep in reps))
    return [min(column) for column in columns]


def pooled_round_ns(raw, reps):
    """best_round_ns of each sub-seed, concatenated."""
    return [ns for group in by_seed(reps) for ns in best_round_ns(raw, group)]


def end_to_end(raw):
    reps = [r for r in raw["reps"] if not r["observe"] and not r["error"]]
    groups = by_seed(reps)
    rounds = pooled_round_ns(raw, reps)
    setups = [sum(s["dur_ns"] for s in rep_spans(raw, rep, "setup.topology") +
                  rep_spans(raw, rep, "setup.engine")) / 1e9 for rep in reps]

    def mean_over_seeds(statistic):
        return statistics.fmean(statistic(group) for group in groups)

    def fastest_save(group):
        return min(statistics.median(s["dur_ns"] for s in rep_spans(raw, rep, "checkpoint.save"))
                   for rep in group)

    def fastest_load(group):
        return min(s["dur_ns"] for rep in group for s in rep_spans(raw, rep, "checkpoint.load"))

    values = {
        "setup_s": statistics.median(setups),
        "rounds_per_s": ratio(len(rounds), sum(rounds) / 1e9),
        "round_ms_p50": ms(percentile(rounds, 50)),
        "round_ms_p90": ms(percentile(rounds, 90)),
        "checkpoint_save_ms": ms(mean_over_seeds(fastest_save)),
        "checkpoint_load_ms": ms(mean_over_seeds(fastest_load)),
        "peak_rss_mb": mean_over_seeds(
            lambda group: statistics.median(rep["peak_rss_kib"] for rep in group)) / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


PER_LAYER = {  # name: unit
    "setup.topology_ms": "ms",
    "setup.engine_ms": "ms",
    "core.manage_commit_ms": "ms",
    "net.router.tree_hits": "count",
    "net.router.tree_misses": "count",
    "net.fair_share_ms": "ms",
    "net.fair_share_build_ms": "ms",
    "net.fair_share_fill_ms": "ms",
    "net.fair_share.reused_ratio": "ratio",
    "net.fair_share.full_rebuilds": "count",
    "net.fair_share.arena_bytes": "B",
    "migration.decision_ms": "ms",
    "migration.cost_evaluated": "count",
    "migration.cost_pruned": "count",
    "migration.prune_ratio": "ratio",
    "graph.kmedian_ms": "ms",
    "core.manage_schedule_ms": "ms",
    "workload.advance_route_ms": "ms",
    "net.router.path_hits": "count",
    "net.router.path_misses": "count",
    "net.router.path_hit_ratio": "ratio",
    "fault.ms": "ms",
    "snapshot.bytes": "B",
    "core.predict_ms": "ms",
    "net.queue_ms": "ms",
    "core.manage_propose_ms": "ms",
    "core.round_self_ms": "ms",
    "sim.alerts": "count",
    "sim.migrations": "count",
    "sim.reroutes": "count",
    "sim.protocol_iterations": "count",
    "sim.protocol_retries": "count",
    "sim.shard_conflicts": "count",
    "sim.recovery_migrations": "count",
    "graph.calibration_bfs_ms": "ms",
    "net.route_all_cold_ms": "ms",
    "net.fair_share_cold_ms": "ms",
    "net.fair_share_warm_ms": "ms",
    "migration.cost_eval_ns": "ns",
    "trace.overhead_pct": "%",
}


def per_layer(raw):
    """Per-layer metrics of a traced run: per-round p50 of the round spans'
    phase children and parts, counts of the first traced repetition, probe
    spans, and traced-vs-untraced throughput."""
    traced = [r for r in raw["reps"] if r["observe"] and not r["error"]]
    untraced = [r for r in raw["reps"] if not r["observe"] and not r["error"]]
    rounds = round_spans(raw, traced)

    def child_p50(name):
        return ms(percentile([s["children"][name] for s in rounds], 50))

    def part_p50(name):
        return ms(percentile([s["parts"][name] for s in rounds], 50))

    def span_median_ms(name):
        return ms(statistics.median(s["dur_ns"] for s in spans_of(raw, traced, name)))

    def probe_spans(name):
        probe_parents = {s["id"] for s in spans_of(raw, traced, "probes")}
        return [s for s in raw["spans"] if s["name"] == name and s["parent"] in probe_parents]

    counts = traced[0]["counts"]
    tree_hits, tree_misses = counts["router.tree_hits"], counts["router.tree_misses"]
    path_hits, path_misses = counts["router.path_hits"], counts["router.path_misses"]
    reused, affected = counts["fair_share.reused_flows"], counts["fair_share.affected_flows"]
    evaluated, pruned = counts["cost.evaluated"], counts["cost.pruned"]
    cost_eval = [s["dur_ns"] / s["attrs"]["pairs"] for s in probe_spans("probe.cost_eval")
                 if s["attrs"]["pairs"] > 0]
    traced_rate = rounds_per_s(rounds)
    untraced_rate = rounds_per_s(round_spans(raw, untraced))
    values = {
        "setup.topology_ms": span_median_ms("setup.topology"),
        "setup.engine_ms": span_median_ms("setup.engine"),
        "core.manage_commit_ms": part_p50("manage.commit"),
        "net.router.tree_hits": tree_hits,
        "net.router.tree_misses": tree_misses,
        "net.fair_share_ms": child_p50("fair_share"),
        "net.fair_share_build_ms": part_p50("fair_share.build"),
        "net.fair_share_fill_ms": part_p50("fair_share.fill"),
        "net.fair_share.reused_ratio": ratio(reused, reused + affected),
        "net.fair_share.full_rebuilds": counts["fair_share.full_rebuilds"],
        "net.fair_share.arena_bytes": counts["fair_share.arena_bytes"],
        "migration.decision_ms": part_p50("manage.decision"),
        "migration.cost_evaluated": evaluated,
        "migration.cost_pruned": pruned,
        "migration.prune_ratio": ratio(pruned, evaluated + pruned),
        "graph.kmedian_ms": part_p50("manage.kmedian"),
        "core.manage_schedule_ms": part_p50("manage.schedule"),
        "workload.advance_route_ms": child_p50("workload"),
        "net.router.path_hits": path_hits,
        "net.router.path_misses": path_misses,
        "net.router.path_hit_ratio": ratio(path_hits, path_hits + path_misses),
        "fault.ms": child_p50("fault"),
        "snapshot.bytes": untraced[0]["checkpoint_bytes"] if untraced else 0,
        "core.predict_ms": child_p50("predict"),
        "net.queue_ms": child_p50("queue"),
        "core.manage_propose_ms": part_p50("manage.propose_busy"),
        "core.round_self_ms": ms(percentile([self_time_ns(s) for s in rounds], 50)),
        "graph.calibration_bfs_ms": statistics.median(raw["calibration_ms"]),
        "net.route_all_cold_ms": ms(statistics.median(
            s["dur_ns"] for s in probe_spans("probe.route_all_cold"))),
        "net.fair_share_cold_ms": ms(statistics.median(
            s["dur_ns"] for s in probe_spans("probe.fair_share_cold"))),
        "net.fair_share_warm_ms": ms(statistics.median(
            s["dur_ns"] for s in probe_spans("probe.fair_share_warm"))),
        "migration.cost_eval_ns": statistics.median(cost_eval) if cost_eval else 0.0,
        "trace.overhead_pct": (ratio(untraced_rate, traced_rate) - 1.0) * 100.0,
    }
    for name in ("alerts", "migrations", "reroutes", "protocol_iterations", "protocol_retries",
                 "shard_conflicts", "recovery_migrations"):
        values[f"sim.{name}"] = counts[f"sim.{name}"]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def write_spans(raw):
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"{raw['workload']}-seed{raw['seed']}.jsonl")
    with open(path, "w") as out:
        for span in raw["spans"]:
            out.write(json.dumps(span, separators=(",", ":")) + "\n")
    return path


def load_store():
    try:
        with open(HASH_STORE) as f:
            runs = json.load(f)
    except (OSError, json.JSONDecodeError):
        runs = {}
    return {"digest": driver_digest(), "runs": runs}


def save_store(store):
    tmp = HASH_STORE + ".tmp"
    with open(tmp, "w") as f:
        json.dump(store["runs"], f, indent=1, sort_keys=True)
    os.replace(tmp, HASH_STORE)


def measure(workload, seed, seconds, trace, store):
    """Runs one workload and returns (metrics, checks)."""
    raw = run_driver(workload, seed, seconds, trace)
    checks = Checks()
    check_run(raw, checks, store)
    usable = [r for r in raw["reps"] if not r["error"] and r["observe"] == bool(trace)]
    if not usable or (trace and not any(not r["observe"] and not r["error"]
                                         for r in raw["reps"])):
        fail(f"{workload}: no repetition completed")
    n = len(round_spans(raw, usable)) if trace else len(pooled_round_ns(raw, usable))
    print(f"{workload} seed={seed} trace={trace}: {len(raw['reps'])} repetitions, "
          f"{n} round samples (highest percentile with >= {MIN_BEYOND} samples beyond: "
          f"p{highest_percentile(n)}), {raw['threads']} pool threads, "
          f"calibration BFS sweep {statistics.median(raw['calibration_ms']):.2f} ms")
    if trace:
        print(f"  spans: {write_spans(raw)}")
        return per_layer(raw), checks
    return end_to_end(raw), checks


def report(metrics, checks):
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>14.4f} {metric['unit']}")
    print(f"  checks: {checks.attempted - len(checks.failures)} of {checks.attempted} passed")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    build()
    store = load_store()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {}
    total = Checks()
    for name in names:
        metrics, checks = measure(name, args.seed, args.seconds, args.trace, store)
        report(metrics, checks)
        total.attempted += checks.attempted
        total.failures += [f"{name}: {f}" for f in checks.failures]
        if len(names) == 1:
            combined = metrics
        else:
            combined.update({f"{name}.{k}": v for k, v in metrics.items()})
    save_store(store)
    print(json.dumps({"correct": not total.failures, "attempted": total.attempted,
                      "failed": len(total.failures), "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

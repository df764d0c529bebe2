#!/usr/bin/env python3
"""Schema guard for the smoke-mode BENCH_*.json files CI produces.

Not a performance gate: CI runners are too noisy to compare wall times. What
this catches is a benchmark that silently stopped measuring — a required key
gone missing after a refactor, a workload that returned zero rows against a
preloaded graph, a NaN/zero timing from a broken clock path — so a regression
to "the bench runs but measures nothing" fails the build instead of landing.

Usage: python3 scripts/bench_check.py BENCH_writes_smoke.json [more.json ...]
"""

import json
import math
import sys

# Per-suite required keys for every entry of "results". A file whose "suite"
# is unknown fails loudly: new suites must register here, which is exactly
# the forcing function that keeps this guard in sync with the bench bins.
REQUIRED_RESULT_KEYS = {
    "writes": {"mode", "threshold", "wall_ms", "writes", "reads", "writes_per_sec", "checksum"},
    "network": {"op", "queries", "wall_ms", "qps", "rows"},
    "algos": {"dataset", "algorithm", "wall_ms", "iterations", "result"},
    "mixed": {"mode", "queries", "wall_ms", "qps", "rows"},
}

# Numeric keys that must be finite and strictly positive: a zero or NaN here
# means the op was not actually measured (or measured nothing).
POSITIVE_KEYS = {"wall_ms", "writes_per_sec", "qps", "writes", "queries", "rows", "checksum"}

# The network suite also reports the server's own GRAPH.INFO deltas. These
# keys must be present; the *_positive subset must be > 0 (a zero means the
# registry stopped counting even though the bench drove real traffic), and
# connections_active must be <= 1 after the run (only the polling client) —
# anything higher is a leaked connection slot.
NETWORK_METRIC_KEYS = {
    "queries_executed",
    "queries_readonly",
    "bytes_in",
    "bytes_out",
    "connections_accepted",
    "connections_active",
    "connections_refused",
    "plan_cache_hits",
    "plan_cache_misses",
    "plan_cache_evictions",
}
NETWORK_METRIC_POSITIVE = {
    "queries_executed",
    "queries_readonly",
    "bytes_in",
    "bytes_out",
    "connections_accepted",
    # The param_point_cached workload repeats one normalized query shape, so
    # a run with zero cache hits means the plan cache stopped serving.
    "plan_cache_hits",
}


def check_network_metrics(path, doc):
    problems = []
    metrics = doc.get("server_metrics")
    if not isinstance(metrics, dict):
        return [f"{path}: network suite must report a 'server_metrics' object"]
    missing = NETWORK_METRIC_KEYS - set(metrics)
    if missing:
        problems.append(f"{path}: server_metrics missing keys: {sorted(missing)}")
    for key in NETWORK_METRIC_POSITIVE & set(metrics):
        value = metrics[key]
        if not isinstance(value, int) or value <= 0:
            problems.append(
                f"{path}: server_metrics.{key} = {value!r} — the registry "
                f"recorded nothing for a bench that drove real traffic"
            )
    active = metrics.get("connections_active")
    if isinstance(active, int) and active > 1:
        problems.append(
            f"{path}: server_metrics.connections_active = {active} after the "
            f"run — connection slots leaked (only the polling client may remain)"
        )
    return problems


# The plan cache exists to make repeated query shapes cheaper; CI noise can
# flip a few percent either way, but the cached run falling this far behind
# the uncached one means lookups cost more than the planning they save.
PLAN_CACHE_SLOWDOWN_TOLERANCE = 1.25


def check_network_plan_cache(path, doc):
    by_op = {}
    for entry in doc.get("results") or []:
        if isinstance(entry, dict) and "op" in entry:
            by_op[entry["op"]] = entry
    missing = {"param_point_cached", "param_point_uncached"} - set(by_op)
    if missing:
        return [f"{path}: network suite missing param_point ops: {sorted(missing)}"]
    cached = by_op["param_point_cached"].get("qps")
    uncached = by_op["param_point_uncached"].get("qps")
    if not all(isinstance(v, (int, float)) and v > 0 for v in (cached, uncached)):
        return []  # the generic positive-keys check reports these
    if cached * PLAN_CACHE_SLOWDOWN_TOLERANCE < uncached:
        return [
            f"{path}: param_point cached throughput {cached:.0f} qps fell behind "
            f"uncached {uncached:.0f} qps — the plan cache made queries slower"
        ]
    return []


def check_file(path):
    problems = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]

    suite = doc.get("suite")
    if suite is None:
        return [f"{path}: missing top-level 'suite' key"]
    required = REQUIRED_RESULT_KEYS.get(suite)
    if required is None:
        return [
            f"{path}: unknown suite '{suite}' — register its schema in "
            f"scripts/bench_check.py"
        ]

    if suite == "network":
        problems.extend(check_network_metrics(path, doc))
        problems.extend(check_network_plan_cache(path, doc))

    results = doc.get("results")
    if not isinstance(results, list) or not results:
        return problems + [f"{path}: 'results' must be a non-empty list"]

    for i, entry in enumerate(results):
        if not isinstance(entry, dict):
            problems.append(f"{path}: results[{i}] is not an object")
            continue
        missing = required - set(entry)
        if missing:
            problems.append(
                f"{path}: results[{i}] missing required keys: {sorted(missing)}"
            )
        for key, value in entry.items():
            if key not in POSITIVE_KEYS:
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"{path}: results[{i}].{key} is not a number: {value!r}")
            elif math.isnan(value) or math.isinf(value):
                problems.append(f"{path}: results[{i}].{key} is {value} (not finite)")
            elif value <= 0:
                problems.append(
                    f"{path}: results[{i}].{key} = {value} — measured op regressed "
                    f"to zero (bench ran but measured nothing)"
                )
    return problems


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    all_problems = []
    for path in argv[1:]:
        all_problems.extend(check_file(path))
    if all_problems:
        for p in all_problems:
            print(f"bench_check: FAIL: {p}", file=sys.stderr)
        return 1
    print(f"bench_check: OK ({len(argv) - 1} file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Guard the benchmark trajectory: fresh BENCH_*.json vs committed baselines.

Every perf-bearing benchmark persists its headline numbers as
BENCH_<name>.json (bench_common.hpp's BenchJson).  The repository keeps the
blessed numbers at the repo root; CI regenerates them into
$SOCPOWER_BENCH_JSON_DIR and this script compares the two sets:

  * schema: every fresh file must carry a non-empty "bench" and "git_sha"
    and only finite numeric metrics (NaN/Inf means a broken measurement,
    not a slow one);
  * trend: a metric that regresses by more than --threshold (default 25 %)
    against its committed baseline fails the run.  Its direction comes only
    from PINNED, keyed "<bench>.<metric>": "exact" invariants must match
    exactly, "lower" metrics must not grow, "higher" metrics must not
    shrink, and "info" metrics (point counts, gate counts, workload sizes)
    are printed but never gate.  A metric present on both sides with no
    PINNED entry fails the run: a direction is declared, never guessed
    from the name.

Benchmarks present on only one side are skipped with a note: adding a new
benchmark must not fail the trend gate, and retiring one is a review
decision, not a CI decision.

--self-test checks the guard itself instead: every metric of the committed
BENCH_*.json must have an entry in PINNED, every PINNED entry must name a
committed metric (so a rename cannot leave a stale entry behind), and a few
synthetic baselines must pass or fail as expected.

Usage: check_bench_trend.py [--baseline-dir DIR] [--current-dir DIR]
                            [--threshold FRACTION]
       check_bench_trend.py --self-test [--baseline-dir DIR]
Exit code 0 when every compared metric holds, 1 otherwise.
"""

import argparse
import glob
import json
import math
import os
import sys

# The direction of every metric in the committed BENCH_*.json, as
# "<bench>.<metric>": direction.  This table is the only source of a
# metric's direction; --self-test fails when a committed metric has no entry
# here or an entry names no committed metric.
PINNED = {
    "analytical_explore.err_pct_tcpip": "lower",
    "analytical_explore.err_pct_prodcons": "lower",
    "analytical_explore.points": "info",
    "analytical_explore.sampled_gate_points": "info",
    "analytical_explore.analytical_sweep_s": "lower",
    "analytical_explore.gate_sweep_est_s": "lower",
    "analytical_explore.speedup_x": "higher",
    "analytical_explore.err_pct_dsp_max": "lower",
    "analytical_explore.engine_gates": "info",
    "analytical_explore.prefilter_kept": "info",
    "analytical_explore.prefilter_identical": "exact",
    "hw_reaction_cache.reactions": "info",
    "hw_reaction_cache.speedup_counter_datapath": "higher",
    "hw_reaction_cache.hit_rate_counter_datapath": "higher",
    "hw_reaction_cache.speedup_pipeline_mix": "higher",
    "hw_reaction_cache.hit_rate_pipeline_mix": "higher",
    "hw_reaction_cache.speedup_min": "higher",
    "hw_reaction_cache.bit_identical": "exact",
    "iss_throughput.runs": "info",
    "iss_throughput.speedup_checksum64": "higher",
    "iss_throughput.cached_mips_checksum64": "info",
    "iss_throughput.speedup_memfill32": "higher",
    "iss_throughput.cached_mips_memfill32": "info",
    "iss_throughput.speedup_alu_mix": "higher",
    "iss_throughput.cached_mips_alu_mix": "info",
    "iss_throughput.speedup_min": "higher",
    "iss_throughput.bit_identical": "exact",
    "parallel_explore.points": "info",
    "parallel_explore.max_threads": "info",
    "parallel_explore.explore_serial_s": "lower",
    "parallel_explore.explore_best_speedup": "higher",
    "parallel_explore.flush_serial_s": "lower",
    "parallel_explore.flush_speedup": "higher",
    "parallel_explore.bit_identical": "exact",
    "serve_warm.cold_s": "lower",
    "serve_warm.warm_s": "lower",
    "serve_warm.speedup_x": "higher",
    "serve_warm.cold_hit_rate": "higher",
    "serve_warm.warm_hit_rate": "higher",
    "serve_warm.checkpoint_bytes": "info",
    "serve_warm.bit_identical": "exact",
    "table1_caching.speedup_min": "higher",
    "table1_caching.speedup_max": "higher",
    "table1_caching.zero_energy_error": "exact",
    "table1_caching.iss_profile_monotone": "exact",
}
for _ic in ("bus", "noc"):
    for _cores in (1, 2, 4):
        _p = f"noc_contention.{_ic}_c{_cores}_"
        PINNED[_p + "sep_error"] = "lower"
        PINNED[_p + "co_energy_j"] = "info"
        PINNED[_p + "ic_wait_cycles"] = "info"
        PINNED[_p + "ic_energy_j"] = "info"


def fail(msg):
    print(f"check_bench_trend: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: unreadable ({e})")
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not an object")
    for key in ("bench", "git_sha"):
        if not isinstance(doc.get(key), str) or not doc[key]:
            fail(f"{path}: missing or empty '{key}'")
    metrics = {}
    for key, value in doc.items():
        if key in ("bench", "git_sha"):
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(f"{path}: metric '{key}' is not numeric")
        if not math.isfinite(value):
            fail(f"{path}: metric '{key}' is not finite ({value})")
        metrics[key] = float(value)
    return doc["bench"], metrics


def verdict_for(kind, base, cur, threshold):
    """"ok", or why `cur` regresses from `base` for a metric of `kind`
    (None: the metric has no PINNED direction, which always fails)."""
    if kind is None:
        return "NOT PINNED (add its direction to PINNED)"
    if kind == "exact":
        if cur != base:
            return f"REGRESSION (expected {base}, got {cur})"
    elif kind == "lower":
        if cur > base * (1.0 + threshold):
            return f"REGRESSION (+{100.0 * (cur / base - 1.0):.1f}%)" \
                if base > 0 else f"REGRESSION ({base} -> {cur})"
    elif kind == "higher":
        if cur < base * (1.0 - threshold):
            return f"REGRESSION (-{100.0 * (1.0 - cur / base):.1f}%)" \
                if base > 0 else f"REGRESSION ({base} -> {cur})"
    return "ok"


def self_test(baseline_dir):
    problems = []
    seen = set()
    paths = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
    if not paths:
        problems.append(f"no committed BENCH_*.json in {baseline_dir}")
    for path in paths:
        bench, metrics = load(path)
        for name in metrics:
            key = f"{bench}.{name}"
            seen.add(key)
            if key not in PINNED:
                problems.append(f"{key}: no pinned direction")
    for key in sorted(set(PINNED) - seen):
        problems.append(f"{key}: pinned but in no committed BENCH file")
    # The gate itself: flips of the exact invariants fail, a faster run
    # passes, a 30 % slower one fails, an unpinned metric fails.
    cases = [("exact", 1.0, 0.0, False), ("exact", 1.0, 1.0, True),
             ("lower", 1.0, 0.5, True), ("lower", 1.0, 1.3, False),
             ("higher", 10.0, 12.0, True), ("higher", 10.0, 7.0, False),
             ("info", 1.0, 100.0, True), (None, 1.0, 1.0, False)]
    for kind, base, cur, passes in cases:
        if (verdict_for(kind, base, cur, 0.25) == "ok") != passes:
            problems.append(f"verdict_for({kind}, {base} -> {cur}) should "
                            f"{'pass' if passes else 'fail'}")
    for p in problems:
        print(f"check_bench_trend --self-test: {p}", file=sys.stderr)
    if problems:
        sys.exit(1)
    print(f"check_bench_trend --self-test: OK ({len(seen)} metrics pinned)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", default=None,
                    help="directory of committed BENCH_*.json "
                         "(default: repository root, next to this script)")
    ap.add_argument("--current-dir", default=None,
                    help="directory of freshly generated BENCH_*.json "
                         "(default: $SOCPOWER_BENCH_JSON_DIR, else cwd)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional regression (default 0.25)")
    ap.add_argument("--self-test", action="store_true",
                    help="check the pinned metric directions and the "
                         "verdict rules, then exit")
    args = ap.parse_args()

    baseline_dir = args.baseline_dir or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..")
    if args.self_test:
        self_test(baseline_dir)
        return
    current_dir = args.current_dir or os.environ.get(
        "SOCPOWER_BENCH_JSON_DIR") or "."

    current_files = sorted(glob.glob(os.path.join(current_dir,
                                                  "BENCH_*.json")))
    if not current_files:
        fail(f"no BENCH_*.json found in {current_dir}")

    failures = []
    compared = 0
    for path in current_files:
        bench, current = load(path)
        base_path = os.path.join(baseline_dir, os.path.basename(path))
        if not os.path.exists(base_path):
            print(f"  {bench}: no committed baseline, skipped")
            continue
        _, baseline = load(base_path)
        for name in sorted(current):
            if name not in baseline:
                print(f"  {bench}.{name}: new metric, skipped")
                continue
            cur, base = current[name], baseline[name]
            kind = PINNED.get(f"{bench}.{name}")
            if kind == "info":
                print(f"  {bench}.{name}: {base:g} -> {cur:g} (info)")
                continue
            verdict = verdict_for(kind, base, cur, args.threshold)
            compared += 1
            print(f"  {bench}.{name} [{kind or 'unpinned'}]: "
                  f"{base:g} -> {cur:g}  {verdict}")
            if verdict != "ok":
                failures.append(f"{bench}.{name}: {verdict}")

    if failures:
        for f in failures:
            print(f"check_bench_trend: {f}", file=sys.stderr)
        sys.exit(1)
    print(f"check_bench_trend: OK ({compared} metrics compared, "
          f"threshold {100.0 * args.threshold:.0f}%)")


if __name__ == "__main__":
    main()

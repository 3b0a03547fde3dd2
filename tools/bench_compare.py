#!/usr/bin/env python3
"""Perf-regression gate over the committed BENCH_*.json trajectory.

Compares one or more fresh bench_snapshot.sh outputs (repeated runs of the
same commit) against a committed baseline snapshot and fails when any
gated metric regressed beyond its threshold *and* beyond the measured
noise band of the repeated runs.

    # gate the working tree against the newest committed snapshot
    tools/bench_snapshot.sh build/tools/parapll_cli /tmp/now1.json
    tools/bench_snapshot.sh build/tools/parapll_cli /tmp/now2.json
    python3 tools/bench_compare.py --current /tmp/now1.json /tmp/now2.json

    # explicit baseline / thresholds
    python3 tools/bench_compare.py --baseline BENCH_5.json \
        --current /tmp/now.json --threshold-build-pct 25

Gated metrics (direction-aware):
    parallel_build_seconds   lower is better
    batched_query_mqps       higher is better
    per_call_query_mqps      higher is better
    serve_closed_qps         higher is better (skipped when the baseline
                             predates the serving daemon)
    serve_closed_p99_ms      lower is better (skipped when the baseline
                             predates the latency column; gated loosely —
                             tail latency on shared runners is the
                             noisiest number here)

Decision rule, per metric: take the median across --current runs, compute
the regression percentage against the baseline, and fail only when it
exceeds max(threshold, noise band), where the noise band is the half
spread (max-min)/2 of the repeated runs as a percentage of their median.
One noisy CI run therefore cannot fail the gate by itself, but a genuine
2x regression always does. Thresholds are deliberately generous: shared
CI runners jitter by tens of percent; this gate exists to catch the big
accidental regressions, not 5% drifts (track those in the trajectory).

`--self-test` exercises the gate against synthetic snapshots (no-change
pass, 2x build regression fail, 2x query regression fail) and exits
non-zero on any misbehavior; CI runs it before trusting the gate.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys
import tempfile

# (metric, higher_is_better, cli threshold flag default)
#
# A metric absent from the baseline snapshot (or from a current run made
# by an older bench_snapshot.sh) is skipped, not failed: new metrics can
# join the gate without rewriting the committed trajectory, and become
# binding from the first snapshot that carries them.
GATED_METRICS = (
    ("parallel_build_seconds", False, "threshold_build_pct"),
    ("batched_query_mqps", True, "threshold_query_pct"),
    ("per_call_query_mqps", True, "threshold_query_pct"),
    ("batched_query_mqps_mmap", True, "threshold_query_pct"),
    ("serve_closed_qps", True, "threshold_query_pct"),
    ("serve_closed_p99_ms", False, "threshold_latency_pct"),
)


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def trajectory(root):
    """Committed snapshots as [(number, path)], sorted by number."""
    out = []
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        m = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if m:
            out.append((int(m.group(1)), path))
    return sorted(out)


def load(path):
    with open(path) as fh:
        return json.load(fh)


def regression_pct(baseline, current, higher_is_better):
    """Positive = regressed by that percentage; <= 0 = same or improved."""
    if baseline <= 0:
        return 0.0
    if higher_is_better:
        return (baseline - current) / baseline * 100.0
    return (current - baseline) / baseline * 100.0


def compare(baseline, runs, thresholds):
    """Returns (failures, table_rows) for the gated metrics."""
    failures = []
    rows = []
    for metric, higher_is_better, threshold_key in GATED_METRICS:
        if metric not in baseline or any(metric not in run for run in runs):
            rows.append((metric, 0.0, 0.0, 0.0, 0.0, 0.0, "skipped"))
            continue
        base = float(baseline[metric])
        values = [float(run[metric]) for run in runs]
        current = statistics.median(values)
        noise_pct = (
            (max(values) - min(values)) / 2.0 / current * 100.0
            if len(values) > 1 and current > 0
            else 0.0
        )
        threshold = float(thresholds[threshold_key])
        allowed = max(threshold, noise_pct)
        regressed = regression_pct(base, current, higher_is_better)
        verdict = "ok" if regressed <= allowed else "REGRESSED"
        if verdict != "ok":
            failures.append(metric)
        rows.append(
            (metric, base, current, regressed, noise_pct, allowed, verdict)
        )
    return failures, rows


def print_table(rows, baseline_name, run_count):
    header = (
        f"{'metric':<26} {'baseline':>10} {'current':>10} "
        f"{'delta%':>8} {'noise%':>7} {'allow%':>7}  verdict"
    )
    print(f"bench_compare: {run_count} run(s) vs {baseline_name}")
    print(header)
    print("-" * len(header))
    for metric, base, current, regressed, noise, allowed, verdict in rows:
        print(
            f"{metric:<26} {base:>10.3f} {current:>10.3f} "
            f"{regressed:>+8.1f} {noise:>7.1f} {allowed:>7.1f}  {verdict}"
        )


def print_trajectory(root):
    points = trajectory(root)
    if not points:
        return
    print("committed trajectory:")
    for number, path in points:
        snap = load(path)
        serve = (
            f", serve {snap['serve_closed_qps']:.0f} req/s"
            if "serve_closed_qps" in snap
            else ""
        )
        print(
            f"  BENCH_{number}: build {snap['parallel_build_seconds']:.3f}s, "
            f"batched {snap['batched_query_mqps']:.2f} Mq/s, "
            f"per-call {snap['per_call_query_mqps']:.2f} Mq/s{serve}"
        )


def self_test():
    """The gate gates: no-change passes, 2x regressions fail."""
    thresholds = {
        "threshold_build_pct": 40.0,
        "threshold_query_pct": 35.0,
        "threshold_latency_pct": 75.0,
    }
    base = {
        "parallel_build_seconds": 10.0,
        "batched_query_mqps": 5.0,
        "per_call_query_mqps": 3.0,
        "batched_query_mqps_mmap": 4.5,
        "serve_closed_qps": 50000.0,
        "serve_closed_p99_ms": 2.0,
    }

    def gate(current_overrides, runs=1):
        current = dict(base, **current_overrides)
        failures, _ = compare(base, [current] * runs, thresholds)
        return failures

    checks = [
        ("no-change rebuild passes", gate({}), []),
        (
            "2x build regression fails",
            gate({"parallel_build_seconds": 20.0}),
            ["parallel_build_seconds"],
        ),
        (
            "2x batched-query regression fails",
            gate({"batched_query_mqps": 2.5}),
            ["batched_query_mqps"],
        ),
        (
            "2x per-call regression fails",
            gate({"per_call_query_mqps": 1.5}),
            ["per_call_query_mqps"],
        ),
        (
            "2x serve-throughput regression fails",
            gate({"serve_closed_qps": 25000.0}),
            ["serve_closed_qps"],
        ),
        (
            "2x mmap-backend regression fails",
            gate({"batched_query_mqps_mmap": 2.0}),
            ["batched_query_mqps_mmap"],
        ),
        (
            "2x serve-p99 regression fails",
            gate({"serve_closed_p99_ms": 4.0}),
            ["serve_closed_p99_ms"],
        ),
        (
            "serve-p99 regression within threshold passes",
            gate({"serve_closed_p99_ms": 3.0}),
            [],
        ),
        (
            "serve-p99 improvement passes",
            gate({"serve_closed_p99_ms": 1.0}),
            [],
        ),
        ("improvement passes", gate({"parallel_build_seconds": 5.0}), []),
        (
            "regression within threshold passes",
            gate({"parallel_build_seconds": 11.0}),
            [],
        ),
    ]

    # Noise band: two runs spread so wide (6s vs 26s, median 16s) that the
    # median's nominal 60% regression sits inside the 62.5% half-spread
    # -> must pass.
    noisy_runs = [
        dict(base, parallel_build_seconds=6.0),
        dict(base, parallel_build_seconds=26.0),
    ]
    failures, _ = compare(base, noisy_runs, thresholds)
    checks.append(("regression inside the noise band passes", failures, []))

    # Skip-if-absent: a baseline committed before a metric joined the gate
    # (or a current run from an older snapshot script) must skip that
    # metric, never fail on it — in either direction.
    old_base = {k: v for k, v in base.items() if k != "serve_closed_qps"}
    failures, rows = compare(old_base, [dict(base)], thresholds)
    checks.append(("metric absent from baseline is skipped", failures, []))
    skipped = [row[0] for row in rows if row[6] == "skipped"]
    checks.append(
        ("absent metric is reported as skipped", skipped, ["serve_closed_qps"])
    )
    failures, _ = compare(
        base, [{k: v for k, v in base.items() if k != "serve_closed_qps"}],
        thresholds,
    )
    checks.append(("metric absent from a run is skipped", failures, []))

    # End-to-end through the CLI path with real temp files.
    with tempfile.TemporaryDirectory() as work:
        base_path = os.path.join(work, "base.json")
        bad_path = os.path.join(work, "bad.json")
        with open(base_path, "w") as fh:
            json.dump(base, fh)
        with open(bad_path, "w") as fh:
            json.dump(dict(base, parallel_build_seconds=20.0), fh)
        failures, rows = compare(
            load(base_path), [load(bad_path)], thresholds
        )
        print_table(rows, "base.json (self-test)", 1)
        checks.append(
            ("file round-trip flags the 2x build regression",
             failures, ["parallel_build_seconds"]),
        )

    ok = True
    for name, got, expected in checks:
        status = "PASS" if got == expected else "FAIL"
        if got != expected:
            ok = False
        print(f"self-test: {status} {name} (failures={got})")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description="compare bench snapshots against the committed trajectory"
    )
    parser.add_argument(
        "--current",
        nargs="+",
        metavar="FILE",
        help="snapshot(s) from this working tree (repeats = noise band)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="committed snapshot to gate against "
        "(default: highest-numbered BENCH_*.json in the repo root)",
    )
    parser.add_argument("--repo-root", default=repo_root())
    parser.add_argument(
        "--threshold-build-pct",
        type=float,
        default=40.0,
        help="max tolerated build-seconds regression (default %(default)s%%)",
    )
    parser.add_argument(
        "--threshold-query-pct",
        type=float,
        default=35.0,
        help="max tolerated Mq/s regression (default %(default)s%%)",
    )
    parser.add_argument(
        "--threshold-latency-pct",
        type=float,
        default=75.0,
        help="max tolerated serve-p99 regression (default %(default)s%%)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the gate itself, then exit",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.current:
        parser.error("--current is required (or use --self-test)")

    baseline_path = args.baseline
    if baseline_path is None:
        points = trajectory(args.repo_root)
        if not points:
            print(
                "bench_compare: no committed BENCH_*.json baseline found; "
                "nothing to gate against"
            )
            return 0
        baseline_path = points[-1][1]

    baseline = load(baseline_path)
    runs = [load(path) for path in args.current]
    thresholds = {
        "threshold_build_pct": args.threshold_build_pct,
        "threshold_query_pct": args.threshold_query_pct,
        "threshold_latency_pct": args.threshold_latency_pct,
    }
    failures, rows = compare(baseline, runs, thresholds)
    print_table(rows, os.path.basename(baseline_path), len(runs))
    print_trajectory(args.repo_root)
    if failures:
        print(f"bench_compare: REGRESSION in {', '.join(failures)}")
        return 1
    print("bench_compare: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

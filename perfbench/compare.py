#!/usr/bin/env python3
"""Compares two sets of perfbench results, refusing across hosts.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result records as run.py appends them to
.bench_out/results.jsonl; self-test (--tiny) runs are skipped. For every
workload present in both, it prints
the median of each end-to-end metric on both sides and whether the new
median is worse than the base by more than the metric's bound from
BENCHMARK.json. Results whose host fingerprints differ (CPU model, nproc,
L3, ISA flags, compiler, build type, flags) are reported as incomparable,
never as regressed, and so are runs of different --seconds. Exits 1
when a metric regressed, 3 when incomparable.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("cpu_model", "nproc", "l3", "isa", "compiler", "build_type",
             "cxx_flags")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, new = (
        [r for r in load(p) if r["trace"] == 0 and not r.get("tiny")
         and r["result"]["correct"]]
        for p in sys.argv[1:])
    if len({r["seconds"] for r in base + new}) > 1:
        print("incomparable: runs of different --seconds")
        sys.exit(3)
    hosts = {json.dumps({k: r["host"].get(k) for k in HOST_KEYS},
                        sort_keys=True) for r in base + new}
    if len(hosts) > 1:
        print("incomparable: results come from different hosts:")
        for host in sorted(hosts):
            print("  " + host)
        sys.exit(3)
    regressed = False
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        print(f"{workload}:")
        for name, spec in bounds.items():
            a = [r["result"]["metrics"][name]["value"] for r in base
                 if r["workload"] == workload and name in r["result"]["metrics"]]
            b = [r["result"]["metrics"][name]["value"] for r in new
                 if r["workload"] == workload and name in r["result"]["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            worse = change if spec["better"] == "lower" else -change
            verdict = "REGRESSED" if worse > spec["bound"] else "ok"
            regressed = regressed or verdict != "ok"
            print(f"  {name:22s} {ma:12.5g} -> {mb:12.5g} {spec['unit']:5s}"
                  f" {change:+7.1%} (bound {spec['bound']:.0%}, n={len(a)}/{len(b)})"
                  f" {verdict}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()

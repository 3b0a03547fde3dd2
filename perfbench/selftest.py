#!/usr/bin/env python3
"""Self-test for perfbench: runs every workload at a tiny size and checks
the result contract.

    python3 perfbench/selftest.py

For each workload it checks that --trace 0 emits exactly the end_to_end
metrics named in BENCHMARK.json and --trace 1 exactly the per_layer ones,
each with its unit; that the run is correct with at least one operation
attempted and none failed; and that a deliberately corrupted reference
distance (--corrupt-reference) makes the run fail. Run from the root of
the checkout; exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "2",
               "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result = run(workload, trace)
            tag = f"{workload} --trace {trace}"
            check(code == 0 and result is not None, f"{tag} exits 0 with a result")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag} result has exactly the four keys")
            check(result["correct"] and result["attempted"] >= 1
                  and result["failed"] == 0,
                  f"{tag} is correct ({result['attempted']} attempted, "
                  f"{result['failed']} failed)")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = expected[trace]
            diff = (f" (missing {sorted(set(want) - set(got))},"
                    f" extra {sorted(set(got) - set(want))},"
                    f" wrong unit {sorted(k for k in got if k in want and got[k] != want[k])})")
            check(got == want, f"{tag} emits every named metric with its unit"
                  + ("" if got == want else diff))
            check(all(isinstance(m["value"], (int, float))
                      for m in result["metrics"].values()),
                  f"{tag} metric values are numbers")
    code, result = run("road", 0, "--corrupt-reference")
    check(code != 0 and result is not None and not result["correct"]
          and result["failed"] >= 1,
          "a corrupted reference distance fails the run")
    print("selftest passed")


if __name__ == "__main__":
    main()

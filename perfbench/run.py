#!/usr/bin/env python3
"""perfbench entry point.

Builds the benchmark driver from this checkout's sources (src/ plus
perfbench/), runs one workload, and prints the result as the last line of
standard output:

    python3 perfbench/run.py --workload social --seed 3 --seconds 25 --trace 0

The end-to-end times and rates in the result are scaled to a nominal host
clock (see perfbench/README.md); the "raw:" line before it holds them
unscaled, with the scale, and the "host:" line the host fingerprint.
Every result is also appended, with both, to .bench_out/results.jsonl;
compare.py reads those files and refuses to compare results from
different hosts.
Run from the root of the checkout. Exits non-zero without a result line
when the sources are missing or the build fails.
"""
import argparse
import json
import os
import platform
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("social", "road")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "perfbench_driver"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(step))
    return os.path.join(bdir, "perfbench_driver")


def read_first(path, default=""):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def host_fingerprint(build_info):
    cpuinfo = read_first("/proc/cpuinfo")
    model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.M)
    flags = re.search(r"^flags\s*:\s*(.*)$", cpuinfo, re.M)
    wanted = ("sse4_2", "avx", "avx2", "bmi2", "fma", "avx512f", "avx512bw",
              "avx512vl")
    present = set(flags.group(1).split()) if flags else set()
    l3 = ""
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        for entry in sorted(os.listdir(cache_dir)):
            if read_first(os.path.join(cache_dir, entry, "level")) == "3":
                l3 = read_first(os.path.join(cache_dir, entry, "size"))
    return {
        "cpu_model": model.group(1) if model else platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3": l3,
        "isa": [f for f in wanted if f in present],
        "kernel": platform.release(),
        "compiler": build_info.get("compiler", ""),
        "build_type": build_info.get("build_type", ""),
        "cxx_flags": build_info.get("cxx_flags", "").strip(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (self-test only)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="corrupt one reference distance (self-test only)")
    args = parser.parse_args()

    driver = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    result = None
    build_info = {}
    raw = None
    for line in lines:
        if line.startswith("build: "):
            build_info = json.loads(line[len("build: "):])
        elif line.startswith("raw: "):
            raw = json.loads(line[len("raw: "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        fail(f"driver exited with {proc.returncode} and no result")
    host = host_fingerprint(build_info)
    with open(os.path.join(out_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "tiny": args.tiny, "host": host,
                            "raw": raw, "result": result}) + "\n")
    if raw is not None:
        print("raw: " + json.dumps(raw))
    print("host: " + json.dumps(host))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

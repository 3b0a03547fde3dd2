#!/bin/sh
# Perf-trajectory snapshot: builds a fixed seeded graph with the parallel
# indexer, measures batched query throughput, and drives a parapll_serve
# daemon with the closed-loop load generator, then emits the numbers as
# BENCH_<N>.json so successive commits have comparable data points.
#
# Usage: bench_snapshot.sh <path-to-parapll_cli> [out.json]
#
# Without an explicit output path the snapshot auto-numbers itself from
# the BENCH_*.json files committed in the repo root: the next file after
# BENCH_4.json..BENCH_6.json is BENCH_7.json. Compare snapshots with
# tools/bench_compare.py.
set -eu

CLI="$1"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
if [ "$#" -ge 2 ]; then
  OUT="$2"
else
  NEXT=1
  for f in "$REPO_ROOT"/BENCH_*.json; do
    [ -e "$f" ] || continue
    n="${f##*BENCH_}"
    n="${n%.json}"
    case "$n" in
      *[!0-9]*) continue ;;
    esac
    if [ "$n" -ge "$NEXT" ]; then
      NEXT=$((n + 1))
    fi
  done
  OUT="$REPO_ROOT/BENCH_${NEXT}.json"
fi
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Fixed workload: Epinions at scale 0.2, seed 7 — large enough that the
# build takes real time, small enough for a CI minute.
"$CLI" generate --dataset Epinions --scale 0.2 --seed 7 --out "$WORK/g.txt"

# One format-v2 artifact serves both backends.
"$CLI" build --graph "$WORK/g.txt" --mode parallel --threads 4 \
  --out "$WORK/g.index" \
  --metrics-json "$WORK/build_metrics.json" \
  >/dev/null

"$CLI" query-bench --index "$WORK/g.index" --pairs 200000 --threads 4 \
  --seed 7 >"$WORK/qbench.txt"
cat "$WORK/qbench.txt"

# The same batched workload answered from the zero-copy mapping, so each
# snapshot records the mmap backend alongside the heap numbers.
"$CLI" query-bench --index "$WORK/g.index" --pairs 200000 --threads 4 \
  --seed 7 --backend mmap >"$WORK/qbench_mmap.txt"
cat "$WORK/qbench_mmap.txt"

# Serving path: closed-loop serve-bench against an in-process daemon on an
# ephemeral port — capacity of the full socket + coalescing + QueryBatch
# stack (req/s with 64-pair requests).
"$CLI" serve --index "$WORK/g.index" --threads 4 \
  --port-file "$WORK/port" &
DAEMON_PID=$!
trap 'kill "$DAEMON_PID" 2>/dev/null; rm -rf "$WORK"' EXIT
i=0
while [ ! -s "$WORK/port" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "serve daemon never bound a port" >&2; exit 1; }
  sleep 0.1
done
"$CLI" serve-bench --port "$(cat "$WORK/port")" --connections 4 \
  --requests 500 --pairs-per-request 64 --seed 7 >"$WORK/sbench.txt"
cat "$WORK/sbench.txt"
kill "$DAEMON_PID" 2>/dev/null && wait "$DAEMON_PID" 2>/dev/null || true
trap 'rm -rf "$WORK"' EXIT

python3 - "$WORK/build_metrics.json" "$WORK/qbench.txt" "$WORK/sbench.txt" \
  "$OUT" "$WORK/qbench_mmap.txt" <<'EOF'
import json
import re
import sys

metrics_path, qbench_path, sbench_path, out_path = sys.argv[1:5]
qbench_mmap_path = sys.argv[5]

with open(metrics_path) as fh:
    metrics = json.load(fh)
gauges = metrics.get("gauges", metrics)
build_seconds = gauges["indexer.wall_seconds"]

with open(qbench_path) as fh:
    qbench = fh.read()
batched = re.search(r"batched:.*\(([0-9.]+) Mq/s", qbench)
per_call = re.search(r"per-call:.*\(([0-9.]+) Mq/s", qbench)
if batched is None or per_call is None:
    sys.exit("query-bench output missing throughput lines")

with open(qbench_mmap_path) as fh:
    mmap_batched = re.search(r"batched:.*\(([0-9.]+) Mq/s", fh.read())
if mmap_batched is None:
    sys.exit("query-bench mmap output missing throughput line")
batched_mmap = float(mmap_batched.group(1))

with open(sbench_path) as fh:
    sbench = fh.read()
serve_qps = re.search(r"throughput: ([0-9.]+) req/s", sbench)
serve_shed = re.search(r"shed rate ([0-9.]+)%", sbench)
serve_p99 = re.search(r"latency:\s+p50 [0-9.]+us\s+p99 ([0-9.]+)us", sbench)
if serve_qps is None or serve_shed is None or serve_p99 is None:
    sys.exit("serve-bench output missing throughput/shed/latency lines")
if float(serve_shed.group(1)) != 0.0:
    sys.exit("serve-bench shed traffic in an unloaded capacity run")

snapshot = {
    "bench": "parapll_bench_snapshot",
    "workload": {
        "dataset": "Epinions",
        "scale": 0.2,
        "seed": 7,
        "build_threads": 4,
        "query_pairs": 200000,
        "query_threads": 4,
        "serve_connections": 4,
        "serve_requests": 500,
        "serve_pairs_per_request": 64,
    },
    "parallel_build_seconds": build_seconds,
    "batched_query_mqps": float(batched.group(1)),
    "per_call_query_mqps": float(per_call.group(1)),
    "batched_query_mqps_mmap": batched_mmap,
    "serve_closed_qps": float(serve_qps.group(1)),
    "serve_closed_p99_ms": float(serve_p99.group(1)) / 1000.0,
}
with open(out_path, "w") as fh:
    json.dump(snapshot, fh, indent=2)
    fh.write("\n")
print(f"wrote {out_path}: build {build_seconds:.3f}s, "
      f"batched {batched.group(1)} Mq/s "
      f"(mmap {batched_mmap:.2f}), "
      f"serve {serve_qps.group(1)} req/s")
EOF

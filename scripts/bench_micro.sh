#!/usr/bin/env bash
# Run the `micro` criterion bench suite and fold the numbers into the
# trajectory file.
#
#   ./scripts/bench_micro.sh [output.json] [filter]
#
# Defaults to BENCH_micro.json in the repo root. The local criterion
# stand-in (vendor/criterion) honours BENCH_JSON and writes one raw record
# per benchmark: {id, median_ns, min_ns, mad_ns, ...}. When the output file
# already holds the trajectory format (a "current" map, as BENCH_micro.json
# does), the raw run is *merged* into it: every measured bench id's
# median_ns/min_ns refreshes "current" (new ids — e.g. the
# align/{seq,par,extend,extend_scalar} aligner-kernel group, cs_evict/*,
# cs_churn/*, chaos/recovery_latency and chaos/verify_overhead, the
# byzantine variant pricing per-hop Data verification — are added), and
# speedups
# against any recorded
# "baseline" entry are recomputed. Otherwise the raw shim output is
# written as-is. Pass a filter (e.g. "cs_" or "align/") to run and
# refresh only a subset.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_micro.json}"
FILTER="${2:-}"

RAW="$(mktemp)"
MERGED="$(mktemp)"
trap 'rm -f "$RAW" "$MERGED"' EXIT
BENCH_JSON="$RAW" cargo bench --bench micro -- --noplot ${FILTER:+"$FILTER"}

# Merge into the trajectory format when $OUT already uses it. Exit code 2
# is the deliberate "not a trajectory file" sentinel (fall back to the raw
# copy); any other failure aborts so a merge bug can never clobber the
# trajectory history. The merge writes to a temp file and renames, so a
# mid-write crash leaves $OUT untouched.
merge_status=0
if [ -f "$OUT" ]; then
  python3 - "$RAW" "$OUT" "$MERGED" <<'PY' || merge_status=$?
import json, os, sys

raw_path, out_path, merged_path = sys.argv[1], sys.argv[2], sys.argv[3]
with open(out_path) as f:
    doc = json.load(f)
if not isinstance(doc, dict) or "current" not in doc:
    sys.exit(2)  # not a trajectory file: the caller copies the raw output
with open(raw_path) as f:
    raw = json.load(f)["benchmarks"]
for m in raw:
    doc["current"][m["id"]] = {"median_ns": m["median_ns"], "min_ns": m["min_ns"]}
    base = doc.get("baseline", {}).get(m["id"])
    if base and m["median_ns"] > 0 and m["min_ns"] > 0:
        doc.setdefault("speedup_median", {})[m["id"]] = round(base["median_ns"] / m["median_ns"], 2)
        doc.setdefault("speedup_min", {})[m["id"]] = round(base["min_ns"] / m["min_ns"], 2)
# Record the parallel configuration behind the thread/shard-suffixed bench
# ids (engine/parallel_dispatch/t{N}, burst/parallel_ingress/shards{N})
# plus the cores the host actually allowed — a 1-CPU container cannot show
# multi-core speedups, and the trajectory must say so.
try:
    host_cpus = len(os.sched_getaffinity(0))
except AttributeError:
    host_cpus = os.cpu_count() or 1
doc["parallel_config"] = {
    "engine_threads": [1, 4],
    "forwarder_shards": [1, 4],
    "host_usable_cpus": host_cpus,
}
with open(merged_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
PY
else
  merge_status=2
fi

case "$merge_status" in
  0) mv "$MERGED" "$OUT"; echo "merged bench run into $OUT" ;;
  2) cp "$RAW" "$OUT"; echo "wrote $OUT (raw shim format)" ;;
  *) echo "merge failed (exit $merge_status); $OUT left untouched, raw run kept at $RAW" >&2
     trap - EXIT; rm -f "$MERGED"; exit "$merge_status" ;;
esac

#!/usr/bin/env bash
# Record the batch-analysis performance numbers (BENCH_PR7.json): the
# MINPROCS / full-FEDCONS latency grid from bench_perf_algorithms plus the
# per-kernel scalar-vs-AVX2 microbenchmarks from bench_simd_kernels.
# Also records the admission-control service numbers (BENCH_SERVE.json):
# a real fedcons_serve daemon on a unix socket driven by the closed-loop
# fedcons_loadgen, at two resident-set sizes, plus an observability on/off
# contrast at residents=4 (obs_overhead_pct; PR-9 bar: <= 3%).
#
# Usage: bench/run_perf.sh [--serve-only] [build-dir] [output.json]
#   --serve-only  record only BENCH_SERVE.json (skips the batch grids)
#   build-dir     defaults to build-release  (the Release preset's binaryDir)
#   output.json   defaults to BENCH_PR7.json in the repo root
#                 (BENCH_SERVE.json always lands next to it)
#
# The script REFUSES to record from a non-Release build: an earlier revision
# defaulted to `build/` and happily captured whatever configuration lived
# there, so recorded "speedups" could compare a debug binary against a
# release one. Now CMakeCache.txt must say CMAKE_BUILD_TYPE=Release, and the
# build type + active SIMD backend are stamped into the output document
# (the benchmark binaries additionally stamp simd_backend / build_assertions
# into their own context blocks).
#
# Acceptance bar recorded in ISSUE.md (PR 7): BM_FedconsFullTest/128 at
# least 3x faster than the BENCH_PR2.json recording of the same benchmark.
# The script computes that ratio when BENCH_PR2.json is present.
set -euo pipefail

serve_only=0
if [[ "${1:-}" == "--serve-only" ]]; then
  serve_only=1
  shift
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-release}"
out_json="${2:-$repo_root/BENCH_PR7.json}"
serve_json="$(dirname "$out_json")/BENCH_SERVE.json"

cache="$build_dir/CMakeCache.txt"
if [[ ! -f "$cache" ]]; then
  echo "error: $cache not found — configure first (cmake --preset release)" >&2
  exit 1
fi
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$cache")"
if [[ "$build_type" != "Release" ]]; then
  echo "error: $build_dir is a '$build_type' build; benchmarks are only" >&2
  echo "recorded from CMAKE_BUILD_TYPE=Release (cmake --preset release &&" >&2
  echo "cmake --build $repo_root/build-release)" >&2
  exit 1
fi

if [[ $serve_only -eq 0 ]]; then
for bin in bench_perf_algorithms bench_simd_kernels; do
  if [[ ! -x "$build_dir/bench/$bin" ]]; then
    echo "error: $build_dir/bench/$bin not found — build first" >&2
    exit 1
  fi
done

tmp_algo="$(mktemp)"
tmp_simd="$(mktemp)"
trap 'rm -f "$tmp_algo" "$tmp_simd"' EXIT

# Note: this google-benchmark build takes --benchmark_min_time as a plain
# double (seconds), not the newer "0.1s" suffix form.
"$build_dir/bench/bench_perf_algorithms" \
  "--benchmark_filter=BM_Minprocs|BM_FedconsFullTest" \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  "--benchmark_out=$tmp_algo" \
  --benchmark_out_format=json

"$build_dir/bench/bench_simd_kernels" \
  --benchmark_min_time=0.1 \
  "--benchmark_out=$tmp_simd" \
  --benchmark_out_format=json

python3 - "$tmp_algo" "$tmp_simd" "$out_json" "$build_type" \
          "$repo_root/BENCH_PR2.json" <<'PY'
import json, sys

algo_path, simd_path, out_path, build_type, pr2_path = sys.argv[1:6]
algo = json.load(open(algo_path))
simd = json.load(open(simd_path))

def mean_ns(doc, name):
    for b in doc.get("benchmarks", []):
        if b.get("name") == name or (
            b.get("run_name") == name and b.get("aggregate_name") == "mean"
        ):
            return float(b["real_time"])
    return None

doc = {
    "schema_version": 1,
    "benchmark": "pr7_data_parallel_core",
    "cmake_build_type": build_type,
    "simd_backend": algo.get("context", {}).get("simd_backend", "?"),
    "build_assertions": algo.get("context", {}).get("build_assertions", "?"),
    "perf_algorithms": algo,
    "simd_kernels": simd,
}

head = mean_ns(algo, "BM_FedconsFullTest/128")
doc["fedcons_full_128_ns"] = head
try:
    pr2 = json.load(open(pr2_path))
    base = mean_ns(pr2, "BM_FedconsFullTest/128")
    if base and head:
        doc["fedcons_full_128_baseline_ns"] = base
        doc["fedcons_full_128_speedup_vs_pr2"] = round(base / head, 2)
except FileNotFoundError:
    pass

json.dump(doc, open(out_path, "w"), indent=1)
print()
print("wrote %s  (build=%s backend=%s)" % (
    out_path, build_type, doc["simd_backend"]))
if "fedcons_full_128_speedup_vs_pr2" in doc:
    print("BM_FedconsFullTest/128: %.0f ns vs %.0f ns baseline -> %.2fx" % (
        head, doc["fedcons_full_128_baseline_ns"],
        doc["fedcons_full_128_speedup_vs_pr2"]))
PY
fi  # serve_only

# ---------------------------------------------------------------------------
# Admission-control service: live fedcons_serve daemon on a unix socket,
# driven by the closed-loop fedcons_loadgen. The daemon serves each
# connection on its own thread (its only shape). Two resident-set sizes are
# recorded: per-event admission cost is linear in the number of resident
# tasks, so "residents" is the load knob that matters.
# Acceptance bar (PR 8): the small-resident run sustains >= 100k verdicts/s.

for bin in tools/fedcons_serve tools/fedcons_loadgen; do
  if [[ ! -x "$build_dir/$bin" ]]; then
    echo "error: $build_dir/$bin not found — build first" >&2
    exit 1
  fi
done

serve_tmp="$(mktemp -d)"
serve_pid=""
cleanup_serve() {
  [[ -n "$serve_pid" ]] && kill "$serve_pid" 2>/dev/null || true
  rm -rf "$serve_tmp"
}
trap cleanup_serve EXIT

# One run = fresh daemon + one loadgen closed loop + daemon stats at exit
# (--shutdown makes the loadgen send the protocol shutdown op, so the daemon
# drains, prints its stats JSON on stdout, and exits 0).
serve_run() {
  local label="$1" residents="$2"
  shift 2
  local sock="$serve_tmp/serve_$label.sock"
  "$build_dir/tools/fedcons_serve" --socket="$sock" "$@" \
    > "$serve_tmp/server_$label.out" &
  serve_pid=$!
  for _ in $(seq 1 100); do
    [[ -S "$sock" ]] && break
    sleep 0.05
  done
  "$build_dir/tools/fedcons_loadgen" --socket="$sock" \
    --sessions=8 --pipeline=128 --residents="$residents" \
    --duration-s=5 --warmup-s=0.5 --json --shutdown \
    > "$serve_tmp/loadgen_$label.json"
  wait "$serve_pid"
  serve_pid=""
}

serve_run small_residents 4
serve_run default_residents 6

# Observability-overhead contrast at the acceptance shape (residents=4,
# PR 9 bar: <= 3% throughput cost). obs_off strips the series snapshotter
# (tracing is already off without --trace-out); obs_on adds request tracing
# at the default 1/256 sampling on top of the default 250ms series ring.
# Run-to-run noise on a 1-core box is larger than the effect being measured
# (+-5% vs ~2%), so the pair is interleaved 5x and the overhead is computed
# from per-mode medians.
for rep in 1 2 3 4 5; do
  serve_run "obs_off_$rep" 4 --stats-interval-ms=0
  serve_run "obs_on_$rep" 4 --trace-out="$serve_tmp/trace_obs_on_$rep.json"
done

python3 - "$serve_tmp" "$serve_json" "$build_type" <<'PY'
import json, sys

tmp, out_path, build_type = sys.argv[1:4]

def load_run(label):
    loadgen = json.load(open("%s/loadgen_%s.json" % (tmp, label)))
    # The daemon prints a readiness line first, then its stats JSON on exit.
    server = None
    for line in open("%s/server_%s.out" % (tmp, label)):
        line = line.strip()
        if line.startswith("{"):
            server = json.loads(line)
    return {"label": label, "loadgen": loadgen, "server": server}

labels = ["small_residents", "default_residents"]
labels += ["obs_%s_%d" % (mode, rep)
           for rep in (1, 2, 3, 4, 5) for mode in ("off", "on")]
runs = [load_run(label) for label in labels]
head = runs[0]["loadgen"]
doc = {
    "schema_version": 2,
    "benchmark": "pr8_admission_service",
    "cmake_build_type": build_type,
    "transport": "unix",
    "runs": runs,
    "verdicts_per_sec": head["qps"],
    "p99_us": head["latency_us"]["p99"],
}

# PR-9 observability overhead: same workload shape, snapshotter+tracing off
# vs tracing at the default 1/256 sampling. Median over the 5 interleaved
# repetitions of each mode.
import statistics
by_label = {r["label"]: r["loadgen"] for r in runs}
off_qps = statistics.median(
    float(by_label["obs_off_%d" % rep]["qps"]) for rep in (1, 2, 3, 4, 5))
on_qps = statistics.median(
    float(by_label["obs_on_%d" % rep]["qps"]) for rep in (1, 2, 3, 4, 5))
doc["obs_off_qps"] = off_qps
doc["obs_on_qps"] = on_qps
doc["obs_overhead_pct"] = round(100.0 * (off_qps - on_qps) / off_qps, 2)

# The PR-8 sustained-throughput bar is judged from the obs_off medians:
# that run shape (residents=4, no snapshotter, no tracing) is exactly the
# PR-8 daemon configuration, and a median of 3 is robust to the single-run
# noise the one-shot small_residents row carries.
doc["verdicts_per_sec"] = off_qps

json.dump(doc, open(out_path, "w"), indent=1)
print()
print("wrote %s  (build=%s)" % (out_path, build_type))
for r in runs:
    lg = r["loadgen"]
    print("%-17s residents=%d sessions=%d pipeline=%d: "
          "%.0f verdicts/s  p50=%dus p99=%dus errors=%d" % (
              r["label"], lg["residents"], lg["sessions"], lg["pipeline"],
              lg["qps"], lg["latency_us"]["p50"], lg["latency_us"]["p99"],
              lg["errors"]))
bar = 100000.0
verdict = "MET" if doc["verdicts_per_sec"] >= bar else "NOT MET"
print("acceptance (>=100k verdicts/s sustained): %s" % verdict)
obs_verdict = "MET" if doc["obs_overhead_pct"] <= 3.0 else "NOT MET"
print("observability overhead: %.0f -> %.0f verdicts/s (%.2f%%); "
      "acceptance (<=3%%): %s" % (
          off_qps, on_qps, doc["obs_overhead_pct"], obs_verdict))
PY

#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench_driver and
fedcons_serve from source as a Release build (into $CARGO_TARGET_DIR, or
.bench_build when that is unset), runs the workload in the driver, passes
the driver's report through, and prints as its last line one JSON object
with "correct", "attempted", "failed" and "metrics": every end-to-end
metric named in BENCHMARK.json with --trace 0, every per-layer metric with
--trace 1. A per-layer metric whose layer does no work on the workload is
reported as 0 and named on a "not measured" line.

Workloads: batch-campaign, serve-low; "all" runs both in one driver
process. Exit status: 0 when every verdict matched, 1 on a
verdict mismatch, 2 when the sources or BENCHMARK.json are missing, 3 when
the build or the run failed.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("batch-campaign", "serve-low")
# Per workload: its measured seconds plus set-up, replay and checks.
OVERHEAD_S = 60


def driver_timeout_s(workload, seconds):
    count = len(WORKLOADS) if workload == "all" else 1
    return count * (seconds + OVERHEAD_S)


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def commit_of(root):
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def build(root, build_dir):
    """Configures once, then builds the driver and the daemon."""
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench_driver",
         "fedcons_serve_tool", "-j", jobs],
        check=True, stdout=log, stderr=log)


def contract_line(reports, names, units, trace):
    """The last output line: the metrics BENCHMARK.json names, and only those."""
    correct = all(r["correct"] for r in reports)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    metrics = {}
    for r in reports:
        prefix = "" if len(reports) == 1 else r["workload"] + "/"
        for name in names:
            m = r["metrics"].get(name)
            if m is None:
                if not trace:
                    raise KeyError(f"{r['workload']} did not report {name}")
                print(f"not measured on {r['workload']}: {name} (reported as 0)")
                m = {"value": 0, "unit": units[name]}
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = pathlib.Path.cwd()
    if not (root / "CMakeLists.txt").is_file() or not (root / "src" / "fedcons").is_dir():
        return fail("no fedcons sources here; run from the repository root", 2)
    bench_json = root / "BENCHMARK.json"
    if not bench_json.is_file():
        return fail("BENCHMARK.json is missing", 2)
    spec = json.loads(bench_json.read_text())
    names_key = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[names_key]]
    units = {m["name"]: m["unit"] for m in spec[names_key]}

    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    run_dir = build_root / "runs"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        return fail(f"build failed: {e}", 3)

    # Relative paths keep the daemon's unix socket path short.
    rel = lambda p: os.path.relpath(p, root)
    cmd = [str(build_dir / "perfbench_driver"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}",
           f"--work-dir={rel(run_dir)}",
           f"--serve-bin={rel(build_dir / 'fedcons' / 'tools' / 'fedcons_serve')}",
           f"--pins={rel(root / 'perfbench' / 'pins.txt')}",
           f"--commit={commit_of(root)}"]
    timeout = driver_timeout_s(args.workload, args.seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return fail(f"driver did not finish within {timeout:g} s", 3)
    reports = []
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_REPORT "):
            reports.append(json.loads(line[len("PERFBENCH_REPORT "):]))
        else:
            print(line)
    if proc.returncode not in (0, 1) or not reports:
        return fail(f"driver exited with {proc.returncode}", 3)
    try:
        line = contract_line(reports, names, units, args.trace)
    except KeyError as e:
        return fail(str(e), 3)
    print(json.dumps(line), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

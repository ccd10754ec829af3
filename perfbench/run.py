#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the engine.

Run from the repository root:

    python3 perfbench/run.py --workload join_skew --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke      # every workload, short, both modes

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench, then
runs one workload in its own process. The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. Build output goes to standard error. Exits non-zero when
the build fails, a correctness check fails, or the run does not finish.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "perf_bench"
RUN_TIMEOUT_S = 170

# Environment overrides of engine defaults (CI variants export some of
# them). The benchmark measures the program's own defaults.
CLEARED_ENV = ("UPA_BATCH", "UPA_HEAVY_THRESHOLD", "UPA_SESSION_LEASE_MS")

# Workloads the smoke test runs besides BENCHMARK.json's: they run by hand
# but are too host-sensitive for a bound (see perfbench/README.md).
EXTRA_WORKLOADS = ("join_skew",)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def clean_env():
    env = dict(os.environ)
    for var in CLEARED_ENV:
        env.pop(var, None)
    return env


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"engine sources not found under {ROOT / 'src'}")
        return False
    env = clean_env()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                           cwd=ROOT, check=False)
        if r.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return BINARY.is_file()


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, check=False)
        if r.returncode == 0:
            dirty = subprocess.run(["git", "status", "--porcelain", "src"],
                                   cwd=ROOT, capture_output=True, text=True,
                                   check=False).stdout.strip()
            return "git " + r.stdout.strip() + (" (src modified)" if dirty
                                                 else "")
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for p in sorted((ROOT / base).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "sha256(src, perfbench) " + h.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", str(OUT_DIR)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           env=clean_env(), cwd=ROOT,
                           timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, []
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if echo:
        sys.stdout.write(r.stdout)
        sys.stdout.flush()
    return r.returncode, lines


def parse_result(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def smoke(seconds):
    """Every workload, both modes, short: correctness on, and every metric
    of BENCHMARK.json printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    workloads = [w["name"] for w in spec["workloads"]] + list(EXTRA_WORKLOADS)
    for workload in workloads:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            code, lines = run_once(workload, 1, seconds, trace, echo=False)
            res = parse_result(lines)
            label = f"{workload} trace={int(trace)}"
            if code != 0 or res is None:
                log(f"SMOKE FAIL {label}: exit {code}")
                ok = False
                continue
            problems = []
            if not res.get("correct") or res.get("failed") != 0:
                problems.append("correctness gate failed")
            got = res.get("metrics", {})
            want = {m["name"]: m["unit"] for m in spec[key]}
            if set(got) != set(want):
                problems.append(f"metric names differ: missing "
                                f"{sorted(set(want) - set(got))}, extra "
                                f"{sorted(set(got) - set(want))}")
            for name, unit in want.items():
                m = got.get(name)
                if m is None:
                    continue
                if m.get("unit") != unit:
                    problems.append(f"{name}: unit {m.get('unit')} != {unit}")
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{name}: value {v!r}")
                elif not trace and v <= 0:
                    problems.append(f"{name}: end-to-end value {v} <= 0")
            for line in lines:
                if line.startswith("# rung") or line.startswith("# final"):
                    log(f"  {label}: {line[2:]}")
            if problems:
                ok = False
                for p in problems:
                    log(f"SMOKE FAIL {label}: {p}")
            else:
                log(f"smoke ok {label}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short run of every workload in both modes")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")

    if not build():
        return 1
    print(f"# source: {source_id()}", flush=True)
    if args.smoke:
        return 0 if smoke(min(args.seconds, 2.0)) else 1
    code, _ = run_once(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness report: runs every workload N times back to back, one seed
each, and records each end-to-end metric's median, quartiles and spread
((q3 - q1) / median, quartiles as statistics.quantiles(n=4) gives them).

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json

BENCHMARK.json's bounds are set from these spreads: every spread but
setup_s's must stay within a third of its metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out", help="write the report here (JSON)")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {"runs": args.runs, "run_seconds": seconds, "workloads": {}}
    ok = True
    for w in workloads:
        values = {name: [] for name in bounds}
        wall = []
        for i in range(args.runs):
            seed = args.first_seed + i
            start = time.monotonic()
            r = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", w, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            wall.append(time.monotonic() - start)
            lines = r.stdout.splitlines()
            res = json.loads(lines[-1]) if lines else {}
            if r.returncode != 0 or not res.get("correct"):
                print(f"{w} seed {seed}: FAILED (exit {r.returncode})\n"
                      f"{r.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n}={values[n][-1]:.4g}" for n in bounds) +
                  f" ({wall[-1]:.1f} s)", file=sys.stderr, flush=True)
            for line in lines:
                if line.startswith("# rung"):
                    print(f"  {line[2:]}", file=sys.stderr, flush=True)
        rows = {}
        for name, v in values.items():
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[name],
                          "within_third": spread <= bounds[name] / 3,
                          "values": v}
            if name != "setup_s" and spread > bounds[name] / 3:
                ok = False
        report["workloads"][w] = {"metrics": rows,
                                  "wall_s_median": statistics.median(wall)}
        for name, row in rows.items():
            print(f"{w:17s} {name:16s} median {row['median']:10.4g} "
                  f"q1 {row['q1']:10.4g} q3 {row['q3']:10.4g} spread "
                  f"{row['spread']:.3f} (bound {row['bound']})"
                  + ("" if row["within_third"] else "  > bound/3"))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

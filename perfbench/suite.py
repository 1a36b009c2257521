#!/usr/bin/env python3
"""Run every workload, print every metric with its unit, and check steadiness.

    python3 perfbench/suite.py                                  # seed 0
    python3 perfbench/suite.py --seeds 0 1 2 3 4 5 6 7 8 9 --out spread.json

For each workload the first seed runs twice untraced and twice traced. Every
count and the output digest must agree between the two runs (the steadiness
self-check), and every metric name must match [A-Za-z0-9_.-]+. Each further
seed runs once untraced. Per end-to-end metric, the table gives the median
over seeds and the spread, the interquartile range from
``statistics.quantiles(n=4)`` over the median. Every spread, ``setup_s``'s
too, must stay within the metric's bound in BENCHMARK.json; the table also
shows a third of the bound, the margin the benchmark aims for. The exit code
is 1 when a run or a check fails or a spread is over its bound.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# Counts, and ratios of counts, that must repeat exactly for a fixed seed.
EXACT = {
    "samples_p50", "success_rate", "completed_frac", "harness.task_bytes",
    "matroids.blocks_true_frac", "pac.kept_frac",
}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} printed no result:\n{proc.stderr}")
    info, result = json.loads(lines[-2])["perfbench"], json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} failed its checks: {info['problems']}")
    return info, result


def exact_mismatches(first: tuple[dict, dict], second: tuple[dict, dict]) -> list[str]:
    (info1, res1), (info2, res2) = first, second
    found = []
    if info1["digest"] != info2["digest"]:
        found.append(f"digest {info1['digest']} != {info2['digest']}")
    for name, metric in res1["metrics"].items():
        if not NAME.fullmatch(name):
            found.append(f"metric name {name!r} is not [A-Za-z0-9_.-]+")
        if name in EXACT or metric["unit"] == "count":
            other = res2["metrics"][name]["value"]
            if metric["value"] != other:
                found.append(f"{name}: {metric['value']} != {other}")
    return found


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="write every value measured to this JSON file")
    args = parser.parse_args(argv)

    ok = True
    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        first_seed = args.seeds[0]
        untraced = [run_once(workload, first_seed, args.seconds, 0)]
        traced = run_once(workload, first_seed, args.seconds, 1)
        mismatches = (exact_mismatches(untraced[0], run_once(workload, first_seed, args.seconds, 0))
                      + exact_mismatches(traced, run_once(workload, first_seed, args.seconds, 1)))
        untraced += [run_once(workload, seed, args.seconds, 0) for seed in args.seeds[1:]]
        summary["environment"] = untraced[0][0]["environment"]

        print(f"\n== {workload}  (jobs {untraced[0][0]['jobs']}, seeds {args.seeds}, "
              f"digest at seed {first_seed}: {untraced[0][0]['digest']})")
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [res["metrics"][name]["value"] for _, res in untraced]
            bound = metric["bound"]
            rows[name] = {"unit": metric["unit"], "bound": bound, "values": values,
                          "median": statistics.median(values)}
            line = f"  {name:<16}{rows[name]['median']:>16.6g} {metric['unit']:<9}"
            if len(values) >= 2:
                rows[name]["spread"] = spread(values)
                steady = rows[name]["spread"] <= bound
                ok = ok and steady
                line += (f" spread {rows[name]['spread']:.4f} (bound {bound:.4f}, "
                         f"aim {bound / 3:.4f}){'' if steady else '  OVER'}")
            print(line)
        print(f"  per layer, seed {first_seed}:")
        for name, metric in traced[1]["metrics"].items():
            print(f"    {name:<36}{metric['value']:>16.6g} {metric['unit']}")
        for found in mismatches:
            print(f"  self-check: {found}")
        ok = ok and not mismatches
        summary["workloads"][workload] = {
            "jobs": untraced[0][0]["jobs"],
            "digest_first_seed": untraced[0][0]["digest"],
            "end_to_end": rows,
            "per_layer_first_seed": {n: m["value"] for n, m in traced[1]["metrics"].items()},
            "self_check_mismatches": mismatches,
        }
    print(f"\nenvironment: {json.dumps(summary.get('environment'), sort_keys=True)}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

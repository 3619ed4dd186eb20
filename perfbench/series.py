#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise each end-to-end metric.

For every workload and metric this prints the median of the runs, the
quartiles, and the spread (interquartile distance as a share of the median)
next to the metric's bound from BENCHMARK.json.  ``--out`` writes the summary
as JSON (the format of BASELINE.json); ``--baseline`` compares the medians
against an earlier summary and flags any metric that got worse by more than
its bound.

Usage (from the root of a checkout):

    python3 perfbench/series.py --runs 10 --out perfbench/BASELINE.json
    python3 perfbench/series.py --runs 10 --baseline perfbench/BASELINE.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    detail = json.loads(next(x for x in lines if x.startswith("detail "))[len("detail "):])
    return json.loads(lines[-1]), detail


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the summary JSON here")
    parser.add_argument("--baseline", help="summary JSON to compare the medians against")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    facts = None
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in names:  # interleaved, so slow spells of the machine hit every workload
            result, detail = run_once(name, seed, spec["run_seconds"])
            facts = facts or detail["facts"]
            runs[name].append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                               "failed": result["failed"],
                               "loadavg": [detail["facts"]["loadavg_start"], detail["facts"]["loadavg_end"]],
                               "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                               "raw": {k: v["value"] for k, v in detail["raw"].items()}})
            print(f"{name} seed={seed} correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    baseline = json.loads(Path(args.baseline).read_text())["workloads"] if args.baseline else None
    summary = {"run_seconds": spec["run_seconds"], "runs": args.runs, "facts": facts, "workloads": {}}
    unsteady = []
    for name, rs in runs.items():
        summary["workloads"][name] = {
            "failed": sum(r["failed"] for r in rs),
            "attempted": sum(r["attempted"] for r in rs),
            "metrics": {m: summarise([r["metrics"][m] for r in rs]) for m in bounds},
            "raw": {m: summarise([r["raw"][m] for r in rs]) for m in rs[0]["raw"]},
        }
        for m, s in summary["workloads"][name]["metrics"].items():
            bound = bounds[m]["bound"]
            line = (f"{name:18} {m:12} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                    f"spread {s['spread']:.3f} bound {bound}")
            if s["spread"] > bound / 3:
                unsteady.append(f"{name}/{m}")
                line += "  SPREAD ABOVE BOUND/3"
            if baseline is not None:
                base = baseline[name]["metrics"][m]["median"]
                worse = (s["median"] - base) / base * (1 if bounds[m]["better"] == "lower" else -1)
                line += f"  vs baseline {base:.6g}: {'worse' if worse > 0 else 'better'} by {abs(worse):.3f}"
                if worse > bound:
                    line += "  REGRESSION"
            print(line)
        for m, s in summary["workloads"][name]["raw"].items():
            print(f"{name:18} {m:12} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.3f} (raw wall clock, not bounded)")
        failed = summary["workloads"][name]["failed"]
        print(f"{name:18} failed_frac {failed / summary['workloads'][name]['attempted']:.3g}")
    for name in names:  # one traced run per workload, for the per-layer figures
        result, detail = run_once(name, args.first_seed, spec["run_seconds"], trace=1)
        summary["workloads"][name]["per_layer_seed"] = args.first_seed
        summary["workloads"][name]["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        summary["workloads"][name]["trace_detail"] = {
            k: detail[k] for k in ("self_s_by_layer", "self_s_net_by_layer", "traced_wall_s", "traced_wall_net_s",
                                   "spans_per_pass", "coverage", "clip_calls", "clip_hits")
        }
        residual = result["metrics"]["trace.residual_frac"]["value"]
        print(f"{name:18} traced correct={result['correct']} coverage {detail['coverage']} "
              f"residual {residual:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if not unsteady else f"not steady: spread above a third of the bound for {', '.join(unsteady)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Small-size self-test: every workload, plain and traced, emits exactly the
metric names that BENCHMARK.json declares, each with its declared unit, and
passes its output checks.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py
"""

import json
import sys

import run
import workloads

SEED = 3


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []
    declared = {w["name"] for w in spec["workloads"]}
    if declared != set(workloads.WORKLOADS):
        errors.append(f"workloads in BENCHMARK.json {sorted(declared)} != {sorted(workloads.WORKLOADS)}")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for name in sorted(declared):
            result = run.run_one(name, SEED, 0.5, trace, workloads.SMALL)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = got == expected and result["correct"] and result["attempted"] >= 1
            print(f"{'ok ' if ok else 'BAD'} {name} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} passes, {result['failed']} failed")
            if got != expected:
                errors.append(
                    f"{name} trace={trace}: missing {sorted(set(expected) - set(got))}, "
                    f"extra {sorted(set(got) - set(expected))}, "
                    f"unit mismatches {sorted(k for k in set(got) & set(expected) if got[k] != expected[k])}"
                )
            if not result["correct"]:
                errors.append(f"{name} trace={trace}: {result['detail']['problems']}")
    for e in errors:
        print("error:", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

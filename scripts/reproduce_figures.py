#!/usr/bin/env python3
"""Regenerate all figure data (CSV + metadata sidecars) in one go.

Usage:
    python scripts/reproduce_figures.py [--outdir results] [--trials N] [--seed S]

Full fidelity (10,000 trials per cell) takes about a second; pass a
smaller --trials for a quick look.
"""

import argparse
import sys
import time
from pathlib import Path

from dpmean.cli import main as dpmean_main
from dpmean.harness import PRESET_NAMES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for preset in PRESET_NAMES:
        argv = [
            "figures",
            "--preset", preset,
            "--seed", str(args.seed),
            "--output", str(outdir / f"{preset}.csv"),
        ]
        if args.trials is not None:
            argv += ["--trials", str(args.trials)]
        start = time.perf_counter()
        code = dpmean_main(argv)
        if code != 0:
            print(f"{preset} failed with exit code {code}", file=sys.stderr)
            return code
        print(f"{preset} done in {time.perf_counter() - start:.1f}s")

    code = dpmean_main(["geometry", "--output", str(outdir / "polygons.csv")])
    if code != 0:
        return code
    print(f"all outputs in {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

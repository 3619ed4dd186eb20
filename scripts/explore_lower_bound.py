#!/usr/bin/env python3
"""Worst-case count error over the ones-over-zeros family, against 2/eps^2.

For each budget, reports the largest count-estimation MSE across family
members for each mean mechanism (count read off as n * estimate) and for
direct geometric count noising, next to the analytic geometric variance and
the 2/eps^2 benchmark.  The mean mechanisms landing near the benchmark is
the empirical face of the optimality floor.

Usage:
    python scripts/explore_lower_bound.py [--n 1000] [--trials 10000] [--seed S]
"""

import argparse
import math
import sys

from dpmean.bounds import geometric_count_variance, minmax_leading
from dpmean.harness import GEOMETRIC_COUNT, preset_family_k, worst_case_over_family
from dpmean.mechanisms import Mechanism, PrivacyBudget
from dpmean.noise import GeometricParams, check_uint64


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epsilons", type=float, nargs="+", default=[0.2, 0.5, 1.0])
    args = parser.parse_args()
    for name in ("n", "trials"):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be at least 1")
    try:
        check_uint64("--seed", args.seed)
        budgets = [PrivacyBudget(e) for e in args.epsilons]
        for e in args.epsilons:  # exp(-eps) must stay below 1.0 for the geometric count
            GeometricParams(math.exp(-e))
    except ValueError as exc:
        parser.error(str(exc))

    print(f"n={args.n}, trials={args.trials}, seed={args.seed}")
    header = f"{'eps':>5} {'k':>3} {'benchmark':>10} {'geo(exact)':>11} {'geo(mc)':>9}"
    header += "".join(f"{m.value:>14}" for m in Mechanism)
    print(header)
    for eps in budgets:
        eps_value = eps.epsilon
        k = preset_family_k(args.n, eps_value)
        benchmark = minmax_leading(eps_value, 0.0, 1.0)  # 2w^2/eps^2 at w = 1
        geo_mc = worst_case_over_family(GEOMETRIC_COUNT, eps, args.n, k, args.trials, args.seed)
        row = (
            f"{eps_value:>5} {k:>3} {benchmark:>10.3f} "
            f"{geometric_count_variance(eps_value):>11.3f} {geo_mc:>9.3f}"
        )
        for mech in Mechanism:
            worst = worst_case_over_family(mech, eps, args.n, k, args.trials, args.seed)
            row += f"{worst:>14.3f}"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())

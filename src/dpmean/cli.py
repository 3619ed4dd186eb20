"""Command-line surface: one-shot private mean estimation, bound tables,
figure-data generation, and covering-ball geometry export.

Exit codes: 0 success, 2 validation error, 1 internal error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import secrets
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    NeighborModel,
    minmax_leading,
    shifted_mse_bound_from_stats,
    transformed_mse_bound_from_stats,
)
from .geometry import (
    CENTERING_TRANSFORM,
    COMPLEMENT_TRANSFORM,
    IDENTITY_TRANSFORM,
    UNIT_SEGMENT,
    ball_polygon,
    covers_sensitivity,
    l1_sensitivity_under,
)
from .harness import (
    PRESET_NAMES,
    config_from_json,
    preset_config,
    reports_to_csv,
    sweep,
    write_metadata,
)
from .mechanisms import BoundedDataset, Mechanism, PrivacyBudget, check_bounds, run_mechanism
from .noise import RandomStream

POLYGON_CSV_HEADER = "polygon_id,vertex_index,x,y"

PRIVACY_NOTE = (
    "note: each run spends its full epsilon; repeated runs on the same data "
    "compose linearly (two runs at epsilon are together 2*epsilon-private)."
)


class ValidationError(Exception):
    """User input rejected before any computation."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _entropy_seed() -> int:
    return secrets.randbits(64)


def _input_lines(path: str) -> list[str]:
    # read_text maps \r\n and \r to \n, so line numbers count \n-ended
    # lines whatever the file's line endings; splitlines would also break
    # at form feeds and other separators an editor shows within a line.
    try:
        return Path(path).read_text().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read input file {path}: {exc}") from exc


def _numbered(lines: list[str]):
    """(line number, stripped text) of every non-blank line."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def _read_values(path: str) -> np.ndarray:
    """The values of a file, ``float`` of each stripped non-blank line, as
    float64.  Lines are stripped first because ``float`` itself rejects the
    separators U+001C..U+001F that ``str.strip`` removes."""
    lines = _input_lines(path)
    try:
        values = np.fromiter(map(float, filter(None, map(str.strip, lines))), dtype=np.float64)
    except ValueError:
        for lineno, line in _numbered(lines):
            try:
                float(line)
            except ValueError as exc:
                raise ValidationError(f"line {lineno}: not a decimal number: {line!r}") from exc
        raise
    if not len(values):
        raise ValidationError(f"input file {path} contains no values")
    return values


def cmd_estimate(args: argparse.Namespace) -> int:
    # Validate the arguments before reading what may be a large file.
    try:
        check_bounds(args.lower, args.upper)
        eps = PrivacyBudget(args.epsilon)
        stream = RandomStream(args.seed if args.seed is not None else _entropy_seed(), 0)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    values = _read_values(args.input)
    try:
        d = BoundedDataset(values, args.lower, args.upper)
    except ValueError as exc:
        # Only a rejected file is read again, for the line of the first
        # value outside the bounds.
        first = int(np.argmin((values >= args.lower) & (values <= args.upper)))
        for lineno, _ in itertools.islice(_numbered(_input_lines(args.input)), first, None):
            raise ValidationError(
                f"line {lineno}: value {float(values[first])} is outside the declared "
                f"bounds [{args.lower}, {args.upper}]"
            ) from exc
        raise ValidationError(str(exc)) from exc
    del values  # d holds its own copy
    mechanism = Mechanism(args.mechanism)
    # Exactly one mechanism invocation: no retries, or the guarantee degrades.
    estimate = run_mechanism(d, eps, mechanism, stream)
    # No seed in the record: whoever knows it can subtract the noise.
    record = {
        "mechanism": mechanism.value,
        "epsilon": eps.epsilon,
        "n_is_private": True,
        "estimate": estimate.value,
        "bounds": [args.lower, args.upper],
    }
    print(json.dumps(record))
    print(f"private mean estimate ({mechanism.value}): {estimate.value!r}", file=sys.stderr)
    print(PRIVACY_NOTE, file=sys.stderr)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    eps, lo, hi = args.epsilon, args.lower, args.upper
    try:
        leading = minmax_leading(eps, lo, hi)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    rows = [
        ("swap min-max leading", NeighborModel.SWAP.value, leading),
        ("add-remove upper (transformed mech.)", NeighborModel.ADD_REMOVE.value, leading),
        ("add-remove lower bound", NeighborModel.ADD_REMOVE.value, leading),
        ("shifted mech. worst case", NeighborModel.ADD_REMOVE.value, 2.0 * leading),
    ]
    print(f"normalized MSE leading terms for epsilon={eps}, bounds=[{lo}, {hi}]")
    print("(asymptotic constants; true values carry a 1 +/- o(1) factor)")
    for label, model, value in rows:
        print(f"  {label:<38} {model:<11} {_fmt(value)}")
    print("  (the first three rows coincide: each is 2 (upper - lower)^2 / epsilon^2)")
    print(f"  {'shifted / transformed MSE ratio':<38} {'':<11} {_fmt(2.0)}")
    if args.n is not None and args.mean is not None:
        try:
            b2 = shifted_mse_bound_from_stats(args.n, args.mean, eps, lo, hi)
            b3 = transformed_mse_bound_from_stats(args.n, args.mean, eps, lo, hi)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        print(f"per-dataset MSE bounds at n={args.n}, mean={args.mean}")
        print(f"  {'shifted mechanism':<38} {'mse':<11} {_fmt(b2)}")
        print(f"  {'transformed mechanism':<38} {'mse':<11} {_fmt(b3)}")
        print(f"  {'normalized (x n^2), shifted':<38} {'':<11} {_fmt(b2 * args.n**2)}")
        print(f"  {'normalized (x n^2), transformed':<38} {'':<11} {_fmt(b3 * args.n**2)}")
    return 0


def _figure_extras(name: str | None, reports) -> dict[str, list[float]]:
    if name == "fig2b":
        return {
            "ratio_to_bound": [
                r.normalized_mse / minmax_leading(r.epsilon, *r.dataset_spec.bounds)
                for r in reports
            ]
        }
    if name == "fig2c":
        by_cell = {}
        for r in reports:
            by_cell.setdefault((r.epsilon, r.dataset_spec), {})[r.mechanism] = r.mse
        ratios = []
        for r in reports:
            cell = by_cell[(r.epsilon, r.dataset_spec)]
            ratios.append(cell[Mechanism.SHIFTED] / cell[Mechanism.TRANSFORMED])
        return {"ratio_shifted_to_transformed": ratios}
    return {}


def cmd_figures(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _entropy_seed()
    if args.preset is not None:
        try:
            config = preset_config(args.preset, seed, trials=args.trials)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        name = args.preset
    elif args.input is not None:
        try:
            data = json.loads(Path(args.input).read_text())
            config = config_from_json(data)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad sweep config {args.input}: {exc}") from exc
        name = None
    else:
        raise ValidationError("figures needs --preset or --input (sweep config JSON)")
    out = Path(args.output) if args.output else Path(f"{name or 'sweep'}.csv")
    reports = sweep(config)
    csv_text = reports_to_csv(reports, extra_columns=_figure_extras(name, reports))
    try:
        out.write_text(csv_text)
        write_metadata(out.with_suffix(out.suffix + ".meta.json"), config, preset=name)
    except OSError as exc:
        raise ValidationError(f"cannot write output {out}: {exc}") from exc
    print(f"wrote {out} ({len(reports)} rows, seed={config.seed})")
    return 0


def cmd_geometry(args: argparse.Namespace) -> int:
    balls = [
        ("identity_r2", IDENTITY_TRANSFORM, 2.0),
        ("centering_r1", CENTERING_TRANSFORM, 1.0),
        ("complement_r1", COMPLEMENT_TRANSFORM, 1.0),
    ]
    lines = [POLYGON_CSV_HEADER]
    print("covering balls for the aggregate differences +-(x, 1), x in [0, 1]")
    print(f"  {'transform':<14} {'l1 radius':<10} {'covers':<7} vertices")
    for name, transform, radius in balls:
        poly = ball_polygon(transform, radius)
        sens = l1_sensitivity_under(transform, UNIT_SEGMENT)
        covered = covers_sensitivity(poly, UNIT_SEGMENT)
        verts = " ".join(f"({_fmt(x)},{_fmt(y)})" for x, y in poly.vertices)
        print(f"  {name:<14} {_fmt(sens):<10} {str(covered):<7} {verts}")
        for idx, (x, y) in enumerate(poly.vertices):
            lines.append(f"{name},{idx},{_fmt(x)},{_fmt(y)}")
    out = Path(args.output) if args.output else Path("polygons.csv")
    try:
        out.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write output {out}: {exc}") from exc
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpmean",
        description="Differentially private mean estimation for bounded data "
        "under add-remove adjacency.",
    )
    parser.add_argument("--version", action="version", version=f"dpmean {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="privately estimate the mean of a file of numbers")
    p_est.add_argument("--input", required=True, help="text file, one decimal value per line")
    p_est.add_argument("--lower", type=float, required=True, help="public lower bound")
    p_est.add_argument("--upper", type=float, required=True, help="public upper bound")
    p_est.add_argument("--epsilon", type=float, required=True, help="privacy budget")
    p_est.add_argument(
        "--mechanism",
        choices=[m.value for m in Mechanism],
        default=Mechanism.TRANSFORMED.value,
    )
    p_est.add_argument(
        "--seed", type=int, default=None,
        help="64-bit seed, a secret: it determines the noise; default: entropy",
    )
    p_est.set_defaults(func=cmd_estimate)

    p_bounds = sub.add_parser("bounds", help="print analytic error bound table")
    p_bounds.add_argument("--epsilon", type=float, required=True)
    p_bounds.add_argument("--lower", type=float, required=True)
    p_bounds.add_argument("--upper", type=float, required=True)
    p_bounds.add_argument("--n", type=int, default=None, help="dataset size for per-dataset rows")
    p_bounds.add_argument("--mean", type=float, default=None, help="dataset mean for per-dataset rows")
    p_bounds.set_defaults(func=cmd_bounds)

    p_fig = sub.add_parser("figures", help="run a Monte-Carlo sweep and write CSV")
    p_fig.add_argument("--preset", choices=PRESET_NAMES, default=None)
    p_fig.add_argument("--input", default=None, help="explicit sweep config JSON")
    p_fig.add_argument("--trials", type=int, default=None, help="override preset trial count")
    p_fig.add_argument("--seed", type=int, default=None, help="64-bit seed; default: entropy")
    p_fig.add_argument(
        "--workers", type=int, default=1, help="accepted and ignored; kept for compatibility"
    )
    p_fig.add_argument("--output", default=None, help="output CSV path")
    p_fig.set_defaults(func=cmd_figures)

    p_geo = sub.add_parser("geometry", help="export covering-ball polygons and sensitivities")
    p_geo.add_argument("--output", default=None, help="output polygon CSV path")
    p_geo.set_defaults(func=cmd_geometry)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

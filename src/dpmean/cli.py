"""Command-line surface: one-shot private mean estimation, bound tables,
figure-data generation, and covering-ball geometry export.

Exit codes: 0 success, 2 validation error, 1 internal error.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import math
import secrets
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
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
# BoundedDataset and run_mechanism are not called here: perfbench/tracing.py patches them on this module.
from .mechanisms import BoundedDataset, Mechanism, PrivacyBudget, mechanism_plan, run_mechanism, scaled_partials  # noqa: F401
from .noise import RandomStream

POLYGON_CSV_HEADER = "polygon_id,vertex_index,x,y"

PRIVACY_NOTE = (
    "note: each run spends its full epsilon; repeated runs on the same data "
    "compose linearly (two runs at epsilon are together 2*epsilon-private)."
)


_CHUNK = 1 << 17  # most bytes of the input file read and parsed at a time
_PARTIALS = 1 << 12  # partials a release keeps before merging them, exactly


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


_ROW = 16  # bytes a line is right-aligned in by the exact pass
_POWERS = np.array([10**j for j in range(_ROW)], dtype=np.int64)
_WEIGHTS = np.array([float(10**j) for j in reversed(range(_ROW))])  # column c weighs 10^(15 - c)
# By line length n: a mask of a row's last n bytes.
_KEEP = np.array([[0] * (_ROW - n) + [255] * n for n in range(_ROW + 1)], dtype=np.uint8)
_BYTE_SUM = np.uint64(0x0101010101010101)  # times a word: its bytes summed in the top byte
_PROBE = 2048  # bytes at the head of a block that choose its path


def _floats(lines) -> np.ndarray:
    # Lines are stripped first because ``float`` itself rejects the
    # separators U+001C..U+001F that ``str.strip`` removes.
    return np.fromiter(map(float, filter(None, map(str.strip, lines))), dtype=np.float64)


def _exact(buf: np.ndarray, ends: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which lines of ``buf``, of lengths ``lens`` and ending at the newlines
    at ``ends``, take the exact path, and the value of each that does."""
    # Row i is the _ROW bytes before newline i, so line i ends it; those of
    # earlier lines, or of the padding before buf, read as the digit 0.
    padded = np.concatenate((np.zeros(_ROW, np.uint8), buf))
    windows = np.lib.stride_tricks.sliding_window_view(padded, _ROW).view(f"V{_ROW}")
    digits = windows[ends].view(np.uint8) - np.uint8(48)
    digits &= _KEEP.take(np.minimum(lens, _ROW), axis=0)
    dot = digits == 254  # "." - "0" wraps round
    other = digits > 9
    other ^= dot  # neither a digit nor a dot
    # Read as two words, a row of byte flags is nonzero where any flag is:
    # a tenth of the time of other.any(1) and dot.sum(1) on 16-byte rows.
    other, flags = other.view("<u8"), dot.view("<u8")
    dots = ((flags[:, 0] + flags[:, 1]) * _BYTE_SUM >> np.uint64(56)).view(np.int64)
    # Exact: nothing but digits and at most one dot, and 1-14 digits.
    exact = ((other[:, 0] | other[:, 1]) == 0) & (dots <= 1) & (lens > dots) & (lens - dots <= 14)
    k = np.where(dots == 1, _ROW - 1 - dot.argmax(1), 0)  # the columns after the dot
    digits *= ~dot  # the dot adds nothing to s
    # Every partial sum is an integer below 10^15 < 2^53, so s is exact in
    # any summation order, a matrix-vector product's included.  Digits left
    # of a dot weigh ten times too much; those right of it sum to
    # f = s mod 10^k, and (s - f) / 10 + f = M.
    s = (digits @ _WEIGHTS).astype(np.int64)
    p = _POWERS[k]
    f = s % p
    return exact, np.where(dots == 1, (s - f) // 10 + f, s) / p


@functools.lru_cache(maxsize=4)
def _layout(width: int, dot: int, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.int64]:
    """For ``rows`` lines of ``width`` bytes with the dot in column ``dot``
    (or none, -1): the byte each column XORs with and the most the result
    may be, both tiled over the rows; the column weights; the power 10^k.
    A byte passes only if it is the character its column requires: XOR
    with "0" leaves a digit 0-9, XOR with the newline or the dot leaves 0."""
    template, limit = np.full(width, ord("0"), np.uint8), np.full(width, 9, np.uint8)
    template[-1], limit[-1] = ord("\n"), 0
    if dot >= 0:
        template[dot], limit[dot] = ord("."), 0
    weights = np.zeros(width)  # the newline and the dot weigh 0
    columns = [j for j in range(width - 1) if j != dot]
    weights[columns] = _WEIGHTS[_ROW - len(columns):]
    template, limit = np.tile(template, rows), np.tile(limit, rows)
    for shared in (template, limit, weights):
        shared.flags.writeable = False
    return template, limit, weights, _POWERS[width - 2 - dot if dot >= 0 else 0]


def _fixed(data, end: int) -> np.ndarray | None:
    """The values of the lines ``data[:end]`` if all are exact and of the
    first line's length with its dot column (or none); None otherwise."""
    width = data.find(b"\n", 0, end) + 1  # a line and its newline
    dot = data.find(b".", 0, width)
    if not 1 <= width - 1 - (dot >= 0) <= 14 or end % width:
        return None
    n = end // width
    # A read of _CHUNK bytes after an unfinished line holds at most
    # _CHUNK // width + 1 lines; a longer block gets a layout of its own.
    template, limit, weights, power = _layout(width, dot, max(n, _CHUNK // width + 1))
    # One pass checks every byte: with a newline ending every row, the rows
    # are the lines, and with the dot column all dots and the others all
    # digits, every line is exact.  The bytes left are the digits.
    digits = np.frombuffer(data, np.uint8, end) ^ template[:end]
    if (digits > limit[:end]).any():
        return None
    # Each M is an integer below 10^14 < 2^53, exact in any summation order,
    # so one matrix-vector product gives every M of the block.
    return (digits.reshape(n, width) @ weights) / power


def _parse(data, end: int) -> np.ndarray:
    """``float`` of each stripped non-blank line of ``data[:end]``, ASCII
    lines that each end in a newline, in order, as float64.

    A line of 1-14 ASCII digits with at most one ``.`` and nothing else, no
    sign, exponent, ``_`` or padding, takes an exact path in array passes.
    It is an integer M < 10^14 over 10^k, k <= 14, both exact doubles, so the
    one correctly rounded division M / 10^k is ``float``'s own result, bit
    for bit (Clinger's fast path).  A block whose lines share one length
    and one dot column (or have none) is converted as a reshape of its bytes,
    with one power 10^k; the syntax accepted and the bits are the same.
    Every other line goes through ``float`` in file order, so the syntax
    accepted, the line numbers and the messages are those of ``float`` on
    each line.  The array pass pays only where nearly every line is exact,
    so a block takes it only if at least 7 lines in 8 are exact; any other
    block goes through ``float`` whole."""
    # The complete lines of the head screen a block for that at little cost:
    # exact lines are at most 15 characters and hold only digits and a dot.
    head = data[:min(end, _PROBE)]
    head = head[:head.rfind(b"\n") + 1]
    lines = head.count(b"\n")
    if len(head) <= _ROW * lines and 8 * len(head.translate(None, b"0123456789.\n")) <= lines:
        values = _fixed(data, end)
        if values is not None:
            return values
        buf = np.frombuffer(data, np.uint8, end)
        ends = np.flatnonzero(buf == 10)
        lens = np.diff(ends, prepend=-1) - 1
        exact, values = _exact(buf, ends, lens)
        if exact.all():
            return values
        if 8 * np.count_nonzero(exact) >= 7 * len(exact):
            slow = np.flatnonzero(~exact)
            texts = [str(data[e - n:e], "ascii").strip() for e, n in zip(ends[slow].tolist(), lens[slow].tolist())]
            filled = np.fromiter(map(bool, texts), dtype=bool, count=len(texts))
            values[slow[filled]] = _floats(texts)
            return np.delete(values, slow[~filled])
    return _floats(str(data[:end], "ascii").split("\n"))


def _block(buf, cut: int, encoding: str) -> np.ndarray:
    """The values of ``buf[:cut]``, whole lines in ``encoding``."""
    if buf.find(b"\r", 0, cut) < 0 and np.frombuffer(buf, np.uint8, cut).max() < 0x80:
        return _parse(buf, cut)
    text = io.IncrementalNewlineDecoder(None, translate=True).decode(str(buf[:cut], encoding), final=True)
    if text.isascii():
        data = text.encode("ascii")
        return _parse(data, len(data))
    return _floats(text.split("\n"))


def _chunks(path: str):
    """The values of a file, ``float`` of each stripped non-blank line, as
    float64, one array per block of whole lines, in file order.  A file
    with no such line gives no values: the empty dataset releases like any
    other.

    The unfinished line of each read opens the next, and each read of at
    most ``_CHUNK`` bytes is cut after its last ``\n``, or after its last
    ``\r`` if it holds no ``\n``; the file's last line needs no line end.
    A block of whole lines with no ``\r`` and only ASCII bytes is its own
    text, and is parsed where it lies in the read buffer.  Any other block
    is decoded on its own as text mode decodes it, ``\r\n`` and ``\r`` as
    ``\n``; one with a non-ASCII character goes through ``float`` whole.
    Decoding block by block is exact because the locale's encoding is
    ASCII-compatible and no multibyte character of it holds a ``\n`` or
    ``\r`` byte, so a cut never splits a character; a ``\r\n`` pair split
    by a ``\r`` cut adds only a blank line, which holds no value."""
    try:
        with open(path) as f:  # text mode, for the locale's encoding
            buf, start = bytearray(_CHUNK), 0  # buf[:start] is the unfinished line
            while True:
                if start == len(buf):  # a line longer than the buffer
                    buf += bytes(_CHUNK)
                read = f.buffer.readinto(memoryview(buf)[start:start + _CHUNK])
                if not read:
                    break
                end = start + read
                cut = buf.rfind(b"\n", 0, end) + 1 or buf.rfind(b"\r", 0, end) + 1
                if cut:
                    yield _block(buf, cut, f.encoding)
                    buf[:end - cut] = buf[cut:end]
                start = end - cut
            if start:
                buf[start:start + 1] = b"\n"
                yield _block(buf, start + 1, f.encoding)
    except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
        # Only a rejected file is read again in full, to report the error as
        # a whole-file read does and to number the offending line.
        for lineno, line in _numbered(_input_lines(path)):
            try:
                float(line)
            except ValueError as exc:
                raise ValidationError(f"line {lineno}: not a decimal number: {line!r}") from exc
        raise


def _fold(chunks, lower: float, upper: float) -> tuple[int, list[float], tuple[int, float] | None]:
    """Fold arrays of values, in order, into (n, partials, outside): their
    count; exact partials whose fsum is ``BoundedDataset.scaled_total`` of
    all the values, bit for bit; and the index and value of the first value
    outside [lower, upper], or None.  Partials are kept only while every
    value so far lies inside."""
    n, partials, outside = 0, [], None
    for values in chunks:
        if outside is None:
            inside = (values >= lower) & (values <= upper)
            if inside.all():
                partials += scaled_partials(values, lower, upper - lower)
                if len(partials) > _PARTIALS:  # the same exact sum, in a few partials
                    partials = scaled_partials(np.array(partials), 0.0, 1.0)
            else:
                first = int(inside.argmin())
                outside = (n + first, float(values[first]))
        n += len(values)
    return n, partials, outside


def cmd_estimate(args: argparse.Namespace) -> int:
    # Validate the arguments before reading what may be a large file.
    try:
        eps = PrivacyBudget(args.epsilon)
        mechanism = Mechanism(args.mechanism)
        # The plan checks the bounds and that its noise scales are valid Laplace scales.
        plan = mechanism_plan(mechanism, args.lower, args.upper, eps)
        stream = RandomStream(args.seed if args.seed is not None else _entropy_seed(), 0)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    # Each chunk is folded in as it is read: no array of the whole file.
    n, partials, outside = _fold(_chunks(args.input), args.lower, args.upper)
    if outside is not None:
        first, value = outside
        message = f"value {value} is outside the declared bounds [{args.lower}, {args.upper}]"
        # Only a rejected file is read again, for the line of that value.
        for lineno, _ in itertools.islice(_numbered(_input_lines(args.input)), first, None):
            raise ValidationError(f"line {lineno}: {message}")
        raise ValidationError(message)
    # Exactly one mechanism invocation: no retries, or the guarantee degrades.
    # An empty file releases the noise alone: (s, n) = (0, 0).
    noise = plan.noise(stream)
    estimate = float(plan.estimate(math.fsum(partials), float(n), noise.za, noise.zb)[2])
    # No seed in the record: whoever knows it can subtract the noise.
    record = {
        "mechanism": mechanism.value,
        "epsilon": eps.epsilon,
        "n_is_private": True,
        "estimate": estimate,
        "bounds": [args.lower, args.upper],
    }
    print(json.dumps(record))
    print(f"private mean estimate ({mechanism.value}): {estimate!r}", file=sys.stderr)
    print(PRIVACY_NOTE, file=sys.stderr)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    eps, lo, hi, n = args.epsilon, args.lower, args.upper, args.n
    if (n is None) != (args.mean is None):
        raise ValidationError("--n and --mean go together: pass both or neither")
    try:
        leading = minmax_leading(eps, lo, hi)
        if n is not None:
            b2 = shifted_mse_bound_from_stats(n, args.mean, eps, lo, hi)
            b3 = transformed_mse_bound_from_stats(n, args.mean, eps, lo, hi)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    except ArithmeticError as exc:  # eps**2 underflows to 0, or a square overflows
        raise ValidationError(f"epsilon={eps} on [{lo}, {hi}] is out of float range: {exc}") from exc
    rows = [
        ("swap min-max leading", "swap", leading),
        ("add-remove upper (transformed mech.)", "add_remove", leading),
        ("add-remove lower bound", "add_remove", leading),
        ("shifted mech. worst case", "add_remove", 2.0 * leading),
    ]
    print(f"normalized MSE leading terms for epsilon={eps}, bounds=[{lo}, {hi}]")
    print("(asymptotic constants; true values carry a 1 +/- o(1) factor)")
    for label, model, value in rows:
        print(f"  {label:<38} {model:<11} {_fmt(value)}")
    print("  (the first three rows coincide: each is 2 (upper - lower)^2 / epsilon^2)")
    print(f"  {'shifted / transformed MSE ratio':<38} {'':<11} {_fmt(2.0)}")
    if n is not None:
        print(f"per-dataset MSE bounds at n={n}, mean={args.mean}")
        print(f"  {'shifted mechanism':<38} {'mse':<11} {_fmt(b2)}")
        print(f"  {'transformed mechanism':<38} {'mse':<11} {_fmt(b3)}")
        print(f"  {'normalized (x n^2), shifted':<38} {'':<11} {_fmt(b2 * n**2)}")
        print(f"  {'normalized (x n^2), transformed':<38} {'':<11} {_fmt(b3 * n**2)}")
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
    name = args.preset
    if name is not None:
        seed = args.seed if args.seed is not None else _entropy_seed()
        try:
            config = preset_config(name, seed, trials=args.trials)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
    else:
        if args.trials is not None or args.seed is not None:
            raise ValidationError("the sweep config carries its own trials and seed")
        try:
            data = json.loads(Path(args.input).read_text())
            config = config_from_json(data)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad sweep config {args.input}: {exc}") from exc
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
        verts = " ".join(f"({_fmt(x)},{_fmt(y)})" for x, y in poly.vertices)
        print(f"  {name:<14} {_fmt(sens):<10} {str(sens <= radius):<7} {verts}")
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
    source = p_fig.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESET_NAMES, default=None)
    source.add_argument("--input", default=None, help="explicit sweep config JSON")
    p_fig.add_argument("--trials", type=int, default=None, help="override preset trial count")
    p_fig.add_argument("--seed", type=int, default=None, help="64-bit preset seed; default: entropy")
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error (2), or --help / --version (0)
        return exc.code
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

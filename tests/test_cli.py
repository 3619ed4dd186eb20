import json
import math
import os
import re
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dpmean import cli
from dpmean.cli import main
from dpmean.harness import CSV_HEADER
from dpmean.mechanisms import BoundedDataset, Mechanism, PrivacyBudget, run_mechanism
from dpmean.noise import Cursor, RandomStream


TWO_POINT_SPEC = {"kind": "two_point", "size": 30, "target_mean": 0.5, "bounds": [0.0, 1.0]}
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "values.txt"
    path.write_text("0.2\n0.4\n0.6\n")
    return path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_basic_run_emits_json_record(self, data_file, capsys):
        code, out, err = run(
            [
                "estimate",
                "--input", str(data_file),
                "--lower", "0", "--upper", "1",
                "--epsilon", "0.5",
                "--seed", "4",
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert set(record) == {"mechanism", "epsilon", "n_is_private", "estimate", "bounds"}
        assert record["mechanism"] == "transformed"
        assert record["n_is_private"] is True
        assert 0.0 <= record["estimate"] <= 1.0
        assert "compose" in err  # privacy note on stderr

    def test_deterministic_given_seed(self, data_file, capsys):
        argv = [
            "estimate", "--input", str(data_file),
            "--lower", "0", "--upper", "1", "--epsilon", "0.5", "--seed", "9",
        ]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2

    def test_seed_never_in_record(self, data_file, capsys):
        # the seed fixes the noise pair, so publishing it voids the guarantee
        base = ["estimate", "--input", str(data_file), "--lower", "0", "--upper", "1",
                "--epsilon", "0.5"]
        for argv in (base, base + ["--seed", "4"]):
            code, out, _ = run(argv, capsys)
            assert code == 0
            assert "seed" not in json.loads(out)

    @pytest.mark.parametrize(
        "seed, missing", [("-1", False), (str(2**64), False), (str(2**64), True)],
        ids=["-1", str(2**64), "missing-input"],
    )
    def test_out_of_range_seed_rejected(self, data_file, seed, missing, capsys):
        # The seed's noise is drawn before the input is read, so a missing
        # file does not hide the bad seed.
        path = data_file.with_name("missing.txt") if missing else data_file
        code, out, err = run(
            ["estimate", "--input", str(path), "--lower", "0", "--upper", "1",
             "--epsilon", "0.5", "--seed", seed],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "unsigned 64-bit" in err and "internal error" not in err
        assert "cannot read" not in err

    def test_mechanisms_generally_differ_on_same_seed(self, tmp_path, capsys):
        path = tmp_path / "many.txt"
        path.write_text("\n".join(str(0.3 + 0.01 * (i % 40)) for i in range(200)))
        outs = {}
        for mech in ("shifted", "transformed"):
            _, out, _ = run(
                ["estimate", "--input", str(path), "--lower", "0", "--upper", "1",
                 "--epsilon", "0.5", "--seed", "11", "--mechanism", mech],
                capsys,
            )
            outs[mech] = json.loads(out)["estimate"]
            assert 0.0 <= outs[mech] <= 1.0
        assert outs["shifted"] != outs["transformed"]

    def test_empty_file_releases(self, tmp_path, capsys):
        # refusing the empty dataset would reveal n = 0; it releases noise only
        records = []
        for text in ("", "\n  \n\n"):
            path = tmp_path / "empty.txt"
            path.write_text(text)
            code, out, _ = run(
                ["estimate", "--input", str(path), "--lower", "0", "--upper", "1",
                 "--epsilon", "0.5", "--seed", "4"],
                capsys,
            )
            assert code == 0
            records.append(json.loads(out))
        assert records[0] == records[1]
        assert set(records[0]) == {"mechanism", "epsilon", "n_is_private", "estimate", "bounds"}
        assert 0.0 <= records[0]["estimate"] <= 1.0

    def test_out_of_bounds_value_rejected_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\n1.5\n0.2\n")
        code, out, err = run(
            ["estimate", "--input", str(path), "--lower", "0", "--upper", "1",
             "--epsilon", "0.5", "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "line 2" in err

    def test_unparseable_line_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\npotato\n")
        code, _, err = run(
            ["estimate", "--input", str(path), "--lower", "0", "--upper", "1",
             "--epsilon", "0.5", "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert "line 2" in err

    def test_missing_file_rejected(self, tmp_path, capsys):
        code, _, err = run(
            ["estimate", "--input", str(tmp_path / "nope.txt"), "--lower", "0",
             "--upper", "1", "--epsilon", "0.5"],
            capsys,
        )
        assert code == 2

    def test_invalid_epsilon_rejected(self, data_file, capsys):
        code, _, err = run(
            ["estimate", "--input", str(data_file), "--lower", "0", "--upper", "1",
             "--epsilon", "0"],
            capsys,
        )
        assert code == 2


ESTIMATE_HEAD = ["estimate", "--seed", "1"]


class TestEstimateValidation:
    """Argument checks come before the input is read, and rejected inputs
    name the offending line counted in \\n-separated lines."""

    # -1e308 and 1e308 are finite, but their difference is not: the estimate was NaN
    @pytest.mark.parametrize(
        "lower, upper", [("nan", "1"), ("1", "0"), ("0", "inf"), ("-1e308", "1e308")]
    )
    def test_bad_bounds_rejected_before_reading(self, data_file, lower, upper, capsys):
        code, out, err = run(
            ESTIMATE_HEAD + ["--input", str(data_file), f"--lower={lower}", f"--upper={upper}",
                             "--epsilon", "0.5"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "bounds must be finite with lower < upper" in err
        assert "line" not in err

    def test_bad_epsilon_rejected_before_reading(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("potato\n")
        for input_path in (path, tmp_path / "missing.txt"):
            code, out, err = run(
                ESTIMATE_HEAD + ["--input", str(input_path), "--lower", "0", "--upper", "1",
                                 "--epsilon", "-1"],
                capsys,
            )
            assert code == 2 and out == ""
            assert "epsilon" in err and "line" not in err and "cannot read" not in err

    @pytest.mark.parametrize(
        "mechanism, lower, upper, epsilon",
        [
            ("transformed", "0", "1", "5e-324"),
            ("shifted", "0", "1e308", "0.5"),
            ("independent", "-1e308", "1e307", "0.5"),
        ],
    )
    def test_infinite_noise_scale_rejected_before_reading(
        self, tmp_path, mechanism, lower, upper, epsilon, capsys
    ):
        # a valid epsilon and valid bounds whose Laplace scale overflows
        code, out, err = run(
            ESTIMATE_HEAD + ["--input", str(tmp_path / "missing.txt"), f"--lower={lower}",
                             f"--upper={upper}", "--epsilon", epsilon, "--mechanism", mechanism],
            capsys,
        )
        assert code == 2 and out == ""
        assert "Laplace scale" in err and "cannot read" not in err and "internal error" not in err

    def test_undecodable_input_rejected(self, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"0.5\n\xff\xfe0.2\n")
        code, out, err = run(
            ESTIMATE_HEAD + ["--input", str(path), "--lower", "0", "--upper", "1", "--epsilon", "0.5"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "internal error" not in err

    def test_only_newlines_separate_lines(self, tmp_path, capsys):
        # A form feed is not a line break: the first line is not a number,
        # and a whitespace-only line of \x0c still counts as one line.
        argv = ESTIMATE_HEAD + ["--lower", "0", "--upper", "1", "--epsilon", "0.5"]
        for text, expected in (
            ("0.5\x0c0.7\n0.2\nzz\n", "line 1: not a decimal number: '0.5\\x0c0.7'"),
            ("0.5\n\x0c\n0.2\u2028\nzz\n", "line 4: not a decimal number: 'zz'"),
            ("0.5\r\n\x0b\r\n0.2\r1.5\n", "line 4: value 1.5 is outside the declared bounds [0.0, 1.0]"),
        ):
            path = tmp_path / "values.txt"
            path.write_bytes(text.encode())
            code, out, err = run(argv + ["--input", str(path)], capsys)
            assert code == 2 and out == ""
            assert expected in err


# Digit strings with the dot anywhere or absent: those of 1-14 digits take
# the exact array path of ``cli._chunks`` when unpadded, the rest ``float``.
FIXED_POINT = st.tuples(st.text(alphabet="0123456789", min_size=1, max_size=16), st.integers(-1, 16)).map(
    lambda t: t[0] if t[1] < 0 else t[0][: t[1]] + "." + t[0][t[1]:]
)
FIXED_POINT_EDGES = [
    "5.", ".5", "0.", ".0", "007", "0000000000000.0",
    "99999999999999", "99999999999999.", ".99999999999999", "9999999.9999999",  # 14 digits
    "999999999999999", "999999999999999.", ".999999999999999", "99999999.9999999",  # 15 digits
]
NUMBER_TEXT = st.one_of(
    FIXED_POINT,
    st.sampled_from(FIXED_POINT_EDGES),
    st.floats(allow_nan=False).map(repr),
    st.floats(allow_nan=False, min_value=0.0).map(lambda x: "+" + repr(x)),
    st.floats(allow_nan=False).map(lambda x: f"{x:.6e}"),
    st.floats(allow_nan=False).map(lambda x: f"{x:.3E}"),
    st.sampled_from(["0_5", "1_000.25e-3", "+.5", "-0.0", "1E3", "5.", "nan", "-inf", "infinity"]),
)
PADDING = st.text(alphabet=" \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000", max_size=3)
LINE = st.one_of(
    st.tuples(PADDING, NUMBER_TEXT, PADDING).map("".join),
    PADDING,
)
ENDING = st.sampled_from(["\n", "\r\n", "\r"])


NUMBERED_LINES = st.lists(st.tuples(LINE, ENDING), max_size=30).filter(
    lambda ls: any(l.strip() for l, _ in ls)
)
TINY_CHUNKS = [1, 2, 3, 7]  # bytes per read, so lines, \r\n pairs and characters straddle reads


@st.composite
def fixed_width_lines(draw):
    """Lines of one width: 1-15 digits each, leading zeros kept, the dot in
    one column of every line or in none."""
    digits = draw(st.integers(1, 15))
    dot = draw(st.integers(-1, digits))
    lines = [f"{m:0{digits}d}" for m in draw(st.lists(st.integers(0, 10**digits - 1), min_size=1, max_size=40))]
    return lines if dot < 0 else [line[:dot] + "." + line[dot:] for line in lines]


def float_outcome(lines):
    """The values ``float`` gives the lines, as bytes, or the message that
    rejects the first line it refuses."""
    values = []
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                values.append(float(line.strip()))
            except ValueError:
                return f"line {lineno}: not a decimal number: {line.strip()!r}"
    return np.array(values, dtype=np.float64).tobytes()


def read_values(path):
    """The values of a file as one array: the arrays ``cli._chunks`` gives,
    joined, which a release folds in one at a time instead."""
    return np.concatenate([np.empty(0), *(values for values, _ in cli._chunks(str(path)))])


def read_outcome(path):
    try:
        return read_values(path).tobytes()
    except cli.ValidationError as exc:
        return str(exc)


class TestReadValues:
    @staticmethod
    def assert_matches_line_by_line_float(tmp_path, numbered_lines):
        path = tmp_path / "values.txt"
        path.write_bytes("".join(l + end for l, end in numbered_lines).encode())
        lines = [l for l, _ in numbered_lines]
        expected = np.array([float(l.strip()) for l in lines if l.strip()], dtype=np.float64)
        got = read_values(path)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(NUMBERED_LINES)
    def test_matches_line_by_line_float(self, tmp_path, numbered_lines):
        self.assert_matches_line_by_line_float(tmp_path, numbered_lines)

    @pytest.mark.parametrize("chunk", TINY_CHUNKS)
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(numbered_lines=NUMBERED_LINES)
    def test_matches_line_by_line_float_in_tiny_chunks(self, tmp_path, monkeypatch, chunk, numbered_lines):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        self.assert_matches_line_by_line_float(tmp_path, numbered_lines)

    def test_fixed_point_lines_match_float(self, tmp_path):
        # Over 10^5 lines of 1-15 digits, dot anywhere or absent, and a blank
        # or padded line in 50, several chunks at the default size: exact
        # lines, and 15-digit and blank ones among them, and the chunk seams.
        rng = np.random.default_rng(12)
        widths = rng.integers(1, 16, 100_000)
        mantissas = rng.integers(0, 10**15, 100_000) % 10**widths
        dots = rng.integers(-1, 16, 100_000)
        lines = []
        for i, (m, width, dot) in enumerate(zip(mantissas.tolist(), widths.tolist(), dots.tolist())):
            text = f"{m:0{width}d}"
            lines.append(text if dot < 0 else text[:dot] + "." + text[dot:])
            if i % 50 == 7:
                lines[-1] = ["", " ", "\t\x1c", " 0.5"][i % 4]
        self.assert_matches_line_by_line_float(tmp_path, [(l, "\n") for l in lines])

    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(FIXED_POINT, min_size=1, max_size=60), st.lists(st.tuples(st.integers(0, 60), LINE), max_size=4))
    def test_mostly_fixed_point_lines_match_float(self, tmp_path, fixed, others):
        # Blocks at or near the share of exact lines that takes the array pass.
        lines = list(fixed)
        for at, line in others:
            lines.insert(at, line)
        self.assert_matches_line_by_line_float(tmp_path, [(l, "\n") for l in lines])

    def test_non_ascii_line_in_a_later_chunk(self, tmp_path):
        # float reads the Arabic-Indic digit three and strips the ideographic
        # space; the chunks around theirs are ASCII.
        head = [f"0.{i:06d}" for i in range(20_000)]
        lines = head + ["\u0663", "\u30000.5", "0.25"] + head
        self.assert_matches_line_by_line_float(tmp_path, [(l, "\n") for l in lines])

    def test_only_other_lines_reach_float(self, tmp_path, monkeypatch):
        # In a block of 7 exact lines in 8 or more, lines of 1-14 digits with
        # at most one dot never call float.
        seen = []
        monkeypatch.setattr(cli, "float", lambda text: seen.append(text) or float(text), raising=False)
        path = tmp_path / "values.txt"
        path.write_text("0.123456789\n1\n.5\n5.\n12345678901234\n" * 5 + "+0.5\n123456789012345\n 7\n")
        exact = [0.123456789, 1.0, 0.5, 5.0, 12345678901234.0]
        assert read_values(path).tolist() == exact * 5 + [0.5, 123456789012345.0, 7.0]
        assert seen == ["+0.5", "123456789012345", "7"]

    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_only_the_non_ascii_line_reaches_float(self, tmp_path, monkeypatch, ending):
        # A line padded with U+3000 is decoded and goes through float on its
        # own; the exact lines around it in its block do not.  A block with
        # \r\n endings is decoded whole and parsed as UTF-8.
        seen = []
        monkeypatch.setattr(cli, "float", lambda text: seen.append(text) or float(text), raising=False)
        path = tmp_path / "values.txt"
        lines = ["0.5"] * 20 + ["\u30000.25"] + ["0.75"] * 5
        path.write_bytes("".join(line + ending for line in lines).encode("utf-8"))
        assert read_values(path).tolist() == [0.5] * 20 + [0.25] + [0.75] * 5
        assert seen == ["0.25"]

    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_a_non_utf8_encoding_reaches_the_parse(self, tmp_path, monkeypatch, ending):
        # Latin-1 pads with the no-break space, the byte 0xa0, which is no
        # UTF-8 text: the lines, or with \r\n the block, that hold it are
        # decoded in the file's own encoding.
        monkeypatch.setattr(cli, "open", lambda path: open(path, encoding="latin-1"), raising=False)
        path = tmp_path / "values.txt"
        lines = ["0.5"] * 20 + ["\xa00.25", "0.125\xa0", "\xa0"] + ["0.75"] * 5
        path.write_bytes("".join(line + ending for line in lines).encode("latin-1"))
        expected = np.array([float(line.strip()) for line in lines if line.strip()])
        assert read_values(path).tobytes() == expected.tobytes()

    # Below 7 exact lines in 8 the array pass costs more than it saves: a
    # sign in the head screens the first block out, 15-digit lines the pass.
    @pytest.mark.parametrize("lines", [["0.5", "-0.25", "1.5"], ["123456789012345"] * 8 + ["0.5"]])
    def test_a_block_of_mostly_other_lines_goes_through_float(self, tmp_path, monkeypatch, lines):
        seen = []
        monkeypatch.setattr(cli, "float", lambda text: seen.append(text) or float(text), raising=False)
        path = tmp_path / "values.txt"
        path.write_text("".join(line + "\n" for line in lines))
        assert read_values(path).tolist() == [float(line) for line in lines]
        assert seen == lines

    @pytest.mark.parametrize("bad", [".", "1.2.3", "..5", "5..", "1.2.", "1.\x7f"])
    def test_dots_and_digits_that_are_not_a_number(self, tmp_path, bad):
        # Short lines of digits and dots that float refuses are refused, in a
        # block that takes the array pass.
        path = tmp_path / "values.txt"
        path.write_text("0.5\n" * 20 + f"{bad}\n0.25\n")
        with pytest.raises(cli.ValidationError, match=f"^line 21: not a decimal number: {re.escape(repr(bad))}$"):
            read_values(path)

    @pytest.mark.parametrize("chunk", [7, cli._CHUNK])
    @pytest.mark.parametrize(
        "tail, values",
        [("1\r\n2\n", [1.0, 2.0]), ("\u30001\n", [1.0]), (" \u30001\n", [1.0])],
        ids=["crlf", "char-split-2-1", "char-split-1-2"],
    )
    def test_decoder_buffer_edge(self, tmp_path, monkeypatch, chunk, tail, values):
        # After 8190 bytes of "0\n" lines the tail puts a \r\n pair, or a
        # 3-byte U+3000 split 2+1 or 1+2, across byte 8192, in small and in
        # whole reads: every read is parsed where it lies but the one with
        # the \r, which the decoder takes, and no block ends inside a line.
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        path = tmp_path / "values.txt"
        path.write_bytes(("0\n" * 4095 + tail).encode())
        assert read_values(path).tolist() == [0.0] * 4095 + values

    @pytest.mark.parametrize("chunk", TINY_CHUNKS)
    def test_no_trailing_newline(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        path = tmp_path / "values.txt"
        for text, expected in (
            ("0.5\n0.25", [0.5, 0.25]),
            ("0.5\r\n0.25", [0.5, 0.25]),
            ("0.5\r0.25 ", [0.5, 0.25]),
            ("0.25", [0.25]),
        ):
            path.write_bytes(text.encode())
            assert read_values(path).tolist() == expected

    @pytest.mark.parametrize("chunk", [*TINY_CHUNKS, cli._CHUNK])
    def test_newline_ended_file_parses_no_tail(self, tmp_path, monkeypatch, chunk):
        # each line is converted once, by one of the array steps; no blank
        # tail block follows
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        lines, exact, fixed = [], cli._exact, cli._fixed

        def counted_fixed(data, end):
            values = fixed(data, end)
            lines.append(0 if values is None else len(values))
            return values

        monkeypatch.setattr(cli, "_exact", lambda buf, ends, lens: lines.append(len(ends)) or exact(buf, ends, lens))
        monkeypatch.setattr(cli, "_fixed", counted_fixed)
        path = tmp_path / "values.txt"
        path.write_text("0.5\n0.25\n")
        assert read_values(path).tolist() == [0.5, 0.25]
        assert sum(lines) == 2


class TestFixedWidth:
    """A block whose lines share one length and one dot column converts as
    a reshape of its bytes; any other block falls back to the general path."""

    @pytest.mark.parametrize("chunk", [*TINY_CHUNKS, cli._CHUNK])
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=fixed_width_lines())
    @example(lines=[".5", ".0", ".9"])
    @example(lines=["5.", "0.", "9."])
    @example(lines=["007", "100", "000"])
    @example(lines=["99999999999999", "00000000000001"])  # 14 digits
    @example(lines=["9999999.9999999", "0000000.0000001"])
    @example(lines=["999999999999999", "000000000000001"])  # 15 digits
    def test_blocks_of_one_width_match_float(self, tmp_path, monkeypatch, chunk, lines):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        TestReadValues.assert_matches_line_by_line_float(tmp_path, [(line, "\n") for line in lines])

    BASE = ["0.123456789"] * 20

    @pytest.mark.parametrize(
        "lines",
        [
            BASE[:10] + ["0.1234567891"] + BASE[10:],
            BASE[:10] + ["0.12345678"] + BASE[10:],
            BASE[:10] + ["01.23456789"] + BASE[10:],
            BASE[:10] + ["0.1234.6789"] + BASE[10:],
            BASE[:10] + [" .123456789"] + BASE[10:],
            BASE[:10] + ["+.123456789"] + BASE[10:],
            BASE[:10] + ["0.1234\x7f6789"] + BASE[10:],
            ["0.12345678901234"] * 20,
            [""] + BASE,
            # the bytes either side of the digits, a digit where the dot
            # belongs, a carriage return where the last digit belongs, and
            # a digit where a newline belongs: one line two rows long
            BASE[:10] + ["0.1234/6789"] + BASE[10:],
            BASE[:10] + ["0.1234:6789"] + BASE[10:],
            BASE[:10] + ["00123456789"] + BASE[10:],
            BASE[:10] + ["0.12345678\r"] + BASE[10:],
            BASE[:10] + ["0.1234567891" + "0.123456789"] + BASE[10:],
        ],
        ids=[
            "longer", "shorter", "dot-moved", "second-dot", "space", "plus", "del", "15-digits", "blank-first",
            "slash", "colon", "digit-in-dot-column", "cr", "two-rows",
        ],
    )
    def test_near_misses_fall_back(self, tmp_path, lines):
        block = "".join(line + "\n" for line in lines)
        data = block.encode()
        assert cli._fixed(data, len(data)) is None
        path = tmp_path / "values.txt"
        path.write_text(block)
        assert read_outcome(path) == float_outcome(lines)

    @pytest.mark.parametrize("chunk", [*TINY_CHUNKS, cli._CHUNK])
    @pytest.mark.parametrize("last, exact", [("0.987654321", True), ("0.98765432:", False)], ids=["digits", "colon"])
    def test_more_lines_than_the_cached_layout(self, monkeypatch, chunk, last, exact):
        # The layout for _CHUNK-sized reads is cached first; a block with
        # more lines still has every byte checked, the last line's too.
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        small = "".join(f"{x:.9f}\n" for x in rng.uniform(0, 1, 3))
        data = small.encode()
        assert cli._fixed(data, len(data)).tolist() == [float(x) for x in small.split()]
        lines = [f"{x:.9f}" for x in rng.uniform(0, 1, 2 * (chunk // 12) + 5)] + [last]
        data = "".join(line + "\n" for line in lines).encode()
        values = cli._fixed(data, len(data))
        if exact:
            assert values.tobytes() == np.array([float(line) for line in lines]).tobytes()
        else:
            assert values is None

    def test_a_savetxt_file_calls_neither_float_nor_the_general_pass(self, tmp_path, monkeypatch):
        # three chunks at the default size, each of whole %.9f lines
        path = tmp_path / "values.txt"
        np.savetxt(path, np.random.default_rng(3).uniform(0, 1, 30_000), fmt="%.9f")
        expected = [float(line) for line in path.read_text().split()]
        calls = []
        monkeypatch.setattr(cli, "float", lambda text: calls.append(text) or float(text), raising=False)
        monkeypatch.setattr(cli, "_exact", lambda *args: calls.append(args))
        assert read_values(path).tolist() == expected
        assert calls == []


class TestRejectedAcrossChunks:
    """An input rejected at any chunk size, a pipe as a file, gets the
    message a whole-file read gives it, with the same line number or byte
    position."""

    ARGV = ESTIMATE_HEAD + ["--lower", "0", "--upper", "1", "--epsilon", "0.5"]

    @pytest.mark.parametrize("chunk", TINY_CHUNKS)
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("0.5\r\n0.25\n\n0.7\rzz\n0.1\n", "line 5: not a decimal number: 'zz'"),
            ("0.5\r\n\x0b\r\n0.2\r1.5\n0.3", "line 4: value 1.5 is outside the declared bounds [0.0, 1.0]"),
            ("0.5\n0.25\n\u3000-1e-300", "line 3: value -1e-300 is outside the declared bounds [0.0, 1.0]"),
            ("0.5\n0.25\n0.75\r\n0x1", "line 4: not a decimal number: '0x1'"),
            ("0.5\r\n0.25\n\nnan\n0.1\n", "line 4: value nan is outside the declared bounds [0.0, 1.0]"),
            ("0.5\n 0.25\ninf\n0.1\n", "line 3: value inf is outside the declared bounds [0.0, 1.0]"),
            ("0.5\n0.25\n\n-inf", "line 4: value -inf is outside the declared bounds [0.0, 1.0]"),
        ],
        ids=["unparseable", "out-of-bounds", "out-of-bounds-last-line", "unparseable-last-line", "nan", "inf", "-inf"],
    )
    def test_line_number(self, tmp_path, monkeypatch, capsys, chunk, text, expected):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        path = tmp_path / "values.txt"
        path.write_bytes(text.encode())
        code, out, err = run(self.ARGV + ["--input", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {expected}\n"

    @pytest.mark.parametrize("chunk", TINY_CHUNKS)
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        numbered_lines=NUMBERED_LINES,
        bad=st.tuples(st.sampled_from(["zz", "1.2.3", "0x1", "5.."]), ENDING),
        at=st.integers(0, 30),
        last_end=st.booleans(),
    )
    def test_line_number_under_any_line_ends(self, tmp_path, monkeypatch, chunk, numbered_lines, bad, at, last_end):
        # One line float refuses among lines of every ending, in reads that
        # split lines and \r\n pairs; the last line may have no line end.
        # The expected lines are text mode's: a \r ending before a blank \n
        # line reads as one \r\n.
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        numbered_lines.insert(at % (len(numbered_lines) + 1), bad)
        text = "".join(line + end for line, end in numbered_lines)
        text = text if last_end else text[:-len(numbered_lines[-1][1])]
        path = tmp_path / "values.txt"
        path.write_bytes(text.encode())
        assert read_outcome(path) == float_outcome(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"))

    @pytest.mark.parametrize("chunk", [*TINY_CHUNKS, cli._CHUNK])
    @pytest.mark.parametrize(
        "bad, expected",
        [
            ("0.12345z789", "line 12: not a decimal number: '0.12345z789'"),
            ("zz", "line 12: not a decimal number: 'zz'"),
            ("1.500000000", "line 12: value 1.5 is outside the declared bounds [0.0, 1.0]"),
            ("nan", "line 12: value nan is outside the declared bounds [0.0, 1.0]"),
            ("inf", "line 12: value inf is outside the declared bounds [0.0, 1.0]"),
            ("-inf", "line 12: value -inf is outside the declared bounds [0.0, 1.0]"),
        ],
        ids=["unparseable", "unparseable-other-width", "out-of-bounds", "nan", "inf", "-inf"],
    )
    def test_bad_line_in_a_fixed_width_chunk(self, tmp_path, monkeypatch, capsys, chunk, bad, expected):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        path = tmp_path / "values.txt"
        path.write_text("0.123456789\n" * 11 + bad + "\n" + "0.987654321\n" * 20)
        code, out, err = run(self.ARGV + ["--input", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {expected}\n"

    @pytest.mark.parametrize("chunk", TINY_CHUNKS)
    @pytest.mark.parametrize("head", ["0.5\n", "zz\n"], ids=["values", "unparseable"])
    def test_undecodable_byte_after_first_chunk(self, tmp_path, monkeypatch, capsys, chunk, head):
        # The byte lies past the first 8 KiB that text mode decodes, so it is
        # met on a later read; an unparseable first line fails its chunk first.
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        path = tmp_path / "values.txt"
        path.write_bytes(head.encode() + b"0.25\n" * 3000 + b"\xff\n0.5\n")
        try:
            path.read_text()
        except UnicodeDecodeError as exc:
            expected = f"error: cannot read input file {path}: {exc}\n"
        else:
            pytest.skip("the locale's encoding decodes every byte")
        code, out, err = run(self.ARGV + ["--input", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == expected

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    @pytest.mark.parametrize(
        "data, expected",
        [
            (b"0.5\nzz\n", "line 2: not a decimal number: 'zz'"),
            (b"0.5\n\xff\n", "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"),
            (b"zz\n" + b"0.5\n" * 50_000 + b"yy\n", "line 1: not a decimal number: 'zz'"),
            (b"0.5\nnan\n", "line 2: value nan is outside the declared bounds [0.0, 1.0]"),
            (b"0.5\ninf\n0.25\n", "line 2: value inf is outside the declared bounds [0.0, 1.0]"),
            (b"0.5\r\n0.25\r\n0.7\r1.5\n", "line 4: value 1.5 is outside the declared bounds [0.0, 1.0]"),
            (b"0.5\n" * 50_000 + b"\xff\n", "'utf-8' codec can't decode byte 0xff in position 200000: invalid start byte"),
            (b"zz\n" + b"0.5\n" * 3750 + b"\xff\n", "'utf-8' codec can't decode byte 0xff in position 15003: invalid start byte"),
            (b"0.5\n1.5\n" + b"0.5\n" * 40_000 + b"zz\n", "line 40003: not a decimal number: 'zz'"),
            (b"0.5\r" * 40_000 + b"zz\r0.5\r", "line 40001: not a decimal number: 'zz'"),
            (b"0.5\r\n" * 40_000 + b"zz\r\n0.5\r\n", "line 40001: not a decimal number: 'zz'"),
            (b"0.5\r\n" * 40_000 + b"\xff\r\n", "'utf-8' codec can't decode byte 0xff in position 200000: invalid start byte"),
            (b"0.5\n\xe3", "'utf-8' codec can't decode byte 0xe3 in position 4: unexpected end of data"),
            (b"0.5\n\xe3\x81\n", "'utf-8' codec can't decode bytes in position 4-5: invalid continuation byte"),
        ],
        ids=[
            "unparseable", "undecodable", "unparseable-before-more-reads", "nan", "inf", "out-of-bounds-after-cr",
            "undecodable-late", "undecodable-after-unparseable", "unparseable-after-out-of-bounds",
            "cr-past-a-cut", "crlf-past-a-cut", "crlf-undecodable-past-a-cut", "truncated-last", "truncated",
        ],
    )
    def test_bad_line_on_a_pipe(self, tmp_path, data, expected):
        # The same bytes on stdin, once a regular file and once a pipe, are
        # read once each and refused alike, with a line number or a byte
        # position counted from the start of the input.
        if not expected.startswith("line"):
            expected = f"cannot read input file /dev/stdin: {expected}"
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONUTF8": "1", "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-m", "dpmean.cli", *self.ARGV, "--input", "/dev/stdin"]
        path = tmp_path / "values.txt"
        path.write_bytes(data)
        with open(path, "rb") as f:
            as_file = subprocess.run(argv, stdin=f, capture_output=True, env=env, timeout=60)
        as_pipe = subprocess.run(argv, input=data, capture_output=True, env=env, timeout=60)
        for done in (as_file, as_pipe):
            assert (done.returncode, done.stdout) == (2, b"")
        assert as_pipe.stderr.decode() == as_file.stderr.decode() == f"error: {expected}\n"


def write_fixed_width(path, n, seed, ending=b"\n"):
    """n lines "0.ddddddddd" of random digits, written as one array."""
    lines = np.empty((n, 11 + len(ending)), np.uint8)
    lines[:, :2] = np.frombuffer(b"0.", np.uint8)
    lines[:, 2:11] = np.random.default_rng(seed).integers(48, 58, (n, 9), dtype=np.uint8)
    lines[:, 11:] = np.frombuffer(ending, np.uint8)
    path.write_bytes(lines.tobytes())


class TestStreamingRelease:
    """A release folds each chunk into (count, bounds check, exact partials)
    as it is read; it holds no array of the whole file."""

    ARGV = ESTIMATE_HEAD + ["--lower", "0", "--upper", "1", "--epsilon", "0.5"]

    # A read with no \n is cut at its last \r: a loop that cut only at \n
    # would hold the whole of a CR-ended file.
    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_memory_does_not_grow_with_n(self, tmp_path, capsys, ending):
        paths = []
        for n in (100_000, 400_000):
            paths.append(tmp_path / f"values{n}.txt")
            write_fixed_width(paths[-1], n, seed=n, ending=ending)
        assert main(self.ARGV + ["--input", str(paths[0])]) == 0  # imports and caches settle
        rises = []
        for path in paths:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                assert main(self.ARGV + ["--input", str(path)]) == 0
                rises.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        # an array of the whole file would add 8 bytes a value, 2.4 MB here
        assert abs(rises[1] - rises[0]) < 0.5e6

    @pytest.mark.parametrize("cap", [0, 5, cli._PARTIALS])
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 150_000),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
        lower=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
        width=st.floats(1e-6, 1e6),
        skew=st.integers(1, 60),
    )
    def test_chunking_moves_no_bit(self, monkeypatch, cap, seed, size, cuts, lower, width, skew):
        # cap 0 and 5 merge the partials after (nearly) every chunk
        monkeypatch.setattr(cli, "_PARTIALS", cap)
        upper = lower + width
        rng = np.random.default_rng(seed)
        # skewed toward lower, so the terms span many exponents
        values = np.clip(lower + rng.random(size) ** skew * (upper - lower), lower, upper)
        values[rng.random(size) < 0.01] = upper
        chunks = [(chunk, None) for chunk in np.split(values, sorted(int(c * size) for c in cuts))]
        n, partials = cli._fold(chunks, lower, upper)
        assert n == size
        assert math.fsum(partials).hex() == BoundedDataset(values, lower, upper).scaled_total.hex()

    @pytest.mark.parametrize("seed", [0, 123, 2**64 - 1])
    @pytest.mark.parametrize("mechanism", [m.value for m in Mechanism])
    @pytest.mark.parametrize("lower, upper", [(0.0, 1.0), (-3.0, 7.5)])
    def test_release_equals_run_mechanism_on_the_whole_dataset(self, tmp_path, capsys, mechanism, lower, upper, seed):
        # The reference is the scalar release: the file's values as one
        # BoundedDataset, and run_mechanism on a cursor of the same seed,
        # at both ends of the seed range.  Fixed-width, 17-digit and ragged
        # lines over several chunks, and an empty file.
        values = np.random.default_rng(5).uniform(0, 1, 30_000).tolist()
        lines = [f"{v:.9f}" for v in values[:20_000]] + [repr(v) for v in values[20_000:25_000]]
        lines += [f"{v:.6f}".rstrip("0") for v in values[25_000:]]
        for text in ("".join(line + "\n" for line in lines), ""):
            path = tmp_path / "values.txt"
            path.write_text(text)
            code, out, _ = run(
                ["estimate", "--input", str(path), f"--lower={lower}", f"--upper={upper}",
                 "--epsilon", "0.5", "--mechanism", mechanism, "--seed", str(seed)],
                capsys,
            )
            assert code == 0
            d = BoundedDataset([float(line) for line in text.split()], lower, upper)
            expected = run_mechanism(d, PrivacyBudget(0.5), Mechanism(mechanism), Cursor(RandomStream(seed, 0)))
            assert json.loads(out)["estimate"] == expected.value


BOUNDS_AT_N = ["bounds", "--epsilon", "1", "--lower", "0", "--upper", "1", "--mean", "0.5", "--n"]


class TestBounds:
    def test_unit_interval_table(self, capsys):
        code, out, _ = run(["bounds", "--epsilon", "0.5", "--lower", "0", "--upper", "1"], capsys)
        assert code == 0
        assert out == (
            "normalized MSE leading terms for epsilon=0.5, bounds=[0.0, 1.0]\n"
            "(asymptotic constants; true values carry a 1 +/- o(1) factor)\n"
            "  swap min-max leading                   swap        8.0\n"
            "  add-remove upper (transformed mech.)   add_remove  8.0\n"
            "  add-remove lower bound                 add_remove  8.0\n"
            "  shifted mech. worst case               add_remove  16.0\n"
            "  (the first three rows coincide: each is 2 (upper - lower)^2 / epsilon^2)\n"
            "  shifted / transformed MSE ratio                    2.0\n"
        )

    def test_per_dataset_rows(self, capsys):
        code, out, _ = run(
            ["bounds", "--epsilon", "0.5", "--lower", "0", "--upper", "1",
             "--n", "1000", "--mean", "0.5"],
            capsys,
        )
        assert code == 0
        assert "8e-06" in out and "4e-06" in out

    @pytest.mark.parametrize(
        "argv, zeros",
        [(["--epsilon", "1e300"], 4), (["--epsilon", "1e200", "--n", "1000", "--mean", "0.5"], 8)],
        ids=["1e300", "1e200-per-dataset"],
    )
    def test_a_huge_epsilon_prints_zero_bounds(self, argv, zeros, capsys):
        # eps**2 overflows, but every bound, about 1/eps^2, rounds to 0.0
        code, out, err = run(["bounds", *argv, "--lower", "0", "--upper", "1"], capsys)
        assert code == 0 and err == ""
        assert out.count(" 0.0\n") == zeros

    def test_zero_epsilon_rejected(self, capsys):
        code, _, err = run(["bounds", "--epsilon", "0", "--lower", "0", "--upper", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--epsilon", "0.5", "--lower=-1e308", "--upper=1e308"], "finite width"),
            (["--epsilon", "1e-200", "--lower", "0", "--upper", "1"], "out of float range"),
            (["--epsilon", "0.5", "--lower", "0", "--upper", "1e200"], "out of float range"),
            (["--epsilon", "0.5", "--lower", "0", "--upper", "1", "--n", "1000", "--mean", "5"],
             "mean 5.0 outside bounds"),
            (["--epsilon", "0.5", "--lower", "0", "--upper", "1", "--n", "1000", "--mean", "nan"],
             "mean nan outside bounds"),
            (["--epsilon", "0.5", "--lower", "0", "--upper", "1", "--n", "1000"], "pass both or neither"),
            (["--epsilon", "0.5", "--lower", "0", "--upper", "1", "--mean", "0.5"], "pass both or neither"),
        ],
        ids=["width", "eps-underflow", "width-squared", "mean-outside", "mean-nan", "n-alone", "mean-alone"],
    )
    def test_invalid_input_rejected(self, argv, message, capsys):
        code, out, err = run(["bounds", *argv], capsys)
        assert code == 2 and out == ""
        assert message in err and "internal error" not in err

    def test_a_dataset_size_below_2_to_the_512_is_taken(self, capsys):
        code, out, err = run(BOUNDS_AT_N + [str(2**511)], capsys)
        assert code == 0 and err == ""
        assert out.endswith(f"{'':<11} 2.0\n  {'normalized (x n^2), transformed':<38} {'':<11} 1.0\n")

    @pytest.mark.parametrize("n", [2**512 - 1, 2**512], ids=["2^512-1", "2^512"])
    def test_a_dataset_size_whose_square_overflows_is_refused(self, n, capsys):
        # (2^512 - 1)^2 rounds to 2^1024 as well: the square is what overflows
        code, out, err = run(BOUNDS_AT_N + [str(n)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: dataset size {n} is too large: its square is not a finite double\n"


class TestFigures:
    def test_smoke_run_single_trial(self, tmp_path, capsys):
        out_path = tmp_path / "fig.csv"
        code, out, _ = run(
            ["figures", "--preset", "fig2a", "--trials", "1", "--seed", "3",
             "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 5 * 6
        meta = json.loads((tmp_path / "fig.csv.meta.json").read_text())
        assert meta["preset"] == "fig2a"
        assert meta["trials"] == 1

    def test_fig2b_ratio_column(self, tmp_path, capsys):
        out_path = tmp_path / "b.csv"
        code, _, _ = run(
            ["figures", "--preset", "fig2b", "--trials", "50", "--seed", "3",
             "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER + ",ratio_to_bound"
        for line in lines[1:]:
            cells = line.split(",")
            normalized = float(cells[7])
            eps = float(cells[1])
            assert float(cells[10]) == normalized / (2.0 / eps**2)

    def test_fig2c_pairs_share_ratio(self, tmp_path, capsys):
        out_path = tmp_path / "c.csv"
        code, _, _ = run(
            ["figures", "--preset", "fig2c", "--trials", "40", "--seed", "3",
             "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER + ",ratio_shifted_to_transformed"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2 * 5 * 6
        by_cell = {}
        for cells in rows:
            by_cell.setdefault((cells[1], cells[4]), []).append(cells)
        for (eps, mu), pair in by_cell.items():
            assert len(pair) == 2
            assert pair[0][10] == pair[1][10]  # both rows carry the pair ratio

    def test_csv_values_round_trip_exactly(self, tmp_path, capsys):
        out_path = tmp_path / "rt.csv"
        run(
            ["figures", "--preset", "fig2b", "--trials", "20", "--seed", "5",
             "--output", str(out_path)],
            capsys,
        )
        first = out_path.read_text()
        # re-emitting parsed floats with repr reproduces the file byte for byte
        lines = first.strip().split("\n")
        rebuilt = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            for idx in (1, 4, 6, 7, 8, 10):
                cells[idx] = repr(float(cells[idx]))
            rebuilt.append(",".join(cells))
        assert "\n".join(rebuilt) + "\n" == first

    def test_explicit_config_json(self, tmp_path, capsys):
        config = {
            "mechanisms": ["transformed"],
            "epsilons": [0.5],
            "dataset_specs": [
                {"kind": "two_point", "size": 30, "target_mean": 0.5, "bounds": [0.0, 1.0]}
            ],
            "trials": 10,
            "seed": 21,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "custom.csv"
        code, _, _ = run(
            ["figures", "--input", str(cfg_path), "--output", str(out_path)], capsys
        )
        assert code == 0
        assert out_path.read_text().startswith(CSV_HEADER)

    def test_infinite_bounds_rejected(self, tmp_path, capsys):
        config = {
            "mechanisms": ["transformed"],
            "epsilons": [0.5],
            "dataset_specs": [
                {"kind": "two_point", "size": 30, "target_mean": 0.5, "bounds": [0.0, float("inf")]}
            ],
            "trials": 10,
            "seed": 21,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))  # writes the bound as Infinity
        code, _, err = run(
            ["figures", "--input", str(cfg_path), "--output", str(tmp_path / "x.csv")], capsys
        )
        assert code == 2
        assert "bounds must be finite" in err and "internal error" not in err

    @pytest.mark.parametrize(
        "edit, reason",
        [
            ({"trials": 10.5}, "trials must be an integer >= 1, got 10.5"),
            ({"trials": True}, "trials must be an integer >= 1, got True"),
            ({"seed": 1.5}, "seed must be an unsigned 64-bit integer, got 1.5"),
            ({"seed": True}, "seed must be an unsigned 64-bit integer, got True"),
            ({"epsilons": ["0.5"]}, "epsilon must be positive and finite, got '0.5'"),
            ({"epsilons": [True]}, "epsilon must be positive and finite, got True"),
            ({"dataset_specs": [{**TWO_POINT_SPEC, "size": 10.5}]}, "dataset size must be an integer >= 1"),
            ({"dataset_specs": [{**TWO_POINT_SPEC, "size": True}]}, "dataset size must be an integer >= 1"),
            ({"dataset_specs": [{**TWO_POINT_SPEC, "kind": "lower_bound_family"}]}, "not a valid DatasetKind"),
            ({"mechanisms": []}, "a sweep needs at least one mechanism"),
            ({"epsilons": []}, "a sweep needs at least one mechanism"),
            ({"dataset_specs": []}, "a sweep needs at least one mechanism"),
            # a valid epsilon whose Laplace scale overflows
            ({"epsilons": [0.5, 5e-324]}, "Laplace scale must be positive and finite, got inf"),
            (None, "bad sweep config"),  # a non-object root
            ({"dataset_specs": [{**TWO_POINT_SPEC, "target_mean": True}]}, "target mean must be a real number"),
            ({"dataset_specs": [{**TWO_POINT_SPEC, "bounds": [False, True]}]}, "bounds must be real numbers"),
        ],
        ids=["trials-float", "trials-bool", "seed-float", "seed-bool", "epsilon-str",
             "epsilon-bool", "size-float", "size-bool", "lower_bound_family",
             "mechanisms-empty", "epsilons-empty", "specs-empty", "laplace-scale", "root-list",
             "target-mean-bool", "bounds-bool"],
    )
    def test_malformed_config_rejected(self, tmp_path, edit, reason, capsys):
        config = {
            "mechanisms": ["transformed"],
            "epsilons": [0.5],
            "dataset_specs": [TWO_POINT_SPEC],
            "trials": 10,
            "seed": 21,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps([1, 2] if edit is None else {**config, **edit}))
        out_path = tmp_path / "x.csv"
        code, _, err = run(["figures", "--input", str(cfg_path), "--output", str(out_path)], capsys)
        assert code == 2
        assert "bad sweep config" in err and reason in err and "internal error" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "flag, reason",
        [
            (["--trials", "0"], "trials must be an integer >= 1, got 0"),
            (["--seed", str(2**64)], f"seed must be an unsigned 64-bit integer, got {2**64}"),
        ],
        ids=["trials", "seed"],
    )
    def test_preset_rejects_bad_trials_and_seed(self, tmp_path, flag, reason, capsys):
        out_path = tmp_path / "x.csv"
        code, out, err = run(["figures", "--preset", "fig2c", *flag, "--output", str(out_path)], capsys)
        assert code == 2
        assert out == ""
        assert reason in err and "internal error" not in err
        assert not out_path.exists()

    def test_preset_required(self, capsys):
        code, _, err = run(["figures"], capsys)
        assert code == 2

    @pytest.mark.parametrize("flag", [["--trials", "500"], ["--seed", "99"]], ids=["trials", "seed"])
    def test_config_rejects_trials_and_seed(self, tmp_path, flag, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "mechanisms": ["transformed"], "epsilons": [0.5], "dataset_specs": [TWO_POINT_SPEC],
            "trials": 10, "seed": 21,
        }))
        out_path = tmp_path / "x.csv"
        code, _, err = run(["figures", "--input", str(cfg_path), *flag, "--output", str(out_path)], capsys)
        assert code == 2
        assert "the sweep config carries its own trials and seed" in err
        assert not out_path.exists()

    def test_preset_and_input_exclusive(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{}")
        out_path = tmp_path / "x.csv"
        code, _, err = run(
            ["figures", "--preset", "fig2b", "--input", str(cfg_path), "--output", str(out_path)],
            capsys,
        )
        assert code == 2
        assert "not allowed with argument" in err
        assert not out_path.exists()

    def test_unwritable_output(self, tmp_path, capsys):
        code, _, err = run(
            ["figures", "--preset", "fig2b", "--trials", "1", "--seed", "1",
             "--output", str(tmp_path / "no" / "dir" / "x.csv")],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "blocked, existing",
        [("x.csv.meta.json", None), ("x.csv.meta.json", b"old,bytes\n"), ("x.csv", None)],
        ids=["sidecar", "sidecar-old-csv", "csv"],
    )
    def test_a_refused_write_leaves_both_files_as_they_were(self, tmp_path, capsys, blocked, existing):
        # a directory in the way of either file refuses the run and names that file
        out_path = tmp_path / "x.csv"
        (tmp_path / blocked).mkdir()
        if existing is not None:
            out_path.write_bytes(existing)
        code, out, err = run(
            ["figures", "--preset", "fig2b", "--trials", "2", "--seed", "1", "--output", str(out_path)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert f"cannot write output {tmp_path / blocked}:" in err
        assert {p.name for p in tmp_path.iterdir()} == ({blocked, "x.csv"} if existing else {blocked})
        if existing is not None:
            assert out_path.read_bytes() == existing


class TestGeometry:
    def test_polygon_export(self, tmp_path, capsys):
        out_path = tmp_path / "polys.csv"
        code, out, _ = run(["geometry", "--output", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "polygon_id,vertex_index,x,y"
        assert len(lines) == 1 + 3 * 4
        assert "2.0" in out and "1.0" in out and "True" in out
        # central symmetry of every exported polygon
        polys = {}
        for line in lines[1:]:
            pid, idx, x, y = line.split(",")
            polys.setdefault(pid, []).append((float(x), float(y)))
        for verts in polys.values():
            assert len(verts) == 4
            for i in range(2):
                assert verts[i][0] == -verts[i + 2][0]
                assert verts[i][1] == -verts[i + 2][1]

    def test_unwritable_output_prints_nothing(self, tmp_path, capsys):
        out_path = tmp_path / "no" / "dir" / "polys.csv"
        code, out, err = run(["geometry", "--output", str(out_path)], capsys)
        assert code == 2
        assert out == ""
        assert f"cannot write output {out_path}" in err

    def test_internal_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "ball_polygon", fail)
        code, out, err = run(["geometry", "--output", str(tmp_path / "polys.csv")], capsys)
        assert code == 1
        assert out == ""
        assert err == "internal error: boom\n"

    def test_complement_ball_vertices(self, tmp_path, capsys):
        out_path = tmp_path / "polys.csv"
        run(["geometry", "--output", str(out_path)], capsys)
        lines = [l for l in out_path.read_text().strip().split("\n") if l.startswith("complement_r1")]
        verts = [(float(l.split(",")[2]), float(l.split(",")[3])) for l in lines]
        assert verts == [(1.0, 1.0), (0.0, 1.0), (-1.0, -1.0), (0.0, -1.0)]


def files_in(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


class TestRepeatedMain:
    """``main`` builds its parser once per process and reuses it: each call
    must act as the first call of a fresh interpreter."""

    def test_each_call_matches_a_fresh_interpreter(self, tmp_path, data_file, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # usage and --help wrap to the terminal width
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        here.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(here)
        calls = [
            (["estimate", "--lower", "0"], 2),
            (["--help"], 0),
            (["--version"], 0),
            (["estimate", "--input", str(data_file), "--lower", "0", "--upper", "1", "--epsilon", "0.5",
              "--seed", "7"], 0),
            (["bounds", "--epsilon", "0.5", "--lower", "0", "--upper", "1", "--n", "1000", "--mean", "0.25"], 0),
            (["figures", "--preset", "fig2b", "--trials", "50", "--seed", "7", "--output", "fig2b.csv"], 0),
            (["geometry"], 0),
        ]
        for argv, code in calls:
            done = subprocess.run(
                [sys.executable, "-m", "dpmean.cli", *argv], cwd=fresh, env=env, capture_output=True, timeout=60
            )
            got = main(argv)
            out, err = capsys.readouterr()
            assert (got, out.encode(), err.encode()) == (done.returncode, done.stdout, done.stderr), argv
            assert got == code and (out or err)
            assert files_in(here) == files_in(fresh), argv
        assert sorted(files_in(here)) == ["fig2b.csv", "fig2b.csv.meta.json", "polygons.csv"]

    def test_a_changed_build_parser_result_leaves_main_alone(self, tmp_path, capsys):
        parser = cli.build_parser()
        assert parser is not cli.build_parser()
        parser.add_argument("--extra")
        argv = ["--extra=1", "geometry", "--output", str(tmp_path / "polys.csv")]
        assert parser.parse_args(argv).extra == "1"
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --extra=1" in err
        assert not (tmp_path / "polys.csv").exists()


class TestScripts:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--trials", "0"], "--trials must be at least 1"),
            (["--n", "0"], "--n must be at least 1"),
            (["--epsilons", "0"], "epsilon must be positive and finite, got 0.0"),
            (["--seed", "-1"], "--seed must be an unsigned 64-bit integer, got -1"),
            # exp(-1e-17) rounds to 1.0: no geometric count noise has that decay
            (["--epsilons", "1e-17"], "geometric alpha must lie in [0, 1), got 1.0"),
        ],
        ids=["--trials", "--n", "--epsilons", "--seed", "decay-rounds-to-one"],
    )
    def test_explore_lower_bound_rejects_bad_arguments(self, argv, message, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["explore_lower_bound.py", *argv])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(SCRIPTS / "explore_lower_bound.py"), run_name="__main__")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_explore_lower_bound_takes_a_large_epsilon(self, monkeypatch, capsys):
        # exp(-800) underflows to 0.0, the decay of the point mass at 0
        monkeypatch.setattr(sys, "argv", ["explore_lower_bound.py", "--epsilons", "800", "--trials", "10"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(SCRIPTS / "explore_lower_bound.py"), run_name="__main__")
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert err == "" and "800.0" in out

    def test_reproduce_figures_rejects_an_outdir_that_is_a_file(self, tmp_path, monkeypatch, capsys):
        outdir = tmp_path / "taken"
        outdir.write_text("")
        monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", "--outdir", str(outdir)])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(SCRIPTS / "reproduce_figures.py"), run_name="__main__")
        assert exc.value.code == 2
        assert "cannot create --outdir" in capsys.readouterr().err

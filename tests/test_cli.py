import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpmean.cli import _read_values, main
from dpmean.harness import CSV_HEADER


TWO_POINT_SPEC = {"kind": "two_point", "size": 30, "target_mean": 0.5, "bounds": [0.0, 1.0]}
FAMILY_SPEC = {"kind": "lower_bound_family", "size": 30, "target_mean": 0.1, "bounds": [0.0, 1.0]}


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

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_rejected(self, data_file, seed, capsys):
        code, out, err = run(
            ["estimate", "--input", str(data_file), "--lower", "0", "--upper", "1",
             "--epsilon", "0.5", "--seed", seed],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "unsigned 64-bit" in err and "internal error" not in err

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

    @pytest.mark.parametrize("lower, upper", [("nan", "1"), ("1", "0"), ("0", "inf")])
    def test_bad_bounds_rejected_before_reading(self, data_file, lower, upper, capsys):
        code, out, err = run(
            ESTIMATE_HEAD + ["--input", str(data_file), "--lower", lower, "--upper", upper,
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


NUMBER_TEXT = st.one_of(
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


class TestReadValues:
    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(LINE, ENDING), max_size=30).filter(lambda ls: any(l.strip() for l, _ in ls)))
    def test_matches_line_by_line_float(self, tmp_path, numbered_lines):
        path = tmp_path / "values.txt"
        path.write_bytes("".join(l + end for l, end in numbered_lines).encode())
        lines = [l for l, _ in numbered_lines]
        expected = np.array([float(l.strip()) for l in lines if l.strip()], dtype=np.float64)
        got = _read_values(str(path))
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()


class TestBounds:
    def test_unit_interval_table(self, capsys):
        code, out, _ = run(["bounds", "--epsilon", "0.5", "--lower", "0", "--upper", "1"], capsys)
        assert code == 0
        assert out.count("8.0") >= 3  # swap, add-remove upper, lower bound
        assert "ratio" in out and "2.0" in out

    def test_per_dataset_rows(self, capsys):
        code, out, _ = run(
            ["bounds", "--epsilon", "0.5", "--lower", "0", "--upper", "1",
             "--n", "1000", "--mean", "0.5"],
            capsys,
        )
        assert code == 0
        assert "8e-06" in out and "4e-06" in out

    def test_zero_epsilon_rejected(self, capsys):
        code, _, err = run(["bounds", "--epsilon", "0", "--lower", "0", "--upper", "1"], capsys)
        assert code == 2


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
        "edit",
        [
            {"trials": 10.5},
            {"trials": True},
            {"seed": 1.5},
            {"seed": True},
            {"epsilons": ["0.5"]},
            {"epsilons": [True]},
            {"dataset_specs": [{**TWO_POINT_SPEC, "size": 10.5}]},
            {"dataset_specs": [{**TWO_POINT_SPEC, "size": True}]},
            {"dataset_specs": [{**FAMILY_SPEC, "family_k": 1.5}]},
            {"dataset_specs": [{**FAMILY_SPEC, "family_k": True}]},
            None,  # a non-object root
        ],
        ids=["trials-float", "trials-bool", "seed-float", "seed-bool", "epsilon-str",
             "epsilon-bool", "size-float", "size-bool", "family_k-float", "family_k-bool",
             "root-list"],
    )
    def test_malformed_config_rejected(self, tmp_path, edit, capsys):
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
        assert "bad sweep config" in err and "internal error" not in err
        assert not out_path.exists()

    def test_preset_required(self, capsys):
        code, _, err = run(["figures"], capsys)
        assert code == 2

    def test_unwritable_output(self, tmp_path, capsys):
        code, _, err = run(
            ["figures", "--preset", "fig2b", "--trials", "1", "--seed", "1",
             "--output", str(tmp_path / "no" / "dir" / "x.csv")],
            capsys,
        )
        assert code == 2


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

    def test_complement_ball_vertices(self, tmp_path, capsys):
        out_path = tmp_path / "polys.csv"
        run(["geometry", "--output", str(out_path)], capsys)
        lines = [l for l in out_path.read_text().strip().split("\n") if l.startswith("complement_r1")]
        verts = [(float(l.split(",")[2]), float(l.split(",")[3])) for l in lines]
        assert verts == [(1.0, 1.0), (0.0, 1.0), (-1.0, -1.0), (0.0, -1.0)]

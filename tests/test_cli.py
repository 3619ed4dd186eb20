import json

import pytest

from dpmean.cli import main
from dpmean.harness import CSV_HEADER


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

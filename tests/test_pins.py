"""Byte-level pins of every output: the sweeps, the family, the figure
presets and the sidecar replay, the ``estimate`` release, the geometry
export, and the scripts' exit status.

Every digest and value here is of an output that a change of the stream
layout, the estimator or the input parse moves; each one is re-recorded
only in an announced output change (CHANGES.md).  The steps that check a
fresh interpreter (run twice, ``-W error::RuntimeWarning``) run as
subprocesses; the rest run in process through ``cli.main`` or ``runpy``.
Digests are numpy 2.4.6's.
"""

import hashlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpmean.cli import main
from dpmean.harness import GEOMETRIC_COUNT, preset_family_k, worst_case_over_family
from dpmean.mechanisms import Mechanism, PrivacyBudget

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# sweeps at the top seed: two mechanisms at one bounds pair ("blocks"), and
# two bounds pairs interleaved with a constant spec and two sizes, each
# (mechanism, epsilon, bounds) running its cells as rows of one array ("mixed")
BLOCKS_JSON = """\
{"mechanisms": ["shifted", "transformed"], "epsilons": [0.5, 1.0], "trials": 4097,
 "seed": 18446744073709551615,
 "dataset_specs": [{"kind": "two_point", "size": 1000, "target_mean": 0.02, "bounds": [0, 1]}]}
"""
MIXED_JSON = """\
{"mechanisms": ["independent", "shifted", "transformed"], "epsilons": [0.5, 2.0], "trials": 4097,
 "seed": 18446744073709551615,
 "dataset_specs": [{"kind": "two_point", "size": 1000, "target_mean": 0.02, "bounds": [0, 1]},
                   {"kind": "constant", "size": 37, "target_mean": 2.5, "bounds": [-3, 7.5]},
                   {"kind": "two_point", "size": 500, "target_mean": 0.9, "bounds": [0, 1]},
                   {"kind": "two_point", "size": 1000, "target_mean": -1, "bounds": [-3, 7.5]}]}
"""

# Every digest of a sweep or family output below was recorded when trial t
# came to read doubles 2t and 2t+1 of its stream, not the first two of
# Philox block t (stream layout v2).

# sha256 of the mixed sweep's CSV
MIXED_SHA256 = "8931b83e6e40594e56ee17477b74e52c58a4f1e7f3a86dc26ca4a527b373bb4e"

# sha256 of the 12 lines "eps k mechanism worst.hex()" of the family at the
# script's defaults (n = 1000, 10^4 trials, seed 7)
FAMILY_SHA256 = "bfbcc26cd7890a5fb87cbc336112d4579ae0021a5d2f930ad0a3c8c036c02add"

# sha256 of `figures --preset NAME --seed 7 --trials 2000` CSVs of the
# one-mechanism presets
SINGLE_MECHANISM_SHA256 = {
    "fig2a": "58abfcb776ceec49efdb3d008f4a2900a985f6ceefa4a6a0ca3daaaadb509efa",
    "fig2b": "c155e24e8f81437b42eba3244b6b9d66a0aee2898eb3e9e089cd0fe5d467b3a6",
}

# sha256 of `figures --preset fig2c --seed 7 --trials 200` output: the CSV,
# and its sidecar, recorded when dataset specs lost the family member field
FIG2C_SHA256 = {
    "fig2c.csv": "bb4db5ecc79d0d90dfa37eae65f147be0a13c2c8a231b01a74013e1ff0735918",
    "fig2c.csv.meta.json": "3997fe322ff3bb32d353f3d5b3ff743d12f6b9c57c86eca60b82f3c32a70dbe3",
}

# sha256 of `figures --preset fig2c --seed 7`: 10^4 trials per cell
FIG2C_FULL_SHA256 = "81354838e04000985e24d4b5c39de5dc4c9ce791bdfcd02359c1bc2622fd8f3e"

# `estimate --epsilon 0.5 --seed 7` of the smoke files: 10^5 uniforms on
# [0, 1] from `default_rng(1)`, as `%.9f` lines ("smoke") and raised to the
# 40th power as `%.17g` lines ("smoke40", 800 binary orders of magnitude,
# so the exact sum extracts each block at three or more levels)
RELEASE_ESTIMATES = {
    "unit": ("smoke.txt", "0", "1", "0.5000133005519244"),
    "pow40": ("smoke40.txt", "0", "1", "0.024160391534914956"),
    # bounds whose scaled terms are not the values themselves
    "wide": ("smoke.txt", "-3", "7.5", "0.5002220904958725"),
}


def pad_line_20001(text: str) -> str:
    lines = text.splitlines(keepends=True)
    lines[20000] = "\u3000" + lines[20000]
    return "".join(lines)


# Copies of smoke.txt that must release the same record: other line ends,
# other widths, a non-ASCII line, and lines that go through `float`
SMOKE_COPIES = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    # each read with no \n is cut at its last \r
    "cr": lambda text: text.replace("\n", "\r"),
    # lines of varying width take the general array pass
    "ragged": lambda text: "".join(line.rstrip("0") + "\n" for line in text.splitlines()),
    # one line padded with U+3000 past the first 128 KiB: only that line is
    # decoded and goes through float
    "u3000": pad_line_20001,
    # the same with \r\n ends: each read is decoded, then parsed as UTF-8
    "u3000-crlf": lambda text: pad_line_20001(text).replace("\n", "\r\n"),
    # 17 significant digits: each value line goes through float
    "g17": lambda text: "".join("%.17g\n" % float(line) for line in text.splitlines()),
}

# sha256 of `geometry --output polygons.csv`: its stdout and the CSV
GEOMETRY_SHA256 = {
    "stdout": "b8a3bec7d7016edfd922d60b01ce827f10a8414c6157a42923f42cab6b196d23",
    "polygons.csv": "058e4052d5230aed5a8a3bd07490efe8e0235ac3f8ea4fff05a0c3ded5b04db2",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fresh(args: list[str], cwd: Path) -> bytes:
    """Run ``python *args`` in a fresh interpreter with src/ on the path and
    return its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, check=True, capture_output=True).stdout


def figures_twice(tmp_path: Path, name: str, config_text: str) -> Path:
    """Run ``figures --input`` on the config twice, each in a fresh
    interpreter with RuntimeWarnings as errors; assert equal bytes and
    return the first CSV."""
    config = tmp_path / f"{name}.json"
    config.write_text(config_text)
    outputs = []
    for run in (1, 2):
        out = tmp_path / f"{name}{run}.csv"
        fresh(["-W", "error::RuntimeWarning", "-m", "dpmean.cli", "figures",
               "--input", str(config), "--output", str(out)], tmp_path)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    return tmp_path / f"{name}1.csv"


def estimate_argv(path: Path, lower: str = "0", upper: str = "1") -> list[str]:
    return ["estimate", "--input", str(path), "--lower", lower, "--upper", upper, "--epsilon", "0.5", "--seed", "7"]


def release(path: Path, capsys, lower: str = "0", upper: str = "1") -> str:
    assert main(estimate_argv(path, lower, upper)) == 0
    return capsys.readouterr().out


def run_script(name: str, argv: list[str], monkeypatch) -> None:
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")
    assert exc.value.code == 0


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> Path:
    """The directory of smoke.txt and smoke40.txt."""
    root = tmp_path_factory.mktemp("smoke")
    uniforms = np.random.default_rng(1).uniform(0, 1, 100_000)
    np.savetxt(root / "smoke.txt", uniforms, fmt="%.9f")
    np.savetxt(root / "smoke40.txt", uniforms**40, fmt="%.17g")
    return root


class TestPins:
    def test_blocks_sweep_repeats_without_runtime_warnings(self, tmp_path):
        figures_twice(tmp_path, "blocks", BLOCKS_JSON)

    def test_mixed_sweep_pinned(self, tmp_path):
        assert sha256(figures_twice(tmp_path, "mixed", MIXED_JSON)) == MIXED_SHA256

    def test_family_worst_cases_pinned(self):
        lines = []
        for e in (0.2, 0.5, 1.0):
            k = preset_family_k(1000, e)
            for m in (GEOMETRIC_COUNT, *(x.value for x in Mechanism)):
                worst = worst_case_over_family(m, PrivacyBudget(e), 1000, k, 10_000, 7)
                lines.append(f"{e} {k} {m} {worst.hex()}\n")
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == FAMILY_SHA256

    @pytest.mark.parametrize("name", sorted(SINGLE_MECHANISM_SHA256))
    def test_single_mechanism_presets_keep_their_bytes(self, tmp_path, capsys, name):
        out = tmp_path / f"{name}.csv"
        argv = ["figures", "--preset", name, "--seed", "7", "--trials", "2000", "--output", str(out)]
        assert main(argv) == 0
        assert sha256(out) == SINGLE_MECHANISM_SHA256[name]

    def test_fig2c_output_pinned(self, tmp_path, capsys):
        out = tmp_path / "fig2c.csv"
        argv = ["figures", "--preset", "fig2c", "--seed", "7", "--trials", "200", "--output", str(out)]
        assert main(argv) == 0
        for name, digest in FIG2C_SHA256.items():
            assert sha256(tmp_path / name) == digest
        # the sidecar replays as a sweep config, without the preset's ratio column
        replay = tmp_path / "replay.csv"
        assert main(["figures", "--input", str(tmp_path / "fig2c.csv.meta.json"), "--output", str(replay)]) == 0
        columns = "".join(",".join(line.split(",")[:10]) + "\n" for line in out.read_text().splitlines())
        assert replay.read_text() == columns

    def test_fig2c_at_the_papers_trial_count_pinned(self, tmp_path, capsys):
        out = tmp_path / "fig2c_full.csv"
        assert main(["figures", "--preset", "fig2c", "--seed", "7", "--output", str(out)]) == 0
        assert sha256(out) == FIG2C_FULL_SHA256

    def test_release_repeats_in_a_fresh_interpreter(self, smoke):
        outputs = [fresh(["-m", "dpmean.cli", *estimate_argv(smoke / "smoke.txt")], smoke) for _ in range(2)]
        assert outputs[0] == outputs[1]
        assert f'"estimate": {RELEASE_ESTIMATES["unit"][3]}'.encode() in outputs[0]

    @pytest.mark.parametrize("name", RELEASE_ESTIMATES)
    def test_release_estimate_pinned(self, smoke, capsys, name):
        file, lower, upper, estimate = RELEASE_ESTIMATES[name]
        assert f'"estimate": {estimate}' in release(smoke / file, capsys, lower, upper)

    @pytest.mark.parametrize("name", SMOKE_COPIES)
    def test_smoke_copy_releases_the_same_record(self, smoke, tmp_path, capsys, name):
        copy = tmp_path / f"smoke_{name}.txt"
        copy.write_bytes(SMOKE_COPIES[name]((smoke / "smoke.txt").read_text()).encode())
        assert release(copy, capsys) == release(smoke / "smoke.txt", capsys)

    def test_geometry_export_pinned(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["geometry", "--output", "polygons.csv"]) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == GEOMETRY_SHA256["stdout"]
        assert sha256(tmp_path / "polygons.csv") == GEOMETRY_SHA256["polygons.csv"]

    def test_scripts_exit_zero(self, tmp_path, monkeypatch, capsys):
        run_script("reproduce_figures.py", ["--trials", "50", "--outdir", str(tmp_path / "fig")], monkeypatch)
        run_script("explore_lower_bound.py", ["--trials", "200", "--epsilons", "1.0"], monkeypatch)

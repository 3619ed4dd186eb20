"""Byte-level pins of the sweep and family outputs.

Every digest and value here is of an output that a change of the stream
layout or of the estimator moves; each one is re-recorded only in an
announced output change (CHANGES.md).  The steps that check a fresh
interpreter (run twice, ``-W error::RuntimeWarning``) run as subprocesses;
the rest run in process through ``cli.main``.  Digests are numpy 2.4.6's.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dpmean.cli import main
from dpmean.harness import GEOMETRIC_COUNT, preset_family_k, worst_case_over_family
from dpmean.mechanisms import Mechanism, PrivacyBudget

SRC = Path(__file__).resolve().parent.parent / "src"

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


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def figures_twice(tmp_path: Path, name: str, config_text: str) -> Path:
    """Run ``figures --input`` on the config twice, each in a fresh
    interpreter with RuntimeWarnings as errors; assert equal bytes and
    return the first CSV."""
    config = tmp_path / f"{name}.json"
    config.write_text(config_text)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    outputs = []
    for run in (1, 2):
        out = tmp_path / f"{name}{run}.csv"
        argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "dpmean.cli", "figures",
                "--input", str(config), "--output", str(out)]
        subprocess.run(argv, env=env, cwd=tmp_path, check=True, capture_output=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    return tmp_path / f"{name}1.csv"


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

    def test_fig2c_at_the_papers_trial_count_pinned(self, tmp_path, capsys):
        out = tmp_path / "fig2c_full.csv"
        assert main(["figures", "--preset", "fig2c", "--seed", "7", "--output", str(out)]) == 0
        assert sha256(out) == FIG2C_FULL_SHA256

"""Whole-report regression against committed golden files.

Each golden file is the stdout of one CLI run. Reports are rounded to 6
significant digits and `--no-timestamp` drops the only run-dependent field,
so the comparison is exact. `artifacts.json` holds the sha256 of every file
the same runs write under `--out DIR`, the report included. A golden file is
never regenerated silently: a change to one is a declared behaviour change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pairsource import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CASES = {
    "qpm_analytic": ["qpm", "--no-mc", "--no-timestamp"],
    "spectrum_analytic": ["spectrum", "--no-mc", "--no-timestamp"],
    "hom_analytic": ["hom", "--no-mc", "--no-timestamp"],
    "bell_analytic": ["bell", "--no-mc", "--no-timestamp"],
    "chsh_analytic": ["chsh", "--no-mc", "--no-timestamp"],
    "rates_analytic": ["rates", "--no-mc", "--no-timestamp"],
    "hom_seed7": ["hom", "--no-timestamp", "--seed", "7", "--integration-s", "5"],
    "bell_seed11": ["bell", "--no-timestamp", "--seed", "11", "--points", "24",
                    "--integration-s", "10"],
    "rates_seed5": ["rates", "--no-timestamp", "--seed", "5"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(capsys, name):
    code = cli.main(CASES[name])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == (GOLDEN_DIR / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden_digests(capsys, tmp_path, name):
    out = tmp_path / name
    code = cli.main(CASES[name] + ["--out", str(out)])
    assert code == 0, capsys.readouterr().err
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    expected = json.loads((GOLDEN_DIR / "artifacts.json").read_text())[name]
    assert digests == expected

import csv
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import pairsource
from pairsource import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def default_config_text():
    return resources.files("pairsource").joinpath("data/paper.config").read_text()


def write_config(tmp_path, replacements):
    text = default_config_text()
    for old, new in replacements.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "experiment.config"
    path.write_text(text)
    return str(path)


# --- qpm -------------------------------------------------------------------

def test_qpm_reports_paper_periods(capsys, tmp_path):
    rep = run_report(capsys, "qpm", "--no-timestamp", "--out", str(tmp_path))
    assert rep["experiment"] == "qpm"
    assert rep["derived"]["degenerate_period_um"] == pytest.approx(6.6, abs=1e-3)
    assert rep["derived"]["alt_pump_period_um"] == pytest.approx(9.1, abs=0.4)
    csv_path = tmp_path / "tuning_curve.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "temperature_c,signal_nm,idler_nm,degenerate"
    assert len(lines) == rep["derived"]["tuning_curve_points"] + 1


def test_qpm_calibrates_at_the_configured_anchor(capsys, tmp_path):
    path = tmp_path / "anchor.config"
    path.write_text("qpm.anchor_period_um = 6.7\nqpm.temperature_c = 100\nqpm.pump_nm = 656\n")
    rep = run_report(capsys, "qpm", "--no-mc", "--no-timestamp", "--config", str(path))
    assert rep["derived"]["degenerate_period_um"] == 6.7
    assert rep["derived"]["calibration_offset_v"] == -0.00228411


def test_qpm_without_solutions_writes_a_header_only_csv(capsys, tmp_path):
    path = tmp_path / "hot.config"
    path.write_text("qpm.tuning.t_min_c = 500\nqpm.tuning.t_max_c = 510\n")
    rep = run_report(capsys, "qpm", "--no-timestamp", "--config", str(path),
                     "--out", str(tmp_path / "out"))
    assert rep["derived"]["tuning_curve_points"] == 0
    assert ((tmp_path / "out" / "tuning_curve.csv").read_bytes()
            == b"temperature_c,signal_nm,idler_nm,degenerate\n")


# --- spectrum --------------------------------------------------------------

def test_spectrum_report_values(capsys, tmp_path):
    rep = run_report(capsys, "spectrum", "--no-timestamp", "--out", str(tmp_path))
    d = rep["derived"]
    assert d["v0_unfiltered"] == pytest.approx(0.85, abs=1e-6)
    assert d["v0"] > 0.98
    assert d["sideband_fraction_after"] < 0.02
    assert d["tau_coh_ps"] == pytest.approx(5.03, abs=0.01)
    for name in ("spectrum_before.csv", "spectrum_after.csv", "spectrum_report.json"):
        assert (tmp_path / name).exists()


def test_csv_conventions(capsys, tmp_path):
    run_report(capsys, "spectrum", "--no-timestamp", "--out", str(tmp_path))
    raw = (tmp_path / "spectrum_before.csv").read_bytes()
    assert b"\r" not in raw
    header, first = raw.decode().splitlines()[:2]
    assert header == "lambda_nm,intensity_h,intensity_v"
    assert len(first.split(",")) == 3


def _write_row_by_row(path, header, *columns):
    """Oracle: the CSV writer before columns were formatted whole, one row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([f"{v:.6g}" if isinstance(v, float) else v for v in row])


_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 1e300, 5e-324,
                     123456.5, 999999.5, 1.0 / 3.0, -2.5e-7])
_WIDE = (np.random.default_rng(16).normal(size=500)
         * 10.0 ** np.random.default_rng(17).integers(-20, 21, 500))


@pytest.mark.parametrize("table", [
    (["x", "y", "flag"], _SPECIAL, tuple(float(v) for v in _SPECIAL[::-1]),
     tuple(i % 2 for i in range(len(_SPECIAL)))),
    (["a", "b", "n"], _WIDE, tuple(_WIDE[::-1]), np.arange(len(_WIDE)) * 99991),
    (["temperature_c", "signal_nm", "idler_nm", "degenerate"],),
], ids=["special_values", "wide_exponents", "header_only"])
def test_csv_columns_match_row_by_row_oracle(tmp_path, table):
    cli._write(tmp_path / "columns.csv", table)
    _write_row_by_row(tmp_path / "rows.csv", *table)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


# --- hom -------------------------------------------------------------------

def test_hom_analytic_visibilities(capsys):
    rep = run_report(capsys, "hom", "--no-mc", "--no-timestamp")
    out = rep["outputs"]
    assert out["v_raw"] == pytest.approx(0.83, abs=0.005)
    assert out["v_net"] == pytest.approx(1.0, abs=0.005)
    assert out["dip_fwhm_fit_ps"] == pytest.approx(np.sqrt(2) * 5.036, abs=0.02)


def test_hom_pure_source_has_unit_visibility(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "spectrum.sideband_fraction = 0.15": "spectrum.sideband_fraction = 0",
        "rates.accidental_fraction = 0.17": "rates.accidental_fraction = 0",
    })
    rep = run_report(capsys, "hom", "--no-mc", "--no-timestamp", "--config", cfg)
    assert rep["outputs"]["v_raw"] == pytest.approx(1.0, abs=1e-3)
    assert rep["derived"]["v0"] == pytest.approx(1.0, abs=1e-9)


def test_hom_mc_is_seeded(capsys):
    rep1 = run_report(capsys, "hom", "--no-timestamp", "--seed", "7",
                      "--integration-s", "5")
    rep2 = run_report(capsys, "hom", "--no-timestamp", "--seed", "7",
                      "--integration-s", "5")
    rep3 = run_report(capsys, "hom", "--no-timestamp", "--seed", "8",
                      "--integration-s", "5")
    assert rep1 == rep2
    assert rep1 != rep3


# --- bell / chsh -----------------------------------------------------------

def test_bell_outputs_and_bit_reproducibility(capsys, tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rep = run_report(capsys, "bell", "--no-timestamp", "--seed", "11",
                     "--points", "24", "--integration-s", "10", "--out", str(out1))
    run_report(capsys, "bell", "--no-timestamp", "--seed", "11",
               "--points", "24", "--integration-s", "10", "--out", str(out2))
    for name in ("bell_report.json", "bell_fits.json", "bell_fringe_hwp22.5.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    vis = rep["outputs"]["visibilities"]
    assert set(vis) == {"alice_hwp_0", "alice_hwp_22.5", "alice_hwp_45", "alice_hwp_67.5"}
    chsh = rep["outputs"]["chsh"]
    assert chsh["s_net"] > 2.0
    assert chsh["s_raw"] < chsh["s_net"]


@pytest.mark.parametrize("offset_ps", ["0.05", "0.2", "0.5"])
def test_sb_phase_branch_is_stable(capsys, tmp_path, offset_ps):
    cfg = write_config(tmp_path, {"compensator.offset_ps = 0.0":
                                  f"compensator.offset_ps = {offset_ps}"})
    rep = run_report(capsys, "bell", "--no-mc", "--no-timestamp", "--config", cfg)
    assert rep["derived"]["phi_sb_rad"] == pytest.approx(2.44159, abs=1e-5)


def test_bell_analytic_paper_visibilities(capsys):
    rep = run_report(capsys, "bell", "--no-mc", "--no-timestamp")
    vis = rep["outputs"]["visibilities"]
    for fringe in vis.values():
        assert fringe["v_raw"] == pytest.approx(0.83, abs=0.02)
        assert fringe["v_net"] == pytest.approx(0.99, abs=0.03)


def test_chsh_report(capsys):
    rep = run_report(capsys, "chsh", "--no-timestamp", "--integration-s", "60")
    out = rep["outputs"]
    assert out["s_net"] == pytest.approx(2.80, abs=0.04)
    assert out["n_sigma_violation"] > 25
    assert out["s_net"] <= out["tsirelson_bound"] + 1e-6


# --- rates -----------------------------------------------------------------

def test_rates_report(capsys):
    rep = run_report(capsys, "rates", "--no-mc", "--no-timestamp")
    out = rep["outputs"]
    assert out["mu"] == pytest.approx(0.098, abs=0.001)
    cal = out["analytic_calibrated_losses"]
    assert cal["singles_a"] == pytest.approx(85_000, rel=1e-3)
    assert cal["coincidences"] == pytest.approx(450, rel=1e-3)
    labels = out["calibration_targets"]
    assert "calibration target" in labels["singles_decomposition"]
    assert "calibration target" in labels["conversion_efficiency"]
    fitted = out["fitted_loss_decomposition"]
    assert fitted["implied_total_db"] != pytest.approx(fitted["declared_total_db"], abs=0.5)


def test_rates_mc_creates_out_dir(capsys, tmp_path):
    cfg = write_config(tmp_path, {"mc.windows = 2000000": "mc.windows = 20000"})
    out = tmp_path / "new" / "sub"
    run_report(capsys, "rates", "--no-timestamp", "--config", cfg, "--out", str(out))
    assert json.loads((out / "mc_run.json").read_text())["n_windows"] == 20_000
    assert (out / "rates_report.json").exists()


# --- error handling --------------------------------------------------------

def test_missing_config_is_machine_readable_error(capsys):
    code, out, err = run_cli(capsys, "qpm", "--config", "/nonexistent/path.config")
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert "error" in doc and doc["type"]


@pytest.mark.parametrize("command, old, new, named", [
    ("rates", "filter.fwhm_nm = 0.5", "filter.fwhm_mn = 0.5", "filter.fwhm_nm"),
    ("qpm", "qpm.tuning.t_step_c = 2", "qpm.tuning.t_step_c = 0", "qpm.tuning.t_step_c"),
    ("rates", "detector.a.efficiency = 0.04", "detector.a.efficiency = 1.7", "efficiency"),
    ("hom", "rates.accidental_fraction = 0.17", "rates.accidental_fraction = 1",
     "rates.accidental_fraction"),
    ("rates", "mc.windows = 2000000", "mc.windows = 0", "mc.windows"),
    ("rates", "source.window_ns = 1.5", "source.window_ns = 0", "window_ns"),
    ("rates", "losses.split = 0.5", "losses.split = 1.5", "losses.split"),
    ("rates", "rates.target_singles_a_cps = 85000", "rates.target_singles_a_cps = 1e9",
     "rates.target_singles_a_cps"),
    ("rates", "detector.b.efficiency = 0.10", "detector.b.efficiency = 0",
     "detector.b.efficiency"),
    ("rates", "filter.fwhm_nm = 0.5", "filter.fwhm_nm = nan", "filter.fwhm_nm"),
    ("bell", "compensator.offset_ps = 0.0", "compensator.offset_ps = nan",
     "compensator.offset_ps"),
    ("spectrum", "spectrum.primary_fwhm_nm = 0.7", "spectrum.primary_fwhm_nm = inf",
     "spectrum.primary_fwhm_nm"),
    # the next two would ask numpy for 8e10 and 1e11 floats; the load must refuse first
    ("qpm", "qpm.tuning.t_step_c = 2", "qpm.tuning.t_step_c = 1e-9", "qpm.tuning.t_step_c"),
    ("hom", "scan.points = 40", "scan.points = 100000000000", "scan.points"),
    ("hom", "hom.delay_span_ps = 15", "hom.delay_span_ps = 0", "hom.delay_span_ps"),
    ("hom", "hom.delay_span_ps = 15", "hom.delay_span_ps = -15", "hom.delay_span_ps"),
], ids=["typo_key", "zero_t_step", "efficiency", "accidental_fraction", "zero_mc_windows",
        "zero_window_ns", "loss_split", "unreachable_singles_target", "zero_efficiency_b",
        "nan_filter_fwhm", "nan_compensator_offset", "inf_primary_fwhm", "tiny_t_step",
        "too_many_points", "zero_delay_span", "negative_delay_span"])
def test_bad_config_value_fails_cleanly(capsys, tmp_path, command, old, new, named):
    cfg = write_config(tmp_path, {old: new})
    code, _, err = run_cli(capsys, command, "--no-mc", "--config", cfg)
    assert code == 1
    assert named in json.loads(err)["error"]


def test_inverted_tuning_range_fails_cleanly(capsys, tmp_path):
    cfg = write_config(tmp_path, {"qpm.tuning.t_min_c = 60": "qpm.tuning.t_min_c = 200"})
    code, out, err = run_cli(capsys, "qpm", "--config", cfg)
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert "qpm.tuning.t_min_c" in error and "qpm.tuning.t_max_c" in error


@pytest.mark.parametrize("flag, value, key", [
    ("--points", "0", "scan.points"),
    ("--points", "3", "scan.points"),
    ("--integration-s", "0", "scan.integration_s"),
    ("--integration-s", "inf", "scan.integration_s"),
    ("--points", "100000000000", "scan.points"),
], ids=["points_0", "points_3", "integration_0", "integration_inf", "points_1e11"])
def test_bad_flag_value_fails_cleanly(capsys, flag, value, key):
    code, out, err = run_cli(capsys, "hom", "--no-mc", flag, value)
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert key in error or flag in error


def test_net_flag_is_gone():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["bell", "--net"])


def test_cached_parser_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    run_report(capsys, "bell", "--no-mc", "--no-timestamp", "--points", "7", "--seed", "3")
    code, second, err = run_cli(capsys, "bell", "--no-mc", "--no-timestamp")
    assert code == 0, err
    src = str(Path(pairsource.__file__).resolve().parent.parent)
    fresh = subprocess.run([sys.executable, "-m", "pairsource.cli", "bell", "--no-mc",
                            "--no-timestamp"], env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    assert second == fresh.stdout
    with pytest.raises(SystemExit) as exc:
        cli.main(["bell", "--no-such-flag"])
    assert exc.value.code == 2


def test_partial_config_keeps_bundled_defaults(capsys, tmp_path):
    path = tmp_path / "partial.config"
    path.write_text("scan.points = 40\n")
    rep = run_report(capsys, "bell", "--no-mc", "--no-timestamp", "--config", str(path))
    assert rep["derived"]["phi_sb_rad"] == pytest.approx(2.44159, abs=1e-5)


def test_write_failure_is_machine_readable_error(capsys, tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    code, out, err = run_cli(capsys, "chsh", "--no-mc", "--no-timestamp", "--out", str(blocker))
    assert code == 1
    assert out == ""
    assert json.loads(err)["type"] == "FileExistsError"


def test_chsh_does_not_depend_on_integration_time(capsys):
    ref = run_report(capsys, "bell", "--no-mc", "--no-timestamp")["outputs"]["chsh"]
    tiny = run_report(capsys, "bell", "--no-mc", "--no-timestamp",
                      "--integration-s", "1e-9")["outputs"]["chsh"]
    for key in ("s_raw", "s_net"):
        assert f"{tiny[key]:.6g}" == f"{ref[key]:.6g}"

"""Command-line orchestration: one named experiment per subcommand.

Subcommands: qpm, spectrum, hom, bell, chsh, rates. Each run loads the
bundled paper manifest overlaid by an optional --config file, executes the
experiment, writes CSV/JSON artifacts under --out, and prints a JSON run
report. Fixed seed -> bit-identical outputs (disable the timestamp with
--no-timestamp for byte-level comparisons).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import counting as cnt
from . import fitting as fitmod
from . import interference as itf
from . import spdc
from .config import load_experiment_config
from .polarization import coincidence_prob, make_psi_state


def _sig6(x):
    if isinstance(x, float):
        return float(f"{x:.6g}")
    return x


def _round_tree(obj):
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return _sig6(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return _sig6(obj)


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.6g}" if isinstance(v, float) else v for v in row])


def _dispersion_model(cfg) -> spdc.DispersionModel:
    if cfg["dispersion.file"]:
        return spdc.DispersionModel.from_file(cfg["dispersion.file"])
    return spdc.DispersionModel.default()


def _budget(cfg) -> cnt.SourceBudget:
    bw = cnt.bandwidth_ghz(cfg["filter.fwhm_nm"], cfg["spectrum.degenerate_nm"])
    return cnt.SourceBudget(
        brightness_pairs_per_s_ghz_mw=cfg["source.brightness_pairs_per_s_ghz_mw"],
        pump_power_mw=cfg["source.pump_power_mw"],
        filter_bandwidth_ghz=bw,
        window_ns=cfg["source.window_ns"],
        channel_loss_db=cfg["losses.total_db"],
        loss_split=cfg["losses.split"],
    )


def _detectors(cfg) -> tuple[cnt.DetectorParams, cnt.DetectorParams]:
    det_a = cnt.DetectorParams(
        efficiency=cfg["detector.a.efficiency"],
        dark_prob_per_ns=cfg["detector.a.dark_prob_per_ns"],
        mode=cfg["detector.a.mode"],
    )
    det_b = cnt.DetectorParams(
        efficiency=cfg["detector.b.efficiency"],
        dark_prob_per_ns=cfg["detector.b.dark_prob_per_ns"],
        mode=cfg["detector.b.mode"],
        gate_width_ns=cfg["detector.b.gate_ns"],
    )
    return det_a, det_b


def _spectrum_and_filter(cfg):
    spectrum = spdc.build_spectrum(
        primary_fwhm_nm=cfg["spectrum.primary_fwhm_nm"],
        sideband_fraction=cfg["spectrum.sideband_fraction"],
        branch2_centers_nm=(cfg["spectrum.branch2_h_nm"], cfg["spectrum.branch2_v_nm"]),
        degenerate_center_nm=cfg["spectrum.degenerate_nm"],
    )
    filt = None
    if cfg["filter.enabled"]:
        filt = spdc.FilterSpec(
            center_nm=cfg["filter.center_nm"],
            fwhm_nm=cfg["filter.fwhm_nm"],
            shape=cfg["filter.shape"],
        )
    return spectrum, filt


def _source_coherence(cfg):
    """Derived source quantities: v0, sideband and transmitted fractions, coherence time."""
    spectrum, filt = _spectrum_and_filter(cfg)
    if filt is not None:
        _, transmitted, sideband = spdc.apply_filter(spectrum, filt)
        fwhm_nm = filt.fwhm_nm
    else:
        transmitted, sideband = 1.0, spectrum.sideband_fraction()
        fwhm_nm = spectrum.branches[0].fwhm_nm
    return {
        "v0": 1.0 - sideband,
        "sideband_fraction": sideband,
        "transmitted_fraction": transmitted,
        "tau_coh_ps": spdc.coherence_time(cfg["spectrum.degenerate_nm"], fwhm_nm),
    }


def _report(name: str, cfg, args, inputs: dict, derived: dict, outputs: dict) -> dict:
    rep = {
        "experiment": name,
        "software_version": __version__,
        "seed": cfg["seed"],
        "inputs": _round_tree(inputs),
        "derived": _round_tree(derived),
        "outputs": _round_tree(outputs),
    }
    if not args.no_timestamp:
        rep["timestamp"] = datetime.now(timezone.utc).isoformat()
    return rep


def _emit(report: dict, args, name: str) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}_report.json").write_text(text + "\n")
    print(text)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def cmd_qpm(cfg, args) -> dict:
    model = _dispersion_model(cfg)
    anchor = spdc.QpmAnchor(
        poling_period_um=cfg["qpm.anchor_period_um"],
        temperature_c=cfg["qpm.temperature_c"],
        pump_wavelength_nm=cfg["qpm.pump_nm"],
    )
    calibrated = spdc.calibrate_offsets(model, anchor)
    pump = anchor.pump_wavelength_nm
    alt_pump = cfg["qpm.alt_pump_nm"]
    temp = anchor.temperature_c
    period_main = spdc.find_degenerate_period(calibrated, pump, temp)
    period_alt = spdc.find_degenerate_period(calibrated, alt_pump, temp)

    temps = np.arange(cfg["qpm.tuning.t_min_c"], cfg["qpm.tuning.t_max_c"] + 1e-9,
                      cfg["qpm.tuning.t_step_c"])
    qcfg = spdc.QpmConfig(anchor.poling_period_um, temp, pump)
    rows = spdc.tuning_curve(qcfg, calibrated, temps)
    if args.out:
        _write_csv(Path(args.out) / "tuning_curve.csv",
                   ["temperature_c", "signal_nm", "idler_nm", "degenerate"],
                   [(t, s, i, int(d)) for t, s, i, d in rows])
    derived = {
        "calibration_offset_v": calibrated.offsets["V"],
        "degenerate_period_um": period_main,
        "alt_pump_period_um": period_alt,
        "tuning_curve_points": len(rows),
    }
    return _report("qpm", cfg, args,
                   {"pump_nm": pump, "alt_pump_nm": alt_pump, "temperature_c": temp,
                    "anchor_period_um": anchor.poling_period_um},
                   derived, {"tuning_curve_csv": "tuning_curve.csv" if args.out else None})


def cmd_spectrum(cfg, args) -> dict:
    spectrum, filt = _spectrum_and_filter(cfg)
    lam_grid = np.arange(1306.0, 1314.0, 0.01)
    before_h = spdc.marginal_intensity(spectrum, "H", lam_grid)
    before_v = spdc.marginal_intensity(spectrum, "V", lam_grid)
    src = _source_coherence(cfg)
    rows_after = None
    if filt is not None:
        filtered, _, _ = spdc.apply_filter(spectrum, filt)
        after_h = spdc.marginal_intensity(filtered, "H", lam_grid)
        after_v = spdc.marginal_intensity(filtered, "V", lam_grid)
        rows_after = zip(lam_grid, after_h, after_v)
    if args.out:
        _write_csv(Path(args.out) / "spectrum_before.csv",
                   ["lambda_nm", "intensity_h", "intensity_v"],
                   zip(lam_grid.tolist(), before_h.tolist(), before_v.tolist()))
        if rows_after is not None:
            _write_csv(Path(args.out) / "spectrum_after.csv",
                       ["lambda_nm", "intensity_h", "intensity_v"],
                       [(float(a), float(b), float(c)) for a, b, c in rows_after])
    derived = {
        "sideband_fraction_before": spectrum.sideband_fraction(),
        "sideband_fraction_after": src["sideband_fraction"] if filt else None,
        "transmitted_fraction": src["transmitted_fraction"],
        "v0_unfiltered": 1.0 - spectrum.sideband_fraction(),
        "v0": src["v0"],
        "tau_coh_ps": src["tau_coh_ps"],
    }
    return _report("spectrum", cfg, args,
                   {"primary_fwhm_nm": spectrum.branches[0].fwhm_nm,
                    "filter": None if filt is None else
                    {"center_nm": filt.center_nm, "fwhm_nm": filt.fwhm_nm, "shape": filt.shape}},
                   derived,
                   {"spectrum_before_csv": "spectrum_before.csv" if args.out else None,
                    "spectrum_after_csv": "spectrum_after.csv" if args.out and filt else None})


def _accidental_rate(cfg) -> float:
    return cfg["rates.accidental_fraction"] * cfg["rates.target_coincidences_cps"]


def _rates_from_probs(cfg, probs):
    """Rescale coincidence probabilities (max 1/2) to the coincidence rate budget."""
    r_max, r_acc = cfg["rates.target_coincidences_cps"], _accidental_rate(cfg)
    return r_acc + (r_max - r_acc) * 2.0 * np.asarray(probs)


def _fit_json(fit) -> dict:
    return {"params": fit.params, "std_errors": fit.std_errors, "reduced_chi2": fit.reduced_chi2}


def _poisson_counts(rng, rates_cps, integration_s, use_mc: bool):
    expected = np.asarray(rates_cps) * integration_s
    if not use_mc:
        return expected
    return rng.poisson(expected).astype(float)


def cmd_hom(cfg, args) -> dict:
    src = _source_coherence(cfg)
    v0, tau_coh = src["v0"], src["tau_coh_ps"]
    wp = itf.Wavepacket(tau_coh)
    points = cfg["scan.points"]
    integration = cfg["scan.integration_s"]
    span = cfg["hom.delay_span_ps"]
    delays = np.linspace(-span, span, points)
    rates = _rates_from_probs(cfg, itf.hom_scan(wp, delays, v0).coincidence_probability)

    rng = np.random.default_rng(cfg["seed"])
    counts = _poisson_counts(rng, rates, integration, not args.no_mc)
    data = fitmod.ScanData(tuple(delays), tuple(counts), integration)
    raw_fit = fitmod.fit_dip(data)
    net_fit = fitmod.fit_dip(fitmod.net_correct(data, _accidental_rate(cfg)))

    if args.out:
        _write_csv(Path(args.out) / "hom_scan.csv",
                   ["delay_ps", "counts", "expected_rate_cps"],
                   zip(delays.tolist(), counts.tolist(), rates.tolist()))
        fits_json = {"raw": _fit_json(raw_fit), "net": _fit_json(net_fit)}
        (Path(args.out) / "hom_fit.json").write_text(
            json.dumps(_round_tree(fits_json), indent=2, sort_keys=True) + "\n")

    derived = dict(src)
    derived["dip_fwhm_model_ps"] = np.sqrt(2.0) * tau_coh
    outputs = {
        "v_raw": raw_fit.params["visibility"], "v_raw_err": raw_fit.std_errors["visibility"],
        "v_net": net_fit.params["visibility"], "v_net_err": net_fit.std_errors["visibility"],
        "dip_fwhm_fit_ps": raw_fit.params["w"],
        "dip_fwhm_fit_err_ps": raw_fit.std_errors["w"],
        "note": "model dip FWHM sqrt(2)*tau_coh = "
                f"{np.sqrt(2.0) * tau_coh:.3g} ps; measured device value was wider (7.45 ps)",
    }
    return _report("hom", cfg, args,
                   {"points": points, "integration_s": integration,
                    "r_max_cps": cfg["rates.target_coincidences_cps"],
                    "accidental_fraction": cfg["rates.accidental_fraction"], "mc": not args.no_mc},
                   derived, outputs)


def _bell_rate_curve(cfg, coherence, phi_total, alice_hwp, bob_grid):
    rho = make_psi_state(coherence, phi_total)
    return _rates_from_probs(cfg, coincidence_prob(rho, 2 * alice_hwp, 2 * bob_grid))


def _run_bell(cfg, args):
    src = _source_coherence(cfg)
    tau_set = cfg["compensator.offset_ps"]
    wp = itf.Wavepacket(src["tau_coh_ps"])
    coherence = src["v0"] * itf.mode_overlap(wp, tau_set)

    phi_a = cfg["channel.phi_a_rad"]
    phi_b = cfg["channel.phi_b_rad"]
    phi_sb = itf.sb_balance(phi_a, phi_b)
    phi_total = phi_a + phi_b + phi_sb

    integration = cfg["scan.integration_s"]
    bob_grid = np.linspace(0.0, 180.0, cfg["scan.points"], endpoint=False)
    rng = np.random.default_rng(cfg["seed"])
    fringes = {}
    for alice in fitmod.ALICE_HWP_DEG:
        rates = _bell_rate_curve(cfg, coherence, phi_total, alice, bob_grid)
        counts = _poisson_counts(rng, rates, integration, not args.no_mc)
        data = fitmod.ScanData(tuple(bob_grid), tuple(counts), integration)
        fringes[alice] = {
            "rates": rates,
            "counts": counts,
            "raw_fit": fitmod.fit_fringe(data),
            "net_fit": fitmod.fit_fringe(fitmod.net_correct(data, _accidental_rate(cfg))),
        }
    chsh_net = fitmod.chsh_from_fits({a: f["net_fit"] for a, f in fringes.items()})
    chsh_raw = fitmod.chsh_from_fits({a: f["raw_fit"] for a, f in fringes.items()})
    return {
        "src": src, "coherence": coherence, "phi_sb": phi_sb,
        "bob_grid": bob_grid, "fringes": fringes,
        "chsh_net": chsh_net, "chsh_raw": chsh_raw,
    }


def _chsh_outputs(res) -> dict:
    net, raw = res["chsh_net"], res["chsh_raw"]
    return {"s_net": net.S, "s_net_err": net.std_error, "n_sigma_violation": net.n_sigma_violation,
            "s_raw": raw.S, "s_raw_err": raw.std_error}


def cmd_bell(cfg, args) -> dict:
    res = _run_bell(cfg, args)
    if args.out:
        out = Path(args.out)
        fits_json = {}
        for alice, f in res["fringes"].items():
            _write_csv(out / f"bell_fringe_hwp{alice:g}.csv",
                       ["bob_hwp_deg", "counts", "expected_rate_cps"],
                       zip(res["bob_grid"].tolist(),
                           np.asarray(f["counts"]).tolist(),
                           np.asarray(f["rates"]).tolist()))
            fits_json[f"alice_hwp_{alice:g}"] = {
                kind: _fit_json(f[kind]) for kind in ("raw_fit", "net_fit")}
        (out / "bell_fits.json").write_text(
            json.dumps(_round_tree(fits_json), indent=2, sort_keys=True) + "\n")

    visibilities = {
        f"alice_hwp_{a:g}": {
            "v_raw": f["raw_fit"].params["visibility"],
            "v_raw_err": f["raw_fit"].std_errors["visibility"],
            "v_net": f["net_fit"].params["visibility"],
            "v_net_err": f["net_fit"].std_errors["visibility"],
        } for a, f in res["fringes"].items()
    }
    derived = dict(res["src"])
    derived.update({"state_coherence": res["coherence"], "phi_sb_rad": res["phi_sb"]})
    return _report("bell", cfg, args,
                   {"points": cfg["scan.points"], "integration_s": cfg["scan.integration_s"],
                    "r_max_cps": cfg["rates.target_coincidences_cps"],
                    "accidental_fraction": cfg["rates.accidental_fraction"],
                    "alice_hwp_deg": list(fitmod.ALICE_HWP_DEG), "mc": not args.no_mc},
                   derived, {"visibilities": visibilities, "chsh": _chsh_outputs(res)})


def cmd_chsh(cfg, args) -> dict:
    res = _run_bell(cfg, args)
    derived = {"state_coherence": res["coherence"], "phi_sb_rad": res["phi_sb"]}
    return _report("chsh", cfg, args,
                   {"points": cfg["scan.points"], "integration_s": cfg["scan.integration_s"],
                    "mc": not args.no_mc},
                   derived, {**_chsh_outputs(res), "tsirelson_bound": itf.TSIRELSON})


def _rate_fields(rates: cnt.CountRates) -> dict:
    return {"singles_a": rates.singles_a, "singles_b": rates.singles_b,
            "coincidences": rates.coincidences, "accidentals": rates.accidentals}


def cmd_rates(cfg, args) -> dict:
    budget = _budget(cfg)
    det_a, det_b = _detectors(cfg)
    mu = cnt.mean_pairs_per_window(budget)
    analytic = cnt.expected_rates(budget, det_a, det_b)
    cal = cnt.calibrate_losses(
        budget, det_a, det_b,
        cfg["rates.target_singles_a_cps"],
        cfg["rates.target_coincidences_cps"],
    )
    calibrated_budget = cnt._with_arm_losses(budget, cal["loss_a_db"], cal["loss_b_db"])
    analytic_cal = cnt.expected_rates(calibrated_budget, det_a, det_b)

    outputs = {
        "mu": mu,
        "analytic_declared_losses": _rate_fields(analytic),
        "fitted_loss_decomposition": cal,
        "analytic_calibrated_losses": _rate_fields(analytic_cal),
        "calibration_targets": {
            "singles_decomposition": "the 85 kcps singles decomposition is a calibration "
                                     "target, not a derived prediction",
            "conversion_efficiency": "the 1.1e-9 internal conversion efficiency is a "
                                     "calibration target, not a derived prediction",
        },
    }
    if not args.no_mc:
        n_windows = cfg["mc.windows"]
        run = cnt.simulate_counts(calibrated_budget, det_a, det_b,
                                  n_windows=n_windows, seed=cfg["seed"])
        mc = cnt.mc_rates(run, budget.window_ns)
        outputs["monte_carlo"] = {"n_windows": n_windows, **_rate_fields(mc)}
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / "mc_run.json").write_text(run.to_json() + "\n")
    return _report("rates", cfg, args,
                   {"budget": {
                       "brightness": budget.brightness_pairs_per_s_ghz_mw,
                       "pump_power_mw": budget.pump_power_mw,
                       "bandwidth_ghz": budget.filter_bandwidth_ghz,
                       "window_ns": budget.window_ns,
                       "channel_loss_db": budget.channel_loss_db,
                   }, "mc": not args.no_mc},
                   analytic.breakdown, outputs)


COMMANDS = {
    "qpm": cmd_qpm,
    "spectrum": cmd_spectrum,
    "hom": cmd_hom,
    "bell": cmd_bell,
    "chsh": cmd_chsh,
    "rates": cmd_rates,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairsource",
        description="Simulator of a type-II waveguide polarization-entangled pair source",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="experiment config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory for CSV/JSON artifacts")
        p.add_argument("--no-mc", action="store_true", help="analytic only, no sampling")
        p.add_argument("--points", type=int, default=None)
        p.add_argument("--integration-s", type=float, default=None, dest="integration_s")
        p.add_argument("--no-timestamp", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_experiment_config(args.config, {
            "seed": args.seed, "scan.points": args.points,
            "scan.integration_s": args.integration_s})
        report = COMMANDS[args.command](cfg, args)
    except Exception as exc:  # surface machine-readable failure
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 1
    _emit(report, args, args.command)
    return 0


if __name__ == "__main__":
    sys.exit(main())

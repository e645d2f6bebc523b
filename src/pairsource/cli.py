"""Command-line orchestration: one named experiment per subcommand.

Subcommands: qpm, spectrum, hom, bell, chsh, rates. Each run loads the
bundled paper manifest overlaid by an optional --config file, executes the
experiment, writes CSV/JSON artifacts under --out, and prints a JSON run
report. Fixed seed -> bit-identical outputs (disable the timestamp with
--no-timestamp for byte-level comparisons).

Every `cmd_*` only computes: it returns `(inputs, derived, outputs, files)`,
where `files` maps an artifact name to CSV columns `(header, *columns)`, a
JSON object or text. `main` alone builds the report and writes the files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from . import counting as cnt
from . import fitting as fitmod
from . import interference as itf
from . import spdc
from .config import load_experiment_config
from .polarization import coincidence_prob, make_psi_state


def _round_tree(obj):
    """Plain JSON values with every float rounded to 6 significant digits."""
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.6g}")
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _json(obj) -> str:
    return json.dumps(_round_tree(obj), indent=2, sort_keys=True)


def _write(path: Path, content) -> None:
    """Write one artifact: CSV columns `(header, *columns)`, a JSON object or text.

    CSV cells are numbers: a float column's cells get 6 significant digits, any
    other column's cells their str(). One row template, picked from the column
    dtypes, formats the whole table with a single `%`.
    """
    if isinstance(content, tuple):
        header, *columns = content
        columns = [np.asarray(c) for c in columns]
        row = "\n" + ",".join("%.6g" if c.dtype.kind == "f" else "%s" for c in columns)
        cells = tuple(chain.from_iterable(zip(*(c.tolist() for c in columns))))
        content = ",".join(header) + (row * len(columns[0]) if columns else "") % cells
    elif isinstance(content, dict):
        content = _json(content)
    path.write_text(content + "\n", encoding="utf-8", newline="")


def _source(cfg):
    """Emission spectrum, filter (None when disabled), filtered spectrum, and the
    derived source quantities: v0, sideband and transmitted fractions, coherence time."""
    spectrum = spdc.build_spectrum(
        primary_fwhm_nm=cfg["spectrum.primary_fwhm_nm"],
        sideband_fraction=cfg["spectrum.sideband_fraction"],
        branch2_centers_nm=(cfg["spectrum.branch2_h_nm"], cfg["spectrum.branch2_v_nm"]),
        degenerate_center_nm=cfg["spectrum.degenerate_nm"],
    )
    filt = filtered = None
    transmitted, sideband = 1.0, spectrum.sideband_fraction()
    fwhm_nm = spectrum.branches[0].fwhm_nm
    if cfg["filter.enabled"]:
        filt = spdc.FilterSpec(
            center_nm=cfg["filter.center_nm"],
            fwhm_nm=cfg["filter.fwhm_nm"],
            shape=cfg["filter.shape"],
        )
        filtered, transmitted, sideband = spdc.apply_filter(spectrum, filt)
        fwhm_nm = filt.fwhm_nm
    return spectrum, filt, filtered, {
        "v0": 1.0 - sideband,
        "sideband_fraction": sideband,
        "transmitted_fraction": transmitted,
        "tau_coh_ps": spdc.coherence_time(cfg["spectrum.degenerate_nm"], fwhm_nm),
    }


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def cmd_qpm(cfg, args):
    model = (spdc.DispersionModel.from_file(cfg["dispersion.file"]) if cfg["dispersion.file"]
             else spdc.DispersionModel.default())
    anchor = spdc.QpmConfig(
        poling_period_um=cfg["qpm.anchor_period_um"],
        temperature_c=cfg["qpm.temperature_c"],
        pump_wavelength_nm=cfg["qpm.pump_nm"],
    )
    calibrated = spdc.calibrate_offsets(model, anchor)
    pump = anchor.pump_wavelength_nm
    alt_pump = cfg["qpm.alt_pump_nm"]
    temp = anchor.temperature_c
    derived = {
        "calibration_offset_v": calibrated.offsets["V"],
        "degenerate_period_um": spdc.find_degenerate_period(calibrated, pump, temp),
        "alt_pump_period_um": spdc.find_degenerate_period(calibrated, alt_pump, temp),
    }
    temps = np.arange(cfg["qpm.tuning.t_min_c"], cfg["qpm.tuning.t_max_c"] + 1e-9,
                      cfg["qpm.tuning.t_step_c"])
    t_c, signal_nm, idler_nm, degenerate = spdc.tuning_curve(anchor, calibrated, temps)
    derived["tuning_curve_points"] = len(t_c)
    inputs = {"pump_nm": pump, "alt_pump_nm": alt_pump, "temperature_c": temp,
              "anchor_period_um": anchor.poling_period_um}
    outputs = {"tuning_curve_csv": "tuning_curve.csv" if args.out else None}
    return inputs, derived, outputs, {
        "tuning_curve.csv": (["temperature_c", "signal_nm", "idler_nm", "degenerate"],
                             t_c, signal_nm, idler_nm, degenerate.astype(int))}


def cmd_spectrum(cfg, args):
    spectrum, filt, filtered, src = _source(cfg)
    lam_grid = np.arange(1306.0, 1314.0, 0.01)
    files = {
        f"spectrum_{tag}.csv": (["lambda_nm", "intensity_h", "intensity_v"], lam_grid,
                                *(spdc.marginal_intensity(spec, pol, lam_grid) for pol in "HV"))
        for tag, spec in (("before", spectrum), ("after", filtered)) if spec is not None
    }
    inputs = {"primary_fwhm_nm": spectrum.branches[0].fwhm_nm,
              "filter": None if filt is None else
              {"center_nm": filt.center_nm, "fwhm_nm": filt.fwhm_nm, "shape": filt.shape}}
    derived = {
        "sideband_fraction_before": spectrum.sideband_fraction(),
        "sideband_fraction_after": src["sideband_fraction"] if filt else None,
        "transmitted_fraction": src["transmitted_fraction"],
        "v0_unfiltered": 1.0 - spectrum.sideband_fraction(),
        "v0": src["v0"],
        "tau_coh_ps": src["tau_coh_ps"],
    }
    outputs = {"spectrum_before_csv": "spectrum_before.csv" if args.out else None,
               "spectrum_after_csv": "spectrum_after.csv" if args.out and filt else None}
    return inputs, derived, outputs, files


def _scan_inputs(cfg, args) -> dict:
    return {"points": cfg["scan.points"], "integration_s": cfg["scan.integration_s"],
            "r_max_cps": cfg["rates.target_coincidences_cps"],
            "accidental_fraction": cfg["rates.accidental_fraction"], "mc": not args.no_mc}


def _scan(cfg, args, rng, x, probs, fit):
    """Coincidence probabilities (max 1/2) -> rates on the coincidence budget ->
    counts (Poisson, or expected under --no-mc) -> raw and net fits."""
    r_max = cfg["rates.target_coincidences_cps"]
    r_acc = cfg["rates.accidental_fraction"] * r_max
    integration = cfg["scan.integration_s"]
    rates = r_acc + (r_max - r_acc) * 2.0 * probs
    counts = rates * integration
    if not args.no_mc:
        counts = rng.poisson(counts).astype(float)
    data = fitmod.ScanData(x, counts, integration)
    return rates, counts, fit(data), fit(fitmod.net_correct(data, r_acc))


def _fit_json(fit) -> dict:
    return {"params": fit.params, "std_errors": fit.std_errors, "reduced_chi2": fit.reduced_chi2}


def _visibilities(raw, net) -> dict:
    return {"v_raw": raw.params["visibility"], "v_raw_err": raw.std_errors["visibility"],
            "v_net": net.params["visibility"], "v_net_err": net.std_errors["visibility"]}


def cmd_hom(cfg, args):
    src = _source(cfg)[-1]
    tau_coh = src["tau_coh_ps"]
    span = cfg["hom.delay_span_ps"]
    delays = np.linspace(-span, span, cfg["scan.points"])
    probs = itf.hom_scan(itf.Wavepacket(tau_coh), delays, src["v0"]).coincidence_probability
    rates, counts, raw, net = _scan(cfg, args, np.random.default_rng(cfg["seed"]),
                                    delays, probs, fitmod.fit_dip)
    outputs = {
        **_visibilities(raw, net),
        "dip_fwhm_fit_ps": raw.params["w"],
        "dip_fwhm_fit_err_ps": raw.std_errors["w"],
        "note": "model dip FWHM sqrt(2)*tau_coh = "
                f"{np.sqrt(2.0) * tau_coh:.3g} ps; measured device value was wider (7.45 ps)",
    }
    files = {"hom_scan.csv": (["delay_ps", "counts", "expected_rate_cps"], delays, counts, rates),
             "hom_fit.json": {"raw": _fit_json(raw), "net": _fit_json(net)}}
    derived = {**src, "dip_fwhm_model_ps": np.sqrt(2.0) * tau_coh}
    return _scan_inputs(cfg, args), derived, outputs, files


def _run_bell(cfg, args):
    """Four Bell fringes, one per Alice HWP angle, and the raw and net CHSH S."""
    src = _source(cfg)[-1]
    coherence = src["v0"] * itf.mode_overlap(itf.Wavepacket(src["tau_coh_ps"]),
                                             cfg["compensator.offset_ps"])
    phi_a, phi_b = cfg["channel.phi_a_rad"], cfg["channel.phi_b_rad"]
    phi_sb = itf.sb_balance(phi_a, phi_b)
    rho = make_psi_state(coherence, phi_a + phi_b + phi_sb)
    bob_grid = np.linspace(0.0, 180.0, cfg["scan.points"], endpoint=False)
    rng = np.random.default_rng(cfg["seed"])
    fringes = {alice: _scan(cfg, args, rng, bob_grid,
                            coincidence_prob(rho, 2 * alice, 2 * bob_grid), fitmod.fit_fringe)
               for alice in fitmod.ALICE_HWP_DEG}
    raw = fitmod.chsh_from_fits({alice: fit for alice, (_, _, fit, _) in fringes.items()})
    net = fitmod.chsh_from_fits({alice: fit for alice, (_, _, _, fit) in fringes.items()})
    chsh = {"s_net": net.S, "s_net_err": net.std_error, "n_sigma_violation": net.n_sigma_violation,
            "s_raw": raw.S, "s_raw_err": raw.std_error}
    return src, {"state_coherence": coherence, "phi_sb_rad": phi_sb}, bob_grid, fringes, chsh


def cmd_bell(cfg, args):
    src, state, bob_grid, fringes, chsh = _run_bell(cfg, args)
    files, fits, visibilities = {}, {}, {}
    for alice, (rates, counts, raw, net) in fringes.items():
        files[f"bell_fringe_hwp{alice:g}.csv"] = (
            ["bob_hwp_deg", "counts", "expected_rate_cps"], bob_grid, counts, rates)
        fits[f"alice_hwp_{alice:g}"] = {"raw_fit": _fit_json(raw), "net_fit": _fit_json(net)}
        visibilities[f"alice_hwp_{alice:g}"] = _visibilities(raw, net)
    files["bell_fits.json"] = fits
    inputs = {**_scan_inputs(cfg, args), "alice_hwp_deg": list(fitmod.ALICE_HWP_DEG)}
    return inputs, {**src, **state}, {"visibilities": visibilities, "chsh": chsh}, files


def cmd_chsh(cfg, args):
    _, state, _, _, chsh = _run_bell(cfg, args)
    inputs = {"points": cfg["scan.points"], "integration_s": cfg["scan.integration_s"],
              "mc": not args.no_mc}
    return inputs, state, {**chsh, "tsirelson_bound": itf.TSIRELSON}, {}


def _rate_fields(rates: cnt.CountRates) -> dict:
    return {"singles_a": rates.singles_a, "singles_b": rates.singles_b,
            "coincidences": rates.coincidences, "accidentals": rates.accidentals}


def cmd_rates(cfg, args):
    budget = cnt.SourceBudget(
        brightness_pairs_per_s_ghz_mw=cfg["source.brightness_pairs_per_s_ghz_mw"],
        pump_power_mw=cfg["source.pump_power_mw"],
        filter_bandwidth_ghz=cnt.bandwidth_ghz(cfg["filter.fwhm_nm"],
                                               cfg["spectrum.degenerate_nm"]),
        window_ns=cfg["source.window_ns"],
        channel_loss_db=cfg["losses.total_db"],
        loss_split=cfg["losses.split"],
    )
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
    analytic = cnt.expected_rates(budget, det_a, det_b)
    cal = cnt.calibrate_losses(budget, det_a, det_b, cfg["rates.target_singles_a_cps"],
                               cfg["rates.target_coincidences_cps"])
    calibrated_budget = cnt._with_arm_losses(budget, cal["loss_a_db"], cal["loss_b_db"])
    outputs = {
        "mu": cnt.mean_pairs_per_window(budget),
        "analytic_declared_losses": _rate_fields(analytic),
        "fitted_loss_decomposition": cal,
        "analytic_calibrated_losses": _rate_fields(
            cnt.expected_rates(calibrated_budget, det_a, det_b)),
        "calibration_targets": {
            "singles_decomposition": "the 85 kcps singles decomposition is a calibration "
                                     "target, not a derived prediction",
            "conversion_efficiency": "the 1.1e-9 internal conversion efficiency is a "
                                     "calibration target, not a derived prediction",
        },
    }
    files = {}
    if not args.no_mc:
        n_windows = cfg["mc.windows"]
        run = cnt.simulate_counts(calibrated_budget, det_a, det_b,
                                  n_windows=n_windows, seed=cfg["seed"])
        outputs["monte_carlo"] = {"n_windows": n_windows,
                                  **_rate_fields(cnt.mc_rates(run, budget.window_ns))}
        files["mc_run.json"] = {**dataclasses.asdict(run), "parameters": {}}
    inputs = {"budget": {
        "brightness": budget.brightness_pairs_per_s_ghz_mw,
        "pump_power_mw": budget.pump_power_mw,
        "bandwidth_ghz": budget.filter_bandwidth_ghz,
        "window_ns": budget.window_ns,
        "channel_loss_db": budget.channel_loss_db,
    }, "mc": not args.no_mc}
    return inputs, analytic.breakdown, outputs, files


COMMANDS = {
    "qpm": cmd_qpm,
    "spectrum": cmd_spectrum,
    "hom": cmd_hom,
    "bell": cmd_bell,
    "chsh": cmd_chsh,
    "rates": cmd_rates,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on first use; each `parse_args` makes a fresh namespace."""
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
        inputs, derived, outputs, files = COMMANDS[args.command](cfg, args)
        report = {"experiment": args.command, "software_version": __version__,
                  "seed": cfg["seed"], "inputs": inputs, "derived": derived, "outputs": outputs}
        if not args.no_timestamp:
            report["timestamp"] = datetime.now(timezone.utc).isoformat()
        text = _json(report)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            for name, content in {**files, f"{args.command}_report.json": text}.items():
                _write(out / name, content)
    except Exception as exc:  # surface machine-readable failure, a failed write included
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 1
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

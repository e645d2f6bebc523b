"""The benchmark's workloads: what one op runs and how its output is checked.

Every op runs in-process. CLI ops go through `pairsource.cli.main` with
`--out` pointing at a scratch directory, so report and CSV writing stay in
the timed path; their stdout is captured and parsed afterwards. Every
function of pairsource is looked up on its module at call time, so the
tracer's wrappers see the calls.

Checks run after the op's timer stops:
- analytic values must equal the references in reference.json (taken from
  `--no-mc --no-timestamp` reports) at the 6-significant-digit rounding
  that reports use;
- Monte Carlo values must lie within N_SIGMA of their analytic value: fit
  results by their reported standard error, MC counts by the Poisson
  distribution of the expected count.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.special import gammainc, gammaincc

from pairsource import cli
from pairsource import fitting as fitmod
from pairsource import interference as itf
from pairsource import spdc

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

ALICE_HWP_DEG = (0.0, 22.5, 45.0, 67.5)
POINTS = 40
INTEGRATION_S = 60.0
R_MAX_CPS = 450.0
ACCIDENTAL_FRACTION = 0.17
N_SIGMA = 5.0
# one-sided tail of a normal deviate beyond N_SIGMA
NORMAL_TAIL = 0.5 * math.erfc(N_SIGMA / math.sqrt(2.0))


def load_reference() -> dict[str, dict[str, Any]]:
    return json.loads(REFERENCE_FILE.read_text())


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _sig6(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else repr(value)


def lookup(report: dict, path: str):
    node = report
    for key in path.split("."):
        node = node[key]
    return node


def _cli_report(result: tuple[int, str], name: str, failures: list[str]) -> dict | None:
    code, stdout = result
    if code != 0:
        failures.append(f"{name}: exit code {code}")
        return None
    return json.loads(stdout)


def _check_reference(report: dict, reference: dict[str, Any], name: str,
                     failures: list[str]) -> None:
    for path, want in reference.items():
        got = lookup(report, path)
        if _sig6(got) != _sig6(want):
            failures.append(f"{name} {path}: {got!r}, reference {want!r}")


def _check_sigma(label: str, got: float, want: float, sigma: float,
                 failures: list[str]) -> None:
    if not abs(got - want) <= N_SIGMA * sigma:
        failures.append(f"{label}: {got:.6g}, analytic {want:.6g} +- {sigma:.3g} "
                        f"(beyond {N_SIGMA:g} sigma)")


def poisson_tail(observed: int, expected: float) -> float:
    """Probability of a Poisson(expected) count at least as far out as observed."""
    if observed >= expected:
        return float(gammainc(observed, expected)) if observed > 0 else 1.0
    return float(gammaincc(observed + 1, expected))


def _check_count(label: str, observed: int, expected: float, failures: list[str]) -> None:
    if poisson_tail(observed, expected) < NORMAL_TAIL:
        failures.append(f"{label}: {observed} counts, analytic {expected:.6g} "
                        f"(Poisson tail beyond {N_SIGMA:g} sigma)")


def _fringe_visibility(alice_hwp: float, coherence: float) -> float:
    """(Rmax - Rmin)/Rmax of the accidental-free fringe of the balanced psi state."""
    if alice_hwp % 45.0 == 0.0:  # H/V basis: full contrast whatever the coherence
        return 1.0
    return 2.0 * coherence / (1.0 + coherence)


def _chsh_s(coherence: float) -> float:
    """S of the balanced psi state at the canonical settings: sqrt(2)(1 + c)."""
    return math.sqrt(2.0) * (1.0 + coherence)


def _files_present(out: Path, names: list[str], failures: list[str]) -> None:
    missing = [n for n in names if not (out / n).is_file()]
    if missing:
        failures.append(f"missing outputs: {', '.join(missing)}")


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_design(seed: int, out: Path):
    return [run_cli(["qpm", "--out", str(out)]), run_cli(["spectrum", "--out", str(out)])]


def check_design(result, out: Path, reference: dict) -> list[str]:
    failures: list[str] = []
    qpm = _cli_report(result[0], "qpm", failures)
    spectrum = _cli_report(result[1], "spectrum", failures)
    if qpm is not None:
        _check_reference(qpm, reference["qpm"], "qpm", failures)
        _files_present(out, ["qpm_report.json"], failures)
        csv_path = out / "tuning_curve.csv"
        if csv_path.is_file():
            rows = len(csv_path.read_text().splitlines()) - 1
            if rows != qpm["derived"]["tuning_curve_points"]:
                failures.append(f"tuning_curve.csv has {rows} rows")
        else:
            failures.append("missing outputs: tuning_curve.csv")
    if spectrum is not None:
        _check_reference(spectrum, reference["spectrum"], "spectrum", failures)
        _files_present(out, ["spectrum_before.csv", "spectrum_after.csv",
                              "spectrum_report.json"], failures)
    return failures


def run_bell(seed: int, out: Path):
    return run_cli(["bell", "--seed", str(seed), "--out", str(out),
                    "--points", str(POINTS), "--integration-s", f"{INTEGRATION_S:g}"])


def check_bell(result, out: Path, reference: dict) -> list[str]:
    failures: list[str] = []
    report = _cli_report(result, "bell", failures)
    if report is None:
        return failures
    _check_reference(report, reference["bell"], "bell", failures)
    coherence = reference["bell"]["derived.state_coherence"]
    for alice in ALICE_HWP_DEG:
        vis = report["outputs"]["visibilities"][f"alice_hwp_{alice:g}"]
        _check_sigma(f"bell V_net (Alice HWP {alice:g})", vis["v_net"],
                     _fringe_visibility(alice, coherence), vis["v_net_err"], failures)
    chsh = report["outputs"]["chsh"]
    _check_sigma("bell S_net", chsh["s_net"], _chsh_s(coherence), chsh["s_net_err"], failures)
    _files_present(out, ["bell_fits.json", "bell_report.json"]
                   + [f"bell_fringe_hwp{a:g}.csv" for a in ALICE_HWP_DEG], failures)
    return failures


def run_campaign(seed: int, out: Path):
    """The paper-statistics campaign through the library API: one HOM dip
    and four Bell fringes with Poisson counts, each fitted raw and net."""
    r_acc = ACCIDENTAL_FRACTION * R_MAX_CPS
    v0 = 1.0 - spdc.apply_filter(spdc.build_spectrum(), spdc.FilterSpec(1309.8, 0.5))[2]
    tau_coh = spdc.coherence_time(1309.8, 0.5)
    rng = np.random.default_rng(seed)

    delays = np.linspace(-15.0, 15.0, POINTS)
    dip_probs = np.array(itf.hom_scan(itf.Wavepacket(tau_coh), delays, v0)
                         .coincidence_probability)
    dip_rates = r_acc + (R_MAX_CPS - r_acc) * 2.0 * dip_probs
    dip_counts = rng.poisson(dip_rates * INTEGRATION_S).astype(float)
    dip_data = fitmod.ScanData(tuple(delays), tuple(dip_counts), INTEGRATION_S)
    dip = {"raw": fitmod.fit_dip(dip_data),
           "net": fitmod.fit_dip(fitmod.net_correct(dip_data, r_acc))}

    bob_grid = np.linspace(0.0, 180.0, POINTS, endpoint=False)
    fringes = {}
    for alice in ALICE_HWP_DEG:
        probs = np.array(itf.bell_scan(v0, 0.0, alice, bob_grid).coincidence_probability)
        rates = r_acc + (R_MAX_CPS - r_acc) * 2.0 * probs
        counts = rng.poisson(rates * INTEGRATION_S).astype(float)
        data = fitmod.ScanData(tuple(bob_grid), tuple(counts), INTEGRATION_S)
        fringes[alice] = {"raw": fitmod.fit_fringe(data),
                          "net": fitmod.fit_fringe(fitmod.net_correct(data, r_acc))}
    chsh = {kind: fitmod.chsh_from_fits({a: f[kind] for a, f in fringes.items()})
            for kind in ("raw", "net")}
    return {"v0": v0, "tau_coh_ps": tau_coh, "dip": dip, "fringes": fringes, "chsh": chsh}


def check_campaign(result, out: Path, reference: dict) -> list[str]:
    failures: list[str] = []
    ref = reference["spectrum"]
    for key in ("v0", "tau_coh_ps"):
        if _sig6(result[key]) != _sig6(ref[f"derived.{key}"]):
            failures.append(f"campaign {key}: {result[key]!r}, "
                            f"reference {ref[f'derived.{key}']!r}")
    v0 = ref["derived.v0"]
    net_dip = result["dip"]["net"]
    _check_sigma("campaign dip V_net", net_dip.params["visibility"], v0,
                 net_dip.std_errors["visibility"], failures)
    for alice, fits in result["fringes"].items():
        net = fits["net"]
        _check_sigma(f"campaign fringe V_net (Alice HWP {alice:g})",
                     net.params["visibility"], _fringe_visibility(alice, v0),
                     net.std_errors["visibility"], failures)
    chsh = result["chsh"]["net"]
    _check_sigma("campaign S_net", chsh.S, _chsh_s(v0), chsh.std_error, failures)
    return failures


def run_mc(seed: int, out: Path):
    return run_cli(["rates", "--seed", str(seed), "--out", str(out)])


def mc_windows(result) -> int:
    """Monte Carlo windows simulated by a `run_mc` op."""
    return json.loads(result[1])["outputs"]["monte_carlo"]["n_windows"]


def check_mc(result, out: Path, reference: dict) -> list[str]:
    failures: list[str] = []
    report = _cli_report(result, "rates", failures)
    if report is None:
        return failures
    ref = reference["rates"]
    _check_reference(report, ref, "rates", failures)
    mc = report["outputs"]["monte_carlo"]
    total_s = mc["n_windows"] * report["inputs"]["budget"]["window_ns"] * 1e-9
    for key in ("coincidences", "singles_a"):
        expected = ref[f"outputs.analytic_calibrated_losses.{key}"] * total_s
        _check_count(f"rates MC {key}", round(mc[key] * total_s), expected, failures)
    _files_present(out, ["mc_run.json", "rates_report.json"], failures)
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[int, Path], Any]               # (op seed, output dir) -> result
    check: Callable[[Any, Path, dict], list[str]]  # (result, output dir, reference) -> failures


WORKLOADS = {w.name: w for w in (
    Workload("design", run_design, check_design),
    Workload("bell", run_bell, check_bell),
    Workload("campaign", run_campaign, check_campaign),
    Workload("mc", run_mc, check_mc),
)}

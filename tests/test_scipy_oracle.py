"""scipy as the reference for the closed forms and the numpy fitter.

The package solves its root finds in closed form or with numpy and fits
with its own bounded Levenberg-Marquardt. The scipy implementations they
replaced live on here, unchanged, as the oracle each replacement must
reproduce: `brentq` for the QPM period, the tuning-curve roots and the loss
calibration, and `least_squares` with the original settings for the fits.
`quad` integrates each photon's filtered line for the erfc filter
transmission.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, least_squares

from pairsource import counting as cnt
from pairsource import fitting, interference as itf, spdc
from pairsource.polarization import coincidence_prob, make_psi_state

N_SEEDS = 30


@pytest.fixture(scope="module")
def model():
    return spdc.calibrate_offsets(spdc.DispersionModel.default())


# --- QPM --------------------------------------------------------------------

@pytest.mark.parametrize("pump_nm", [655.0, 780.0])
@pytest.mark.parametrize("temp_c", [60.0, 96.8, 140.0])
def test_degenerate_period_matches_brentq(model, pump_nm, temp_c):
    def mismatch(period):
        return spdc.delta_k(spdc.QpmConfig(period, temp_c, pump_nm), model, 2.0 * pump_nm)

    expected = brentq(mismatch, 4.0, 20.0)
    assert spdc.find_degenerate_period(model, pump_nm, temp_c) == pytest.approx(
        expected, rel=1e-12)


def _brentq_tuning_curve(cfg, model, temperatures):
    """The per-root brentq tuning curve, on the same signal grid as spdc."""
    lam_deg = 2.0 * cfg.pump_wavelength_nm
    lo = max(lam_deg - spdc.TUNING_HALFWIDTH_NM, cfg.pump_wavelength_nm + 1.0,
             spdc.LAMBDA_MIN_NM)
    hi = lam_deg + spdc.TUNING_HALFWIDTH_NM
    while spdc.idler_wavelength(cfg.pump_wavelength_nm, hi) < spdc.LAMBDA_MIN_NM:
        hi -= spdc.TUNING_STEP_NM
    grid = np.arange(lo, min(hi, spdc.LAMBDA_MAX_NM), spdc.TUNING_STEP_NM)
    rows = []
    for temp in temperatures:
        tcfg = replace(cfg, temperature_c=float(temp))
        vals = spdc.delta_k(tcfg, model, grid)
        for i in np.nonzero(np.diff(np.sign(vals)) != 0)[0]:
            rows.append((float(temp), brentq(lambda ls: spdc.delta_k(tcfg, model, ls),
                                             grid[i], grid[i + 1])))
    return rows


def _check_roots_match_brentq(model, pump_nm, temps):
    """Every tuning-curve root within 1e-9 nm of brentq's; returns the degenerate flags."""
    cfg = spdc.QpmConfig(spdc.find_degenerate_period(model, pump_nm, 96.8), 96.8, pump_nm)
    temps_c, signals, _, degenerate = spdc.tuning_curve(cfg, model, temps)
    expected = _brentq_tuning_curve(cfg, model, temps)
    assert len(signals) == len(expected) > len(temps) / 2
    for temp, signal, (temp_ref, signal_ref) in zip(temps_c, signals, expected):
        assert temp == temp_ref
        assert signal == pytest.approx(signal_ref, rel=0, abs=1e-9)
    return degenerate


@pytest.mark.parametrize("pump_nm", [655.0, 780.0])
def test_tuning_curve_roots_match_brentq(model, pump_nm):
    _check_roots_match_brentq(model, pump_nm, np.arange(60.0, 140.0 + 1e-9, 2.0))


@pytest.mark.parametrize("pump_nm", [655.0, 780.0])
def test_tuning_curve_roots_match_brentq_near_degeneracy(model, pump_nm):
    """Near 96.8 degC the two roots close in on degeneracy and delta_k curves most."""
    assert _check_roots_match_brentq(model, pump_nm, np.arange(96.0, 97.6 + 1e-9, 0.1)).any()


# --- filter transmission ----------------------------------------------------

def _quad_pair_transmissions(spectrum, filters):
    """Each branch's pair transmission through all of `filters`, by quad."""
    def mass(center, fwhm, fs):
        def line(lam):
            t = np.prod([f.transmission(lam) for f in fs])
            return np.exp(-4 * np.log(2) * (lam - center) ** 2 / fwhm**2) * t

        edges = sorted(f.center_nm + s * f.fwhm_nm / 2 for f in fs for s in (-1, 1))
        return quad(line, center - 10, center + 10, points=edges or None, limit=500,
                    epsabs=0, epsrel=1e-13)[0]

    return [mass(b.center_h_nm, b.fwhm_nm, filters) / mass(b.center_h_nm, b.fwhm_nm, ())
            * mass(b.center_v_nm, b.fwhm_nm, filters) / mass(b.center_v_nm, b.fwhm_nm, ())
            for b in spectrum.branches]


@pytest.mark.parametrize("filters", [
    (spdc.FilterSpec(1309.8, 0.5, "flat-top"),),
    (spdc.FilterSpec(1310.0, 0.5),),
    # a sideband photon lies 2 nm from the box, far in its Gaussian tail:
    # the H photon below the box, then the V photon above it
    (spdc.FilterSpec(1311.0, 0.5, "flat-top"),),
    (spdc.FilterSpec(1308.6, 0.5, "flat-top"),),
    (spdc.FilterSpec(1309.6, 0.6, "flat-top"), spdc.FilterSpec(1310.0, 0.5)),
    (spdc.FilterSpec(1309.9, 0.3, "flat-top"), spdc.FilterSpec(1309.8, 0.5, "flat-top")),
], ids=["flat_top", "gaussian", "flat_top_upper_tail", "flat_top_lower_tail",
        "flat_top_then_gaussian", "two_boxes"])
def test_filter_transmission_matches_quad(filters):
    unfiltered = spectrum = spdc.build_spectrum()
    for f in filters:
        spectrum, transmitted, sideband = spdc.apply_filter(spectrum, f)
    weights = np.array([b.weight for b in unfiltered.branches])
    before = np.dot(weights, _quad_pair_transmissions(unfiltered, filters[:-1]))
    after = weights * _quad_pair_transmissions(unfiltered, filters)
    assert transmitted == pytest.approx(after.sum() / before, rel=1e-9)
    assert sideband == pytest.approx(after[1] / after.sum(), rel=1e-9)


# --- loss calibration -------------------------------------------------------

def _brentq_calibrate_losses(budget, det_a, det_b, target_singles_a, target_coincidences):
    def singles_resid(loss_a_db):
        b = cnt._with_arm_losses(budget, loss_a_db, 10.0)
        return cnt.expected_rates(b, det_a, det_b).singles_a - target_singles_a

    loss_a_db = brentq(singles_resid, 0.0, 60.0)

    def coinc_resid(loss_b_db):
        b = cnt._with_arm_losses(budget, loss_a_db, loss_b_db)
        return cnt.expected_rates(b, det_a, det_b).coincidences - target_coincidences

    return loss_a_db, brentq(coinc_resid, 0.0, 60.0)


@pytest.mark.parametrize("mode_b, sep, targets", [
    ("gated", 0.5, (85000.0, 450.0)),
    ("free_running", 0.5, (85000.0, 450.0)),
    ("gated", 0.3, (40000.0, 60.0)),
    ("gated", 1.0, (150000.0, 2000.0)),
], ids=["paper", "free_running_bob", "low_separation", "no_bunching"])
def test_calibrate_losses_matches_brentq(mode_b, sep, targets):
    budget = cnt.SourceBudget(3e5, 2.5, cnt.bandwidth_ghz(0.5, 1309.8), 1.5,
                              channel_loss_db=10.5, bs_separation_prob=sep)
    det_a = cnt.DetectorParams(0.04, 2.2e-5)
    det_b = cnt.DetectorParams(0.10, 1e-5, mode=mode_b, gate_width_ns=1.5)
    cal = cnt.calibrate_losses(budget, det_a, det_b, *targets)
    loss_a, loss_b = _brentq_calibrate_losses(budget, det_a, det_b, *targets)
    assert cal["loss_a_db"] == pytest.approx(loss_a, rel=0, abs=1e-9)
    assert cal["loss_b_db"] == pytest.approx(loss_b, rel=0, abs=1e-9)


# --- fits -------------------------------------------------------------------

def _scipy_run_fit(data, model, jac, names, p0, lower, upper):
    """The least_squares fit with its original settings and numeric Jacobian."""
    x = np.asarray(data.x, dtype=float)
    y = np.asarray(data.counts, dtype=float)
    sig = data.sigma()
    res = least_squares(lambda p: (model(x, *p) - y) / sig, p0, bounds=(lower, upper),
                        xtol=1e-15, ftol=1e-15, gtol=None, max_nfev=2000)
    assert res.success, res.message
    cov = np.linalg.inv(res.jac.T @ res.jac)
    return fitting.FitResult(
        params=dict(zip(names, (float(v) for v in res.x))),
        std_errors=dict(zip(names, (float(e) for e in np.sqrt(np.diag(cov))))),
        reduced_chi2=float(np.sum(res.fun**2)) / max(len(y) - len(p0), 1),
        covariance=cov,
    )


def _paper_scan(x, probs, seed, r_max=450.0, acc_frac=0.17, integration=60.0):
    """Raw and net Poisson scans at paper statistics."""
    r_acc = acc_frac * r_max
    rates = r_acc + (r_max - r_acc) * 2.0 * np.asarray(probs)
    counts = np.random.default_rng(seed).poisson(rates * integration).astype(float)
    raw = fitting.ScanData(tuple(x), tuple(counts), integration)
    return raw, fitting.net_correct(raw, r_acc)


def _fringe_scans(coherence, alice_hwp):
    bob = np.linspace(0.0, 180.0, 40, endpoint=False)
    probs = coincidence_prob(make_psi_state(coherence, 0.0), 2 * alice_hwp, 2 * bob)
    return [data for seed in range(N_SEEDS) for data in _paper_scan(bob, probs, seed)]


def _dip_scans(v0):
    delays = np.linspace(-15.0, 15.0, 40)
    probs = itf.hom_scan(itf.Wavepacket(spdc.coherence_time(1309.8, 0.5)), delays,
                         v0).coincidence_probability
    return [data for seed in range(N_SEEDS) for data in _paper_scan(delays, probs, seed)]


def _assert_fits_match(fit, ref, shift_names):
    for name, value in ref.params.items():
        err = ref.std_errors.get(name)
        if name in shift_names:
            assert abs(fit.params[name] - value) <= 1e-5 * err, name
        else:
            assert fit.params[name] == pytest.approx(value, rel=1e-8), name
    for name, err in ref.std_errors.items():
        assert fit.std_errors[name] == pytest.approx(err, rel=1e-6), name
    assert fit.reduced_chi2 == pytest.approx(ref.reduced_chi2, rel=1e-8)


@pytest.mark.parametrize("coherence, alice_hwp", [
    (0.99998, 0.0), (0.99998, 22.5), (0.9, 45.0), (0.5, 67.5),
], ids=["pinned_0", "pinned_22.5", "coherence_0.9", "coherence_0.5"])
def test_fit_fringe_matches_least_squares(monkeypatch, coherence, alice_hwp):
    scans = _fringe_scans(coherence, alice_hwp)
    fits = [fitting.fit_fringe(d) for d in scans]
    monkeypatch.setattr(fitting, "_run_fit", _scipy_run_fit)
    refs = [fitting.fit_fringe(d) for d in scans]
    for fit, ref in zip(fits, refs):
        _assert_fits_match(fit, ref, {"theta0"})
    if coherence > 0.999:  # the net fringes of a near-pure state pin V at its bound
        assert sum(f.params["V"] == 1.0 for f in fits) >= 5


@pytest.mark.parametrize("v0", [0.99998, 0.83])
def test_fit_dip_matches_least_squares(monkeypatch, v0):
    scans = _dip_scans(v0)
    fits = [fitting.fit_dip(d) for d in scans]
    monkeypatch.setattr(fitting, "_run_fit", _scipy_run_fit)
    refs = [fitting.fit_dip(d) for d in scans]
    for fit, ref in zip(fits, refs):
        _assert_fits_match(fit, ref, {"tau0"})

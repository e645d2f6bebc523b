import argparse

import numpy as np
import pytest

from pairsource import cli
from pairsource.config import load_experiment_config
from pairsource.fitting import (
    ALICE_HWP_DEG,
    FitError,
    FitResult,
    ScanData,
    chsh_from_fits,
    dip_model,
    fit_dip,
    fit_fringe,
    fringe_model,
    net_correct,
)
from pairsource.interference import CANONICAL_SETTINGS_DEG, correlation_E

FOUR_LN2 = 4 * np.log(2)


def make_dip(r0=27000.0, v=0.83, tau0=0.4, w=7.11, n=40, span=15.0, t=60.0):
    tau = np.linspace(-span, span, n)
    return ScanData(tuple(tau), tuple(dip_model(tau, r0, v, tau0, w)), t)


def make_fringe(r0=540.0, v=0.71, theta0=10.0, n=40, t=60.0):
    theta = np.linspace(0.0, 90.0, n)
    return ScanData(tuple(theta), tuple(fringe_model(theta, r0, v, theta0)), t)


# --- noiseless recovery ---------------------------------------------------

def test_dip_exact_recovery():
    fit = fit_dip(make_dip())
    assert fit.params["R0"] == pytest.approx(27000.0, rel=1e-6)
    assert fit.params["V"] == pytest.approx(0.83, abs=1e-6)
    assert fit.params["tau0"] == pytest.approx(0.4, abs=1e-6)
    assert fit.params["w"] == pytest.approx(7.11, abs=1e-6)
    assert fit.reduced_chi2 < 1e-12


def test_fringe_exact_recovery():
    fit = fit_fringe(make_fringe())
    assert fit.params["R0"] == pytest.approx(540.0, rel=1e-6)
    assert fit.params["V"] == pytest.approx(0.71, abs=1e-6)
    assert fit.params["theta0"] == pytest.approx(10.0, abs=1e-6)
    assert fit.reduced_chi2 < 1e-12


def test_dip_width_tracks_coherence_time():
    tau_coh = 5.03
    fit = fit_dip(make_dip(w=np.sqrt(2) * tau_coh))
    assert fit.params["w"] / tau_coh == pytest.approx(np.sqrt(2), rel=1e-6)


def test_fringe_phase_shift_recovery():
    for theta0 in (-15.0, 0.0, 31.7):
        fit = fit_fringe(make_fringe(theta0=theta0))
        # theta0 is only defined modulo the 90 deg fringe period
        diff = (fit.params["theta0"] - theta0) % 90.0
        assert min(diff, 90.0 - diff) < 1e-6


def test_fringe_visibility_convention():
    # the reported visibility is (Rmax - Rmin)/Rmax = 2V/(1+V)
    fit = fit_fringe(make_fringe(v=0.71))
    assert fit.params["visibility"] == pytest.approx(2 * 0.71 / 1.71, abs=1e-6)
    dip = fit_dip(make_dip(v=0.83))
    assert dip.params["visibility"] == pytest.approx(0.83, abs=1e-6)


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_dip(ScanData((0, 1, 2), (5, 3, 5), 1.0))
    flat = ScanData(tuple(range(10)), (100.0,) * 10, 1.0)
    with pytest.raises(FitError):
        fit_dip(flat)
    with pytest.raises(FitError):
        fit_fringe(flat)
    with pytest.raises(ValueError):
        ScanData((0, 1), (1.0, -2.0), 1.0)
    with pytest.raises(ValueError):
        ScanData((0, 1), (1.0, 2.0), 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["x", "counts", "integration_time_s", "accidental_rate"])
def test_non_finite_scan_input_rejected(field, value):
    """A NaN or infinite input fails where it comes in, naming its field,
    instead of running a fit to its iteration limit or a wrong error."""
    scan = {"x": np.arange(8.0), "counts": np.full(8, 50.0), "integration_time_s": 1.0}
    if field in ("x", "counts"):
        scan[field] = np.where(np.arange(8) == 3, value, scan[field])
    elif field == "integration_time_s":
        scan[field] = value
    with pytest.raises(ValueError, match=field):
        net_correct(ScanData(**scan), value if field == "accidental_rate" else 10.0)


def test_scan_from_tuples_fits_as_from_arrays():
    rng = np.random.default_rng(4)
    tau, theta = np.linspace(-15.0, 15.0, 40), np.linspace(0.0, 90.0, 40)
    for fit, x, mean in ((fit_dip, tau, dip_model(tau, 2700.0, 0.83, 0.4, 7.11)),
                         (fit_fringe, theta, fringe_model(theta, 540.0, 0.71, 10.0))):
        counts = rng.poisson(mean)
        from_tuples = ScanData(tuple(x.tolist()), tuple(int(c) for c in counts), 60.0)
        from_arrays = ScanData(x, counts.astype(float), 60.0)
        for data in (from_tuples, from_arrays):
            assert data.x.dtype == data.counts.dtype == np.float64
        for a, b in ((from_tuples, from_arrays),
                     (net_correct(from_tuples, 0.5), net_correct(from_arrays, 0.5))):
            fit_a, fit_b = fit(a), fit(b)
            assert fit_a.params == fit_b.params and fit_a.std_errors == fit_b.std_errors


# --- error bars -----------------------------------------------------------

def test_fringe_error_calibration():
    """Asymptotic standard errors track the resampling scatter."""
    truth = dict(r0=540.0, v=0.71, theta0=10.0)
    theta = np.linspace(0.0, 90.0, 40)
    mean_rate = fringe_model(theta, **{"r0": truth["r0"], "v": truth["v"],
                                       "theta0": truth["theta0"]})
    rng = np.random.default_rng(101)
    vs, sigmas = [], []
    for _ in range(120):
        counts = rng.poisson(mean_rate)
        fit = fit_fringe(ScanData(tuple(theta), tuple(float(c) for c in counts), 1.0))
        vs.append(fit.params["V"])
        sigmas.append(fit.std_errors["V"])
    empirical = np.std(vs, ddof=1)
    asymptotic = np.mean(sigmas)
    assert empirical == pytest.approx(asymptotic, rel=0.3)
    assert np.mean(vs) == pytest.approx(truth["v"], abs=3 * empirical / np.sqrt(len(vs)))


def test_dip_error_calibration():
    tau = np.linspace(-15, 15, 40)
    mean_rate = dip_model(tau, 450.0, 0.83, 0.0, 7.11)
    rng = np.random.default_rng(202)
    vs, sigmas = [], []
    for _ in range(120):
        counts = rng.poisson(mean_rate)
        fit = fit_dip(ScanData(tuple(tau), tuple(float(c) for c in counts), 1.0))
        vs.append(fit.params["V"])
        sigmas.append(fit.std_errors["V"])
    assert np.std(vs, ddof=1) == pytest.approx(np.mean(sigmas), rel=0.3)


def test_visibility_error_magnitude_at_short_integration():
    # coincidence-level fringe with tens of counts per point: the error
    # bar lands in the few-percent band typical of quoted visibilities
    theta = np.linspace(0.0, 90.0, 40)
    t = 0.1
    rate = fringe_model(theta, 2 * 450.0 / 1.71, 0.71, 10.0)  # peaks at 450 cps
    fit = fit_fringe(ScanData(tuple(theta), tuple(rate * t), t))
    assert 0.01 < fit.std_errors["visibility"] < 0.05


def test_error_scales_with_integration_time():
    theta = np.linspace(0.0, 90.0, 40)
    fits = []
    for t in (15.0, 60.0):
        counts = fringe_model(theta, 9.0 * t, 0.71, 10.0)
        fits.append(fit_fringe(ScanData(tuple(theta), tuple(counts), t)))
    ratio = fits[0].std_errors["V"] / fits[1].std_errors["V"]
    assert ratio == pytest.approx(2.0, rel=0.2)


# --- net correction -------------------------------------------------------

def test_net_correct_identity_without_accidentals():
    data = make_fringe()
    out = net_correct(data, 0.0)
    assert np.array_equal(out.counts, data.counts)


def test_net_correct_floors_at_zero():
    data = ScanData((0.0, 1.0), (5.0, 100.0), 1.0)
    out = net_correct(data, 10.0)
    assert np.array_equal(out.counts, [0.0, 90.0])
    with pytest.raises(ValueError):
        net_correct(data, -1.0)


def test_net_correct_keeps_raw_count_variance():
    data = ScanData((0.0, 1.0), (100.0, 400.0), 1.0)
    out = net_correct(data, 50.0)
    assert out.sigma() == pytest.approx(np.sqrt([100.0, 400.0]))


def test_net_correction_lifts_raw_visibility():
    # raw fringe riding on a flat accidental floor: 0.83 raw -> 1.00 net
    r_max, frac = 450.0, 0.17
    r_acc = frac * r_max
    theta = np.linspace(0.0, 90.0, 40)
    prob = 0.5 * (1 - np.cos(np.deg2rad(4 * theta)))
    rate = r_acc + (r_max - r_acc) * prob
    t = 60.0
    raw = ScanData(tuple(theta), tuple(rate * t), t)
    fit_raw = fit_fringe(raw)
    assert fit_raw.params["visibility"] == pytest.approx(1 - frac, abs=1e-6)
    assert fit_raw.params["visibility"] == pytest.approx(0.83, abs=1e-6)
    fit_net = fit_fringe(net_correct(raw, r_acc))
    assert fit_net.params["visibility"] == pytest.approx(1.0, abs=1e-6)


# --- analytic gradient cross-check ----------------------------------------

def test_fringe_gradient_matches_hand_derivation():
    k = np.deg2rad(4.0)
    rng = np.random.default_rng(17)
    for _ in range(10):
        theta = rng.uniform(0, 90)
        r0, v, theta0 = rng.uniform(100, 1000), rng.uniform(0.1, 0.99), rng.uniform(-30, 30)
        u = k * (theta - theta0)
        expected = np.array([
            0.5 * (1 - v * np.cos(u)),          # d/dR0
            -0.5 * r0 * np.cos(u),              # d/dV
            -0.5 * r0 * v * k * np.sin(u),      # d/dtheta0
        ])
        h = 1e-6
        numeric = []
        for i, p in enumerate((r0, v, theta0)):
            args_p, args_m = [r0, v, theta0], [r0, v, theta0]
            args_p[i] += h
            args_m[i] -= h
            numeric.append((fringe_model(theta, *args_p) - fringe_model(theta, *args_m)) / (2 * h))
        assert np.allclose(expected, numeric, atol=1e-4)


# --- CHSH from fitted fringes ---------------------------------------------

def _fringe_fits_for_coherence(c, t=60.0, r0=540.0):
    """Noiseless fringe scans at the four Alice settings, then fit each.

    H/V-basis fringes keep full contrast; the D/A fringes carry the
    coherence, phased per the closed-form correlation.
    """
    theta = np.linspace(0.0, 90.0, 40)
    plan = {0.0: (1.0, 0.0), 45.0: (1.0, 45.0), 22.5: (c, -22.5), 67.5: (c, 22.5)}
    fits = {}
    for alice, (v, theta0) in plan.items():
        counts = fringe_model(theta, r0, v, theta0) * (t / 60.0)
        fits[alice] = fit_fringe(ScanData(tuple(theta), tuple(counts), t))
    return fits


def test_chsh_from_fits_perfect_state():
    res = chsh_from_fits(_fringe_fits_for_coherence(1.0))
    assert res.S == pytest.approx(2 * np.sqrt(2), abs=1e-6)


def test_chsh_from_fits_net_coherence():
    res = chsh_from_fits(_fringe_fits_for_coherence(0.99))
    assert res.S == pytest.approx(np.sqrt(2) * 1.99, abs=1e-6)
    assert res.S == pytest.approx(2.80, abs=0.02)
    assert res.S > 2.0


def test_chsh_from_fits_error_propagation():
    theta = np.linspace(0.0, 90.0, 40)
    rng = np.random.default_rng(55)
    plan = {0.0: (1.0, 0.0), 45.0: (1.0, 45.0), 22.5: (0.99, -22.5), 67.5: (0.99, 22.5)}
    s_values = []
    errors = []
    for _ in range(60):
        fits = {}
        for alice, (v, theta0) in plan.items():
            counts = rng.poisson(fringe_model(theta, 540.0, v, theta0))
            fits[alice] = fit_fringe(ScanData(tuple(theta), tuple(float(x) for x in counts), 60.0))
        res = chsh_from_fits(fits)
        s_values.append(res.S)
        errors.append(res.std_error)
    assert np.std(s_values, ddof=1) == pytest.approx(np.mean(errors), rel=0.35)
    assert np.mean(s_values) == pytest.approx(np.sqrt(2) * 1.99, abs=0.02)


def _chsh_by_central_differences(fits):
    """Reference S and its error: S from the 12 stacked fringe parameters, and
    its gradient by central differences (R0 steps relative to itself, so a
    tiny fitted rate stays positive) through the block-diagonal covariance."""
    p = np.concatenate([[fits[a].params[k] for k in ("R0", "V", "theta0")]
                        for a in ALICE_HWP_DEG])

    def s_of(p):
        fringe = {hwp: p[3 * i: 3 * i + 3] for i, hwp in enumerate(ALICE_HWP_DEG)}

        def corr(alpha, beta):
            fa, fp = fringe[alpha / 2.0], fringe[(alpha + 90.0) / 2.0]
            b, b_perp = beta / 2.0, (beta + 90.0) / 2.0
            return correlation_E([fringe_model(b, *fa), fringe_model(b_perp, *fa),
                                  fringe_model(b, *fp), fringe_model(b_perp, *fp)])

        s = CANONICAL_SETTINGS_DEG
        return (abs(corr(s["a"], s["b"]) - corr(s["a"], s["b_prime"]))
                + abs(corr(s["a_prime"], s["b"]) + corr(s["a_prime"], s["b_prime"])))

    cov = np.zeros((12, 12))
    for i, a in enumerate(ALICE_HWP_DEG):
        cov[3 * i: 3 * i + 3, 3 * i: 3 * i + 3] = fits[a].covariance
    grad = np.zeros(12)
    for i in range(12):
        h = 1e-6 * p[i] if i % 3 == 0 else max(1e-6, 1e-6 * abs(p[i]))
        pp, pm = p.copy(), p.copy()
        pp[i] += h
        pm[i] -= h
        grad[i] = (s_of(pp) - s_of(pm)) / (2 * h)
    return s_of(p), np.sqrt(max(grad @ cov @ grad, 0.0))


def _bell_fits(no_mc, **overrides):
    """The raw and the net fringe fits of one `bell` run, keyed by Alice's HWP angle."""
    cfg = load_experiment_config(None, overrides)
    fringes = cli._run_bell(cfg, argparse.Namespace(no_mc=no_mc))[3]
    return [{alice: fringe[k] for alice, fringe in fringes.items()} for k in (2, 3)]


@pytest.mark.parametrize("case", ["paper_poisson", "analytic", "integration_1e-9",
                                  "noiseless_v_pinned"])
def test_chsh_error_matches_central_differences(case):
    if case == "paper_poisson":  # 450 cps, 17 % accidentals, 40 points x 60 s
        runs = [fits for seed in range(20) for fits in _bell_fits(False, seed=seed)]
    elif case == "analytic":
        runs = _bell_fits(True)
    elif case == "integration_1e-9":
        runs = _bell_fits(True, **{"scan.integration_s": 1e-9})
    else:
        runs = [_fringe_fits_for_coherence(1.0)]
    pinned = 0
    for fits in runs:
        res = chsh_from_fits(fits)
        s, std = _chsh_by_central_differences(fits)
        assert res.S == pytest.approx(s, rel=1e-8, abs=0)
        assert res.std_error == pytest.approx(std, rel=1e-8, abs=0)
        assert res.n_sigma_violation == pytest.approx((s - 2.0) / std, rel=1e-8)
        pinned += any(f.params["V"] == 1.0 for f in fits.values())
    if case != "integration_1e-9":
        assert pinned, "no fit with V pinned at 1"


def test_chsh_from_fits_requires_all_angles():
    fits = _fringe_fits_for_coherence(1.0)
    fits.pop(45.0)
    with pytest.raises(ValueError):
        chsh_from_fits(fits)


def test_fit_result_is_self_consistent():
    fit = fit_fringe(make_fringe())
    assert isinstance(fit, FitResult)
    assert fit.covariance.shape == (3, 3)

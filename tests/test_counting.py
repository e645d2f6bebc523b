import dataclasses
import json
from math import exp, factorial

import numpy as np
import pytest
from photon_mc import photon_chunk_counts

from pairsource.counting import (
    CHUNK,
    MAX_PAIRS,
    DetectorParams,
    McRun,
    SourceBudget,
    bandwidth_ghz,
    calibrate_losses,
    expected_rates,
    mc_rates,
    mean_pairs_per_window,
    simulate_counts,
    _chunk_counts,
    _window_pmf,
)

C_NM_PER_PS = 299792.458  # speed of light, nm per ps


def paper_budget(**overrides):
    kw = dict(
        brightness_pairs_per_s_ghz_mw=3e5,
        pump_power_mw=2.5,
        filter_bandwidth_ghz=bandwidth_ghz(0.5, 1309.8),
        window_ns=1.5,
        channel_loss_db=10.5,
        loss_split=0.5,
    )
    kw.update(overrides)
    return SourceBudget(**kw)


DET_A = DetectorParams(0.04, 2.2e-5, "free_running")
DET_B = DetectorParams(0.10, 1e-5, "gated", gate_width_ns=1.5)


# --- budget arithmetic ----------------------------------------------------

def test_bandwidth_against_direct_formula():
    # dnu = c * dlam / lam^2, evaluated in consistent units
    lam, dlam = 1309.8, 0.5
    expected = C_NM_PER_PS * dlam / lam**2 * 1e3  # THz -> GHz
    assert bandwidth_ghz(dlam, lam) == pytest.approx(expected, rel=1e-9)
    assert bandwidth_ghz(0.5, 1309.8) == pytest.approx(87.4, abs=0.1)


def test_mu_operating_point():
    assert mean_pairs_per_window(paper_budget()) == pytest.approx(0.098, abs=0.001)


def test_mu_trivial_cases():
    assert mean_pairs_per_window(paper_budget(pump_power_mw=0.0)) == 0.0
    full = mean_pairs_per_window(paper_budget())
    half = mean_pairs_per_window(paper_budget(window_ns=0.75))
    assert half == pytest.approx(full / 2, rel=1e-12)


def test_transmission_split():
    b = paper_budget()
    assert b.transmission_a == pytest.approx(10 ** (-5.25 / 10))
    assert b.transmission_a == b.transmission_b
    skew = paper_budget(loss_split=1.0)
    assert skew.transmission_b == 1.0


def test_budget_validation():
    with pytest.raises(ValueError):
        paper_budget(pump_power_mw=-1.0)
    with pytest.raises(ValueError):
        paper_budget(bs_separation_prob=1.5)
    for split in (-0.1, 1.5):
        with pytest.raises(ValueError, match="loss_split"):
            paper_budget(loss_split=split)
    with pytest.raises(ValueError):
        DetectorParams(1.2, 0.0)
    with pytest.raises(ValueError):
        DetectorParams(0.1, 0.0, mode="latched")


# --- analytic rates -------------------------------------------------------

def test_rates_lossless_always_split():
    budget = paper_budget(channel_loss_db=0.0, bs_separation_prob=1.0)
    ideal = DetectorParams(1.0, 0.0)
    rates = expected_rates(budget, ideal, ideal)
    mu = mean_pairs_per_window(budget)
    per_s = mu / (budget.window_ns * 1e-9)
    assert rates.singles_a == pytest.approx(per_s, rel=1e-12)
    assert rates.coincidences == pytest.approx(per_s, rel=1e-12)
    assert rates.accidentals == pytest.approx(0.0, abs=1e-9)


def test_rates_dark_counts_only():
    budget = paper_budget(pump_power_mw=0.0)
    rates = expected_rates(budget, DET_A, DET_B)
    window_s = budget.window_ns * 1e-9
    d_a = 2.2e-5 * 1.5
    d_b = 1e-5 * 1.5
    assert rates.singles_a == pytest.approx(d_a / window_s, rel=1e-9)
    # gated Bob: a coincidence needs Alice's dark AND Bob's dark in the gate
    assert rates.coincidences == pytest.approx(d_a * d_b / window_s, rel=1e-9)
    assert rates.accidentals == pytest.approx(rates.coincidences, rel=1e-12)


def test_rates_interference_prob_scales_true_coincidences():
    budget = paper_budget()
    full = expected_rates(budget, DET_A, DET_B, interference_prob=1.0)
    half = expected_rates(budget, DET_A, DET_B, interference_prob=0.5)
    assert half.breakdown["true_coincidences"] == pytest.approx(
        full.breakdown["true_coincidences"] / 2, rel=1e-12)
    with pytest.raises(ValueError):
        expected_rates(budget, DET_A, DET_B, interference_prob=1.5)


def test_rates_linear_in_pump_power():
    r1 = expected_rates(paper_budget(), DET_A, DET_B)
    r2 = expected_rates(paper_budget(pump_power_mw=5.0), DET_A, DET_B)
    assert r2.breakdown["true_coincidences"] == pytest.approx(
        2 * r1.breakdown["true_coincidences"], rel=1e-12)


def test_calibrated_losses_hit_rate_targets():
    # calibrate_losses solves its own closed form of the expected_rates model;
    # the round trip through expected_rates ties the two together
    det_b_free = DetectorParams(0.10, 1e-5, "free_running")
    for det_b, sep, (singles, coinc) in [(DET_B, 0.5, (85_000.0, 450.0)),
                                         (det_b_free, 0.5, (85_000.0, 450.0)),
                                         (DET_B, 0.3, (40_000.0, 60.0)),
                                         (DET_B, 1.0, (150_000.0, 2000.0))]:
        budget = paper_budget(channel_loss_db=0.0, bs_separation_prob=sep)
        cal = calibrate_losses(budget, DET_A, det_b, singles, coinc)
        fitted = SourceBudget(
            budget.brightness_pairs_per_s_ghz_mw, budget.pump_power_mw,
            budget.filter_bandwidth_ghz, budget.window_ns,
            channel_loss_db=cal["implied_total_db"],
            loss_split=cal["loss_a_db"] / cal["implied_total_db"],
            bs_separation_prob=sep,
        )
        rates = expected_rates(fitted, DET_A, det_b)
        assert rates.singles_a == pytest.approx(singles, rel=1e-9)
        assert rates.coincidences == pytest.approx(coinc, rel=1e-9)


def test_calibrated_losses_exceed_declared_budget():
    # the measured singles/coincidence targets imply more loss than the
    # declared channel budget; the calibration reports both so the
    # discrepancy stays visible
    cal = calibrate_losses(paper_budget(), DET_A, DET_B, 85_000.0, 450.0)
    assert cal["declared_total_db"] == pytest.approx(10.5)
    assert cal["implied_total_db"] > cal["declared_total_db"]


# --- Monte Carlo ----------------------------------------------------------

def _mc_vs_analytic(budget, det_a, det_b, seed, n_windows=1_000_000):
    run = simulate_counts(budget, det_a, det_b, n_windows=n_windows, seed=seed)
    rates = expected_rates(budget, det_a, det_b)
    window_s = budget.window_ns * 1e-9
    p_coinc = rates.coincidences * window_s
    p_click_a = rates.singles_a * window_s
    p_click_b = rates.singles_b * window_s  # gated: equals p_coinc
    checks = [
        ("coincidence", run.tallies["coincidence"], p_coinc),
        ("a_only", run.tallies["a_only"], p_click_a - p_coinc),
        ("no_click", run.tallies["no_click"], 1 - p_click_a - p_click_b + p_coinc),
    ]
    if det_b.mode == "free_running":
        checks.append(("b_only", run.tallies["b_only"], p_click_b - p_coinc))
    else:
        assert run.tallies["b_only"] == 0
    for name, observed, p in checks:
        expected = n_windows * p
        sigma = np.sqrt(n_windows * p * (1 - p))
        assert abs(observed - expected) <= 3 * sigma + 1, (
            f"{name}: observed {observed}, expected {expected:.1f} +- {sigma:.1f}")
    true_p = rates.breakdown["true_coincidences"] * window_s
    sigma_true = np.sqrt(n_windows * true_p * (1 - true_p))
    assert abs(run.details["true_coincidences"] - n_windows * true_p) <= 3 * sigma_true + 1
    return run


def test_mc_matches_analytic_lossless_paper_detectors():
    _mc_vs_analytic(paper_budget(channel_loss_db=0.0), DET_A, DET_B, seed=1)


def test_mc_matches_analytic_bright_free_running():
    budget = paper_budget(channel_loss_db=3.0, pump_power_mw=10.0,
                          bs_separation_prob=0.6)
    det_a = DetectorParams(0.3, 1e-3, "free_running")
    det_b = DetectorParams(0.5, 5e-4, "free_running")
    _mc_vs_analytic(budget, det_a, det_b, seed=2)


def test_mc_matches_analytic_with_interference_veto():
    budget = paper_budget(channel_loss_db=0.0)
    det_a = DetectorParams(0.2, 1e-4, "free_running")
    det_b = DetectorParams(0.2, 1e-4, "gated")
    n = 1_000_000
    run = simulate_counts(budget, det_a, det_b, interference_prob=0.3,
                          n_windows=n, seed=3)
    rates = expected_rates(budget, det_a, det_b, interference_prob=0.3)
    p = rates.coincidences * budget.window_ns * 1e-9
    sigma = np.sqrt(n * p * (1 - p))
    assert abs(run.tallies["coincidence"] - n * p) <= 3 * sigma + 1


@pytest.mark.parametrize("mode", ["free_running", "gated"])
def test_mc_matches_analytic_heavy_dark_counts(mode):
    # ~0.1 dark clicks per window: most clicks come from pair-free windows,
    # which the sampler tallies from their multinomial cells
    det_a = DetectorParams(0.3, 0.10 / 1.5)
    det_b = DetectorParams(0.5, 0.12 / 1.5, mode)
    _mc_vs_analytic(paper_budget(channel_loss_db=3.0), det_a, det_b, seed=13)


def _tallies(no_click=0, a_only=0, b_only=0, coincidence=0):
    return {"no_click": no_click, "a_only": a_only, "b_only": b_only,
            "coincidence": coincidence}


@pytest.mark.parametrize("double_pairs", [False, True], ids=["single_pair", "double_pair"])
@pytest.mark.parametrize("n_windows", [1, CHUNK + 3])
def test_mc_without_pairs_or_darks_never_clicks(double_pairs, n_windows):
    det = DetectorParams(0.5, 0.0)
    budget = paper_budget(pump_power_mw=0.0)  # mu = 0: no chunk holds a pair
    run = simulate_counts(budget, det, DetectorParams(0.5, 0.0, "gated"),
                          n_windows=n_windows, seed=1, allow_double_pairs=double_pairs)
    assert run.tallies == _tallies(no_click=n_windows)
    assert run.details == {"true_coincidences": 0, "accidental_coincidences": 0}


@pytest.mark.parametrize("n_windows", [1, 2 * CHUNK])
def test_mc_pair_in_every_window(n_windows):
    # single-pair mode with mu >= 1 has no pair-free cells; lossless, always
    # split and dark-free, every window is a true coincidence
    det = DetectorParams(1.0, 0.0)
    budget = paper_budget(pump_power_mw=30.0, channel_loss_db=0.0, bs_separation_prob=1.0)
    assert mean_pairs_per_window(budget) > 1
    run = simulate_counts(budget, det, det, n_windows=n_windows, seed=2)
    assert run.tallies == _tallies(coincidence=n_windows)
    assert run.details["true_coincidences"] == n_windows


@pytest.mark.parametrize("double_pairs", [False, True], ids=["single_pair", "double_pair"])
@pytest.mark.parametrize("mode", ["free_running", "gated"])
@pytest.mark.parametrize("dark", [1.0, 1 - 1e-12])
def test_mc_dark_probability_near_one(double_pairs, mode, dark):
    # nearly all of the multinomial mass sits in the both-dark cells; the
    # cell probabilities must still sum to 1 within rounding
    budget = paper_budget(channel_loss_db=0.0)
    det_a = DetectorParams(0.5, dark / 1.5)
    det_b = DetectorParams(0.5, dark / 1.5, mode)
    n_windows = CHUNK + 1
    run = simulate_counts(budget, det_a, det_b, n_windows=n_windows, seed=3,
                          allow_double_pairs=double_pairs)
    assert run.tallies == _tallies(coincidence=n_windows)
    true_p = expected_rates(budget, det_a, det_b).breakdown["true_coincidences"] * 1.5e-9
    sigma = np.sqrt(n_windows * true_p * (1 - true_p))
    assert abs(run.details["true_coincidences"] - n_windows * true_p) <= 3 * sigma + 1


def test_mc_seed_reproducibility():
    budget = paper_budget(channel_loss_db=0.0)
    a = simulate_counts(budget, DET_A, DET_B, n_windows=100_000, seed=42)
    b = simulate_counts(budget, DET_A, DET_B, n_windows=100_000, seed=42)
    c = simulate_counts(budget, DET_A, DET_B, n_windows=100_000, seed=43)
    assert a.tallies == b.tallies and a.details == b.details
    assert c.tallies != a.tallies


def test_mc_tallies_partition_windows():
    run = simulate_counts(paper_budget(), DET_A, DET_B, n_windows=50_000, seed=5)
    assert sum(run.tallies.values()) == 50_000
    assert run.tallies["b_only"] == 0  # gated Bob cannot click alone
    assert (run.details["true_coincidences"] + run.details["accidental_coincidences"]
            == run.tallies["coincidence"])


def test_double_pair_accidentals_scale_quadratically():
    det = DetectorParams(0.1, 0.0, "free_running")

    def accidentals(power_mw):
        budget = paper_budget(channel_loss_db=0.0, pump_power_mw=power_mw,
                              bs_separation_prob=1.0)
        run = simulate_counts(budget, det, det, n_windows=4_000_000, seed=7,
                              allow_double_pairs=True)
        return run.details["accidental_coincidences"]

    # mu = 0.05 -> 0.1: true coincidences double, accidentals ~quadruple
    lo = accidentals(2.5 * 0.05 / 0.0983)
    hi = accidentals(2.5 * 0.1 / 0.0983)
    assert 2.8 <= hi / lo <= 5.5


def _free_running_oracle(budget, det_a, det_b, pmf, interference_prob=1.0):
    """Per-window P(coincidence), P(a_only), P(b_only) for free-running
    detectors when the pair number K has distribution `pmf`.

    Pairs act independently, so P(no photon click at A) = E[r_A^K], with
    r_A the no-click probability of one pair; likewise r_B, and r_AB for no
    photon click on either side. Dark counts multiply in as (1 - d).
    """
    s = budget.bs_separation_prob
    q_a = budget.transmission_a * det_a.efficiency
    q_b = budget.transmission_b * det_b.efficiency
    q_b_int = q_b * interference_prob
    r_a = s * (1 - q_a) + (1 - s) / 2 * (1 - q_a) ** 2 + (1 - s) / 2
    r_b = s * (1 - q_b_int) + (1 - s) / 2 + (1 - s) / 2 * (1 - q_b) ** 2
    r_ab = (s * (1 - q_a) * (1 - q_b_int) + (1 - s) / 2 * (1 - q_a) ** 2
            + (1 - s) / 2 * (1 - q_b) ** 2)
    d_a = det_a.dark_prob_per_ns * budget.window_ns
    d_b = det_b.dark_prob_per_ns * budget.window_ns
    k = np.arange(len(pmf))
    no_a = np.dot(pmf, r_a ** k) * (1 - d_a)
    no_b = np.dot(pmf, r_b ** k) * (1 - d_b)
    neither = np.dot(pmf, r_ab ** k) * (1 - d_a) * (1 - d_b)
    return {"coincidence": 1 - no_a - no_b + neither,
            "a_only": no_b - neither, "b_only": no_a - neither}


def _truncated_poisson(mu):
    pmf = np.array([exp(-mu) * mu**k / factorial(k) for k in range(MAX_PAIRS + 1)])
    pmf[-1] += max(0.0, 1.0 - pmf.sum())
    return pmf


BRIGHT_FREE = (SourceBudget(3e5, 10, bandwidth_ghz(0.5, 1309.8), 1.5, channel_loss_db=3,
                            bs_separation_prob=0.6),
               DetectorParams(0.3, 1e-3), DetectorParams(0.5, 5e-4))


def test_free_running_oracle_reduces_to_single_pair_rates():
    budget, det_a, det_b = BRIGHT_FREE
    p_pair = mean_pairs_per_window(budget)
    probs = _free_running_oracle(budget, det_a, det_b, [1 - p_pair, p_pair], 0.7)
    rates = expected_rates(budget, det_a, det_b, interference_prob=0.7)
    window_s = budget.window_ns * 1e-9
    p_coinc = rates.coincidences * window_s
    assert probs["coincidence"] == pytest.approx(p_coinc, rel=1e-12)
    assert probs["a_only"] == pytest.approx(rates.singles_a * window_s - p_coinc, rel=1e-12)
    assert probs["b_only"] == pytest.approx(rates.singles_b * window_s - p_coinc, rel=1e-12)


def test_double_pair_mc_matches_oracle():
    budget, det_a, det_b = BRIGHT_FREE
    mu = mean_pairs_per_window(budget)
    assert mu == pytest.approx(0.39, abs=0.01)
    n = 1_000_000
    run = simulate_counts(budget, det_a, det_b, n_windows=n, seed=12,
                          allow_double_pairs=True)
    probs = _free_running_oracle(budget, det_a, det_b, _truncated_poisson(mu))
    for name, p in probs.items():
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(run.tallies[name] - n * p) <= 3 * sigma, (
            f"{name}: observed {run.tallies[name]}, expected {n * p:.1f} +- {sigma:.1f}")


@pytest.mark.parametrize("double_pairs", [False, True], ids=["single_pair", "double_pair"])
def test_mc_chunks_are_partition_independent(double_pairs):
    budget, det_a, _ = BRIGHT_FREE
    det_b = DetectorParams(0.5, 5e-4, "gated")
    n_windows = 3 * CHUNK + 5
    sizes = [CHUNK, CHUNK, CHUNK, 5]
    counts = sum(_chunk_counts(4, ci, sizes[ci],
                               _window_pmf(budget, det_a, det_b, 0.8, double_pairs)[0])
                 for ci in reversed(range(len(sizes))))
    run = simulate_counts(budget, det_a, det_b, interference_prob=0.8,
                          n_windows=n_windows, seed=4, allow_double_pairs=double_pairs)
    by_clicks = (counts[:4] + counts[4:]).tolist()
    assert run.tallies == dict(zip(("no_click", "a_only", "b_only", "coincidence"),
                                   by_clicks))
    assert run.details == {"true_coincidences": counts[7],
                           "accidental_coincidences": by_clicks[3] - counts[7]}


def test_free_running_oracle_matches_double_pair_pmf():
    budget, det_a, det_b = BRIGHT_FREE
    for interference_prob in (1.0, 0.7):
        probs = _free_running_oracle(budget, det_a, det_b,
                                     _truncated_poisson(mean_pairs_per_window(budget)),
                                     interference_prob)
        pmf = _window_pmf(budget, det_a, det_b, interference_prob, True)[0]
        assert probs["coincidence"] == pytest.approx(pmf[3] + pmf[7], rel=1e-12)
        assert probs["a_only"] == pytest.approx(pmf[1] + pmf[5], rel=1e-12)
        assert probs["b_only"] == pytest.approx(pmf[2] + pmf[6], rel=1e-12)


DET_B_GATED_BRIGHT = DetectorParams(0.5, 5e-4, "gated")
# (budget, det_a, det_b, interference_prob, allow_double_pairs)
ORACLE_CONFIGS = {
    "paper_gated": (paper_budget(), DET_A, DET_B, 1.0, False),
    "free_running_heavy_darks": (paper_budget(channel_loss_db=3.0),
                                 DetectorParams(0.3, 0.10 / 1.5),
                                 DetectorParams(0.5, 0.12 / 1.5), 1.0, False),
    "interference_0.8": (BRIGHT_FREE[0], BRIGHT_FREE[1], DET_B_GATED_BRIGHT, 0.8, False),
    "double_pair_free_running": (*BRIGHT_FREE, 1.0, True),
    "double_pair_gated": (BRIGHT_FREE[0], BRIGHT_FREE[1], DET_B_GATED_BRIGHT, 0.8, True),
}
ORACLE_SEED, ORACLE_CHUNKS = 23, 128
CHI2_UPPER_0_1_PERCENT = {1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47}  # by degrees of freedom


@pytest.mark.parametrize("config", ORACLE_CONFIGS.values(), ids=ORACLE_CONFIGS.keys())
def test_photon_sampler_matches_window_pmf(config):
    # chi-square over the 8 codes: the photon-by-photon sampler's tallies
    # against n * pmf; codes expecting fewer than 5 counts are pooled
    pmf = _window_pmf(*config)[0]
    observed = sum(photon_chunk_counts(ORACLE_SEED, ci, CHUNK, *config)
                   for ci in range(ORACLE_CHUNKS))
    expected = ORACLE_CHUNKS * CHUNK * pmf
    assert not observed[pmf == 0].any()
    small = expected < 5
    obs, exp_ = list(observed[~small]), list(expected[~small])
    if expected[small].sum() >= 5:
        obs.append(observed[small].sum())
        exp_.append(expected[small].sum())
    else:  # too little for a bin of its own: it joins the largest bin
        top = int(np.argmax(exp_))
        obs[top] += observed[small].sum()
        exp_[top] += expected[small].sum()
    obs, exp_ = np.array(obs), np.array(exp_)
    chi2 = float(np.sum((obs - exp_) ** 2 / exp_))
    assert chi2 < CHI2_UPPER_0_1_PERCENT[len(obs) - 1], (obs.tolist(), exp_.tolist())


PMF_EDGES = {
    "mu_0": (paper_budget(pump_power_mw=0.0), DET_A, DET_B, 1.0),
    "mu_above_1": (paper_budget(pump_power_mw=30.0), DET_A, DET_B, 1.0),
    "dark_1": (paper_budget(), DetectorParams(0.04, 1 / 1.5),
               DetectorParams(0.1, 1 / 1.5, "gated"), 1.0),
    "dark_near_1": (paper_budget(), DetectorParams(0.04, (1 - 1e-12) / 1.5),
                    DetectorParams(0.1, (1 - 1e-12) / 1.5), 1.0),
    "sep_0": (paper_budget(bs_separation_prob=0.0), DET_A, DET_B, 1.0),
    "sep_1": (paper_budget(bs_separation_prob=1.0, channel_loss_db=0.0),
              DetectorParams(1.0, 0.0), DetectorParams(1.0, 0.0), 1.0),
    "interference_0": (paper_budget(), DET_A, DET_B, 0.0),
}


@pytest.mark.parametrize("double_pairs", [False, True], ids=["single_pair", "double_pair"])
@pytest.mark.parametrize("config", PMF_EDGES.values(), ids=PMF_EDGES.keys())
def test_window_pmf_is_a_pmf(config, double_pairs):
    pmf, photons = _window_pmf(*config, double_pairs)
    for p in (pmf, photons):
        assert p.shape == (8,) and (p >= 0).all()
        assert abs(p.sum() - 1.0) <= 1e-12
        assert not p[4:7].any()  # a true coincidence implies both clicks
    if config[2].mode == "gated":
        assert pmf[2] == 0.0


@pytest.mark.parametrize("mode", ["free_running", "gated"])
def test_chunk_tallies_are_multinomial_and_independent(mode):
    # 400 seeds x 3 chunk indices: per-code means and variances follow
    # Multinomial(CHUNK, pmf), and neighbouring keys give uncorrelated tallies
    budget, det_a, _ = BRIGHT_FREE
    pmf = _window_pmf(budget, det_a, DetectorParams(0.5, 5e-4, mode), 0.8, True)[0]
    tallies = np.array([[_chunk_counts(seed, ci, CHUNK, pmf) for ci in range(3)]
                        for seed in range(400)], dtype=float)
    n_draws = tallies.shape[0] * tallies.shape[1]
    codes = np.flatnonzero(CHUNK * pmf >= 50)
    assert len(codes) >= 3
    for code in codes:
        t = tallies[:, :, code]
        mean, var = CHUNK * pmf[code], CHUNK * pmf[code] * (1 - pmf[code])
        assert abs(t.mean() - mean) <= 5 * np.sqrt(var / n_draws), code
        assert 0.8 <= t.var(ddof=1) / var <= 1.2, code
        for x, y in ((t[:, :-1], t[:, 1:]), (t[:-1], t[1:]), (t[1:, :-1], t[:-1, 1:])):
            assert abs(np.corrcoef(x.ravel(), y.ravel())[0, 1]) < 0.15, code


@pytest.mark.parametrize("interference_prob", [-0.1, 1.5])
def test_mc_rejects_bad_interference_prob(interference_prob):
    with pytest.raises(ValueError, match="interference_prob"):
        simulate_counts(paper_budget(), DET_A, DET_B, interference_prob=interference_prob,
                        n_windows=10)


def test_single_pair_mode_has_no_multi_pair_accidentals():
    det = DetectorParams(0.1, 0.0, "free_running")
    budget = paper_budget(channel_loss_db=0.0, bs_separation_prob=1.0)
    run = simulate_counts(budget, det, det, n_windows=500_000, seed=8)
    assert run.details["accidental_coincidences"] == 0


def test_mc_rates_conversion():
    run = McRun(seed=0, n_windows=1000,
                tallies={"no_click": 900, "a_only": 60, "b_only": 10, "coincidence": 30},
                details={"true_coincidences": 25, "accidental_coincidences": 5})
    rates = mc_rates(run, window_ns=1.5)
    total_s = 1000 * 1.5e-9
    assert rates.singles_a == pytest.approx(90 / total_s)
    assert rates.singles_b == pytest.approx(40 / total_s)
    assert rates.coincidences == pytest.approx(30 / total_s)
    assert rates.accidentals == pytest.approx(5 / total_s)


def test_mcrun_validates_and_serializes():
    with pytest.raises(ValueError):
        McRun(seed=0, n_windows=10, tallies={"no_click": 5, "a_only": 1,
                                             "b_only": 1, "coincidence": 1})
    run = McRun(seed=9, n_windows=4,
                tallies={"no_click": 1, "a_only": 1, "b_only": 1, "coincidence": 1})
    doc = json.loads(json.dumps(dataclasses.asdict(run)))
    assert doc["seed"] == 9
    assert sum(doc["tallies"].values()) == 4

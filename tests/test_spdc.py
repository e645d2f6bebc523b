import math
from dataclasses import replace

import numpy as np
import pytest

from pairsource import spdc
from pairsource.spdc import (
    DispersionModel,
    FilterSpec,
    QpmConfig,
    apply_filter,
    build_spectrum,
    calibrate_offsets,
    coherence_time,
    delta_k,
    find_degenerate_period,
    marginal_intensity,
    refractive_index,
    tuning_curve,
)


@pytest.fixture(scope="module")
def model():
    return DispersionModel.default()


@pytest.fixture(scope="module")
def calibrated(model):
    return calibrate_offsets(model)


# --- dispersion -----------------------------------------------------------

def test_offset_is_additive(model):
    shifted = replace(model, offsets={**model.offsets, "H": 1e-3})
    base = refractive_index(model, 1310, 96.8, "H")
    assert refractive_index(shifted, 1310, 96.8, "H") == pytest.approx(base + 1e-3, abs=1e-15)


def test_normal_dispersion(model):
    for pol in ("H", "V"):
        assert refractive_index(model, 655, 96.8, pol) > refractive_index(model, 1310, 96.8, pol)


def test_extraordinary_index_matches_direct_evaluation(model):
    # independent re-evaluation of the configured coefficient table
    lam, temp = 1.310, 96.8
    f = (temp - 24.5) * (temp + 570.82)
    n2 = (4.5820 + (0.09921 + 5.2716e-8 * f) / (lam**2 - (0.21090 - 4.9143e-8 * f) ** 2)
          + 2.2971e-7 * f - 0.021940 * lam**2)
    assert refractive_index(model, 1310, temp, "V") == pytest.approx(np.sqrt(n2), abs=1e-12)


def test_index_range_invariant(model):
    for lam in np.linspace(400, 2000, 21):
        for temp in (20, 96.8, 200):
            for pol in ("H", "V"):
                assert 1.0 < refractive_index(model, lam, temp, pol) < 3.0


def test_out_of_range_wavelength_rejected(model):
    for lam in (300, np.array([1310.0, 300.0]), np.nan):
        with pytest.raises(ValueError):
            refractive_index(model, lam, 96.8, "H")


# --- quasi-phase matching -------------------------------------------------

def test_delta_k_grating_limit(model):
    cfg = QpmConfig(1e12, 96.8, 655.0)
    bulk = delta_k(cfg, model, 1310.0)
    n_p = refractive_index(model, 655, 96.8, "H")
    n_s = refractive_index(model, 1310, 96.8, "H")
    n_i = refractive_index(model, 1310, 96.8, "V")
    expected = 2 * np.pi * (n_p / 0.655 - n_s / 1.310 - n_i / 1.310)
    assert bulk == pytest.approx(expected, abs=1e-9)


def test_delta_k_array_matches_scalar_calls(calibrated):
    cfg = QpmConfig(6.6, 96.8, 655.0)
    grid = np.arange(1110.0, 1510.0, 0.25)
    scalar = np.array([delta_k(cfg, calibrated, float(ls)) for ls in grid])
    # the terms n/lambda are ~20 rad/um, so 1e-13 allows a few ulp of reordering
    np.testing.assert_allclose(delta_k(cfg, calibrated, grid), scalar, rtol=0, atol=1e-13)


def test_delta_k_rejects_energy_violation(model):
    cfg = QpmConfig(6.6, 96.8, 655.0)
    with pytest.raises(ValueError):
        delta_k(cfg, model, 600.0)


def test_period_is_true_root(calibrated):
    period = find_degenerate_period(calibrated, 655, 96.8)
    cfg = QpmConfig(period, 96.8, 655.0)
    assert abs(delta_k(cfg, calibrated, 1310.0)) < 1e-9


def test_degenerate_period_paper_values(calibrated):
    assert find_degenerate_period(calibrated, 655, 96.8) == pytest.approx(6.6, abs=0.3)
    assert find_degenerate_period(calibrated, 780, 96.8) == pytest.approx(9.1, abs=0.4)


def test_uncalibrated_period_close_to_anchor(model):
    assert find_degenerate_period(model, 655, 96.8) == pytest.approx(6.6, abs=0.3)


def test_offset_perturbation_shifts_period_monotonically(calibrated):
    periods = []
    for extra in (-1e-4, 0.0, 1e-4):
        v = calibrated.offsets["V"] + extra
        m = replace(calibrated, offsets={**calibrated.offsets, "V": v})
        periods.append(find_degenerate_period(m, 655, 96.8))
    diffs = np.diff(periods)
    assert np.all(diffs > 0) or np.all(diffs < 0)


def test_no_phase_matching_raises(model):
    with pytest.raises(spdc.NoPhaseMatchingError):
        find_degenerate_period(model, 655, 96.8, bracket=(15.0, 20.0))
    with pytest.raises(spdc.NoPhaseMatchingError):  # the period lies above the bracket
        find_degenerate_period(model, 655, 96.8, bracket=(4.0, 6.0))


def test_calibration_fixed_point(calibrated):
    again = calibrate_offsets(calibrated)
    assert again.offsets["V"] == pytest.approx(calibrated.offsets["V"], abs=1e-12)


def test_calibration_round_trip(calibrated):
    assert find_degenerate_period(calibrated, 655, 96.8) == pytest.approx(6.6, abs=1e-3)


def test_calibration_at_a_non_default_anchor(model):
    anchor = QpmConfig(6.7, 100.0, 656.0)
    assert abs(delta_k(anchor, calibrate_offsets(model, anchor), 1312.0)) < 1e-9


def test_signal_slope_nonzero_at_degeneracy(calibrated):
    cfg = QpmConfig(6.6, 96.8, 655.0)
    h = 0.05
    slope = (delta_k(cfg, calibrated, 1310 + h) - delta_k(cfg, calibrated, 1310 - h)) / (2 * h)
    assert abs(slope) > 1e-6


def test_tuning_curve_degenerate_at_anchor(calibrated):
    cfg = QpmConfig(6.6, 96.8, 655.0)
    temps, lam_s, lam_i, degenerate = tuning_curve(cfg, calibrated, [96.8])
    assert len(temps)
    assert degenerate[0]
    assert lam_s[0] == pytest.approx(1310.0, abs=0.1)
    assert lam_i[0] == pytest.approx(1310.0, abs=0.1)


def test_tuning_curve_energy_conservation(calibrated):
    cfg = QpmConfig(6.6, 96.8, 655.0)
    _, signals, idlers, _ = tuning_curve(cfg, calibrated, np.arange(80, 120, 5.0))
    assert len(signals)
    for lam_s, lam_i in zip(signals, idlers):
        assert 1 / lam_s + 1 / lam_i == pytest.approx(1 / 655.0, abs=1e-6)


def test_tuning_curve_continuity_near_degeneracy(calibrated):
    cfg = QpmConfig(6.6, 96.8, 655.0)
    _, signals, _, _ = tuning_curve(cfg, calibrated, np.arange(96.0, 97.6, 0.1))
    assert len(signals) >= 10
    assert np.all(np.abs(np.diff(signals)) < 5.0)


@pytest.mark.parametrize("pump_nm", [860.0, 870.0])
def test_tuning_curve_root_on_a_grid_node_is_one_row(calibrated, pump_nm):
    cfg = QpmConfig(find_degenerate_period(calibrated, pump_nm, 96.8), 96.8, pump_nm)
    assert delta_k(cfg, calibrated, 2.0 * pump_nm) == 0.0
    temps, signals, _, degenerate = tuning_curve(cfg, calibrated, [96.8])
    assert temps.tolist() == [96.8]
    assert signals.tolist() == [2.0 * pump_nm] and degenerate.all()


def test_tuning_curve_keeps_the_idler_in_the_table(calibrated):
    # at a 900 nm pump, 200 nm below degeneracy the idler is beyond LAMBDA_MAX_NM
    cfg = QpmConfig(find_degenerate_period(calibrated, 900.0, 96.8), 96.8, 900.0)
    temps, signals, idlers, degenerate = tuning_curve(cfg, calibrated, [96.8])
    assert len(temps) == 1 and degenerate[0]
    assert signals[0] == pytest.approx(1800.0, abs=1e-6)
    assert idlers[0] == pytest.approx(1800.0, abs=1e-6)


def test_tuning_curve_raises_when_the_passes_run_out(calibrated, monkeypatch):
    monkeypatch.setattr(spdc, "TUNING_MAX_PASSES", 1)
    with pytest.raises(RuntimeError, match="not converged in 1 passes"):
        tuning_curve(QpmConfig(6.6, 96.8, 655.0), calibrated, [80.0])


def test_range_errors_name_the_extreme_value(model):
    with pytest.raises(ValueError, match=r"wavelength 2100\.0 nm outside \[400\.0, 2000\.0\] nm"):
        refractive_index(model, np.array([1000.0, 2050.0, 2100.0]), 96.8, "H")
    with pytest.raises(ValueError, match=r"wavelength 300\.0 nm outside"):
        refractive_index(model, np.array([300.0, 350.0, 1000.0]), 96.8, "H")
    with pytest.raises(ValueError, match=r"signal \(600\.0 nm\) must be longer than pump "
                                         r"\(655\.0 nm\)"):
        spdc.idler_wavelength(655.0, np.array([1310.0, 650.0, 600.0]))


def test_tuning_curve_returns_columns(calibrated):
    cfg = QpmConfig(6.6, 96.8, 655.0)
    columns = tuning_curve(cfg, calibrated, np.arange(96.0, 97.6, 0.1))
    assert len(columns) == 4
    temps, signals, idlers, degenerate = columns
    for column in columns:
        assert isinstance(column, np.ndarray) and column.shape == temps.shape
    assert temps.size > 0 and temps.dtype == signals.dtype == idlers.dtype == np.float64
    assert degenerate.dtype == bool and degenerate.any()


# --- emission spectrum and filtering --------------------------------------

def test_build_spectrum_defaults():
    sp = build_spectrum()
    assert len(sp.branches) == 2
    main, side = sp.branches
    assert main.center_h_nm == main.center_v_nm == 1309.8
    assert main.fwhm_nm == 0.7
    assert main.weight == pytest.approx(0.85)
    assert side.center_h_nm == 1308.7 and side.center_v_nm == 1310.9
    assert side.weight == pytest.approx(0.15)
    assert sp.sideband_fraction() == pytest.approx(0.15)


def test_build_spectrum_no_sideband():
    sp = build_spectrum(sideband_fraction=0.0)
    assert len(sp.branches) == 1


def test_spectrum_weights_and_energy_conservation():
    sp = build_spectrum()
    assert sum(b.weight for b in sp.branches) == pytest.approx(1.0, abs=1e-9)
    for b in sp.branches:
        assert 1 / b.center_h_nm + 1 / b.center_v_nm == pytest.approx(
            1 / sp.pump_wavelength_nm, abs=1e-6)


def test_marginal_spectra_asymmetry():
    sp = build_spectrum()
    lam = np.arange(1306.0, 1314.0, 0.005)
    i_h = marginal_intensity(sp, "H", lam)
    i_v = marginal_intensity(sp, "V", lam)
    # H has its secondary peak on the short side, V on the long side
    assert lam[np.argmax(i_h)] == pytest.approx(1309.8, abs=0.05)
    short = lam < 1309.3
    long_ = lam > 1310.3
    assert i_h[short].max() > i_v[short].max()
    assert i_v[long_].max() > i_h[long_].max()


def test_wide_filter_is_transparent():
    sp = build_spectrum()
    filtered, transmitted, sideband = apply_filter(sp, FilterSpec(1309.8, 1e4))
    assert transmitted == pytest.approx(1.0, abs=1e-6)
    assert sideband == pytest.approx(0.15, abs=1e-6)


def _pair_transmission_oracle(center_h, center_v, fwhm, filt):
    # brute-force overlap integral of each photon's line with the passband
    out = []
    for c in (center_h, center_v):
        lam = np.linspace(c - 8 * fwhm, c + 8 * fwhm, 40001)
        line = np.exp(-4 * np.log(2) * (lam - c) ** 2 / fwhm**2)
        out.append(np.trapezoid(line * filt.transmission(lam), lam) / np.trapezoid(line, lam))
    return out[0] * out[1]


def test_fbg_suppresses_sideband():
    sp = build_spectrum()
    filt = FilterSpec(1310.0, 0.5)
    filtered, transmitted, sideband = apply_filter(sp, filt)
    assert sideband < 0.02
    t_main = _pair_transmission_oracle(1309.8, 1309.8, 0.7, filt)
    t_side = _pair_transmission_oracle(1308.7, 1310.9, 0.7, filt)
    expected_sideband = 0.15 * t_side / (0.85 * t_main + 0.15 * t_side)
    assert sideband == pytest.approx(expected_sideband, rel=1e-3)
    assert transmitted == pytest.approx(0.85 * t_main + 0.15 * t_side, rel=1e-3)


def test_unfiltered_coherence_is_085():
    sp = build_spectrum()
    assert 1.0 - sp.sideband_fraction() == pytest.approx(0.85, abs=1e-12)


def test_filter_never_increases_sideband_and_is_monotone():
    sp = build_spectrum()
    last_transmitted = 1.0
    for fwhm in (5.0, 2.0, 1.0, 0.5, 0.25):
        _, transmitted, sideband = apply_filter(sp, FilterSpec(1309.8, fwhm))
        assert sideband <= sp.sideband_fraction() + 1e-12
        assert 0.0 <= transmitted <= last_transmitted + 1e-12
        last_transmitted = transmitted


def test_flat_top_filter_idempotent():
    sp = build_spectrum()
    filt = FilterSpec(1309.8, 0.5, shape="flat-top")
    once, t1, s1 = apply_filter(sp, filt)
    twice, t2, s2 = apply_filter(once, filt)
    assert t2 == pytest.approx(1.0, abs=1e-9)
    assert s2 == pytest.approx(s1, abs=1e-9)
    for b1, b2 in zip(once.branches, twice.branches):
        assert b2.weight == pytest.approx(b1.weight, abs=1e-9)


@pytest.mark.parametrize("fwhm", [0.5, 0.05])
def test_flat_top_transmission_is_exact(fwhm):
    # both photons of the degenerate line sit at the box's center, so each
    # passes with probability erf(fwhm/2 / (sigma*sqrt(2)))
    sp = build_spectrum(primary_fwhm_nm=0.7, sideband_fraction=0.0)
    _, transmitted, _ = apply_filter(sp, FilterSpec(1309.8, fwhm, shape="flat-top"))
    sigma = 0.7 / (2 * np.sqrt(2 * np.log(2)))
    one_photon = math.erf(fwhm / 2 / (sigma * np.sqrt(2)))
    assert transmitted == pytest.approx(one_photon**2, rel=1e-10)


def test_disjoint_flat_top_filters_rejected():
    once, _, _ = apply_filter(build_spectrum(), FilterSpec(1309.8, 0.5, shape="flat-top"))
    with pytest.raises(spdc.FilterOverlapError):
        apply_filter(once, FilterSpec(1310.6, 0.5, shape="flat-top"))


def test_non_overlapping_filter_rejected():
    sp = build_spectrum()
    with pytest.raises(spdc.FilterOverlapError):
        apply_filter(sp, FilterSpec(1319.0, 0.1))


# --- coherence time -------------------------------------------------------

def test_coherence_time_paper_value():
    assert coherence_time(1310, 0.5) == pytest.approx(5.03, abs=0.01)


def test_coherence_time_inverse_in_bandwidth():
    assert coherence_time(1310, 1.0) == pytest.approx(coherence_time(1310, 0.5) / 2, rel=1e-12)


def test_coherence_time_natural_bandwidth():
    assert coherence_time(1310, 0.7) == pytest.approx(3.60, abs=0.01)


def test_coherence_time_rejects_nonpositive():
    with pytest.raises(ValueError):
        coherence_time(1310, 0.0)

import numpy as np
import pytest

from pairsource.interference import (
    TSIRELSON,
    ChshResult,
    Wavepacket,
    bell_scan,
    chsh_S,
    correlation_E,
    fringe_visibility,
    hom_coincidence,
    hom_scan,
    mode_overlap,
    sb_balance,
)
from pairsource.polarization import coincidence_prob, make_psi_state


def numeric_dip_fwhm(wp, v0=1.0):
    """Half-depth crossings of a densely sampled dip, by linear interpolation."""
    tau = np.linspace(-40, 40, 200001)
    p = np.array(hom_scan(wp, tau, v0).coincidence_probability)
    depth = p.max() - p.min()
    half = p.max() - depth / 2
    below = np.nonzero(p < half)[0]
    i0, i1 = below[0], below[-1]

    def crossing(i, j):
        return tau[i] + (half - p[i]) * (tau[j] - tau[i]) / (p[j] - p[i])

    return crossing(i1, i1 + 1) - crossing(i0, i0 - 1)


# --- mode overlap ---------------------------------------------------------

def test_overlap_at_zero_delay():
    assert mode_overlap(Wavepacket(5.03), 0.0) == 1.0


def test_overlap_even_in_delay():
    wp = Wavepacket(5.03)
    for t in (0.5, 2.0, 7.0):
        assert mode_overlap(wp, t) == pytest.approx(mode_overlap(wp, -t), abs=1e-15)


@pytest.mark.parametrize("tau_coh", [1.0, 5.03, 20.0])
def test_overlap_fwhm_is_sqrt2_tau_coh(tau_coh):
    wp = Wavepacket(tau_coh)
    # half-maximum crossings of m itself
    target = 0.5
    lo, hi = 0.0, 10 * tau_coh
    for _ in range(200):
        mid = (lo + hi) / 2
        if mode_overlap(wp, mid) > target:
            lo = mid
        else:
            hi = mid
    fwhm = 2 * lo
    assert fwhm / tau_coh == pytest.approx(np.sqrt(2), rel=1e-6)


def test_overlap_matches_numerical_convolution():
    tau_coh = 5.03
    wp = Wavepacket(tau_coh)
    t = np.linspace(-60, 60, 120001)
    envelope = np.exp(-4 * np.log(2) * t**2 / tau_coh**2)
    norm = np.trapezoid(envelope * envelope, t)
    for delay in (0.0, 1.7, 4.2, 9.0):
        shifted = np.exp(-4 * np.log(2) * (t - delay) ** 2 / tau_coh**2)
        overlap = np.trapezoid(envelope * shifted, t) / norm
        assert mode_overlap(wp, delay) == pytest.approx(overlap, abs=1e-6)


# --- HOM coincidence ------------------------------------------------------

def test_hom_at_hv_basis_always_splits():
    for m in (0.0, 0.5, 1.0):
        assert hom_coincidence(0.0, m, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_hom_perfect_dip_bottom():
    assert hom_coincidence(45.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_hom_distinguishable_limit():
    assert hom_coincidence(45.0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def _enumerated_hom_probability(alpha_deg, m, v0):
    """Four-amplitude enumeration: photons H and V through a HWP-rotated
    analyzer; coincidence = one photon per PBS output port."""
    a = np.deg2rad(alpha_deg)
    # single-photon amplitudes onto the (transmit, reflect) ports
    amp_h = np.array([np.cos(a), np.sin(a)])
    amp_v = np.array([np.sin(a), -np.cos(a)])
    # distinguishable: classical sum over which photon goes where
    p_dist = (amp_h[0] ** 2 * amp_v[1] ** 2 + amp_h[1] ** 2 * amp_v[0] ** 2)
    # indistinguishable bosons: amplitudes interfere
    amp = amp_h[0] * amp_v[1] + amp_h[1] * amp_v[0]
    p_indist = amp**2
    vm = v0 * m
    return (1 - vm) * p_dist + vm * p_indist


def test_hom_matches_amplitude_enumeration():
    for alpha in (0.0, 15.0, 30.0, 45.0, 70.0):
        for m in (0.0, 0.5, 1.0):
            for v0 in (0.85, 1.0):
                assert hom_coincidence(alpha, m, v0) == pytest.approx(
                    _enumerated_hom_probability(alpha, m, v0), abs=1e-10)


def test_hom_rejects_out_of_range():
    with pytest.raises(ValueError):
        hom_coincidence(45, 1.2, 1.0)
    with pytest.raises(ValueError):
        hom_coincidence(45, 0.5, -0.1)


def test_hom_kernels_are_elementwise():
    wp = Wavepacket(5.03)
    tau = np.linspace(-20, 20, 41)
    m = mode_overlap(wp, tau)
    assert m.shape == tau.shape
    np.testing.assert_allclose(m, [mode_overlap(wp, t) for t in tau], rtol=1e-15, atol=0)
    for alpha in (0.0, 30.0, 45.0):
        np.testing.assert_allclose(hom_coincidence(alpha, m, 0.85),
                                   [hom_coincidence(alpha, x, 0.85) for x in m],
                                   rtol=1e-15, atol=1e-300)
    np.testing.assert_allclose(hom_scan(wp, tau, 0.85).coincidence_probability,
                               hom_coincidence(45.0, m, 0.85), rtol=1e-15, atol=0)


@pytest.mark.parametrize("m, v0", [([0.2, 1.2], 1.0), ([0.2, 0.5], [1.0, -0.1]),
                                   ([0.2, np.nan], 1.0), (0.5, [0.9, np.inf])],
                         ids=["m_above_1", "v0_below_0", "m_nan", "v0_inf"])
def test_hom_rejects_any_element_out_of_range(m, v0):
    with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
        hom_coincidence(45.0, np.array(m), np.array(v0))


# --- HOM scan -------------------------------------------------------------

def test_hom_scan_dip_geometry():
    wp = Wavepacket(5.03)
    assert numeric_dip_fwhm(wp) == pytest.approx(7.11, abs=5e-3)


def test_hom_scan_floor_with_sidebands():
    wp = Wavepacket(5.03)
    scan = hom_scan(wp, [0.0], v0=0.85)
    assert scan.coincidence_probability[0] == pytest.approx(0.075, abs=1e-12)


def test_hom_scan_far_delay_limit():
    wp = Wavepacket(5.03)
    scan = hom_scan(wp, [500.0], v0=1.0)
    assert scan.coincidence_probability[0] == pytest.approx(0.5, abs=1e-9)


def test_hom_scan_rejects_empty():
    with pytest.raises(ValueError):
        hom_scan(Wavepacket(5.0), [], 1.0)


def test_scans_return_float_arrays():
    scans = (hom_scan(Wavepacket(5.0), [-1.0, 0.0, 1.0], 0.85),
             bell_scan(0.9, 0.0, 22.5, [0.0, 22.5, 45.0]))
    for scan in scans:
        p = scan.coincidence_probability
        assert isinstance(p, np.ndarray) and p.dtype == np.float64 and p.shape == (3,)


# --- Bell scans -----------------------------------------------------------

def test_bell_scan_da_midpoint():
    scan = bell_scan(1.0, 0.0, 22.5, [22.5])
    assert scan.coincidence_probability[0] == pytest.approx(0.5, abs=1e-12)


def test_bell_scan_phase_flip_inverts_fringe():
    thetas = np.linspace(0, 90, 50)
    up = bell_scan(1.0, 0.0, 22.5, thetas)
    down = bell_scan(1.0, np.pi, 22.5, thetas)
    i_max = int(np.argmax(up.coincidence_probability))
    assert down.coincidence_probability[i_max] == pytest.approx(
        min(down.coincidence_probability), abs=1e-9)


@pytest.mark.parametrize("coherence", [0.5, 0.85, 0.99, 1.0])
def test_da_fringe_visibility_equals_coherence(coherence):
    thetas = np.linspace(0, 90, 721)
    scan = bell_scan(coherence, 0.0, 22.5, thetas)
    assert fringe_visibility(scan.coincidence_probability) == pytest.approx(
        coherence, abs=1e-6)


def test_da_fringe_visibility_with_phase():
    thetas = np.linspace(0, 90, 721)
    for phi in (0.0, np.pi / 4, 2.0):
        scan = bell_scan(0.9, phi, 22.5, thetas)
        assert fringe_visibility(scan.coincidence_probability) == pytest.approx(
            0.9 * abs(np.cos(phi)), abs=1e-6)


def test_hv_fringe_visibility_independent_of_coherence():
    thetas = np.linspace(0, 90, 721)
    for c in (0.0, 0.5, 1.0):
        scan = bell_scan(c, 0.7, 0.0, thetas)
        assert fringe_visibility(scan.coincidence_probability) == pytest.approx(1.0, abs=1e-6)


# --- SB balancing ---------------------------------------------------------

def test_sb_balance_zero_phase():
    for phi_a, phi_b in ((0.0, 0.0), (0.3, -0.3), (np.pi, 0.0)):
        assert sb_balance(phi_a, phi_b) == 0.0


def test_sb_balance_arithmetic():
    phi = sb_balance(0.3, 0.4)
    assert (0.7 + phi) % np.pi == pytest.approx(0.0, abs=1e-6) or \
        (0.7 + phi) % np.pi == pytest.approx(np.pi, abs=1e-6)


@pytest.mark.parametrize("coherence", [0.5, 0.99])
def test_sb_balance_restores_full_visibility(coherence):
    phi_a, phi_b = 0.8, -0.25
    phi_sb = sb_balance(phi_a, phi_b)
    thetas = np.linspace(0, 90, 721)
    scan = bell_scan(coherence, phi_a + phi_b + phi_sb, 22.5, thetas)
    assert fringe_visibility(scan.coincidence_probability) == pytest.approx(
        coherence, abs=1e-6)


# --- CHSH -----------------------------------------------------------------

def test_correlation_examples():
    assert correlation_E((1.0, 0.0, 0.0, 1.0)) == pytest.approx(1.0)
    assert correlation_E((1.0, 1.0, 1.0, 1.0)) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        correlation_E((0.0, 0.0, 0.0, 0.0))


def _correlation_from_state(rho, alpha, beta):
    rates = (
        coincidence_prob(rho, alpha, beta),
        coincidence_prob(rho, alpha, beta + 90),
        coincidence_prob(rho, alpha + 90, beta),
        coincidence_prob(rho, alpha + 90, beta + 90),
    )
    return correlation_E((rates[0], rates[1], rates[2], rates[3]))


def test_correlation_fringe_pattern():
    rho = make_psi_state(1.0, 0.0)
    for alpha, beta in ((0, 22.5), (0, 45), (30, 10), (45, 67.5)):
        e = _correlation_from_state(rho, alpha, beta)
        expected = -np.cos(np.deg2rad(2 * (alpha + beta)))
        assert e == pytest.approx(expected, abs=1e-10)
        assert abs(e) == pytest.approx(
            abs(np.sin(np.deg2rad(2 * (alpha + beta) + 90))), abs=1e-10)


def _canonical_chsh(rho):
    e = [
        _correlation_from_state(rho, 0.0, 22.5),
        _correlation_from_state(rho, 0.0, 67.5),
        _correlation_from_state(rho, 45.0, 22.5),
        _correlation_from_state(rho, 45.0, 67.5),
    ]
    return chsh_S(e)


def test_chsh_tsirelson_value():
    res = _canonical_chsh(make_psi_state(1.0, 0.0))
    assert res.S == pytest.approx(TSIRELSON, abs=1e-10)


def test_chsh_closed_form_in_coherence():
    # E(a,b) = -cos2a cos2b + C sin2a sin2b, so at the canonical settings
    # the H/V-basis terms keep |E| = 1/sqrt(2) while the D/A terms scale
    # with C: S = sqrt(2) * (1 + C).
    for c in (0.5, 0.83, 0.99, 1.0):
        res = _canonical_chsh(make_psi_state(c, 0.0))
        assert res.S == pytest.approx(np.sqrt(2) * (1 + c), abs=1e-10)


def test_chsh_paper_range_from_net_coherence():
    res = _canonical_chsh(make_psi_state(0.99, 0.0))
    assert res.S == pytest.approx(2.80, abs=0.02)
    assert res.S > 2.0


def test_chsh_raw_coherence_still_violates():
    res = _canonical_chsh(make_psi_state(0.83, 0.0))
    assert res.S == pytest.approx(2.588, abs=0.001)
    assert res.S > 2.0


def test_chsh_violation_iff_coherence_above_sqrt2_minus_one():
    c_crit = np.sqrt(2) - 1
    assert _canonical_chsh(make_psi_state(c_crit + 0.01, 0.0)).S > 2.0
    assert _canonical_chsh(make_psi_state(c_crit - 0.01, 0.0)).S < 2.0


def test_chsh_tsirelson_bound_for_random_states():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        res = _canonical_chsh(rho)
        assert abs(res.S) <= TSIRELSON + 1e-9


def test_chsh_error_propagation_fields():
    res = chsh_S([0.7, -0.7, 0.7, 0.7], std_error=0.03)
    assert isinstance(res, ChshResult)
    assert res.n_sigma_violation == pytest.approx((res.S - 2) / 0.03)
    with pytest.raises(ValueError):
        chsh_S([0.5, 0.5])

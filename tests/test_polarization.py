import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jones import apply_local, hwp_matrix, is_unitary, qwp_matrix, sb_matrix
from pairsource.polarization import (
    coincidence_prob,
    make_psi_state,
    polarizer_vector,
    validate_density_matrix,
)

H = np.array([1, 0], dtype=complex)
V = np.array([0, 1], dtype=complex)
D = (H + V) / np.sqrt(2)
A = (H - V) / np.sqrt(2)


def same_up_to_phase(u, v, tol=1e-12):
    return abs(abs(np.vdot(u, v)) - np.linalg.norm(u) * np.linalg.norm(v)) < tol


@given(st.floats(-360, 360, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_waveplates_unitary(theta):
    for m in (hwp_matrix(theta), qwp_matrix(theta), sb_matrix(np.deg2rad(theta))):
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


def test_hwp_examples():
    assert np.allclose(hwp_matrix(0), np.diag([1, -1]))
    assert np.allclose(hwp_matrix(22.5) @ H, D)
    assert same_up_to_phase(hwp_matrix(45) @ H, V)
    assert same_up_to_phase(hwp_matrix(45) @ V, H)


def test_qwp_examples():
    assert same_up_to_phase(qwp_matrix(0) @ H, H)
    # relative phase of 90 deg between H and V at theta=0
    out = qwp_matrix(0) @ D
    rel = (out[1] / out[0])
    assert np.isclose(rel, 1j)
    # compensator round trip: two passes at 45 deg swap H and V
    round_trip = qwp_matrix(45) @ qwp_matrix(45)
    assert same_up_to_phase(round_trip @ H, V)
    assert same_up_to_phase(round_trip @ D, D)


def test_sb_examples():
    assert np.allclose(sb_matrix(0.0), np.eye(2))
    assert same_up_to_phase(sb_matrix(np.pi) @ D, A)
    # relative phases compose additively
    composed = sb_matrix(0.7) @ sb_matrix(0.5)
    assert np.allclose(composed, np.diag([1.0, np.exp(1j * 1.2)]))


def test_make_psi_state_pure():
    rho = make_psi_state(1.0, 0.0)
    psi = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    assert np.allclose(rho, np.outer(psi, psi.conj()))
    assert np.allclose(rho @ rho, rho, atol=1e-12)


def test_make_psi_state_mixed():
    rho = make_psi_state(0.0, 1.234)
    assert np.allclose(rho, np.diag([0, 0.5, 0.5, 0]))


def test_make_psi_state_eigenvalues():
    rho = make_psi_state(0.85, 0.0)
    evals = sorted(np.linalg.eigvalsh(rho), reverse=True)
    assert np.allclose(evals, [0.925, 0.075, 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
def test_make_psi_state_rejects_bad_coherence(bad):
    with pytest.raises(ValueError):
        make_psi_state(bad, 0.0)


@given(st.floats(0, 1), st.floats(-np.pi, np.pi))
@settings(max_examples=50, deadline=None)
def test_make_psi_state_valid_density_matrix(c, phi):
    validate_density_matrix(make_psi_state(c, phi))


def test_apply_local_identity():
    rho = make_psi_state(0.7, 0.3)
    out = apply_local(rho, np.eye(2), np.eye(2))
    assert np.allclose(out, rho)


def test_apply_local_swap_symmetry():
    rho = make_psi_state(1.0, 0.0)
    out = apply_local(rho, hwp_matrix(45), hwp_matrix(45))
    assert np.allclose(out, rho, atol=1e-12)


def test_apply_local_sb_pi_gives_singlet_like_state():
    rho = apply_local(make_psi_state(1.0, 0.0), sb_matrix(np.pi), np.eye(2))
    psi_minus = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    assert np.allclose(rho, np.outer(psi_minus, psi_minus.conj()), atol=1e-12)


def test_apply_local_rejects_non_unitary():
    with pytest.raises(ValueError):
        apply_local(make_psi_state(1, 0), np.diag([1.0, 0.5]), np.eye(2))


def test_apply_local_preserves_trace_and_spectrum():
    rng = np.random.default_rng(7)
    rho = make_psi_state(0.6, 0.9)
    j_a, j_b = hwp_matrix(rng.uniform(0, 90)), qwp_matrix(rng.uniform(0, 90))
    out = apply_local(rho, j_a, j_b)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.allclose(sorted(np.linalg.eigvalsh(out)), sorted(np.linalg.eigvalsh(rho)),
                       atol=1e-10)


def test_coincidence_prob_examples():
    psi_plus = make_psi_state(1.0, 0.0)
    assert coincidence_prob(psi_plus, 0, 0) == pytest.approx(0.0, abs=1e-12)
    assert coincidence_prob(psi_plus, 45, 45) == pytest.approx(0.5, abs=1e-12)


def test_coincidence_closed_form_grid():
    angles = np.linspace(0, 180, 10)
    for c in (0.0, 0.5, 0.85, 1.0):
        for phi in (0.0, np.pi / 3, np.pi):
            rho = make_psi_state(c, phi)
            for a in angles:
                for b in angles:
                    ar, br = np.deg2rad(a), np.deg2rad(b)
                    expected = 0.25 * (1 - np.cos(2 * ar) * np.cos(2 * br)
                                       + c * np.cos(phi) * np.sin(2 * ar) * np.sin(2 * br))
                    assert coincidence_prob(rho, a, b) == pytest.approx(expected, abs=1e-10)


def test_coincidence_prob_array_matches_scalar_calls():
    rng = np.random.default_rng(3)
    rho = make_psi_state(0.85, 0.7)
    alphas = rng.uniform(-180, 360, size=(5, 1))
    betas = rng.uniform(-180, 360, size=7)
    grid = coincidence_prob(rho, alphas, betas)
    assert grid.shape == (5, 7)
    scalar = np.array([[coincidence_prob(rho, a, b) for b in betas] for a in alphas[:, 0]])
    assert np.array_equal(grid, scalar)


def test_coincidence_prob_matches_jones_oracle():
    angles = np.linspace(0, 180, 25)
    for c in (0.0, 0.6, 1.0):
        rho = make_psi_state(c, 0.9)
        grid = coincidence_prob(rho, angles[:, None], angles[None, :])
        oracle = np.array([[apply_local(rho, hwp_matrix(a / 2), hwp_matrix(b / 2))[0, 0].real
                            for b in angles] for a in angles])
        assert np.allclose(grid, oracle, rtol=0, atol=1e-12)


def _random_density_matrix(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def test_outcome_probabilities_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = _random_density_matrix(rng)
        a, b = rng.uniform(0, 180, size=2)
        total = sum(coincidence_prob(rho, a + da, b + db)
                    for da in (0, 90) for db in (0, 90))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_hv_fringe_visibility_is_one_for_any_coherence():
    betas = np.linspace(0, 180, 361)
    for c in (0.0, 0.3, 0.85, 1.0):
        rho = make_psi_state(c, 0.4)
        probs = np.array([coincidence_prob(rho, 0.0, b) for b in betas])
        vis = (probs.max() - probs.min()) / (probs.max() + probs.min())
        assert vis == pytest.approx(1.0, abs=1e-10)


@given(st.floats(-np.pi, np.pi))
@settings(max_examples=30, deadline=None)
def test_full_coherence_state_is_pure(phi):
    rho = make_psi_state(1.0, phi)
    assert np.allclose(rho @ rho, rho, atol=1e-10)


def test_polarizer_vector_normalized():
    for a in (0, 30, 45, 120):
        assert np.isclose(np.linalg.norm(polarizer_vector(a)), 1.0, atol=1e-12)


def test_is_unitary_detects_non_unitary():
    assert not is_unitary(np.diag([1.0, 0.9]))

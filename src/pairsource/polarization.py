"""Jones calculus for single photons and two-photon polarization states.

Conventions:
  - Single-photon basis (H, V); two-photon basis ordered (HH, HV, VH, VV).
  - Waveplate angles are given in degrees (fast axis from H).
  - A half-wave plate at angle theta maps H onto a linear polarization at
    2*theta, so the effective polarizer angle is alpha = 2*theta_HWP.
  - Global phases are irrelevant; all comparisons go through density
    matrices.
"""

from __future__ import annotations

import numpy as np

HERM_TOL = 1e-12
PSD_TOL = 1e-10
UNITARY_TOL = 1e-10


def _rot(theta_rad: float) -> np.ndarray:
    c, s = np.cos(theta_rad), np.sin(theta_rad)
    return np.array([[c, -s], [s, c]])


def hwp_matrix(theta_deg: float) -> np.ndarray:
    """Jones matrix of a half-wave plate with fast axis at theta_deg.

    Acting on H yields linear polarization at 2*theta_deg.
    """
    t = np.deg2rad(theta_deg)
    r = _rot(t)
    return (r @ np.diag([1.0, -1.0]).astype(complex) @ r.T)


def qwp_matrix(theta_deg: float) -> np.ndarray:
    """Jones matrix of a quarter-wave plate with fast axis at theta_deg.

    Two passes at 45 deg rotate H to V (the compensator round trip).
    """
    t = np.deg2rad(theta_deg)
    r = _rot(t)
    return r @ np.diag([1.0, 1.0j]) @ r.T


def sb_matrix(phi_rad: float) -> np.ndarray:
    """Soleil-Babinet compensator: pure relative H/V phase diag(1, e^{i phi})."""
    return np.diag([1.0, np.exp(1j * phi_rad)])


def polarizer_vector(alpha_deg: float) -> np.ndarray:
    """Jones vector of linear polarization at alpha_deg from H."""
    a = np.deg2rad(alpha_deg)
    return np.array([np.cos(a), np.sin(a)], dtype=complex)


def is_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    return bool(np.allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=tol))


def validate_density_matrix(rho: np.ndarray, psd_tol: float = PSD_TOL) -> None:
    """Raise ValueError unless rho is a valid 4x4 two-photon density matrix."""
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected 4x4 density matrix, got shape {rho.shape}")
    if not np.allclose(rho, rho.conj().T, atol=HERM_TOL):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError(f"trace is {np.trace(rho).real}, expected 1")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -psd_tol:
        raise ValueError(f"density matrix not positive semidefinite (min eig {evals.min():.3e})")


def make_psi_state(coherence: float, phi_rad: float) -> np.ndarray:
    """Density matrix of the partially coherent psi state.

    Diagonal (0, 1/2, 1/2, 0) in (HH, HV, VH, VV); the HV<->VH coherence is
    scaled by a single real scalar in [0, 1] modeling partial
    indistinguishability. coherence=1, phi=0 is the pure triplet state.
    """
    if not 0.0 <= coherence <= 1.0:
        raise ValueError(f"coherence must be in [0, 1], got {coherence}")
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = 0.5
    rho[1, 2] = 0.5 * coherence * np.exp(-1j * phi_rad)
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


def apply_local(rho: np.ndarray, j_a: np.ndarray, j_b: np.ndarray) -> np.ndarray:
    """Evolve rho through local elements: (j_a (x) j_b) rho (j_a (x) j_b)^dag."""
    for name, j in (("j_a", j_a), ("j_b", j_b)):
        if not is_unitary(np.asarray(j)):
            raise ValueError(f"{name} is not unitary")
    u = np.kron(j_a, j_b)
    return u @ rho @ u.conj().T


def coincidence_prob(rho: np.ndarray, alpha_deg: float, beta_deg: float) -> float:
    """Probability that Alice transmits a polarizer at alpha and Bob at beta.

    alpha/beta are effective polarizer angles (2x the HWP angles).
    """
    validate_density_matrix(rho)
    v = np.kron(polarizer_vector(alpha_deg), polarizer_vector(beta_deg))
    p = float(np.real(v.conj() @ rho @ v))
    # clip numerical noise at the boundaries
    return min(max(p, 0.0), 1.0)

"""Jones calculus for single photons: the tests' reference for the analyzer.

Waveplate angles are in degrees (fast axis from H). A half-wave plate at
theta maps H onto linear polarization at 2*theta, so evolving a two-photon
state through HWPs at alpha/2 and beta/2 and reading the HH population gives
the coincidence probability of polarizers at alpha and beta.
"""

import numpy as np

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


def is_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    return bool(np.allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=tol))


def apply_local(rho: np.ndarray, j_a: np.ndarray, j_b: np.ndarray) -> np.ndarray:
    """Evolve rho through local elements: (j_a (x) j_b) rho (j_a (x) j_b)^dag."""
    for name, j in (("j_a", j_a), ("j_b", j_b)):
        if not is_unitary(np.asarray(j)):
            raise ValueError(f"{name} is not unitary")
    u = np.kron(j_a, j_b)
    return u @ rho @ u.conj().T

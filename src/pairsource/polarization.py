"""Two-photon polarization states and their analyzer projection.

Conventions:
  - Single-photon basis (H, V); two-photon basis ordered (HH, HV, VH, VV).
  - Analyzer angles are effective polarizer angles in degrees from H; a
    half-wave plate at theta_HWP acts as a polarizer at alpha = 2*theta_HWP.
  - Global phases are irrelevant; all comparisons go through density
    matrices.
"""

from __future__ import annotations

import numpy as np

HERM_TOL = 1e-12
PSD_TOL = 1e-10


def polarizer_vector(alpha_deg) -> np.ndarray:
    """Jones vector of linear polarization at alpha_deg from H, stacked on the last axis."""
    a = np.deg2rad(alpha_deg)
    return np.stack([np.cos(a), np.sin(a)], axis=-1, dtype=complex)


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is a valid 4x4 two-photon density matrix."""
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected 4x4 density matrix, got shape {rho.shape}")
    if not np.allclose(rho, rho.conj().T, atol=HERM_TOL):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError(f"trace is {np.trace(rho).real}, expected 1")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -PSD_TOL:
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


def coincidence_prob(rho: np.ndarray, alpha_deg, beta_deg):
    """Probability that Alice transmits a polarizer at alpha and Bob at beta.

    alpha/beta are effective polarizer angles (2x the HWP angles), scalars or
    arrays that broadcast together; the result has their broadcast shape.
    """
    validate_density_matrix(rho)
    v = polarizer_vector(alpha_deg)[..., :, None] * polarizer_vector(beta_deg)[..., None, :]
    v = v.reshape(v.shape[:-2] + (4,))
    p = np.real(v.conj()[..., None, :] @ rho @ v[..., :, None])[..., 0, 0]
    # clip numerical noise at the boundaries
    return np.clip(p, 0.0, 1.0)

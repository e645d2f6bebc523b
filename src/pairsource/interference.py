"""Two-photon interference engines: HOM-type dip and Bell fringes + CHSH.

The dip versus compensator delay is driven by the temporal intensity
overlap of two Gaussian wavepackets; the Bell fringes come from the
two-photon density matrix of the polarization module. The coherence
scalar fed to the Bell state composes the spectral ceiling v0 (sideband
pollution) with the temporal overlap at the chosen compensator offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polarization import coincidence_prob, make_psi_state

TSIRELSON = 2.0 * np.sqrt(2.0)


@dataclass(frozen=True)
class Wavepacket:
    """Gaussian single-photon temporal envelope, parameterized by coherence time (ps)."""

    coherence_time_fwhm_ps: float

    def __post_init__(self):
        if self.coherence_time_fwhm_ps <= 0:
            raise ValueError("coherence time must be positive")


def mode_overlap(wp: Wavepacket, delay_ps):
    """Intensity overlap m(tau) = exp(-2 ln2 tau^2 / tau_coh^2), elementwise.

    Even in tau, m(0) = 1, and the FWHM of m is sqrt(2) * tau_coh.
    """
    tau_c = wp.coherence_time_fwhm_ps
    return np.exp(-2.0 * np.log(2.0) * (np.asarray(delay_ps) / tau_c) ** 2)


def hom_coincidence(alpha_deg, m, v0):
    """Coincidence probability between the two PBS outputs at one user, elementwise.

    Input state |H,V> analyzed at effective polarizer angle alpha, with
    intensity overlap m and intrinsic indistinguishability ceiling v0:
      P = (1 - v0*m)*(cos^4 a + sin^4 a) + v0*m*cos^2 2a
    """
    for name, x in (("m", m), ("v0", v0)):
        if not np.all((np.asarray(x) >= 0.0) & (np.asarray(x) <= 1.0)):
            raise ValueError(f"{name} must be in [0, 1], got {x}")
    a = np.deg2rad(alpha_deg)
    p_dist = np.cos(a) ** 4 + np.sin(a) ** 4
    p_indist = np.cos(2.0 * a) ** 2
    vm = v0 * m
    return (1.0 - vm) * p_dist + vm * p_indist


@dataclass(frozen=True)
class CoincidenceScan:
    coincidence_probability: np.ndarray


def hom_scan(wp: Wavepacket, delays_ps, v0: float) -> CoincidenceScan:
    """Dip at alpha = 45 deg: P(tau) = (1 - v0*m(tau)) / 2."""
    delays = np.asarray(delays_ps, dtype=float)
    if delays.size == 0:
        raise ValueError("delays must be non-empty")
    return CoincidenceScan(hom_coincidence(45.0, mode_overlap(wp, delays), v0))


def bell_scan(state_coherence: float, phi_rad: float, alice_hwp_deg: float,
              bob_hwp_values_deg) -> CoincidenceScan:
    """Coincidence probability versus Bob's HWP angle at fixed Alice setting."""
    rho = make_psi_state(state_coherence, phi_rad)
    bob = np.asarray(bob_hwp_values_deg, dtype=float)
    return CoincidenceScan(coincidence_prob(rho, 2.0 * alice_hwp_deg, 2.0 * bob))


def fringe_visibility(probs) -> float:
    probs = np.asarray(probs, dtype=float)
    hi, lo = probs.max(), probs.min()
    if hi + lo == 0:
        return 0.0
    return float((hi - lo) / (hi + lo))


def sb_balance(phi_a: float, phi_b: float) -> float:
    """Compensator phase in [0, pi) making phi_a + phi_b + phi_SB a multiple of pi.

    The experiment turns the SB until the {D,A} fringe visibility peaks. For
    the psi state that visibility is coherence * |cos(phi_total)|, so the
    peak is reached in closed form; phi and phi + pi are equally good and
    the branch in [0, pi) is returned.
    """
    return float(-(phi_a + phi_b) % np.pi)


def correlation_E(rates) -> float:
    """CHSH correlation from four coincidence rates at (ab, ab_perp, a_perp b,
    a_perp b_perp)."""
    r_ab, r_ab_perp, r_aperp_b, r_aperp_bperp = (float(r) for r in rates)
    for r in (r_ab, r_ab_perp, r_aperp_b, r_aperp_bperp):
        if r < 0:
            raise ValueError("rates must be non-negative")
    total = r_ab + r_ab_perp + r_aperp_b + r_aperp_bperp
    if total <= 0:
        raise ValueError("all-zero rates: correlation undefined")
    return (r_ab + r_aperp_bperp - r_ab_perp - r_aperp_b) / total


@dataclass(frozen=True)
class ChshResult:
    S: float
    std_error: float
    n_sigma_violation: float


# canonical settings for the triplet-type state, as effective polarizer angles
CANONICAL_SETTINGS_DEG = {"a": 0.0, "a_prime": 45.0, "b": 22.5, "b_prime": 67.5}


def chsh_S(e_values, std_error: float = 0.0) -> ChshResult:
    """S = |E(a,b) - E(a,b')| + |E(a',b) + E(a',b')| from four correlations
    ordered (E_ab, E_ab', E_a'b, E_a'b')."""
    e = [float(x) for x in e_values]
    if len(e) != 4:
        raise ValueError(f"expected 4 correlations, got {len(e)}")
    s = abs(e[0] - e[1]) + abs(e[2] + e[3])
    n_sigma = (s - 2.0) / std_error if std_error > 0 else float("inf") if s > 2 else 0.0
    return ChshResult(S=s, std_error=std_error, n_sigma_violation=n_sigma)

"""Least-squares extraction of visibilities, dip widths and fringe phases.

Counting data gets Poisson weights (sigma^2 = max(count, 1)); parameter
uncertainties are asymptotic standard errors from the covariance at the
optimum. The backend is damped least squares (scipy) with numerically
evaluated Jacobians; the visibility is bounded to [0, 1].

Models:
  dip:    R(tau)  = R0 * [1 - V * exp(-4 ln2 (tau - tau0)^2 / w^2)]
  fringe: R(theta) = (R0/2) * [1 - V * cos(4 (theta - theta0))]
with theta in HWP degrees (period 90 deg, fixed by the alpha = 2*theta
convention, not fitted).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import least_squares

from .interference import CANONICAL_SETTINGS_DEG, ChshResult, chsh_S, correlation_E

FOUR_LN2 = 4.0 * np.log(2.0)


class FitError(RuntimeError):
    pass


@dataclass(frozen=True)
class ScanData:
    """One measured scan: x (ps or degrees), counts per point, s per point."""

    x: tuple[float, ...]
    counts: tuple[float, ...]
    integration_time_s: float
    net: bool = False
    variance: tuple[float, ...] | None = None  # raw-count variance for net data

    def __post_init__(self):
        if len(self.x) != len(self.counts):
            raise ValueError("x and counts must have equal length")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")
        if self.integration_time_s <= 0:
            raise ValueError("integration time must be positive")

    def sigma(self) -> np.ndarray:
        if self.variance is not None:
            return np.sqrt(np.maximum(self.variance, 1.0))
        return np.sqrt(np.maximum(self.counts, 1.0))


@dataclass(frozen=True)
class FitResult:
    params: dict[str, float]
    std_errors: dict[str, float]
    reduced_chi2: float
    covariance: np.ndarray


def dip_model(tau, r0, v, tau0, w):
    return r0 * (1.0 - v * np.exp(-FOUR_LN2 * (np.asarray(tau) - tau0) ** 2 / w**2))


def fringe_model(theta, r0, v, theta0):
    return 0.5 * r0 * (1.0 - v * np.cos(np.deg2rad(4.0 * (np.asarray(theta) - theta0))))


def _run_fit(data: ScanData, model, names, p0, lower, upper) -> FitResult:
    x = np.asarray(data.x, dtype=float)
    y = np.asarray(data.counts, dtype=float)
    sig = data.sigma()

    def resid(p):
        return (model(x, *p) - y) / sig

    # no gradient test: it is absolute, so it would stop a fit of tiny counts at p0
    res = least_squares(resid, p0, bounds=(lower, upper),
                        xtol=1e-15, ftol=1e-15, gtol=None, max_nfev=2000)
    if not res.success:
        raise FitError(f"fit did not converge: {res.message} (residual {np.sum(res.fun**2):.3g})")
    dof = max(len(y) - len(p0), 1)
    chi2 = float(np.sum(res.fun**2))
    jtj = res.jac.T @ res.jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    errs = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return FitResult(
        params=dict(zip(names, (float(v) for v in res.x))),
        std_errors=dict(zip(names, (float(e) for e in errs))),
        reduced_chi2=chi2 / dof,
        covariance=cov,
    )


def fit_dip(data: ScanData) -> FitResult:
    """Fit the HOM dip model; params R0, V, tau0, w (w = dip FWHM in ps)."""
    if len(data.x) < 6:
        raise ValueError("need at least 6 points spanning the dip")
    x = np.asarray(data.x, dtype=float)
    y = np.asarray(data.counts, dtype=float)
    ymax, ymin = y.max(), y.min()
    if ymax <= 0 or (ymax - ymin) / max(ymax, 1.0) < 1e-9:
        raise FitError("no dip detected (counts are constant)")
    v0 = (ymax - ymin) / ymax
    tau0 = float(x[np.argmin(y)])
    half = ymax * (1.0 - v0 / 2.0)
    below = x[y < half]
    w0 = float(below.max() - below.min()) if below.size >= 2 else (x.max() - x.min()) / 4.0
    w0 = max(w0, 1e-3)
    p0 = [ymax, min(v0, 1.0), tau0, w0]
    result = _run_fit(data, dip_model, ("R0", "V", "tau0", "w"), p0,
                      lower=[0.0, 0.0, -np.inf, 1e-9], upper=[np.inf, 1.0, np.inf, np.inf])
    # for the dip model the contrast parameter already is (Rmax-Rmin)/Rmax
    result.params["visibility"] = result.params["V"]
    result.std_errors["visibility"] = result.std_errors["V"]
    return result


def fit_fringe(data: ScanData) -> FitResult:
    """Fit the Bell fringe model; params R0, V, theta0 (HWP degrees)."""
    if len(data.x) < 6:
        raise ValueError("need at least 6 points over at least half a fringe period")
    x = np.asarray(data.x, dtype=float)
    y = np.asarray(data.counts, dtype=float)
    ymax, ymin = y.max(), y.min()
    if ymax <= 0 or (ymax - ymin) / max(ymax, 1.0) < 1e-9:
        raise FitError("no fringe detected (counts are constant)")
    v0 = (ymax - ymin) / ymax
    theta0 = float(x[np.argmin(y)]) % 90.0
    p0 = [ymax + ymin, min(v0, 1.0), theta0]
    result = _run_fit(data, fringe_model, ("R0", "V", "theta0"), p0,
                      lower=[0.0, 0.0, -90.0], upper=[np.inf, 1.0, 180.0])
    # contrast in the (Rmax-Rmin)/Rmax convention used for the rate budgets
    v = result.params["V"]
    result.params["visibility"] = 2.0 * v / (1.0 + v)
    result.std_errors["visibility"] = 2.0 / (1.0 + v) ** 2 * result.std_errors["V"]
    return result


def net_correct(data: ScanData, accidental_rate: float) -> ScanData:
    """Subtract the expected accidental counts per point, flooring at zero."""
    if accidental_rate < 0:
        raise ValueError("accidental rate must be non-negative")
    acc = accidental_rate * data.integration_time_s
    corrected = tuple(max(c - acc, 0.0) for c in data.counts)
    variance = tuple(max(c, 1.0) for c in data.counts)
    return replace(data, counts=corrected, net=True, variance=variance)


# Alice HWP angles (deg) of the four fringes that the CHSH settings need
ALICE_HWP_DEG = (0.0, 22.5, 45.0, 67.5)


def _chsh_from_params(p: np.ndarray) -> float:
    """S from the stacked parameters of the four fringe fits.

    Fringe order: Alice HWP 0, 22.5, 45, 67.5 deg; 3 params each. The
    settings are effective polarizer angles; each HWP sits at half of one.
    """
    fringe_by_alice = {hwp: p[3 * i: 3 * i + 3] for i, hwp in enumerate(ALICE_HWP_DEG)}

    def corr(alpha, beta):
        fa = fringe_by_alice[alpha / 2.0]
        fp = fringe_by_alice[(alpha + 90.0) / 2.0]
        b, b_perp = beta / 2.0, (beta + 90.0) / 2.0
        return correlation_E([fringe_model(b, *fa), fringe_model(b_perp, *fa),
                              fringe_model(b, *fp), fringe_model(b_perp, *fp)])

    s = CANONICAL_SETTINGS_DEG
    return chsh_S([corr(s["a"], s["b"]), corr(s["a"], s["b_prime"]),
                   corr(s["a_prime"], s["b"]), corr(s["a_prime"], s["b_prime"])]).S


def chsh_from_fits(fits: dict[float, FitResult]) -> ChshResult:
    """CHSH S from four fringe fits keyed by Alice's HWP angle (deg).

    Evaluates the fitted fringe models at the canonical settings, forms the
    correlations, and propagates the fit covariances to the S error.
    """
    missing = [a for a in ALICE_HWP_DEG if a not in fits]
    if missing:
        raise ValueError(f"missing fringe fits for Alice HWP angles {missing}")
    p = np.concatenate([
        [fits[a].params["R0"], fits[a].params["V"], fits[a].params["theta0"]]
        for a in ALICE_HWP_DEG
    ])
    s = _chsh_from_params(p)

    # block-diagonal covariance over the four independent fits
    cov = np.zeros((12, 12))
    for i, a in enumerate(ALICE_HWP_DEG):
        cov[3 * i: 3 * i + 3, 3 * i: 3 * i + 3] = fits[a].covariance
    grad = np.zeros(12)
    for i in range(12):
        # R0 (every third parameter) steps relative to itself: an absolute
        # floor would drive a tiny fitted rate negative
        h = 1e-6 * p[i] if i % 3 == 0 else max(1e-6, 1e-6 * abs(p[i]))
        pp, pm = p.copy(), p.copy()
        pp[i] += h
        pm[i] -= h
        grad[i] = (_chsh_from_params(pp) - _chsh_from_params(pm)) / (2 * h)
    var = float(grad @ cov @ grad)
    std = np.sqrt(max(var, 0.0))
    n_sigma = (s - 2.0) / std if std > 0 else float("inf")
    return ChshResult(S=float(s), std_error=float(std), n_sigma_violation=float(n_sigma))

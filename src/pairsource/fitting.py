"""Least-squares extraction of visibilities, dip widths and fringe phases.

Counting data gets Poisson weights (sigma^2 = max(count, 1)); parameter
uncertainties are asymptotic standard errors from the covariance inv(J^T J)
at the optimum. The backend is a bounded Levenberg-Marquardt in numpy
(More, Lecture Notes in Mathematics 630, 105 (1978)) with analytic
Jacobians; the visibility is bounded to [0, 1].

Models:
  dip:    R(tau)  = R0 * [1 - V * exp(-4 ln2 (tau - tau0)^2 / w^2)]
  fringe: R(theta) = (R0/2) * [1 - V * cos(4 (theta - theta0))]
with theta in HWP degrees (period 90 deg, fixed by the alpha = 2*theta
convention, not fitted).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .interference import CANONICAL_SETTINGS_DEG, ChshResult, chsh_S, correlation_E

FOUR_LN2 = 4.0 * np.log(2.0)
FIT_XTOL = 1e-12  # a step this small, relative to the parameters, ends a fit
FIT_MAX_ITER = 500


class FitError(RuntimeError):
    pass


@dataclass(frozen=True)
class ScanData:
    """One measured scan: x (ps or degrees), counts per point, s per point.
    Sequences given for x, counts and variance are kept as float arrays."""

    x: np.ndarray
    counts: np.ndarray
    integration_time_s: float
    variance: np.ndarray | None = None  # raw-count variance for net data

    def __post_init__(self):
        for name in ("x", "counts", "variance"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if len(self.x) != len(self.counts):
            raise ValueError("x and counts must have equal length")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("x must be finite")
        if not np.all((self.counts >= 0) & (self.counts < np.inf)):
            raise ValueError("counts must be finite and non-negative")
        if not 0 < self.integration_time_s < np.inf:
            raise ValueError("integration_time_s must be positive and finite")

    def sigma(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.counts if self.variance is None else self.variance, 1.0))


@dataclass(frozen=True)
class FitResult:
    params: dict[str, float]
    std_errors: dict[str, float]
    reduced_chi2: float
    covariance: np.ndarray


def dip_model(tau, r0, v, tau0, w):
    return r0 * (1.0 - v * np.exp(-FOUR_LN2 * (np.asarray(tau) - tau0) ** 2 / w**2))


def _dip_jac(tau, r0, v, tau0, w):
    d = np.asarray(tau) - tau0
    e = np.exp(-FOUR_LN2 * d**2 / w**2)
    d_tau0 = -2.0 * FOUR_LN2 * r0 * v * e * d / w**2
    return np.column_stack([1.0 - v * e, -r0 * e, d_tau0, d_tau0 * d / w])


def fringe_model(theta, r0, v, theta0):
    return 0.5 * r0 * (1.0 - v * np.cos(np.deg2rad(4.0 * (np.asarray(theta) - theta0))))


def _fringe_jac(theta, r0, v, theta0):
    phase = np.deg2rad(4.0 * (np.asarray(theta) - theta0))
    return np.column_stack([0.5 * (1.0 - v * np.cos(phase)), -0.5 * r0 * np.cos(phase),
                            -0.5 * r0 * v * np.sin(phase) * np.deg2rad(4.0)])


def _run_fit(data: ScanData, model, jac, names, p0, lower, upper) -> FitResult:
    """Levenberg-Marquardt on the box [lower, upper], damped by lam * diag(J^T J).
    A parameter on a bound whose gradient points outward is held, each trial is
    clipped to the box, and a step (taken or refused) below FIT_XTOL ends it."""
    x, y, sig = data.x, data.counts, data.sigma()
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    p = np.clip(np.asarray(p0, dtype=float), lower, upper)
    r, lam = (model(x, *p) - y) / sig, 1e-3
    for _ in range(FIT_MAX_ITER):
        j = jac(x, *p) / sig[:, None]
        a, g = j.T @ j, j.T @ r
        d = np.maximum(np.diag(a), np.finfo(float).tiny)
        free = ~(((p <= lower) & (g > 0)) | ((p >= upper) & (g < 0)))
        step = np.zeros_like(p)
        step[free] = np.linalg.solve(a[np.ix_(free, free)] + lam * np.diag(d[free]), -g[free])
        trial = np.clip(p + step, lower, upper)
        small = d @ (trial - p) ** 2 <= FIT_XTOL**2 * (d @ p**2)  # in the diag(J^T J) norm
        r_trial = (model(x, *trial) - y) / sig
        if r_trial @ r_trial < r @ r:
            p, r, lam = trial, r_trial, lam / 10.0
        else:
            lam *= 10.0
        if small:
            break
    else:
        raise FitError(f"fit did not converge in {FIT_MAX_ITER} iterations "
                       f"(residual {r @ r:.3g})")
    try:  # a, from the last pass, is J^T J at p to within a step of FIT_XTOL
        cov = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(a)
    errs = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return FitResult(
        params=dict(zip(names, (float(v) for v in p))),
        std_errors=dict(zip(names, (float(e) for e in errs))),
        reduced_chi2=float(r @ r) / max(len(y) - len(p0), 1),
        covariance=cov,
    )


def _extremes(data: ScanData, too_few: str, constant: str) -> tuple[float, float, float]:
    """Max and min of the counts and the contrast guess (max - min) / max, once
    the scan has at least 6 points and counts that are not constant."""
    if len(data.x) < 6:
        raise ValueError(too_few)
    ymax, ymin = data.counts.max(), data.counts.min()
    if ymax <= 0 or (ymax - ymin) / max(ymax, 1.0) < 1e-9:
        raise FitError(constant)
    return ymax, ymin, (ymax - ymin) / ymax


def fit_dip(data: ScanData) -> FitResult:
    """Fit the HOM dip model; params R0, V, tau0, w (w = dip FWHM in ps)."""
    ymax, _, v0 = _extremes(data, "need at least 6 points spanning the dip",
                            "no dip detected (counts are constant)")
    x, y = data.x, data.counts
    tau0 = float(x[np.argmin(y)])
    half = ymax * (1.0 - v0 / 2.0)
    below = x[y < half]
    w0 = float(below.max() - below.min()) if below.size >= 2 else (x.max() - x.min()) / 4.0
    w0 = max(w0, 1e-3)
    p0 = [ymax, min(v0, 1.0), tau0, w0]
    result = _run_fit(data, dip_model, _dip_jac, ("R0", "V", "tau0", "w"), p0,
                      lower=[0.0, 0.0, -np.inf, 1e-9], upper=[np.inf, 1.0, np.inf, np.inf])
    # for the dip model the contrast parameter already is (Rmax-Rmin)/Rmax
    result.params["visibility"] = result.params["V"]
    result.std_errors["visibility"] = result.std_errors["V"]
    return result


def fit_fringe(data: ScanData) -> FitResult:
    """Fit the Bell fringe model; params R0, V, theta0 (HWP degrees)."""
    ymax, ymin, v0 = _extremes(data, "need at least 6 points over at least half a fringe period",
                               "no fringe detected (counts are constant)")
    theta0 = float(data.x[np.argmin(data.counts)]) % 90.0
    p0 = [ymax + ymin, min(v0, 1.0), theta0]
    result = _run_fit(data, fringe_model, _fringe_jac, ("R0", "V", "theta0"), p0,
                      lower=[0.0, 0.0, -90.0], upper=[np.inf, 1.0, 180.0])
    # contrast in the (Rmax-Rmin)/Rmax convention used for the rate budgets
    v = result.params["V"]
    result.params["visibility"] = 2.0 * v / (1.0 + v)
    result.std_errors["visibility"] = 2.0 / (1.0 + v) ** 2 * result.std_errors["V"]
    return result


def net_correct(data: ScanData, accidental_rate: float) -> ScanData:
    """Subtract the expected accidental counts per point, flooring at zero."""
    if not 0 <= accidental_rate < np.inf:
        raise ValueError("accidental_rate must be finite and non-negative")
    acc = accidental_rate * data.integration_time_s
    return replace(data, counts=np.maximum(data.counts - acc, 0.0), variance=data.counts)


# Alice HWP angles (deg) of the four fringes that the CHSH settings need
ALICE_HWP_DEG = (0.0, 22.5, 45.0, 67.5)


def chsh_from_fits(fits: dict[float, FitResult]) -> ChshResult:
    """CHSH S from four fringe fits keyed by Alice's HWP angle (deg).

    Evaluates the fitted fringe models at the canonical settings (effective
    polarizer angles; each HWP sits at half of one) and forms the correlations.
    The fit covariances reach the S error by the chain rule: each E comes from
    four rates r, dE/dr = (+-1 - E) / sum(r), and dr/dp is the fringe Jacobian.
    """
    missing = [a for a in ALICE_HWP_DEG if a not in fits]
    if missing:
        raise ValueError(f"missing fringe fits for Alice HWP angles {missing}")
    p = {a: [fits[a].params[k] for k in ("R0", "V", "theta0")] for a in ALICE_HWP_DEG}
    s = CANONICAL_SETTINGS_DEG
    e, de_dp = [], []  # per correlation: E and {Alice angle: dE/d(R0, V, theta0)}
    for alpha, beta in ((s["a"], s["b"]), (s["a"], s["b_prime"]),
                        (s["a_prime"], s["b"]), (s["a_prime"], s["b_prime"])):
        bob = np.array([beta, beta + 90.0]) / 2.0
        alice = (alpha / 2.0, (alpha + 90.0) / 2.0)
        rates = np.concatenate([fringe_model(bob, *p[a]) for a in alice])
        e.append(correlation_E(rates))
        de_dr = (np.array([1.0, -1.0, -1.0, 1.0]) - e[-1]) / rates.sum()
        de_dp.append({a: de_dr[2 * k: 2 * k + 2] @ _fringe_jac(bob, *p[a])
                      for k, a in enumerate(alice)})
    # S = |E_ab - E_ab'| + |E_a'b + E_a'b'|; the four fits are independent
    ds_de = np.sign([e[0] - e[1], e[1] - e[0], e[2] + e[3], e[2] + e[3]])
    var = 0.0
    for a in ALICE_HWP_DEG:
        grad = sum(w * d[a] for w, d in zip(ds_de, de_dp) if a in d)
        var += grad @ fits[a].covariance @ grad
    return chsh_S(e, std_error=float(np.sqrt(max(var, 0.0))))

"""Detection-chain statistics: singles/coincidence/accidental budgets.

Continuous time is binned into non-overlapping coincidence windows. One
per-window outcome pmf, `_window_pmf`, holds the whole model: the analytic
rates sum it and the Monte Carlo samples it, so the two agree to Poisson
statistics. The per-window model:

  - a pair is emitted with probability min(mu, 1) per window (or a
    Poisson number of pairs when double-pair emission is enabled);
  - the 50/50 splitter sends the pair to both users (prob 1/2), both to
    Alice (1/4) or both to Bob (1/4);
  - each photon is detected with its arm transmission times efficiency;
    for split pairs the Bob photon additionally passes the analyzers
    with the supplied interference probability (failed interference is
    modeled as absorption on Bob's side);
  - the trigger detector (Alice) is free running; Bob's detector is
    gated by Alice's click, so a Bob click implies a coincidence;
  - dark counts are Bernoulli per window (free running) or per gate.

A window's outcome is its code click_a + 2*click_b + 4*true (a true
coincidence implies both clicks). Windows are iid and only tallies leave a
chunk, so each chunk's tally is one multinomial draw of its windows over
the 8 codes. RNG is counter-based (numpy Philox), keyed per fixed-size
window chunk, so tallies are independent of how chunks are partitioned
across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import exp, factorial

import numpy as np

from .spdc import C_LIGHT

CHUNK = 1 << 14
MAX_PAIRS = 6  # Poisson truncation when double-pair emission is enabled


@dataclass(frozen=True)
class DetectorParams:
    efficiency: float
    dark_prob_per_ns: float
    mode: str = "free_running"  # or "gated"
    gate_width_ns: float = 1.5

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must be in [0, 1]")
        if self.dark_prob_per_ns < 0:
            raise ValueError("dark count probability must be non-negative")
        if self.mode not in ("free_running", "gated"):
            raise ValueError(f"unknown detector mode {self.mode!r}")


@dataclass(frozen=True)
class SourceBudget:
    brightness_pairs_per_s_ghz_mw: float
    pump_power_mw: float
    filter_bandwidth_ghz: float
    window_ns: float
    channel_loss_db: float = 0.0
    loss_split: float = 0.5  # fraction of the dB budget on Alice's arm
    bs_separation_prob: float = 0.5

    def __post_init__(self):
        for name in ("brightness_pairs_per_s_ghz_mw", "pump_power_mw",
                     "filter_bandwidth_ghz", "channel_loss_db"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.window_ns <= 0:
            raise ValueError("window_ns must be positive")
        for name in ("loss_split", "bs_separation_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    @property
    def pair_rate_per_s(self) -> float:
        return (self.brightness_pairs_per_s_ghz_mw * self.pump_power_mw
                * self.filter_bandwidth_ghz)

    @property
    def transmission_a(self) -> float:
        return 10.0 ** (-self.channel_loss_db * self.loss_split / 10.0)

    @property
    def transmission_b(self) -> float:
        return 10.0 ** (-self.channel_loss_db * (1.0 - self.loss_split) / 10.0)


@dataclass(frozen=True)
class CountRates:
    singles_a: float
    singles_b: float
    coincidences: float
    accidentals: float
    breakdown: dict = field(default_factory=dict)


@dataclass(frozen=True)
class McRun:
    seed: int
    n_windows: int
    tallies: dict[str, int]  # no_click / a_only / b_only / coincidence
    details: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if sum(self.tallies.values()) != self.n_windows:
            raise ValueError("window tallies must sum to n_windows")


def bandwidth_ghz(delta_lambda_nm: float, lam_nm: float) -> float:
    """Spectral bandwidth in GHz: dnu = c * dlam / lam^2."""
    return C_LIGHT * delta_lambda_nm * 1e-9 / (lam_nm * 1e-9) ** 2 / 1e9


def mean_pairs_per_window(budget: SourceBudget) -> float:
    """mu: pairs created at the source per coincidence window, before losses."""
    return budget.pair_rate_per_s * budget.window_ns * 1e-9


def _dark_prob(det: DetectorParams, window_ns: float) -> float:
    width = det.gate_width_ns if det.mode == "gated" else window_ns
    return min(det.dark_prob_per_ns * width, 1.0)


def _or_convolve(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """pmf over the 8 codes of x | y, for independent codes x ~ p and y ~ q."""
    codes = np.bitwise_or.outer(np.arange(p.size), np.arange(q.size))
    return np.bincount(codes.ravel(), np.outer(p, q).ravel(), minlength=8)


def _window_pmf(budget: SourceBudget, det_a: DetectorParams, det_b: DetectorParams,
                interference_prob: float,
                allow_double_pairs: bool) -> tuple[np.ndarray, np.ndarray]:
    """P(code) of one window over the 8 codes click_a + 2*click_b + 4*true, and
    the pmf of the photon clicks alone (no dark clicks, no gate).

    The pairs of a window act independently, so their codes OR together: the
    k-pair pmf is one pair's pmf OR-convolved k times, mixed over the pair
    number. Dark clicks then OR into the clicks, never into true.
    """
    if not 0.0 <= interference_prob <= 1.0:
        raise ValueError("interference_prob must be in [0, 1]")
    mu = mean_pairs_per_window(budget)
    q_a = budget.transmission_a * det_a.efficiency
    q_b = budget.transmission_b * det_b.efficiency
    q_b_int = q_b * interference_prob
    sep, bunched = budget.bs_separation_prob, (1.0 - budget.bs_separation_prob) / 2.0
    # one pair, split (photon 1 -> Alice, photon 2 -> Bob through the analyzers),
    # both photons to Alice or both to Bob
    one = np.zeros(8)
    one[[0, 1, 2, 7]] = sep * np.outer([1.0 - q_b_int, q_b_int], [1.0 - q_a, q_a]).ravel()
    one[:3] += bunched * np.array([(1.0 - q_a) ** 2 + (1.0 - q_b) ** 2,
                                   2 * q_a - q_a**2, 2 * q_b - q_b**2])
    pairs = (np.array([exp(-mu) * mu**k / factorial(k) for k in range(MAX_PAIRS + 1)])
             if allow_double_pairs else np.array([1.0 - min(mu, 1.0), min(mu, 1.0)]))
    pairs[-1] += max(0.0, 1.0 - pairs.sum())  # truncated Poisson: the tail joins MAX_PAIRS
    k_pairs = [np.eye(8)[0]]
    for _ in pairs[1:]:
        k_pairs.append(_or_convolve(k_pairs[-1], one))
    photons = pairs @ np.array(k_pairs)
    d_a, d_b = _dark_prob(det_a, budget.window_ns), _dark_prob(det_b, budget.window_ns)
    window = _or_convolve(photons, np.outer([1.0 - d_b, d_b], [1.0 - d_a, d_a]).ravel())
    if det_b.mode == "gated":  # gated Bob needs Alice's click
        window[0] += window[2]
        window[2] = 0.0
    return window, photons


def expected_rates(
    budget: SourceBudget,
    det_a: DetectorParams,
    det_b: DetectorParams,
    interference_prob: float = 1.0,
) -> CountRates:
    """Analytic singles/coincidence/accidental rates (counts/s): sums of the
    single-pair window pmf of `_window_pmf`."""
    pmf, photons = _window_pmf(budget, det_a, det_b, interference_prob, False)
    window_s = budget.window_ns * 1e-9
    # Alice clicks in odd codes, Bob in 2, 3, 6, 7; 3 is an accidental, 7 a true coincidence
    singles_a, singles_b, coincidences, accidentals, true, photon_singles_a = (
        float(p) / window_s for p in (pmf[1::2].sum(), pmf[[2, 3, 6, 7]].sum(),
                                      pmf[3] + pmf[7], pmf[3], pmf[7], photons[1::2].sum()))
    breakdown = {
        "mu": mean_pairs_per_window(budget),
        "pair_rate_per_s": budget.pair_rate_per_s,
        "transmission_a": budget.transmission_a,
        "transmission_b": budget.transmission_b,
        "q_a": budget.transmission_a * det_a.efficiency,
        "q_b": budget.transmission_b * det_b.efficiency,
        "dark_prob_a_per_window": _dark_prob(det_a, budget.window_ns),
        "dark_prob_b_per_gate": _dark_prob(det_b, budget.window_ns),
        "singles_a_photons": photon_singles_a,
        "singles_a_dark": singles_a - photon_singles_a,
        "true_coincidences": true,
        "accidental_fraction": accidentals / coincidences if coincidences > 0 else 0.0,
    }
    return CountRates(singles_a, singles_b, coincidences, accidentals, breakdown)


def calibrate_losses(
    budget: SourceBudget,
    det_a: DetectorParams,
    det_b: DetectorParams,
    target_singles_a: float,
    target_coincidences: float,
) -> dict[str, float]:
    """Fit per-arm losses reproducing the measured singles and coincidences.

    The measured budget (total loss, singles, coincidences) is
    over-determined and not exactly consistent with a naive loss chain, so
    the fitted per-arm decomposition is reported as a calibration result,
    not as a derived prediction.

    Closed form in the single-pair model of `expected_rates`: Alice's singles
    are quadratic in q_a, then the coincidences are quadratic in q_b. Each
    loss must lie in [0, 60] dB.
    """
    p_pair = min(mean_pairs_per_window(budget), 1.0)
    d_a = _dark_prob(det_a, budget.window_ns)
    d_b = _dark_prob(det_b, budget.window_ns)
    sep, bunched = budget.bs_separation_prob, (1.0 - budget.bs_separation_prob) / 2.0
    p_click_a = target_singles_a * budget.window_ns * 1e-9
    # singles: P(click a) - d_a = (1 - d_a) * p * (q_a - bunched * q_a^2)
    lin_a = (1.0 - d_a) * p_pair
    loss_a_db = _arm_loss_db(lin_a, lin_a * bunched, p_click_a - d_a, det_a.efficiency,
                             "rates.target_singles_a_cps", "detector.a.efficiency")
    q_a = det_a.efficiency * 10.0 ** (-loss_a_db / 10.0)
    # coincidences: P - d_b * P(click a) = alpha * q_b + beta * (2 q_b - q_b^2), from split
    # pairs (alpha) and from both photons at Bob with a dark click at Alice (beta)
    alpha = (1.0 - d_b) * p_pair * sep * (d_a + (1.0 - d_a) * q_a)
    beta = (1.0 - d_b) * p_pair * bunched * d_a
    p_coinc = target_coincidences * budget.window_ns * 1e-9
    loss_b_db = _arm_loss_db(alpha + 2.0 * beta, beta, p_coinc - d_b * p_click_a,
                             det_b.efficiency, "rates.target_coincidences_cps",
                             "detector.b.efficiency")
    return {
        "loss_a_db": float(loss_a_db),
        "loss_b_db": float(loss_b_db),
        "implied_total_db": float(loss_a_db + loss_b_db),
        "declared_total_db": budget.channel_loss_db,
    }


def _arm_loss_db(lin: float, quad: float, y: float, efficiency: float,
                 target_key: str, efficiency_key: str) -> float:
    """Arm loss in [0, 60] dB whose detection probability q = efficiency *
    10^(-loss/10) solves lin*q - quad*q^2 = y, a side rising on [0, 1]."""
    ok = lin > 0 and efficiency > 0 and 0.0 < y <= lin - quad
    loss_db = -10.0 * np.log10(2.0 * y / (lin + np.sqrt(lin**2 - 4.0 * quad * y))
                               / efficiency) if ok else np.nan
    if not 0.0 <= loss_db <= 60.0:
        raise ValueError(f"calibration target {target_key} is unreachable with "
                         f"{efficiency_key} = {efficiency:g}: the arm loss would fall "
                         "outside [0, 60] dB")
    return loss_db


def _with_arm_losses(budget: SourceBudget, loss_a_db: float, loss_b_db: float) -> SourceBudget:
    total = loss_a_db + loss_b_db
    return replace(budget, channel_loss_db=total,
                   loss_split=loss_a_db / total if total > 0 else 0.5)


def _chunk_counts(seed: int, chunk_index: int, n: int, pmf: np.ndarray) -> np.ndarray:
    """Counts of one chunk of n windows over the 8 window codes: one multinomial
    draw from the chunk's Philox stream, keyed [seed, chunk_index]."""
    return np.random.Generator(np.random.Philox(key=[seed, chunk_index])).multinomial(n, pmf)


def simulate_counts(
    budget: SourceBudget,
    det_a: DetectorParams,
    det_b: DetectorParams,
    interference_prob: float = 1.0,
    n_windows: int = 1_000_000,
    seed: int = 0,
    allow_double_pairs: bool = False,
) -> McRun:
    """Window-by-window Monte Carlo of the detection chain.

    Deterministic given (seed, parameters); windows are processed in
    fixed-size chunks with per-chunk Philox streams, so partitioning the
    chunk range across workers and summing tallies is order independent.
    """
    if n_windows < 1:
        raise ValueError("n_windows must be >= 1")
    pmf = _window_pmf(budget, det_a, det_b, interference_prob, allow_double_pairs)[0]
    counts = np.zeros(8, dtype=np.int64)
    for ci in range((n_windows + CHUNK - 1) // CHUNK):
        counts += _chunk_counts(seed, ci, min(CHUNK, n_windows - ci * CHUNK), pmf)
    tallies = dict(zip(("no_click", "a_only", "b_only", "coincidence"),
                       (counts[:4] + counts[4:]).tolist()))  # by click_a + 2*click_b
    details = {"true_coincidences": int(counts[7]),
               "accidental_coincidences": int(counts[3])}
    return McRun(seed=seed, n_windows=n_windows, tallies=tallies, details=details)


def mc_rates(run: McRun, window_ns: float) -> CountRates:
    """Convert Monte Carlo tallies to rates in counts/s."""
    total_s = run.n_windows * window_ns * 1e-9
    t = run.tallies
    return CountRates(
        singles_a=(t["a_only"] + t["coincidence"]) / total_s,
        singles_b=(t["b_only"] + t["coincidence"]) / total_s,
        coincidences=t["coincidence"] / total_s,
        accidentals=run.details.get("accidental_coincidences", 0) / total_s,
    )

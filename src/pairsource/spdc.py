"""Classical design layer of the source.

Quasi-phase-matching solver for the periodically poled waveguide, the
two-branch emission spectrum, Bragg-filter action and coherence times.

Units at module boundaries: wavelengths in nm, poling period in um,
temperature in degC, times in ps. delta_k is returned in rad/um.

The dispersion backend is a Sellmeier coefficient table (congruent
LiNbO3 by default, Edwards & Lawrence 1984 form) loaded from a config
file; a single scalar index offset per polarization absorbs the
waveguide effective-index shift and is calibrated against the known
operating point of the device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import config as cfgmod

C_LIGHT = 299_792_458.0  # m/s, exact by the SI definition
LAMBDA_MIN_NM = 400.0
LAMBDA_MAX_NM = 2000.0
# signal grid, around degeneracy, that tuning_curve searches for roots of delta_k
TUNING_HALFWIDTH_NM = 200.0
TUNING_STEP_NM = 0.25
TUNING_TOL_NM = 1e-9  # a root is done when its last Illinois step is below this
TUNING_MAX_PASSES = 40  # bound on the Illinois passes; about 4 reach TUNING_TOL_NM


class NoPhaseMatchingError(RuntimeError):
    """No poling period in the search bracket phase-matches the pump."""


class FilterOverlapError(ValueError):
    """Filter passband does not overlap the emission spectrum."""


class CalibrationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Dispersion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SellmeierSet:
    """One polarization's coefficients for
    n^2 = a + (b + bt*f)/(lam^2 - (c - ct*f)^2) + dt*f - e*lam^2
    with lam in um and f = (T - 24.5)(T + 570.82), T in degC.
    """

    a: float
    b: float
    c: float
    e: float
    bt: float
    ct: float
    dt: float

    def index(self, lam_um, temp_c: float):
        f = (temp_c - 24.5) * (temp_c + 570.82)
        n2 = (
            self.a
            + (self.b + self.bt * f) / (lam_um**2 - (self.c - self.ct * f) ** 2)
            + self.dt * f
            - self.e * lam_um**2
        )
        return np.sqrt(n2)


@dataclass(frozen=True)
class DispersionModel:
    """Per-polarization Sellmeier sets plus calibration offsets.

    H is mapped to the ordinary axis and V to the extraordinary axis of the
    default coefficient file; the mapping itself lives in the file, not here.
    """

    sellmeier: dict[str, _SellmeierSet]
    offsets: dict[str, float]

    @classmethod
    def from_file(cls, path: str | Path) -> "DispersionModel":
        raw = cfgmod.load_config(path)
        sets = {}
        for pol in ("h", "v"):
            sets[pol.upper()] = _SellmeierSet(
                a=cfgmod.get_float(raw, f"sellmeier.{pol}.a"),
                b=cfgmod.get_float(raw, f"sellmeier.{pol}.b"),
                c=cfgmod.get_float(raw, f"sellmeier.{pol}.c"),
                e=cfgmod.get_float(raw, f"sellmeier.{pol}.e"),
                bt=cfgmod.get_float(raw, f"thermo.{pol}.bt"),
                ct=cfgmod.get_float(raw, f"thermo.{pol}.ct"),
                dt=cfgmod.get_float(raw, f"thermo.{pol}.dt"),
            )
        offsets = {
            "H": cfgmod.get_float(raw, "offset.h", 0.0),
            "V": cfgmod.get_float(raw, "offset.v", 0.0),
        }
        return cls(sellmeier=sets, offsets=offsets)

    @classmethod
    def default(cls) -> "DispersionModel":
        return cls.from_file(Path(__file__).resolve().parent / "data" / "lithium_niobate.cfg")


def refractive_index(model: DispersionModel, lam_nm, temp_c: float, pol: str):
    """n(lambda, T) for polarization 'H' or 'V', including the calibration offset.

    lam_nm may be an array; the result then has its shape.
    """
    if not np.all((LAMBDA_MIN_NM <= lam_nm) & (lam_nm <= LAMBDA_MAX_NM)):
        worst = float(np.max(lam_nm) if np.max(lam_nm) > LAMBDA_MAX_NM else np.min(lam_nm))
        raise ValueError(f"wavelength {worst} nm outside [{LAMBDA_MIN_NM}, {LAMBDA_MAX_NM}] nm")
    pol = pol.upper()
    if pol not in ("H", "V"):
        raise ValueError(f"polarization must be 'H' or 'V', got {pol!r}")
    return model.sellmeier[pol].index(lam_nm / 1000.0, temp_c) + model.offsets[pol]


# ---------------------------------------------------------------------------
# Quasi-phase matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QpmConfig:
    """Poling/operating point. Type-II assignment: pump H -> signal H + idler V."""

    poling_period_um: float
    temperature_c: float
    pump_wavelength_nm: float

    def __post_init__(self):
        if self.poling_period_um <= 0:
            raise ValueError("poling period must be positive")


def idler_wavelength(pump_nm: float, signal_nm):
    """Energy conservation: 1/lam_i = 1/lam_p - 1/lam_s, elementwise in signal_nm."""
    if np.any(np.less_equal(signal_nm, pump_nm)):
        raise ValueError(f"signal ({float(np.min(signal_nm))} nm) must be longer than "
                         f"pump ({pump_nm} nm)")
    return 1.0 / (1.0 / pump_nm - 1.0 / signal_nm)


def delta_k(cfg: QpmConfig, model: DispersionModel, signal_nm):
    """Phase mismatch 2*pi*[n_p/l_p - n_s/l_s - n_i/l_i - 1/Lambda] in rad/um.

    signal_nm may be an array; the result then has its shape.
    """
    lam_i = idler_wavelength(cfg.pump_wavelength_nm, signal_nm)
    n_p = refractive_index(model, cfg.pump_wavelength_nm, cfg.temperature_c, "H")
    n_s = refractive_index(model, signal_nm, cfg.temperature_c, "H")
    n_i = refractive_index(model, lam_i, cfg.temperature_c, "V")
    lp, ls, li = (x / 1000.0 for x in (cfg.pump_wavelength_nm, signal_nm, lam_i))
    return 2.0 * np.pi * (n_p / lp - n_s / ls - n_i / li - 1.0 / cfg.poling_period_um)


def find_degenerate_period(
    model: DispersionModel,
    pump_nm: float,
    temp_c: float,
    bracket: tuple[float, float] = (4.0, 20.0),
) -> float:
    """Poling period (um) with delta_k = 0 at degeneracy lam_s = lam_i = 2*lam_p.

    delta_k is linear in 1/Lambda, so the root is closed form:
    Lambda = 1/(n_p/l_p - n_s/l_s - n_i/l_i). It must lie inside the bracket.
    """
    # an infinite period drops the grating term, leaving the material mismatch
    material = delta_k(QpmConfig(np.inf, temp_c, pump_nm), model, 2.0 * pump_nm)
    period = 2.0 * np.pi / material if material > 0 else np.inf
    if not bracket[0] <= period <= bracket[1]:
        raise NoPhaseMatchingError(
            f"no phase-matching solution for pump {pump_nm} nm at {temp_c} degC "
            f"in Lambda bracket {bracket} um"
        )
    return float(period)


def calibrate_offsets(
    model: DispersionModel,
    anchor: QpmConfig = QpmConfig(6.6, 96.8, 655.0),
) -> DispersionModel:
    """Adjust the V index offset so the anchor, a known operating point, is a QPM root.

    The offset enters n linearly, so the correction is solved in closed form
    and verified; idempotent on an already-consistent model.
    """
    lam_deg = 2.0 * anchor.pump_wavelength_nm
    dk0 = delta_k(anchor, model, lam_deg)
    # V enters the idler only: d(delta_k)/d(offset) = -2*pi/lam_i
    d = dk0 * (lam_deg / 1000.0) / (2.0 * np.pi)
    calibrated = replace(model, offsets={**model.offsets, "V": model.offsets["V"] + d})
    residual = delta_k(anchor, calibrated, lam_deg)
    if abs(residual) > 1e-9:
        raise CalibrationError(f"calibration residual {residual:.3e} rad/um")
    return calibrated


def tuning_curve(
    cfg: QpmConfig,
    model: DispersionModel,
    temperatures: np.ndarray | list[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Signal/idler solutions of delta_k = 0 versus temperature.

    Returns columns (T, lam_s, lam_i, degenerate_flag), one entry per solution,
    the flag as bools; temperatures without a solution contribute no entries.
    """
    lam_deg = 2.0 * cfg.pump_wavelength_nm
    # the signal whose idler sits a step inside LAMBDA_MAX_NM keeps both photons in the
    # table; it lies above the pump and LAMBDA_MIN_NM for every pump the table holds
    lo = max(lam_deg - TUNING_HALFWIDTH_NM,
             idler_wavelength(cfg.pump_wavelength_nm, LAMBDA_MAX_NM - TUNING_STEP_NM))
    hi = min(lam_deg + TUNING_HALFWIDTH_NM, LAMBDA_MAX_NM)
    grid = np.arange(lo, hi, TUNING_STEP_NM)

    # one (temperature x signal) grid; delta_k is elementwise, so it broadcasts
    temps = np.atleast_1d(np.asarray(temperatures, dtype=float))
    vals = delta_k(replace(cfg, temperature_c=temps[:, None]), model, grid)
    # a bracket changes the sign of delta_k >= 0, so a root on a node opens one bracket
    nonneg = vals >= 0
    t, i = np.nonzero(nonneg[:, 1:] != nonneg[:, :-1])
    # Illinois regula falsi (Dowell & Jarratt 1971) on every bracket at once; b is the
    # latest iterate, f_a keeps the other sign and is halved while b stays on one side
    at_t = replace(cfg, temperature_c=temps[t])
    neg = i + nonneg[t, i]  # the end where delta_k < 0 starts as a, so f_a is never 0
    pos = 2 * i + 1 - neg
    a, b, f_a, f_b = grid[neg], grid[pos], vals[t, neg], vals[t, pos]
    for _ in range(TUNING_MAX_PASSES):
        x = b - f_b * (b - a) / (f_b - f_a)
        f_x = delta_k(at_t, model, x)
        flip = f_x * f_b < 0  # the root lies between b and x
        a, f_a = np.where(flip, b, a), np.where(flip, f_b, 0.5 * f_a)
        step, b, f_b = x - b, x, f_x
        if np.all((np.abs(step) < TUNING_TOL_NM) | (f_b == 0)):
            break
    else:
        raise RuntimeError(f"tuning-curve roots not converged in {TUNING_MAX_PASSES} passes")
    idlers = idler_wavelength(cfg.pump_wavelength_nm, b)
    return temps[t], b, idlers, np.abs(b - idlers) < 0.5


# ---------------------------------------------------------------------------
# Emission spectrum and filtering
# ---------------------------------------------------------------------------

_FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


@dataclass(frozen=True)
class SpectralBranch:
    """One QPM solution: centers of the H and V photons, common FWHM, weight."""

    center_h_nm: float
    center_v_nm: float
    fwhm_nm: float
    weight: float

    def __post_init__(self):
        if self.fwhm_nm <= 0:
            raise ValueError("branch FWHM must be positive")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("branch weight must be in [0, 1]")

    @property
    def degenerate(self) -> bool:
        return abs(self.center_h_nm - self.center_v_nm) < 1e-6


@dataclass(frozen=True)
class FilterSpec:
    """Spectral filter: 'gaussian' or 'flat-top' passband."""

    center_nm: float
    fwhm_nm: float
    shape: str = "gaussian"

    def __post_init__(self):
        if self.fwhm_nm <= 0:
            raise ValueError("filter FWHM must be positive")
        if self.shape not in ("gaussian", "flat-top"):
            raise ValueError(f"unknown filter shape {self.shape!r}")

    def transmission(self, lam_nm: np.ndarray) -> np.ndarray:
        lam_nm = np.asarray(lam_nm, dtype=float)
        if self.shape == "gaussian":
            return np.exp(-4.0 * np.log(2.0) * (lam_nm - self.center_nm) ** 2 / self.fwhm_nm**2)
        return ((lam_nm >= self.center_nm - self.fwhm_nm / 2)
                & (lam_nm <= self.center_nm + self.fwhm_nm / 2)).astype(float)


@dataclass(frozen=True)
class EmissionSpectrum:
    branches: tuple[SpectralBranch, ...]
    pump_wavelength_nm: float
    applied_filters: tuple[FilterSpec, ...] = ()

    def __post_init__(self):
        total = sum(b.weight for b in self.branches)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"branch weights sum to {total}, expected 1")
        for b in self.branches:
            resid = 1.0 / b.center_h_nm + 1.0 / b.center_v_nm - 1.0 / self.pump_wavelength_nm
            if abs(resid) > 1e-6:
                raise ValueError(
                    f"branch ({b.center_h_nm}, {b.center_v_nm}) violates energy "
                    f"conservation by {resid:.2e} 1/nm"
                )

    def sideband_fraction(self) -> float:
        return sum(b.weight for b in self.branches if not b.degenerate)


def build_spectrum(
    primary_fwhm_nm: float = 0.7,
    sideband_fraction: float = 0.15,
    branch2_centers_nm: tuple[float, float] = (1308.7, 1310.9),
    degenerate_center_nm: float = 1309.8,
) -> EmissionSpectrum:
    """Two-branch emission spectrum: a degenerate main peak plus a weaker
    non-degenerate branch with the H photon on the short-wavelength side."""
    pump = degenerate_center_nm / 2.0
    branches = [
        SpectralBranch(degenerate_center_nm, degenerate_center_nm, primary_fwhm_nm,
                       1.0 - sideband_fraction),
    ]
    if sideband_fraction > 0:
        ch, cv = branch2_centers_nm
        branches.append(SpectralBranch(ch, cv, primary_fwhm_nm, sideband_fraction))
    return EmissionSpectrum(tuple(branches), pump)


def marginal_intensity(spectrum: EmissionSpectrum, pol: str, lam: np.ndarray) -> np.ndarray:
    """Weighted per-polarization spectral intensity (arbitrary units)."""
    lam = np.asarray(lam, dtype=float)
    out = np.zeros_like(lam)
    for b in spectrum.branches:
        center = b.center_h_nm if pol.upper() == "H" else b.center_v_nm
        dens = np.exp(-0.5 * ((lam - center) / (b.fwhm_nm * _FWHM_TO_SIGMA)) ** 2)
        for f in spectrum.applied_filters:
            dens = dens * f.transmission(lam)
        out += b.weight * dens
    return out


def _branch_transmission(branch: SpectralBranch, pol: str,
                         applied: tuple[FilterSpec, ...], new: FilterSpec) -> float:
    """Fraction of one photon, through the `applied` filters, that also passes `new`.

    Every factor of the filtered line is a Gaussian or a box, so the line is one
    Gaussian (precisions add, the means are weighted by precision) on the boxes'
    intersection [lo, hi], empty if hi = lo; its mass is a difference of two erfc values.
    """
    center = branch.center_h_nm if pol == "H" else branch.center_v_nm
    masses = []
    for filters in (applied, applied + (new,)):
        lines = [(center, branch.fwhm_nm)]
        lines += [(f.center_nm, f.fwhm_nm) for f in filters if f.shape == "gaussian"]
        precisions = [(w * _FWHM_TO_SIGMA) ** -2 for _, w in lines]
        precision = sum(precisions)
        mean = sum(q * c for q, (c, _) in zip(precisions, lines)) / precision
        boxes = [f for f in filters if f.shape == "flat-top"]
        lo = max((f.center_nm - f.fwhm_nm / 2 for f in boxes), default=-math.inf)
        hi = max(lo, min((f.center_nm + f.fwhm_nm / 2 for f in boxes), default=math.inf))
        a, b = (lo - mean) * math.sqrt(precision / 2), (hi - mean) * math.sqrt(precision / 2)
        if a < -b:  # mirror the box to the right of the mean, where erfc keeps its digits
            a, b = -b, -a
        log_peak = -0.5 * sum(q * (c - mean) ** 2 for q, (c, _) in zip(precisions, lines))
        masses.append(math.exp(log_peak) / math.sqrt(precision) * (math.erfc(a) - math.erfc(b)))
    return masses[1] / masses[0] if masses[0] > 0 else 0.0


def apply_filter(
    spectrum: EmissionSpectrum, filt: FilterSpec
) -> tuple[EmissionSpectrum, float, float]:
    """Filter the spectrum; a pair survives only if BOTH photons pass.

    Returns (filtered spectrum with renormalized weights, transmitted pair
    fraction, post-filter sideband fraction).
    """
    min_dist = min(
        min(abs(b.center_h_nm - filt.center_nm), abs(b.center_v_nm - filt.center_nm))
        for b in spectrum.branches
    )
    if min_dist > 10.0:
        raise FilterOverlapError(
            f"filter center {filt.center_nm} nm is more than 10 nm from every branch"
        )
    pair_t = []
    for b in spectrum.branches:
        t_h = _branch_transmission(b, "H", spectrum.applied_filters, filt)
        t_v = _branch_transmission(b, "V", spectrum.applied_filters, filt)
        pair_t.append(t_h * t_v)
    transmitted = sum(b.weight * t for b, t in zip(spectrum.branches, pair_t))
    if transmitted < 1e-15:
        raise FilterOverlapError("filter does not overlap spectrum (zero transmission)")
    new_branches = tuple(
        replace(b, weight=b.weight * t / transmitted)
        for b, t in zip(spectrum.branches, pair_t)
        if b.weight * t / transmitted > 0.0
    )
    filtered = EmissionSpectrum(new_branches, spectrum.pump_wavelength_nm,
                                spectrum.applied_filters + (filt,))
    return filtered, float(transmitted), filtered.sideband_fraction()


# ---------------------------------------------------------------------------
# Coherence time
# ---------------------------------------------------------------------------

def coherence_time(lam_nm: float, delta_lambda_fwhm_nm: float) -> float:
    """Gaussian time-bandwidth product: tau = 0.44 * lam^2 / (c * dlam), in ps."""
    if lam_nm <= 0 or delta_lambda_fwhm_nm <= 0:
        raise ValueError("wavelength and bandwidth must be positive")
    tau_s = 0.44 * (lam_nm * 1e-9) ** 2 / (C_LIGHT * delta_lambda_fwhm_nm * 1e-9)
    return tau_s * 1e12

"""Flat dotted-key configuration files and the experiment config schema.

Format: one `key = value` pair per line, `#` comments, keys with dotted
sections (e.g. `detector.a.efficiency`). Values stay strings at parse time.

The bundled manifest `data/paper.config` is the experiment schema and its
only set of defaults. Every key it holds is valid, typed by its manifest
value (`true`/`false` -> bool, numeric -> float, otherwise str), except the
keys in INT_KEYS, which are int. A user file overlays any subset of it.
"""

from __future__ import annotations

import difflib
import math
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

MANIFEST = Path(__file__).resolve().parent / "data" / "paper.config"
INT_KEYS = frozenset({"schema_version", "seed", "scan.points", "mc.windows"})
MAX_TUNING_STEPS = 1_000  # (t_max - t_min) / t_step, so at most 1,001 tuning temperatures
# ranges that no domain constructor checks: key -> (test, rule)
_RANGES = {
    "schema_version": (lambda v: v == 1, "must be 1"),
    "qpm.tuning.t_step_c": (lambda v: v > 0, "must be > 0"),
    "scan.points": (lambda v: 6 <= v <= 100_000, "must be in [6, 100000]"),
    "hom.delay_span_ps": (lambda v: v > 0, "must be > 0"),
    "scan.integration_s": (lambda v: v > 0, "must be > 0"),
    "rates.accidental_fraction": (lambda v: 0 <= v < 1, "must be in [0, 1)"),
    "losses.split": (lambda v: 0 <= v <= 1, "must be in [0, 1]"),
    "mc.windows": (lambda v: v >= 1, "must be >= 1"),
}


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_config(path: str | Path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


def get_float(cfg: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key: {key}")
        return default
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"key {key}: not a number: {cfg[key]!r}") from exc


def _convert(key: str, text: str, manifest_text: str):
    """Convert one value to the type of the manifest's value for its key."""
    if manifest_text in ("true", "false"):
        if text.lower() not in ("true", "false"):
            raise ConfigError(f"key {key}: not a boolean: {text!r}")
        return text.lower() == "true"
    kind = int if key in INT_KEYS else float
    try:
        kind(manifest_text)
    except ValueError:
        return text  # the manifest value is not a number, so this is a string key
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"key {key}: not {'an integer' if kind is int else 'a number'}: "
                          f"{text!r}") from exc


def load_experiment_config(path: str | Path | None,
                           overrides: Mapping[str, object] | None = None) -> Mapping[str, object]:
    """The bundled manifest, overlaid by the file at `path` (if any) and then
    by `overrides` (typed values; None entries are ignored), range-checked
    and returned as a read-only mapping."""
    manifest = load_config(MANIFEST)
    user = load_config(path) if path else {}
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    unknown = [k for k in (*user, *overrides) if k not in manifest]
    if unknown:
        key = unknown[0]
        hint = difflib.get_close_matches(key, manifest, n=1)
        suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
        raise ConfigError(f"unknown config key {key!r}{suggestion}")
    cfg = {k: _convert(k, user.get(k, v), v) for k, v in manifest.items()}
    cfg.update(overrides)
    for key, value in cfg.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"key {key}: must be finite, got {value!r}")
    for key, (ok, rule) in _RANGES.items():
        if not ok(cfg[key]):
            raise ConfigError(f"key {key}: {rule}, got {cfg[key]!r}")
    t_min, t_max = cfg["qpm.tuning.t_min_c"], cfg["qpm.tuning.t_max_c"]
    if t_min > t_max:
        raise ConfigError(f"key qpm.tuning.t_min_c ({t_min!r}) must not exceed "
                          f"key qpm.tuning.t_max_c ({t_max!r})")
    if (t_max - t_min) / cfg["qpm.tuning.t_step_c"] > MAX_TUNING_STEPS:
        raise ConfigError(f"key qpm.tuning.t_step_c: must be >= (t_max_c - t_min_c) / "
                          f"{MAX_TUNING_STEPS}, got {cfg['qpm.tuning.t_step_c']!r}")
    return MappingProxyType(cfg)

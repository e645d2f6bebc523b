"""Span recorder that times pairsource's public functions from outside.

While an op is traced, every function in TARGETS is replaced by a wrapper
that records one span per call: (span id, op id, parent span id, function,
start, end). Per function it also sums calls, total time, self time (total
minus the time covered by its child spans) and raised exceptions. Outside a
traced op the original functions are back in place, so untraced ops run the
program unchanged.

Spans are held in memory and written out when the run ends. A `design` op
makes about 264k spans, so spans are stored only for the first SPAN_OPS_KEPT
traced ops; later ops skip storing them. The per-function sums cover every
traced op.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

TARGETS = {
    "spdc": ("refractive_index", "delta_k", "tuning_curve", "find_degenerate_period",
             "marginal_intensity", "apply_filter"),
    "polarization": ("coincidence_prob", "make_psi_state"),
    "interference": ("sb_balance", "bell_scan", "hom_scan"),
    "fitting": ("fit_dip", "fit_fringe", "net_correct", "chsh_from_fits"),
    "counting": ("simulate_counts", "expected_rates", "calibrate_losses"),
    "config": ("load_config",),
    "cli": ("main",),
}

# Names that a module binds by value with `from .x import name`. Their calls
# look the name up in the importing module, so it is rebound there too.
IMPORTED_BY_VALUE = {
    "interference": ("polarization", ("coincidence_prob", "make_psi_state")),
    "cli": ("polarization", ("coincidence_prob", "make_psi_state")),
}

SPAN_OPS_KEPT = 1
ROOT_NAME = "op"


class Recorder:
    def __init__(self):
        modules = {m: importlib.import_module(f"pairsource.{m}")
                   for m in set(TARGETS) | set(IMPORTED_BY_VALUE)}
        self.names = [f"{m}.{f}" for m, funcs in TARGETS.items() for f in funcs]
        n = len(self.names)
        self.calls = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        self.errors = [0] * n
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self.ops_traced = 0
        self.keep_spans = True
        self._op_id = -1
        self._next_span = 0
        self._stack: list[list] = []

        wrappers = {}
        self._patches = []  # (module, attribute, original, wrapper)
        for i, name in enumerate(self.names):
            mod, func = name.split(".")
            original = getattr(modules[mod], func)
            wrappers[name] = self._wrap(i, original)
            self._patches.append((modules[mod], func, original, wrappers[name]))
        for importer, (source, funcs) in IMPORTED_BY_VALUE.items():
            for func in funcs:
                original = getattr(modules[importer], func)
                if original is not getattr(modules[source], func):
                    raise RuntimeError(f"pairsource.{importer}.{func} is not "
                                       f"pairsource.{source}.{func}")
                self._patches.append((modules[importer], func, original,
                                      wrappers[f"{source}.{func}"]))

    def _wrap(self, i, fn):
        calls, total_s, self_s, errors = self.calls, self.total_s, self.self_s, self.errors
        spans, stack = self.spans, self._stack
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [rec._next_span, 0.0]  # span id, time covered by children
            rec._next_span += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[i] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                calls[i] += 1
                total_s[i] += d
                self_s[i] += d - frame[1]
                parent[1] += d
                if rec.keep_spans:
                    spans.append((frame[0], rec._op_id, parent[0], i, t0, t1))

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Trace one op; afterwards `op_stats()` holds its per-function sums."""
        for counters, zero in ((self.calls, 0), (self.total_s, 0.0),
                               (self.self_s, 0.0), (self.errors, 0)):
            counters[:] = [zero] * len(counters)
        self._op_id = op_id
        self.keep_spans = self.ops_traced < SPAN_OPS_KEPT
        root = [self._next_span, 0.0]
        self._next_span += 1
        self._stack[:] = [root]
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
            self.ops_traced += 1
            if self.keep_spans:
                self.spans.append((root[0], op_id, -1, -1, t0, t1))

    def op_stats(self) -> dict[str, dict[str, float]]:
        return {name: {"calls": self.calls[i], "total_s": self.total_s[i],
                       "self_s": self.self_s[i], "errors": self.errors[i]}
                for i, name in enumerate(self.names)}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id\top_id\tparent_id\tname\tstart_s\tend_s\n")
            for span_id, op_id, parent, i, t0, t1 in sorted(self.spans):
                name = self.names[i] if i >= 0 else ROOT_NAME
                fh.write(f"{span_id}\t{op_id}\t{parent}\t{name}\t{t0!r}\t{t1!r}\n")

"""The benchmark's tracer still finds every function it wraps, and the Bell
and QPM paths stay array-valued: one analyzer projection per fringe and a
bounded number of scalar index evaluations per design op."""

import importlib.util
from pathlib import Path

from pairsource import cli

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("pairsource_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_calls(rec, op_id, argv):
    with rec.op(op_id):
        assert cli.main(argv) == 0
    return {name: s["calls"] for name, s in rec.op_stats().items()}


def test_tracer_hooks_and_call_counts():
    rec = _load_tracer().Recorder()  # raises if a wrapped name or by-value import is gone
    bell = _traced_calls(rec, 0, ["bell", "--no-mc", "--no-timestamp"])
    assert bell["polarization.coincidence_prob"] == 4
    qpm = _traced_calls(rec, 1, ["qpm", "--no-timestamp"])
    assert 0 < qpm["spdc.refractive_index"] < 2000

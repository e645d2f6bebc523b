"""pairsource benchmark: one workload, one run, one JSON result line.

    python3 benchmarks/run.py --workload design --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree; it imports pairsource from ./src.
Each op runs in-process and warm, with its own seed drawn from --seed.
One untimed warm-up op comes first; then ops run back to back (a closed
loop, one client) for --seconds, and at least MIN_OPS of them.

--trace 0 reports the end-to-end metrics with nothing wrapped. setup_s is
the median wall time of SETUP_RUNS fresh interpreters that import
pairsource.cli and load the bundled config. They run between ops, spread
evenly over the --seconds, so that they meet the same host speed as the ops.

--trace 1 alternates untraced and traced ops and reports per-layer metrics:
for each wrapped function the median per traced op of its calls, total and
self time, plus trace_overhead_ratio (traced over untraced median op time).
The spans of the first traced op are written to .bench_work/.

Every op's output is checked (see workloads.py); an exception, a non-zero
exit code or a failed check counts the op as failed and the run goes on.
The lines before the last are a readable summary and a JSON record with
provenance, the tail percentile, the error rate and the failures seen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The workloads are single-threaded and the machine is shared: one BLAS
# thread keeps pool threads from adding noise. Set before numpy loads.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

SETUP_RUNS = 9
SETUP_CODE = "import pairsource.cli as c; c.load_experiment_config(None)"
TAIL_BEYOND = 10              # samples above the reported tail percentile
MIN_OPS = TAIL_BEYOND + 1     # timed ops in a --trace 0 run
MIN_TRACED_OPS = 3            # each of traced and untraced ops in a --trace 1 run

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {  # function -> its per-op statistics that are reported
    "spdc.refractive_index": ("calls",),
    "spdc.delta_k": ("calls", "self_s"),
    "spdc.tuning_curve": ("self_s", "total_s"),
    "spdc.find_degenerate_period": ("total_s",),
    "spdc.marginal_intensity": ("total_s",),
    "spdc.apply_filter": ("total_s",),
    "polarization.coincidence_prob": ("calls", "self_s"),
    "polarization.make_psi_state": ("calls",),
    "interference.sb_balance": ("total_s", "self_s"),
    "interference.bell_scan": ("calls", "self_s"),
    "interference.hom_scan": ("total_s",),
    "fitting.fit_dip": ("calls", "total_s"),
    "fitting.fit_fringe": ("calls", "total_s"),
    "fitting.net_correct": ("total_s",),
    "fitting.chsh_from_fits": ("total_s",),
    "counting.simulate_counts": ("total_s",),
    "counting.expected_rates": ("calls",),
    "counting.calibrate_losses": ("total_s",),
    "cli.main": ("self_s",),
    "config.load_config": ("total_s",),
}
STAT_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {f"{fn}.{stat}": STAT_UNITS[stat]
             for fn, stats in PER_LAYER.items() for stat in stats}
    units["counting.simulate_counts.windows_per_s"] = "1/s"
    units["trace_overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_setup() -> float:
    """Wall time of a fresh interpreter that imports pairsource.cli and loads the config."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                   check=True, timeout=60)
    return time.perf_counter() - t0


class OpRunner:
    """Runs and checks ops of one workload, counting the attempted and failed."""

    def __init__(self, workload, reference: dict, out: Path, seed: int):
        self.workload = workload
        self.reference = reference
        self.out = out
        self.seeds = random.Random(seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.last_result = None  # output of the last op, if it passed its check

    def __call__(self, recorder=None, op_id: int = 0) -> float:
        """Run one op; return its wall time. The check runs after the timer stops."""
        op_seed = self.seeds.getrandbits(31)
        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)  # no stale outputs pass a check
        self.out.mkdir(parents=True)
        result = error = None
        t0 = time.perf_counter()
        try:
            if recorder is None:
                result = self.workload.run(op_seed, self.out)
            else:
                with recorder.op(op_id):
                    result = self.workload.run(op_seed, self.out)
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        if error is None:
            try:
                failures = self.workload.check(result, self.out, self.reference)
            except Exception:
                failures = [f"check raised: {traceback.format_exc(limit=3)}"]
        else:
            failures = [f"op raised: {error}"]
        if failures:
            self.failed += 1
            self.failures.extend(f"op seed {op_seed}: {f}" for f in failures)
        self.last_result = None if failures else result
        return elapsed


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    n = len(times)
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure_end_to_end(runner: OpRunner, seconds: float) -> tuple[dict, dict]:
    runner()  # warm-up
    times, setup_times = [], []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if (len(setup_times) < SETUP_RUNS
                and elapsed >= len(setup_times) * seconds / SETUP_RUNS):
            setup_times.append(measure_setup())
        elif elapsed < seconds or len(times) < MIN_OPS:
            times.append(runner())
        else:
            break
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"setup_runs_s": setup_times, "op_tail_percentile": tail_pct,
                     "op_tail_samples": len(times)}


def measure_per_layer(runner: OpRunner, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    from tracer import Recorder
    from workloads import mc_windows

    recorder = Recorder()
    runner()  # warm-up
    plain, traced, per_op = [], [], []
    errors: dict[str, int] = {}
    t0 = time.perf_counter()
    while (time.perf_counter() - t0 < seconds
           or min(len(plain), len(traced)) < MIN_TRACED_OPS):
        if len(plain) <= len(traced):
            plain.append(runner())
            continue
        traced.append(runner(recorder, op_id=runner.attempted))
        stats = recorder.op_stats()
        for name, s in stats.items():
            if s["errors"]:
                errors[name] = errors.get(name, 0) + s["errors"]
        sim = stats["counting.simulate_counts"]
        sim["windows_per_s"] = 0.0
        if sim["total_s"] > 0 and runner.last_result is not None:
            sim["windows_per_s"] = mc_windows(runner.last_result) / sim["total_s"]
        per_op.append(stats)

    metrics = {}
    for fn, stat_names in PER_LAYER.items():
        for stat in stat_names:
            metrics[f"{fn}.{stat}"] = statistics.median(op[fn][stat] for op in per_op)
    metrics["counting.simulate_counts.windows_per_s"] = statistics.median(
        op["counting.simulate_counts"]["windows_per_s"] for op in per_op)
    metrics["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    recorder.write_spans(spans_path)
    return metrics, {"traced_ops": len(traced), "untraced_ops": len(plain),
                     "function_errors": errors, "spans_file": str(spans_path.relative_to(ROOT)),
                     "spans_written": len(recorder.spans)}


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------

def git_commit() -> str:
    # the ceiling keeps git from reporting a repository that encloses the tree
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "pairsource" / "__init__.py").is_file():
        print(f"benchmark: no pairsource source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    WORK.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"out-{args.workload}-", dir=WORK))
    runner = OpRunner(workloads.WORKLOADS[args.workload], reference, out, args.seed)
    try:
        if args.trace:
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.tsv"
            metrics, details = measure_per_layer(runner, args.seconds, spans)
            units = per_layer_units()
        else:
            metrics, details = measure_end_to_end(runner, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(out, ignore_errors=True)

    details.update(attempted=runner.attempted, failed=runner.failed,
                   error_rate=runner.failed / runner.attempted,
                   failures=runner.failures[:20])
    for name in units:
        print(f"{args.workload:>9}  {name:<45} {metrics[name]:>14.6g} {units[name]}")
    if "op_tail_percentile" in details:
        print(f"{args.workload:>9}  op_tail_s is p{details['op_tail_percentile']:.1f} "
              f"of {details['op_tail_samples']} timed ops")
    print(f"{args.workload:>9}  {'error_rate':<45} {details['error_rate']:>14.6g} "
          f"(failed/attempted = {runner.failed}/{runner.attempted})")
    print(json.dumps({"provenance": provenance(args), "details": details}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

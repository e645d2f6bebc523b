"""Self-check of the benchmark itself; takes about two minutes.

    python3 benchmarks/selfcheck.py

1. Runs every workload at tiny size with --trace 0 and --trace 1 and
   confirms that the last line names exactly the metrics that
   BENCHMARK.json lists, with their units, and that no op failed.
2. Confirms that the checks catch a wrong output: for each workload a
   reference value perturbed beyond the reports' 6-digit rounding makes
   its op fail, and a run against that reference reports a non-zero error
   rate.
3. Confirms that in a directory holding only BENCHMARK.json and the
   benchmark's own files the command fails without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# workload -> (report, reference path) perturbed to show its checks bite
PERTURB = {
    "design": ("qpm", "derived.degenerate_period_um"),
    "bell": ("bell", "derived.phi_sb_rad"),
    "campaign": ("spectrum", "derived.tau_coh_ps"),
    "mc": ("rates", "outputs.mu"),
}


def run_command(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "0",
                              "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics_emitted(problems: list[str]) -> None:
    unknown = {w["name"] for w in SPEC["workloads"]} - set(workloads.WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")
    for workload in workloads.WORKLOADS:
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            done = run_command(run.ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit code {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, or units differ")
            print(f"{label}: {len(got)} metrics, {result['attempted']} ops", flush=True)


def check_perturbed_reference(problems: list[str]) -> None:
    reference = workloads.load_reference()
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        out = Path(tmp)
        for name, (report, path) in PERTURB.items():
            workload = workloads.WORKLOADS[name]
            wrong = copy.deepcopy(reference)
            wrong[report][path] *= 1.0 + 1e-4
            result = workload.run(12345, out)
            if workload.check(result, out, reference):
                problems.append(f"{name}: op fails against the true reference")
            if not workload.check(result, out, wrong):
                problems.append(f"{name}: op passes with {report} {path} perturbed")
            runner = run.OpRunner(workload, wrong, out, seed=1)
            for _ in range(3):
                runner()
            if runner.failed != runner.attempted:
                problems.append(f"{name}: error rate {runner.failed}/{runner.attempted} "
                                "with a perturbed reference, expected every op to fail")
            print(f"{name}: perturbed {report} {path} -> error rate "
                  f"{runner.failed}/{runner.attempted}", flush=True)


def check_bare_directory(problems: list[str]) -> None:
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run_command(bare, next(iter(workloads.WORKLOADS)), 0)
        if done.returncode == 0 or '"metrics"' in done.stdout:
            problems.append(f"bare directory: exit code {done.returncode}, "
                            f"stdout {done.stdout[-200:]!r}")
        print(f"bare directory: exit code {done.returncode}", flush=True)


def main() -> int:
    problems: list[str] = []
    check_metrics_emitted(problems)
    check_perturbed_reference(problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL: {p}")
    print("selfcheck:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

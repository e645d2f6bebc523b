"""Op-by-op interleaved A/B of two source trees on one benchmark workload.

    python3 tools/ab.py --parent DIR --change DIR --workload W --ops N

Each DIR is the root of a source tree (a `git archive` of a commit, say).
One long-lived process per tree imports that tree's own `benchmarks/run.py`
and `benchmarks/workloads.py` and runs `OpRunner` ops of workload W, the op
and its check, one at a time on request. Both processes get the same seed,
SEED, so op i has the same op seed on both sides. After one untimed warm-up op
each, the coordinator asks each side for one op in turn, N times, and
alternates which side goes first. An op's time is what `OpRunner` returns:
the op's wall time, with its check outside the timer.

It prints each side's median and quartiles, the number of op pairs in which
the change was faster, the median of the per-pair ratios t_change/t_parent,
the geometric mean of that median's two halves, the failed checks, and each
process's peak RSS (`ru_maxrss`) after 1, 50, 100, 200, ... ops and after the
last op, counting the warm-up. The last line is the same record as JSON, with
every timed op's time in order.

Pairing ops this way cancels host drift that separate benchmark runs see as
run-to-run spread. The two ops of a pair run back to back, so a host phase
scales both and cancels out of their ratio; the median of each side's own
times keeps the phases its ops fell in, so the paired ratio is the estimate
of the change's effect. Two processes running identical code can still
differ by a few per cent per op, so with two or more CPUs each worker is
pinned to a CPU of its own (`os.sched_setaffinity`, on its own process only)
and the pins are swapped after half of the op pairs; the change-faster count
and the paired ratio are printed for each half and overall. A fixed per-CPU
factor f multiplies one half's ratios by f and the other's by 1/f, so the
geometric mean of the two half medians cancels it, where the pooled median
cancels it only when the halves weigh alike; read it before the pooled one.
With one CPU nothing is pinned, and the output says so.
Only the standard library is used here; the two processes need what each
tree's benchmark needs. One BLAS thread is set by run.py, so each worker does
its work on the one thread that is pinned.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
SEED = 1  # OpRunner seed of both sides
WORKER_CODE = """
import json, resource, shutil, sys, tempfile
from pathlib import Path
root = Path.cwd()
sys.path[:0] = [str(root / "benchmarks"), str(root / "src")]
import run  # sets one BLAS thread before numpy loads
import workloads
out = Path(tempfile.mkdtemp(prefix="ab-"))
runner = run.OpRunner(workloads.WORKLOADS[sys.argv[1]], workloads.load_reference(),
                      out / "op", int(sys.argv[2]))
try:
    for _ in sys.stdin:
        seen = len(runner.failures)
        elapsed = runner()
        print(json.dumps({"s": elapsed, "failures": runner.failures[seen:],
                          "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}),
              flush=True)
finally:
    shutil.rmtree(out, ignore_errors=True)
"""


class Worker:
    """One long-lived process running ops of a workload in one source tree."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.proc = subprocess.Popen([sys.executable, "-c", WORKER_CODE, workload, str(seed)],
                                     cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.times: list[float] = []
        self.failures: list[str] = []
        self.rss_mb: list[float] = []  # peak RSS after each op, warm-up included

    def op(self, timed: bool = True) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        reply = json.loads(line)
        self.failures.extend(reply["failures"])
        self.rss_mb.append(reply["rss_kb"] / 1024.0)
        if timed:
            self.times.append(reply["s"])
        return reply["s"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def _summary(worker: Worker) -> dict:
    q1, median, q3 = statistics.quantiles(worker.times, n=4)
    n = len(worker.rss_mb)
    checkpoints = [1, *(k for k in (50 * 2 ** i for i in range(n.bit_length())) if k < n), n]
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "ops": len(worker.times),
            "failed_checks": len(worker.failures), "failures": worker.failures[:5],
            "rss_mb_after_ops": {k: worker.rss_mb[k - 1] for k in checkpoints},
            "times_s": worker.times}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent source tree")
    parser.add_argument("--change", required=True, type=Path, help="changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--ops", required=True, type=int, help="timed op pairs")
    args = parser.parse_args(argv)
    if args.ops < 2:
        parser.error("--ops must be at least 2")

    workers = {side: Worker(getattr(args, side).resolve(), args.workload, SEED)
               for side in SIDES}
    cpus = sorted(os.sched_getaffinity(0))[:2]
    half = args.ops // 2
    faster = [0, 0]  # change-faster op pairs in each half

    def pin(parent_cpu_first: bool) -> None:
        if len(cpus) == 2:
            for side, cpu in zip(SIDES, cpus if parent_cpu_first else cpus[::-1]):
                os.sched_setaffinity(workers[side].proc.pid, {cpu})

    try:
        pin(True)
        for worker in workers.values():
            worker.op(timed=False)
        for i in range(args.ops):
            if i == half:
                pin(False)
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            t = {side: workers[side].op() for side in order}
            faster[i >= half] += t["change"] < t["parent"]
    finally:
        for worker in workers.values():
            worker.close()

    ratios = [c / p for p, c in zip(workers["parent"].times, workers["change"].times)]
    paired = [statistics.median(r) for r in (ratios, ratios[:half], ratios[half:])]
    geomean = statistics.geometric_mean(paired[1:])
    record = {"workload": args.workload, "op_pairs": args.ops, "seed": SEED,
              "alternating_order": True, "change_faster_in_op_pairs": sum(faster),
              "paired_ratio_median": paired[0], "paired_ratio_geomean_of_halves": geomean,
              "pinned_cpus": cpus if len(cpus) == 2 else None,
              "change_faster_by_half": {"op_pairs": [half, args.ops - half], "count": faster,
                                        "paired_ratio_median": paired[1:]},
              **{side: _summary(workers[side]) for side in SIDES}}
    for side in SIDES:
        s = record[side]
        rss = ", ".join(f"{k}: {v:.1f}" for k, v in s["rss_mb_after_ops"].items())
        print(f"{side:>7}  median {1e3 * s['median_s']:.2f} ms  "
              f"q1 {1e3 * s['q1_s']:.2f}  q3 {1e3 * s['q3_s']:.2f}  "
              f"failed checks {s['failed_checks']}/{s['ops'] + 1}  ru_maxrss MB after ops {rss}")
        for failure in s["failures"]:
            print(f"{side:>7}  {failure}")
    if len(cpus) == 2:
        print(f"pinned: parent on CPU {cpus[0]} and change on CPU {cpus[1]}, change faster in "
              f"{faster[0]}/{half} op pairs, paired ratio {paired[1]:.3f}; swapped, "
              f"{faster[1]}/{args.ops - half}, {paired[2]:.3f}")
    else:
        print("one CPU available: workers not pinned")
    print(f"{args.workload}: change faster in {sum(faster)}/{args.ops} op pairs; "
          f"median of change/parent per op pair {paired[0]:.3f}; "
          f"geometric mean of the half medians {geomean:.3f}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

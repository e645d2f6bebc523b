"""Cold-start and warm wall time of every pairsource subcommand.

    python3 tools/cold_start.py [--src DIR]

Cold: each of the six subcommands, with --no-mc and with Monte Carlo, runs
as a fresh `python -m pairsource.cli` process; the table gives the median
wall time of RUNS processes and, next to it, their median count of minor
page faults (the `ru_minflt` that `getrusage(RUSAGE_CHILDREN)` gains over
each process). The runs go round-robin over the commands, so that every
command meets the same host speed. Two reference rows time `python -c pass`
and a bare `import pairsource.cli`.

Warm: one process imports pairsource.cli, runs each command once untimed,
then times WARM_RUNS in-process calls of `cli.main` and reports the median.

--src selects the source tree to import (default: this repo's src), so one
copy of this script can time two commits. Only the standard library is used
here; the timed processes need what pairsource needs. One BLAS thread is set
unless the environment already sets it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = 9  # cold processes per command
WARM_RUNS = 7  # timed in-process calls per command
COMMANDS = ("qpm", "spectrum", "hom", "bell", "chsh", "rates")
MODES = {"--no-mc": ["--no-mc"], "mc": []}
REFERENCE = {"python -c pass": "pass", "import pairsource.cli": "import pairsource.cli"}
WARM_CODE = """
import contextlib, io, json, statistics, sys, time
from pairsource import cli
runs = int(sys.argv[1])
result = {}
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            cli.main(argv)
            times.append(time.perf_counter() - t0)
    result[" ".join(argv)] = statistics.median(times)
print(json.dumps(result))
"""


def _argv(command: str, mode: str) -> list[str]:
    return [command, "--no-timestamp", *MODES[mode]]


def _wall(cmd: list[str], env: dict) -> tuple[float, int]:
    """Wall time and minor page faults of one process running cmd."""
    faults0 = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls with sleeps of up to 50 ms, which
    # rounds every wall time up to the next poll
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    return wall, resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults0


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(here.parent / "src"),
                        help="source tree that holds the pairsource package")
    args = parser.parse_args(argv)

    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    py = sys.executable
    cold_cmds = {name: [py, "-c", code] for name, code in REFERENCE.items()}
    for command in COMMANDS:
        for mode in MODES:
            cold_cmds[(command, mode)] = [py, "-m", "pairsource.cli", *_argv(command, mode)]

    cold = {key: [] for key in cold_cmds}
    for _ in range(RUNS):
        for key, cmd in cold_cmds.items():
            cold[key].append(_wall(cmd, env))
    warm_argvs = [_argv(c, m) for c in COMMANDS for m in MODES]
    out = subprocess.run([py, "-c", WARM_CODE, str(WARM_RUNS), json.dumps(warm_argvs)],
                         env=env, check=True, capture_output=True, text=True, timeout=600)
    warm = json.loads(out.stdout)

    print(f"# {platform.processor() or platform.machine()}, {os.cpu_count()} CPUs, "
          f"Python {platform.python_version()}; src {args.src}")
    print(f"# cold: median of {RUNS} processes; warm: median of {WARM_RUNS} calls")
    print("| command | cold --no-mc (s) | faults | cold mc (s) | faults "
          "| warm --no-mc (ms) | warm mc (ms) |")
    print("|---|---|---|---|---|---|---|")

    def cold_cells(key) -> list[str]:
        walls, faults = zip(*cold[key])
        return [f"{statistics.median(walls):.3f}", f"{statistics.median(faults):.0f}"]

    for name in REFERENCE:
        print(f"| `{name}` | " + " | ".join(cold_cells(name)) + " | | | | |")
    for c in COMMANDS:
        cells = [cell for m in MODES for cell in cold_cells((c, m))]
        cells += [f"{1e3 * warm[' '.join(_argv(c, m))]:.1f}" for m in MODES]
        print(f"| `{c}` | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

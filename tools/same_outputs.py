"""Check that two source trees give the same CLI outputs, byte for byte.

    python3 tools/same_outputs.py --parent DIR --change DIR

Each DIR is the root of a source tree (a `git archive` of a commit, say).
Every case in CASES runs as a fresh `python -m pairsource.cli` process in each
tree, with `--no-timestamp` and `--out out`, from a working directory of its
own, so every path the run can print is the same relative string on both
sides. A case may also write a config file that overlays the bundled manifest
and pass it with `--config`. The check compares the exit code, stdout, stderr
(with the tree's root replaced by `<tree>`) and every file under `out`.

It prints one line per case and exits 1 if any case differs. The cases are
the nine golden runs of `tests/test_golden.py` plus runs that reach the
paths the goldens miss: a seeded `chsh`, tiny and short Bell scans, a
flat-top filter, a spectrum without its sideband, a tuning curve near
degeneracy, the only case whose `degenerate` column holds a 1, analytic
rates with a free-running Bob, the only case off the gated branch, and a tuning
range with no solution, the only case that writes a header-only CSV. Only the
standard library is used here; the runs need what pairsource needs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# name -> (argv, config overlay text or None)
CASES = {
    "qpm_analytic": (["qpm", "--no-mc"], None),
    "spectrum_analytic": (["spectrum", "--no-mc"], None),
    "hom_analytic": (["hom", "--no-mc"], None),
    "bell_analytic": (["bell", "--no-mc"], None),
    "chsh_analytic": (["chsh", "--no-mc"], None),
    "rates_analytic": (["rates", "--no-mc"], None),
    "hom_seed7": (["hom", "--seed", "7", "--integration-s", "5"], None),
    "bell_seed11": (["bell", "--seed", "11", "--points", "24", "--integration-s", "10"], None),
    "rates_seed5": (["rates", "--seed", "5"], None),
    "chsh_seed3": (["chsh", "--seed", "3"], None),
    "bell_integration_1e-9": (["bell", "--no-mc", "--integration-s", "1e-9"], None),
    "bell_points_7": (["bell", "--points", "7"], None),
    "spectrum_flat_top": (["spectrum", "--no-mc"], "filter.shape = flat-top\n"),
    "spectrum_no_sideband": (["spectrum", "--no-mc"], "spectrum.sideband_fraction = 0\n"),
    "qpm_near_degeneracy": (["qpm", "--no-mc"], "qpm.tuning.t_min_c = 96\n"
                            "qpm.tuning.t_max_c = 97.6\nqpm.tuning.t_step_c = 0.1\n"),
    "rates_free_running_bob": (["rates", "--no-mc"], "detector.b.mode = free_running\n"),
    "qpm_no_solution": (["qpm", "--no-mc"], "qpm.tuning.t_min_c = 500\n"
                        "qpm.tuning.t_max_c = 510\n"),
}


def run_case(root: Path, work: Path, argv: list[str], overlay: str | None) -> dict:
    """Run one case in `work` against the tree at `root`; return what it left."""
    work.mkdir(parents=True)
    if overlay is not None:
        (work / "case.config").write_text(overlay)
        argv = [*argv, "--config", "case.config"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "pairsource.cli", *argv, "--no-timestamp",
                           "--out", "out"], cwd=work, env=env, capture_output=True)
    out = work / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr.replace(str(root).encode(), b"<tree>"), **files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent source tree")
    parser.add_argument("--change", required=True, type=Path, help="changed source tree")
    args = parser.parse_args(argv)

    differing = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        for name, (case_argv, overlay) in CASES.items():
            seen = {side: run_case(getattr(args, side).resolve(), Path(tmp, side, name),
                                   case_argv, overlay) for side in SIDES}
            diff = [k for k in sorted(seen["parent"].keys() | seen["change"].keys())
                    if seen["parent"].get(k) != seen["change"].get(k)]
            differing += bool(diff)
            print(f"{name}: DIFFERS in {', '.join(diff)}" if diff else f"{name}: same")
    print(f"{differing} of {len(CASES)} cases differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

"""scipy is a test-only dependency: the package must never load it."""

import os
import subprocess
import sys
from pathlib import Path

import pairsource

CODE = """
import contextlib, io, sys
import pairsource.cli
with contextlib.redirect_stdout(io.StringIO()):
    for command in ("qpm", "spectrum", "hom", "bell", "chsh", "rates"):
        assert pairsource.cli.main([command, "--no-mc"]) == 0, command
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def test_cli_loads_no_scipy_module():
    src = str(Path(pairsource.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", CODE], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""

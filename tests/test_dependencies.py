"""What the package needs at install and import time.

The solve path (CLI, dispatcher, SAT tier, HTTP service) runs on the
standard library alone; networkx is loaded only by the extensions and
numpy by nothing.  The version ``setup.py`` installs is the one the
envelopes carry.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent
ROOT = SRC.parent

_IMPORT_DIET = """
import contextlib, io, sys
import repro, repro.__main__, repro.dispatch, repro.serve, repro.sat
from repro.__main__ import main
for n in ("7", "14"):  # Theorem 1, and Theorem 2's pole deletion
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["solve", "--n", n, "--no-cache", "--json"]) == 0
print(" ".join(sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "networkx"})))
"""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_solve_path_imports_neither_numpy_nor_networkx():
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_DIET],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_setup_version_is_the_package_version():
    proc = subprocess.run(
        [sys.executable, "setup.py", "--version"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == repro.__version__

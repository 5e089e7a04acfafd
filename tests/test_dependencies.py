"""What the package needs at install and import time.

The solve path (CLI, dispatcher, SAT tier, HTTP service) runs on the
standard library alone; networkx is loaded only by the extensions and
numpy by nothing.  A cold ``repro solve`` loads only the tiers its
route runs: closed-form solves never import the branch-and-bound
engine or the SAT subsystem, and odd n not even the process-pool
machinery.  The version ``setup.py`` installs is the one the envelopes
carry.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.api
import repro.core
import repro.util

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


_COLD_SOLVE = """
import contextlib, io, sys
from repro.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["solve", "--n", sys.argv[1], "--no-cache", "--json"]) == 0
print(" ".join(sorted(sys.modules)))
"""

# Modules no closed-form solve may load, odd or even n.
_SEARCH_TIERS = {"repro.core.engine", "repro.sat"}
# What odd n, which builds Theorem 1's ladder and nothing else, also skips.
_PROCESS_POOLS = {"repro.util.parallel", "multiprocessing", "concurrent.futures"}


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


def _cold_solve_modules(n: int) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_SOLVE, str(n)],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "n, unwanted",
    [(7, _SEARCH_TIERS | _PROCESS_POOLS), (38, _SEARCH_TIERS)],
)
def test_cold_solve_loads_only_its_route(n, unwanted):
    loaded = _cold_solve_modules(n)
    assert "repro.core.construction" in loaded
    assert sorted(loaded & unwanted) == []


@pytest.mark.parametrize("package", [repro, repro.api, repro.core, repro.util])
def test_every_lazy_public_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
        assert name in dir(package)
    with pytest.raises(AttributeError):
        getattr(package, "no_such_name")


def test_setup_version_is_the_package_version():
    proc = subprocess.run(
        [sys.executable, "setup.py", "--version"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == repro.__version__

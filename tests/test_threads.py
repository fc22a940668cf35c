"""WHAMKIT_THREADS caps BLAS threads only if whamkit is imported before
numpy; importing numpy first warns instead of being ignored silently. Each
case imports in a fresh child process."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "WHAMKIT_THREADS")


def child_stderr(code: str, **env) -> str:
    """Standard error of a child running code from the repo root, with the
    thread variables unset except those given."""
    clean = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    clean["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    proc = subprocess.run([sys.executable, "-W", "always", "-c", code], cwd=ROOT,
                          env={**clean, **env}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


def test_numpy_imported_first_warns():
    assert "WHAMKIT_THREADS=2 did not take effect" in child_stderr(
        "import numpy, whamkit", WHAMKIT_THREADS="2")


def test_blas_variable_already_set_does_not_warn():
    assert child_stderr("import numpy, whamkit", WHAMKIT_THREADS="2",
                        OPENBLAS_NUM_THREADS="2") == ""


@pytest.mark.parametrize("setup", [
    "import tests.conftest",
    "import runpy; runpy.run_path('perfbench/run.py')",
])
def test_suite_and_benchmark_set_up_without_the_warning(setup):
    assert child_stderr(f"{setup}; import numpy, whamkit") == ""

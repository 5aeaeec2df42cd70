"""Start-up cost: numpy is loaded only by naturalise's Gaussian fit.

Every command runs in its own process, and the benchmark's evaluate round
alone starts eight of them, so the import of numpy (about as long as the
rest of the package's import) is paid only where a Gaussian is fitted.
Each check runs in a fresh interpreter, since this one has numpy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcfgset

SRC = str(Path(pcfgset.__file__).resolve().parents[1])

IMPORT_ONLY = "import pcfgset, pcfgset.cli"

GENERATE = """
import tempfile
from pcfgset import cli
with tempfile.TemporaryDirectory() as tmp:
    cli.main(["generate", "--seed", "1", "--size", "20", "--out", tmp + "/base"])
"""

GAUSSIAN_FIT = """
from pcfgset.cli import reference_spec_path
from pcfgset.naturalise import DistributionSpec, fit_gaussian_spec
fit_gaussian_spec(DistributionSpec.from_csv(reference_spec_path()))
"""


def numpy_loaded_after(code: str) -> bool:
    check = code + "\nimport sys\nprint('numpy' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


MODULES = ["cli", "corpus_io", "generation", "harness", "language", "metrics",
           "naturalise", "seeding", "suite"]


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone_without_numpy(module):
    # a module imported first, alone, would fail here on an import cycle
    assert numpy_loaded_after(f"import pcfgset.{module}") is False


@pytest.mark.parametrize("code, loaded", [
    (IMPORT_ONLY, False),
    (GENERATE, False),
    (GAUSSIAN_FIT, True),
], ids=["import", "generate", "gaussian-fit"])
def test_numpy_is_loaded_only_by_the_gaussian_fit(code, loaded):
    assert numpy_loaded_after(code) is loaded

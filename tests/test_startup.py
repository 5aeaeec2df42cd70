"""Start-up cost: what importing the package and running a command load.

Every command runs in its own process, and the benchmark's evaluate round
alone starts eight of them, so whatever an import loads is paid per
process.  numpy (about as long as the rest of the package's import) is
loaded only where naturalise fits a Gaussian.  ``dataclasses`` is loaded
by no module: its import (with ``inspect``, ``ast``, ``dis`` and
``tokenize``) and decorating the package's records took 20–30 ms of
every process, so the records are ``NamedTuple``s and plain classes.
Nor does the package load ``importlib.resources``, which brings
``zipfile`` and ``tempfile`` (14–21 ms): the bundled reference
histogram is found next to ``cli.py``.  A bare ``python -m pcfgset
oracle``, the child a ``cmd:`` adapter starts and restarts, loads only
``language`` of the package.  The adapter harness, with ``subprocess``,
``selectors`` and ``shlex`` (15–22 ms of ``-X importtime`` cumulative),
and the ``metrics`` it imports, load only for ``eval``, the one command
that runs an adapter; ``naturalise`` stays an eager import of ``cli``
because the benchmark's ``tracing.install`` finds it in ``sys.modules``
after importing ``pcfgset.cli``.  Each check runs in a fresh
interpreter, since this one has these modules loaded.
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

VALIDATE_AND_TESTBUILD = """
import tempfile
from pcfgset import cli
with tempfile.TemporaryDirectory() as tmp:
    cli.main(["generate", "--seed", "1", "--size", "200", "--out", tmp + "/base"])
    assert cli.main(["validate", "--data", tmp + "/base"]) == 0
    cli.main(["testbuild", "--test", "productivity", "--base", tmp + "/base",
              "--out", tmp + "/prod", "--seed", "1", "--threshold", "3"])
"""

EVAL = """
import tempfile
from pcfgset import cli
with tempfile.TemporaryDirectory() as tmp:
    cli.main(["generate", "--seed", "1", "--size", "20", "--out", tmp + "/base"])
    cli.main(["eval", "accuracy", "--data", tmp + "/base", "--out", tmp + "/eval"])
"""

GAUSSIAN_FIT = """
from pcfgset.cli import reference_spec_path
from pcfgset.naturalise import DistributionSpec, fit_gaussian_spec
fit_gaussian_spec(DistributionSpec.from_csv(reference_spec_path()))
"""


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def loaded_after(code: str, names: set[str], flags: tuple[str, ...] = ()) -> set[str]:
    """Which of ``names`` a fresh interpreter, started with ``flags``, has
    loaded after ``code``."""
    check = code + f"\nimport sys\nprint(' '.join(sorted({names!r} & set(sys.modules))))\n"
    proc = subprocess.run([sys.executable, *flags, "-c", check], capture_output=True,
                          text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def numpy_loaded_after(code: str) -> bool:
    return loaded_after(code, {"numpy"}) == {"numpy"}


RECORD_MACHINERY = {"dataclasses", "inspect"}


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


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone_without_dataclasses(module):
    assert loaded_after(f"import pcfgset.{module}", RECORD_MACHINERY) == set()


@pytest.mark.parametrize("code", [IMPORT_ONLY, GENERATE], ids=["import", "generate"])
def test_no_command_path_loads_dataclasses(code):
    assert loaded_after(code, RECORD_MACHINERY) == set()


def test_the_command_line_module_loads_no_resource_machinery():
    # -S: no site module, so no .pth file of an installed package loads
    # importlib.resources ahead of the package
    assert loaded_after(IMPORT_ONLY, {"importlib.resources", "tempfile"}, ("-S",)) == set()


def test_a_bare_oracle_child_loads_only_the_interpreter():
    # -X importtime names on stderr every module the command imports
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "pcfgset", "oracle"],
                          input="swap A B\n", capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "B A\n")
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    package = {name for name in imported if name.startswith("pcfgset")}
    assert package == {"pcfgset", "pcfgset.language"}


ADAPTER_HARNESS = {"pcfgset.harness", "pcfgset.metrics", "subprocess", "selectors"}


@pytest.mark.parametrize("code", [IMPORT_ONLY, GENERATE, VALIDATE_AND_TESTBUILD],
                         ids=["import", "generate", "validate-testbuild"])
def test_only_eval_loads_the_adapter_harness(code):
    assert loaded_after(code, ADAPTER_HARNESS) == set()


def test_eval_loads_the_adapter_harness():
    # so that a misspelt name cannot make the test above pass
    assert loaded_after(EVAL, ADAPTER_HARNESS) == ADAPTER_HARNESS


def test_the_command_line_module_still_loads_naturalise():
    # tracing.install imports pcfgset.cli, then wraps the functions of the
    # pcfgset.naturalise it reads from sys.modules
    assert loaded_after(IMPORT_ONLY, {"pcfgset.naturalise"}) == {"pcfgset.naturalise"}

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
that runs an adapter.  The test constructors of ``suite`` (5–7 ms) load
only for ``testbuild`` and ``eval``: ``corpus_io`` imports the suite's
records where it reads a pairs or exceptions sidecar, so ``generate``,
``naturalise``, a ``validate`` without ``--exceptions`` and ``oracle``
never load it, even where they read a ``synonyms.json``, since a synonym
map is a plain dict that the registry checks.  ``naturalise``
stays an eager import of ``cli`` because the benchmark's
``tracing.install`` finds it in ``sys.modules`` after importing
``pcfgset.cli`` and then ``generation`` and ``harness``; ``harness``
brings ``suite`` in.  A command process runs without the cyclic garbage
collector (``__main__.main`` turns it off; ``cli.main`` leaves a library
caller's on), since the package's records form no cycles and a command
leaves the same few hundred cyclic objects at any corpus size.  Each
check runs in a fresh interpreter, since this one has these modules
loaded.
"""

import contextlib
import io
import json
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

VALIDATE = """
import tempfile
from pcfgset import cli
with tempfile.TemporaryDirectory() as tmp:
    cli.main(["generate", "--seed", "1", "--size", "200", "--out", tmp + "/base"])
    assert cli.main(["validate", "--data", tmp + "/base"]) == 0
"""

# the two commands that read a synonyms.json, on a substitutivity-ed output
VALIDATE_SYNONYMS = """
from pcfgset import cli
assert cli.main(["validate", "--data", {ed!r}]) == 0
"""

ORACLE_SYNONYMS = """
import contextlib, io, sys
from pcfgset import cli
sys.stdin, out = io.StringIO("swap_syn A B\\n"), io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["oracle", "--synonyms", {ed!r} + "/synonyms.json"]) == 0
assert out.getvalue() == "B A\\n", out.getvalue()
"""

NATURALISE = """
import tempfile
from pcfgset import cli
with tempfile.TemporaryDirectory() as tmp:
    cli.main(["naturalise", "--seed", "0", "--sample-size", "500", "--out", tmp + "/n"])
"""

# what the benchmark's tracing.install imports before it wraps functions
TRACER = "import pcfgset.cli\nfrom pcfgset import generation, harness"

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


@pytest.fixture(scope="module")
def synonym_corpus(tmp_path_factory) -> str:
    """A substitutivity-ed output, built in this interpreter."""
    from pcfgset import cli
    root = tmp_path_factory.mktemp("synonyms")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["generate", "--seed", "1", "--size", "200", "--out", str(root / "base")])
        cli.main(["testbuild", "--test", "substitutivity-ed", "--base", str(root / "base"),
                  "--out", str(root / "ed"), "--seed", "1"])
    return str(root / "ed")


@pytest.mark.parametrize("code", [IMPORT_ONLY, GENERATE, VALIDATE, NATURALISE,
                                  VALIDATE_SYNONYMS, ORACLE_SYNONYMS],
                         ids=["import", "generate", "validate", "naturalise",
                              "validate-synonyms", "oracle-synonyms"])
def test_only_testbuild_and_eval_load_the_suite(code, synonym_corpus):
    assert loaded_after(code.format(ed=synonym_corpus), {"pcfgset.suite"}) == set()


@pytest.mark.parametrize("code", [VALIDATE_AND_TESTBUILD, EVAL], ids=["testbuild", "eval"])
def test_testbuild_and_eval_load_the_suite(code):
    # so that a misspelt name cannot make the test above pass
    assert loaded_after(code, {"pcfgset.suite"}) == {"pcfgset.suite"}


def test_the_tracer_imports_load_every_module_it_wraps():
    wrapped = {f"pcfgset.{name}" for name in
               ("generation", "corpus_io", "suite", "harness", "metrics", "naturalise")}
    assert loaded_after(TRACER, wrapped) == wrapped


COLLECTOR_AFTER = """
import gc, sys, tempfile
from pcfgset import __main__ as entry, cli
with tempfile.TemporaryDirectory() as tmp:
    argv = ["generate", "--seed", "1", "--size", "20", "--out", tmp + "/base"]
    {run}
print(gc.isenabled())
"""


@pytest.mark.parametrize("run, enabled", [
    ("sys.argv = ['pcfgset', *argv]; entry.main()", "False"),
    ("cli.main(argv)", "True"),
], ids=["entry-point", "cli-main"])
def test_only_the_entry_point_turns_the_cyclic_collector_off(run, enabled):
    proc = subprocess.run([sys.executable, "-c", COLLECTOR_AFTER.format(run=run)],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == enabled


# What each command leaves for the cyclic collector, run with it off as a
# command process runs.  Malformed lines for the oracle: unknown token,
# structural faults, an output too long to build, alone and before a fault.
CYCLIC_GARBAGE = """
import contextlib, gc, io, json, tempfile
from pcfgset import cli, corpus_io, language
gc.collect()
gc.disable()
left = {{}}
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    base = tmp + "/base"
    for name, argv in [
        ("generate", ["generate", "--seed", "1", "--size", "{size}", "--out", base]),
        ("validate", ["validate", "--data", base]),
        ("overgen", ["testbuild", "--test", "overgen", "--base", base, "--out", tmp + "/og",
                     "--seed", "1"]),
        ("localism", ["eval", "localism", "--data", base, "--out", tmp + "/loc"]),
    ]:
        cli.main(argv)
        left[name] = gc.collect()
    bad = ["nope A", "swap A", ", A", "copy A B , C", "", "repeat " * 30 + "A",
           "repeat " * 30 + "A ,"]
    lines = [" ".join(src) for src in corpus_io.read_token_file(base + "/train.src")]
    text = "".join(f"{{line}}\\n{{bad[i % len(bad)]}}\\n" for i, line in enumerate(lines))
    language.serve(language.DEFAULT_REGISTRY, io.StringIO(text), io.StringIO())
    left["serve"] = gc.collect()
print(json.dumps(left))
"""


def cyclic_garbage(size: int) -> dict[str, int]:
    proc = subprocess.run([sys.executable, "-c", CYCLIC_GARBAGE.format(size=size)],
                          capture_output=True, text=True, env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_leave_the_same_cyclic_garbage_at_any_size():
    # a record type or error path that formed cycles would leave garbage
    # growing with the corpus, which nothing collects in a command process
    small, large = cyclic_garbage(200), cyclic_garbage(2000)
    assert small.keys() == large.keys() == {"generate", "validate", "overgen", "localism",
                                            "serve"}
    for name, count in large.items():
        assert abs(count - small[name]) <= 50 and count < 2000, (name, small, large)

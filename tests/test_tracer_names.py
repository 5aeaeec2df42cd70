"""The names the benchmark's tracer wraps still exist.

``perfbench/tracing.py`` installs its timing wrappers by looking up
functions by name: the module functions of its ``SPANNED`` and
``TALLIED`` tables, ``Corpus.split`` and
``SubprocessAdapter.predict_batch``.  A renamed or removed function
would otherwise show up only when someone runs the benchmark with
``--trace 1``.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

from pcfgset.generation import Corpus  # noqa: E402
from pcfgset.harness import SubprocessAdapter  # noqa: E402

WRAPPED = sorted(
    (module, name)
    for table in (tracing.SPANNED, tracing.TALLIED)
    for module, names in table.items()
    for name in names
)


@pytest.mark.parametrize("module, name", WRAPPED, ids=[f"{m}.{n}" for m, n in WRAPPED])
def test_every_function_the_tracer_wraps_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"pcfgset.{module}"), name, None))


@pytest.mark.parametrize("owner, name", [(Corpus, "split"),
                                         (SubprocessAdapter, "predict_batch")],
                         ids=["Corpus.split", "SubprocessAdapter.predict_batch"])
def test_every_method_the_tracer_wraps_resolves(owner, name):
    assert callable(getattr(owner, name, None))

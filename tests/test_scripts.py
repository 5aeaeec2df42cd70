"""The provenance scripts run against the library as it stands.

Both scripts import library API, so each is run once, small, in a fresh
interpreter: a renamed or removed name fails here instead of at the next
provenance run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pcfgset
from pcfgset.naturalise import DistributionSpec

SRC = str(Path(pcfgset.__file__).resolve().parents[1])
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_build_reference_distribution_writes_a_readable_spec(tmp_path):
    out = tmp_path / "ref.csv"
    run_script("build_reference_distribution.py", "--pool-size", 3000, "--out", out)
    assert DistributionSpec.from_csv(out).total > 0


def test_calibrate_default_grammar_starts():
    assert "--size" in run_script("calibrate_default_grammar.py", "--help").stdout

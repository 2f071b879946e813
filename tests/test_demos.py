"""Each demo script runs to completion as its own process and prints its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout.  A refactor must leave every output
# byte-identical; a change that means to alter one records its new digest.
STDOUT_SHA256 = {
    "01_quandle_basics": "5fa7bac1c36a568608307cd5399ae58e6e185134ee1f5213a48f64ee7889cf4d",
    "02_quandle_algebra": "d9b5f4bab8f128a5b459afcecbdcd2ef9faef83813fcfb4858c154d7e1e592b4",
    "03_derivation_spaces": "ee7d7efaec735d56a2f4bde8dd6c4d3d657a162b055b9f29c621cbe06059aa84",
    "04_dihedral_symmetries": "2c42f223af880722d59f8a25168e1dfb50356cd2ae778f3e4731eab7e8fc81fc",
    "05_lie_transformation": "bdf90ba7c5a095fe448baefdd59936be9e11cb0fa17d06c0250afeedfb30bb26",
    "06_reference_tables": "86bcf0c7d492c13b23f3eaef18164e4adc0623312e21a8f735e03c216b50484b",
}


def test_every_demo_is_found():
    assert len(DEMOS) == 6
    assert sorted(p.stem for p in DEMOS) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[script.stem]

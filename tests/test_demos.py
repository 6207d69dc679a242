"""The demos run end to end and print exactly the bytes they printed before.

Each demo runs in a fresh interpreter with the package's source tree on
PYTHONPATH, so a demo that imports a renamed or removed name fails here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zipstrata

SRC = Path(zipstrata.__file__).resolve().parents[1]
DEMOS = SRC.parent / "demos"

# sha256 of each demo's stdout; stderr carries progress and is not pinned
DEMO_DIGESTS = {
    "demo_counterexample.py": "eb073bb6661788aed919e01d3397eadf2ddab03c35c80681d02ba873b404a7ec",
    "demo_dieudonne_classify.py": "21b0bcebca1c6452e19c26e5daf59881deaa1a5df1d8555d0b18c29e094f1004",
    "demo_k3_strata.py": "1100f2b6e6a9d94dda9c5dff103943442d6a65d3451380b8034b5a2c7541d939",
    "demo_weyl_poset.py": "ca3cb208c5043085b8eee961f93f4a9f6ff9efc5826f627bf61957bece0c53e4",
    "demo_witt_reduction.py": "277595a42aa8dab21a444f68e057ba33453d229b1307d49b3e15165ce18502f1",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_runs_and_keeps_its_stdout(name):
    result = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_DIGESTS[name]

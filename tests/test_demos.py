"""Each demo script runs to completion against this source tree.

The demos are run in a fresh interpreter from an empty working directory,
because `large_network_run.py` writes its CSVs into the working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = (
    "covariance_consensus",
    "large_network_run",
    "stability_regions",
    "state_consensus_limit",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr

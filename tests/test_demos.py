"""Each demo script and the README's library tour run to completion
against this source tree.

They are run in a fresh interpreter from an empty working directory,
because `large_network_run.py` writes its CSVs into the working directory.
"""

import os
import re
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


def _run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    _run_python([str(ROOT / "demos" / f"{demo}.py")], tmp_path)


def test_readme_tour_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    _run_python(["-c", blocks[0]], tmp_path)

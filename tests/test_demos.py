"""Smoke runs of the demos: each must run to completion and exit 0.

Only the sub-second demos run here (01-04 and 07, about 0.4 s each).
05_train_copy.py and 06_needle.py train models for about a minute each;
they are left out to keep the suite fast, and the acceptance tests cover
the training and retrieval paths they drive.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
FAST_DEMOS = [
    "01_primitives.py",
    "02_cost_model.py",
    "03_layouts.py",
    "04_intra_fusion.py",
    "07_decode.py",
]


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]

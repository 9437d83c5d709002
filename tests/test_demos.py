"""Smoke test: the quick demo scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# demos/04_size_power_study.py takes ~13 s; its size/power claim is acceptance
# criterion 8.
QUICK_DEMOS = ["01_replicate_any_law.py", "02_discrete_dichotomy.py", "03_testable_implications.py"]


@pytest.mark.parametrize("script", QUICK_DEMOS)
def test_demo_runs(tmp_path, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

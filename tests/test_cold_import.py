"""Start-up cost: scipy is loaded only when ``ivtest feasibility`` builds a witness.

Each check runs in a fresh interpreter, because this test process has scipy
loaded already (``tests/test_validity.py`` imports ``scipy.optimize``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from ivtest import DGPSpec, discretize, sample

ROOT = Path(__file__).resolve().parents[1]

# runs main on each argv of a JSON list, then prints the scipy modules loaded
RUN_MAIN = """
import json, sys
import ivtest, ivtest.cli
for argv in json.loads(sys.argv[1]):
    assert ivtest.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def run_main(argvs):
    """Run ``main`` on each argv in a fresh interpreter; the scipy modules it left loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_MAIN, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_replicate_test_and_simulate_leave_scipy_unloaded(tmp_path):
    data = sample(DGPSpec(name="loc"), 2_000, seed=3)
    law_path, csv_path = tmp_path / "law.json", tmp_path / "rows.csv"
    law_path.write_text(json.dumps(discretize(data, 4, 4, 4).to_json_dict()))
    csv_path.write_text(data.to_csv_text())
    config = {"specs": [{"name": "loc"}], "tests": [{"name": "fosd"}], "n": 500, "reps": 2}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = str(tmp_path / "out")
    argvs = [
        ["replicate", "--input", str(law_path), "--depth", "4", "--output", out],
        ["test", "--input", str(law_path), "--output", out],
        ["test", "--input", str(csv_path), "--output", out],
        ["test", "--input", str(law_path), "--format", "csv", "--output", out],
        ["test", "--input", str(law_path), "--test", "feasibility", "--output", out],
        ["simulate", "--input", str(config_path), "--output", out],
        ["simulate", "--input", str(config_path), "--format", "csv", "--output", out],
    ]
    assert run_main(argvs) == []


def test_feasibility_witness_loads_scipy(tmp_path):
    path = tmp_path / "feasible.json"
    path.write_text(json.dumps({"conditionals": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]]}))
    loaded = run_main([["feasibility", "--input", str(path), "--output", str(tmp_path / "out")]])
    assert "scipy.optimize" in loaded
    assert json.loads((tmp_path / "out").read_text())["decision"] == "consistent"

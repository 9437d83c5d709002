"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest ivbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(tmp_path, *args, cwd=ROOT, script=BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--seconds", "0.5", "--scale", "tiny",
           "--results", str(tmp_path / "results"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def last_json(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_schema(result: dict, expected: list[dict]):
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, workload):
    result = last_json(bench(tmp_path, "--workload", workload, "--seed", "5", "--trace", "0"))
    check_schema(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0
    [record] = (tmp_path / "results").glob("*.json")
    prov = json.loads(record.read_text())["provenance"]
    for key in ("nproc", "python", "numpy", "scipy", "git_sha", "seed", "threads", "ops_attempted",
                "tail_percentile"):
        assert key in prov
    assert prov["seed"] == 5 and prov["tail_percentile"] >= 50


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_writes_linked_spans(tmp_path, workload):
    result = last_json(bench(tmp_path, "--workload", workload, "--trace", "1"))
    check_schema(result, SPEC["per_layer"])
    assert result["metrics"]["trace.coverage"]["value"] > 0.9
    assert result["metrics"]["trace.overhead"]["value"] > 0
    [record] = (tmp_path / "results").glob("*.json")
    spans_file = ROOT / json.loads(record.read_text())["notes"]["spans"]
    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    ids = {s["id"] for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    assert roots and all(s["name"] == "op" for s in roots)
    children = [s for s in spans if s["parent"] is not None]
    assert children and all(s["parent"] in ids for s in children)
    assert all(s["op"] is not None and s["end"] >= s["start"] for s in spans)


def test_all_prints_every_workload(tmp_path):
    done = bench(tmp_path, "--workload", "all")
    result = last_json(done)
    for w in run.WORKLOADS:
        assert f"{w}.ops_per_s" in result["metrics"]
        assert f"{w}, seed 1: end-to-end" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "ivbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = bench(tmp_path, "--workload", "replicate", cwd=tmp_path,
                 script=tmp_path / "ivbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- broken outputs count as failures -----------------------------------------


@pytest.fixture(scope="module")
def iv():
    sys.path.insert(0, str(ROOT / "src"))
    import ivtest
    import ivtest.cli  # noqa: F401

    return ivtest


def test_nonzero_replication_error_is_a_failure(iv, tmp_path):
    class Broken(workloads.Replicate):
        def op(self, i):
            error, payload = super().op(i)
            return error + 1e-12, payload

    wl = Broken(iv, 1, workloads.TINY, tmp_path)
    assert wl.check(0, workloads.Replicate.op(wl, 0)) == []
    run_ = run.measure(wl, 0.0)
    assert run_["attempted"] == 2
    assert len(run_["failures"]) == 2
    assert "not exactly 0.0" in run_["failures"][0]


def test_op_time_is_cpu_time_rescaled_by_the_calibration_around_it(iv, tmp_path):
    wl = workloads.Replicate(iv, 1, workloads.TINY, tmp_path)
    run_ = run.measure(wl, 0.0)
    cal = run_["calibration_s"]
    assert len(cal) == run_["attempted"] == 2  # one point after the warm-up, one after op 1
    [norm], [cpu] = run_["latencies"], run_["cpu_s"]
    assert all(len(c) >= calibrate.MIN_SLICES and min(c) > 0 for c in cal)
    assert norm == pytest.approx(cpu * calibrate.REFERENCE_S / (sum(cal[0] + cal[1]) / len(cal[0] + cal[1])))
    assert run_["wall_s"][0] > 0


def test_changed_csv_bytes_are_a_failure(iv, tmp_path):
    wl = workloads.Simulate(iv, 1, workloads.TINY, tmp_path)
    csv = wl.op(0)
    assert wl.check(0, csv) == []
    again = wl.size.sim_seeds  # same master seed as op 0
    assert wl.check(again, csv) == []
    assert wl.check(again, csv.replace("\n", "\r\n")) != []
    lines = csv.splitlines(keepends=True)
    flipped = [ln.replace(",0.0,1,", ",1.0,1,") if "@replicated" in ln else ln for ln in lines]
    assert wl.check(again, "".join(flipped)) != []


def test_cli_report_must_match_the_library(iv, tmp_path):
    wl = workloads.TestCsv(iv, 1, workloads.TINY, tmp_path)
    assert wl.check(0, wl.op(0)) == []
    k, code = wl.op(1)
    wl.output.write_text(wl.output.read_text().replace('"decision": "', '"decision": "x'))
    assert wl.check(1, (k, code)) != []


def test_model_query_checks_collision_bound(iv, tmp_path):
    wl = workloads.ModelQuery(iv, 1, workloads.TINY, tmp_path)
    rows, collision = wl.op(0)
    assert wl.check(0, (rows, collision)) == []
    assert wl.check(1, (rows, collision * 2)) != []
    outside = rows.copy()
    outside[0, 2] = wl.z_bounds[1] + 1.0
    assert wl.check(2, (outside, collision)) != []


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(200) == 95.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(7) == 50.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5

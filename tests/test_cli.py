"""CLI surface: formats, exit codes, determinism."""

import argparse
import itertools
import json

import numpy as np
import pytest

from ivtest import (
    Conditional2D,
    DGPSpec,
    GeneratorMap,
    GridDistribution,
    JointLaw,
    build_generator,
    collision_fraction,
    compose_structural_model,
    discretize,
    make_test,
    sample,
)
from ivtest import cli, validity
from ivtest.cli import build_parser, main
from ivtest.simulate import ExperimentResult
from ivtest.validity import REGISTRY

from conftest import assert_tuple_plan, bernoulli_support_jump_law, location_family_law


@pytest.fixture
def law_file(tmp_path):
    law = discretize(sample(DGPSpec(name="loc"), 4_000, seed=3), 4, 4, 4)
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law.to_json_dict()))
    return path


@pytest.fixture
def sim_config(tmp_path):
    cfg = {
        "specs": [
            {"name": "loc-valid"},
            {
                "name": "loc-invalid",
                "instrument_valid": False,
                "copula_weight": 1.0,
                "copula_target": "v",
            },
        ],
        "tests": [{"name": "fosd", "tol": 0.12}, {"name": "sure-decrease", "K": 1.0}],
        "n": 1000,
        "reps": 3,
        "bins": [4, 4, 4],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def rebuilt_collision(law_path, depth):
    """``collision_fraction`` of the generator rebuilt from a law file."""
    law = JointLaw.from_json_dict(json.loads(law_path.read_text()))
    return collision_fraction(build_generator(law.x_marginals(), law.pz, law.z_grid, depth))


def test_replicate_success(law_file, tmp_path, capsys):
    out = tmp_path / "model.json"
    rc = main(["replicate", "--input", str(law_file), "--depth", "4", "--output", str(out)])
    assert rc == 0
    collision = rebuilt_collision(law_file, 4)
    assert capsys.readouterr().out.splitlines() == [
        "replication error: 0.0",
        "generator: depth 4, arity 2, 16 z cells, 16 latent cells",
        f"collision fraction: {collision!r}",
    ]
    payload = json.loads(out.read_text())
    assert payload["replication_error"] == 0.0
    assert payload["collision_fraction"] == collision
    assert payload["independence"] is True
    assert payload["generator"]["depth"] == 4
    assert payload["generator"]["arity"] == 2
    # one pattern per z cell, each an image of latent cell 0
    cells = payload["generator"]["cells"]
    assert len(cells) == 16 and all(type(p) is int and 0 <= p < 16 for p in cells)


def test_replicate_reports_an_atomic_generator(tmp_path, capsys):
    """Two pz atoms: arity 4 and one z cell per atom; their x supports are
    disjoint, so both keep the base map, pattern 0."""
    law_path = tmp_path / "atoms.json"
    law_path.write_text(json.dumps(bernoulli_support_jump_law().to_json_dict()))
    out = tmp_path / "model.json"
    assert main(["replicate", "--input", str(law_path), "--depth", "2", "--output", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "generator: depth 2, arity 4, 2 z cells, 16 latent cells"
    )
    gen = json.loads(out.read_text())["generator"]
    assert gen["arity"] == 4
    assert gen["cells"] == [0, 0]


def eight_cubed_law_file(tmp_path):
    rng = np.random.default_rng(14)
    y_edges, x_edges = np.linspace(-1.0, 2.0, 9), np.linspace(0.0, 3.0, 9)
    conds = []
    for _ in range(8):
        m = rng.gamma(1.0, size=(8, 8)) + 0.01
        conds.append(Conditional2D(y_edges, x_edges, m / m.sum()))
    law = JointLaw((np.arange(8) + 0.5) / 8, GridDistribution.uniform(0.0, 1.0, 8), tuple(conds))
    path = tmp_path / "law8.json"
    path.write_text(json.dumps(law.to_json_dict()))
    return path


def test_replicate_depth_14(tmp_path, capsys):
    """Past the old depth-12 cap: 2**14 rows, one pattern each."""
    out = tmp_path / "model.json"
    law_path = eight_cubed_law_file(tmp_path)
    args = ["replicate", "--input", str(law_path), "--depth", "14"]
    assert main(args + ["--output", str(out)]) == 0
    collision = rebuilt_collision(law_path, 14)
    assert collision <= 2.0**-14
    assert capsys.readouterr().out.splitlines() == [
        "replication error: 0.0",
        "generator: depth 14, arity 2, 16384 z cells, 16384 latent cells",
        f"collision fraction: {collision!r}",
    ]
    payload = json.loads(out.read_text())
    assert payload["collision_fraction"] == collision
    gen = payload["generator"]
    assert len(gen["cells"]) == 2**14
    assert all(type(p) is int and 0 <= p < 2**14 for p in gen["cells"])
    assert len(set(gen["cells"])) == 2**14  # no two z cells share a map


def test_replicate_depth_64_refused_at_once(tmp_path, capsys):
    args = ["replicate", "--input", str(eight_cubed_law_file(tmp_path)), "--depth", "64"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "depth 64 at arity 2 needs more than 16777216 latent cells" in captured.err


def test_replicate_missing_file(tmp_path):
    rc = main(["replicate", "--input", str(tmp_path / "absent.json")])
    assert rc == 1


def test_replicate_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"not\": \"a law\"}")
    assert main(["replicate", "--input", str(bad)]) == 1


def test_replicate_refuses_discrete_violation(tmp_path, capsys):
    # single positive x bin per z site: atomic treatment at grid resolution
    law = {
        "z_grid": [0.25, 0.75],
        "pz": {"edges": [0.0, 0.5, 1.0], "masses": [0.5, 0.5], "atoms": []},
        "conditionals": [
            {
                "y_edges": [0, 0.5, 1],
                "x_edges": [0, 0.5, 1],
                "mass": [[1.0, 0.0], [0.0, 0.0]],
            },
            {
                "y_edges": [0, 0.5, 1],
                "x_edges": [0, 0.5, 1],
                "mass": [[1.0, 0.0], [0.0, 0.0]],
            },
        ],
    }
    path = tmp_path / "discrete.json"
    path.write_text(json.dumps(law))
    rc = main(["replicate", "--input", str(path)])
    assert rc == 2
    assert "refused" in capsys.readouterr().err


def test_feasibility_infeasible_example(tmp_path, capsys):
    path = tmp_path / "feas.json"
    path.write_text(json.dumps({"conditionals": [[0.7, 0.3], [0.5, 0.5]]}))
    rc = main(["feasibility", "--input", str(path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["decision"] == "reject"
    assert report["statistic"] == 1.0 and report["threshold"] == 0.0
    assert report["diagnostics"]["excess"] == pytest.approx(0.2, abs=1e-12)


def test_feasibility_feasible_with_coupling(tmp_path, capsys):
    path = tmp_path / "feas.json"
    for conditionals in (
        [[0.5, 0.5], [0.5, 0.5]],
        [[0.5, 0.3, 0.2, 0.0], [0.0, 0.5, 0.3, 0.2], [0.2, 0.0, 0.5, 0.3]],
    ):
        path.write_text(json.dumps({"conditionals": conditionals}))
        rc = main(["feasibility", "--input", str(path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["decision"] == "consistent"
        assert report["statistic"] == 0.0 and report["diagnostics"] == {"excess": 0.0}
        assert_tuple_plan(conditionals, report["tuples"], report["weights"], atol=1e-9)


def test_feasibility_unnormalized_exit1(tmp_path):
    path = tmp_path / "feas.json"
    path.write_text(json.dumps({"conditionals": [[0.7, 0.6], [0.5, 0.5]]}))
    assert main(["feasibility", "--input", str(path)]) == 1


def test_cmd_test_bernoulli_jump_rejects(tmp_path, capsys):
    law = bernoulli_support_jump_law()
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law.to_json_dict()))
    rc = main(["test", "--input", str(path), "--test", "jump", "--K", "1.0"])
    assert rc == 0
    [report] = json.loads(capsys.readouterr().out)
    assert report["decision"] == "reject"
    assert report["statistic"] == pytest.approx(3.0, abs=1e-9)


def test_cmd_test_location_family_consistent(tmp_path, capsys):
    law = location_family_law([0.0, 0.25, 0.5, 0.75])
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law.to_json_dict()))
    rc = main(
        ["test", "--input", str(path), "--test", "fosd", "--test", "sure-decrease",
         "--test", "jump", "--test", "pearl", "--test", "moment", "--format", "csv"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "test,statistic,threshold,decision"
    decisions = {ln.split(",")[0]: ln.split(",")[-1] for ln in lines[1:]}
    assert decisions["fosd"] == "consistent"
    assert decisions["sure-decrease"] == "consistent"
    assert decisions["jump"] == "consistent"
    assert decisions["pearl"] == "consistent"
    assert decisions["moment"] == "consistent"


def test_cmd_test_dataset_csv_autodiscretized(tmp_path, capsys):
    data = sample(DGPSpec(name="loc"), 2_000, seed=4)
    path = tmp_path / "rows.csv"
    path.write_text(data.to_csv_text())
    rc = main(["test", "--input", str(path), "--bins", "4,4,4", "--test", "fosd", "--tol", "0.12"])
    assert rc == 0
    [report] = json.loads(capsys.readouterr().out)
    assert report["decision"] == "consistent"


def test_cmd_test_reads_upper_case_csv_suffix_as_csv(tmp_path, capsys):
    text = sample(DGPSpec(name="loc"), 2_000, seed=4).to_csv_text()
    reports = []
    for name in ("rows.csv", "ROWS.CSV"):
        (tmp_path / name).write_text(text)
        assert main(["test", "--input", str(tmp_path / name), "--format", "csv"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert reports[0].startswith("test,statistic,threshold,decision\n")


def test_inputs_with_a_byte_order_mark_read_as_without(tmp_path, capsys, law_file):
    """A leading UTF-8 byte-order mark, which spreadsheets write, is
    dropped: a CSV and a JSON input give the same report with one."""
    csv = tmp_path / "rows.csv"
    csv.write_text(sample(DGPSpec(name="loc"), 2_000, seed=4).to_csv_text())
    for path in (csv, law_file):
        reports = []
        for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            copy = tmp_path / f"{name}{path.suffix}"
            copy.write_bytes(bom + path.read_bytes())
            assert main(["test", "--input", str(copy), "--format", "csv"]) == 0, path
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1], path
        assert reports[0].startswith("test,statistic,threshold,decision\n")


MALFORMED_CSVS = {
    "header-only": "y,x,z\n",
    "ragged-row": "y,x,z\n1,2,3\n4,5\n",
    "empty-field": "y,x,z\n1,,3\n",
    "non-numeric-field": "y,x,z\n1,2,3\n1,two,3\n",
    "nan": "y,x,z\n1,2,3\nnan,2,3\n",
}


@pytest.mark.parametrize("case", list(MALFORMED_CSVS))
def test_cmd_test_malformed_csv_exits_1(tmp_path, capsys, case):
    path = tmp_path / "rows.csv"
    path.write_text(MALFORMED_CSVS[case])
    assert main(["test", "--input", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["replicate", "test"])
def test_nan_cell_in_joint_law_exits_1(law_file, tmp_path, capsys, command):
    obj = json.loads(law_file.read_text())
    obj["conditionals"][1]["mass"][2][1] = float("nan")
    path = tmp_path / "nan_law.json"
    path.write_text(json.dumps(obj))  # written as the NaN literal json reads back
    assert main([command, "--input", str(path)]) == 1
    assert capsys.readouterr().err == "error: cell masses must be finite: nan at index (2, 1)\n"


def _set(*path):
    """Set the entry at ``path[:-1]`` of a law object to ``path[-1]``."""
    def edit(obj):
        *keys, last, value = path
        for key in keys:
            obj = obj[key]
        obj[last] = value
    return edit


MALFORMED_LAWS = {
    "non-numeric-edge": _set("conditionals", 0, "y_edges", 1, "a"),
    "non-numeric-mass": _set("conditionals", 1, "mass", 0, 0, "a"),
    "non-numeric-z": _set("z_grid", 0, "a"),
    "non-numeric-pz-mass": _set("pz", "masses", 0, "a"),
    "short-atom-pair": _set("pz", "atoms", [[0.5]]),
    "ragged-mass": _set("conditionals", 2, "mass", 0, [0.25]),
    "conditionals-not-a-list": _set("conditionals", 3),
}


@pytest.mark.parametrize("case", list(MALFORMED_LAWS))
@pytest.mark.parametrize("command", ["replicate", "test"])
def test_malformed_joint_law_exits_1(law_file, tmp_path, capsys, command, case):
    """A value that does not parse is refused with one error line, naming
    the object it lies in, before any law is built."""
    obj = json.loads(law_file.read_text())
    MALFORMED_LAWS[case](obj)
    path = tmp_path / "bad_law.json"
    path.write_text(json.dumps(obj))
    assert main([command, "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed ") and err.count("\n") == 1


def test_cmd_test_feasibility_selection(law_file, capsys):
    rc = main(["test", "--input", str(law_file), "--test", "feasibility"])
    assert rc == 0
    [report] = json.loads(capsys.readouterr().out)
    assert report["test"] == "feasibility"


def x_only_law(x_masses):
    """One y bin, one conditional per row of ``x_masses``, uniform pz."""
    nz, nx = len(x_masses), len(x_masses[0])
    conds = tuple(
        Conditional2D([0.0, 1.0], np.arange(nx + 1.0), np.array([row])) for row in x_masses
    )
    return JointLaw((np.arange(nz) + 0.5) / nz, GridDistribution.uniform(0.0, 1.0, nz), conds)


@pytest.mark.parametrize(
    "x_masses, decision",
    [
        ([[0.5 + 4e-10, 0.5 - 4e-10]] * 2, "consistent"),
        ([[0.5, 0.5, 0.0, 0.0]] * 3, "reject"),
        # five sites over eight bins; column sums at most 0.84
        (np.random.default_rng(5).dirichlet(np.ones(8), size=5).tolist(), "consistent"),
    ],
)
def test_feasibility_commands_agree(tmp_path, capsys, x_masses, decision):
    cond_path, law_path = tmp_path / "feas.json", tmp_path / "law.json"
    cond_path.write_text(json.dumps({"conditionals": x_masses}))
    law_path.write_text(json.dumps(x_only_law(x_masses).to_json_dict()))
    assert main(["feasibility", "--input", str(cond_path)]) == 0
    direct = json.loads(capsys.readouterr().out)
    assert main(["test", "--input", str(law_path), "--test", "feasibility"]) == 0
    [via_test] = json.loads(capsys.readouterr().out)
    for report in (direct, via_test):
        assert report["decision"] == decision
        assert (report["statistic"] > report["threshold"]) == (decision == "reject")
    assert direct["statistic"] == via_test["statistic"]
    assert direct["diagnostics"] == via_test["diagnostics"]


def test_test_feasibility_builds_no_witness(tmp_path, capsys, monkeypatch):
    """``test --test feasibility`` decides from the column sums alone; only
    the ``feasibility`` command, which prints the witness, builds one."""

    def refuse(p):
        raise AssertionError("Birkhoff witness built")

    monkeypatch.setattr(validity, "_birkhoff_tuples", refuse)
    feasible = np.random.default_rng(5).dirichlet(np.ones(8), size=5).tolist()
    for x_masses, decision in ((feasible, "consistent"), ([[0.5, 0.5, 0.0, 0.0]] * 3, "reject")):
        law_path = tmp_path / "law.json"
        law_path.write_text(json.dumps(x_only_law(x_masses).to_json_dict()))
        assert main(["test", "--input", str(law_path), "--test", "feasibility"]) == 0
        [report] = json.loads(capsys.readouterr().out)
        assert report["decision"] == decision
    cond_path = tmp_path / "feas.json"
    cond_path.write_text(json.dumps({"conditionals": feasible}))
    with pytest.raises(AssertionError, match="witness built"):
        main(["feasibility", "--input", str(cond_path)])


@pytest.mark.parametrize("name", list(REGISTRY))
def test_cmd_test_prints_the_registered_report(law_file, capsys, name):
    law = JointLaw.from_json_dict(json.loads(law_file.read_text()))
    report = make_test(name)[1](law)
    assert main(["test", "--input", str(law_file), "--test", name]) == 0
    assert capsys.readouterr().out == json.dumps([report.to_json_dict()]) + "\n"
    assert main(["test", "--input", str(law_file), "--test", name, "--format", "csv"]) == 0
    assert capsys.readouterr().out == f"test,statistic,threshold,decision\n{report.csv_row()}\n"


BAD_CONFIGS = {
    "test-without-name": {"tests": [{"tol": 0.1}]},
    "test-not-an-object": {"tests": ["fosd"]},
    "tests-not-a-list": {"tests": {"name": "fosd"}},
    "non-numeric-parameter": {"tests": [{"name": "fosd", "tol": "abc"}]},
    "non-numeric-n": {"n": "abc"},
    "non-numeric-reps": {"reps": [3]},
    "fractional-n": {"n": 2.5},
    "boolean-reps": {"reps": True},
    "string-n": {"n": "2000"},
    "two-bins": {"bins": [4, 4]},
    "non-integer-bins": {"bins": [4, "four", 4]},
    "bins-not-a-list": {"bins": 4},
    "fractional-bins": {"bins": [4.5, 4, 4]},
    "boolean-bins": {"bins": [True, 4, 4]},
    "bins-as-a-string": {"bins": "4,4,4"},
    "bad-moment-constant": {"tests": [{"name": "moment", "alpha": -1}]},
    "nan-moment-constant": {"tests": [{"name": "moment", "alpha": float("nan")}]},
    "nan-tolerance": {"tests": [{"name": "fosd", "tol": float("nan")}]},
    "infinite-jump-constant": {"tests": [{"name": "jump", "K": float("inf")}]},
    "zero-K-constant": {"tests": [{"name": "jump", "K": 0}]},
    "boolean-tolerance": {"tests": [{"name": "fosd", "tol": True}]},
    "boolean-K-constant": {"tests": [{"name": "jump", "K": False}]},
    "huge-integer-K-constant": {"tests": [{"name": "jump", "K": 10**400}]},
    "string-depth": {"nontestability_depth": "abc"},
    "fractional-depth": {"nontestability_depth": 2.5},
    "negative-depth": {"nontestability_depth": -1},
    "boolean-depth": {"nontestability_depth": True},
    "whole-float-depth": {"nontestability_depth": 2.0},
    "duplicate-test-name": {"tests": [{"name": "fosd"}, {"name": "fosd"}]},
    "duplicate-spec-name": {"specs": [{"name": "loc"}, {"name": "loc", "first_stage": "sign_flip"}]},
    "spec-named-like-a-twin": {
        "specs": [{"name": "loc"}, {"name": "loc@replicated"}], "nontestability_depth": 2
    },
    "config-not-an-object": None,
    "specs-not-a-list": {"specs": {"name": "loc"}},
    "spec-not-an-object": {"specs": ["loc"]},
    "non-callable-custom-stage": {
        "specs": [{"name": "c", "first_stage": "custom", "first_stage_fn": "abc"}]
    },
    "non-numeric-law-edge": {
        "specs": [{"name": "loc", "z_law": {"edges": ["a", 1], "masses": [1]}}]
    },
    "non-numeric-law-mass": {
        "specs": [{"name": "loc", "u_law": {"edges": [0, 1], "masses": ["a"]}}]
    },
    "short-atom-pair": {
        "specs": [{"name": "loc", "v_law": {"edges": [0, 1], "masses": [0.5], "atoms": [[0.5]]}}]
    },
    "ragged-law-masses": {
        "specs": [{"name": "loc", "z_law": {"edges": [0, 1], "masses": [[0.5], [0.25, 0.25]]}}]
    },
    # a spec name is a field of every CSV row; a string flag is truthy
    "numeric-spec-name": {"specs": [{"name": 5}]},
    "spec-name-with-a-comma": {"specs": [{"name": "a,b"}]},
    "string-instrument-valid": {"specs": [{"name": "loc", "instrument_valid": "no"}]},
    "string-jump-size": {"specs": [{"name": "j", "first_stage": "jump", "jump_size": "x"}]},
    # the copula weight is a finite number like the jump constants
    "boolean-copula-weight": {
        "specs": [{"name": "c", "instrument_valid": False, "copula_weight": True}]
    },
    "string-copula-weight": {
        "specs": [{"name": "c", "instrument_valid": False, "copula_weight": "x"}]
    },
}


# law files whose arrays have the wrong number of dimensions, as edits of a
# two-site law
ONE_CELL = {"y_edges": [0.0, 1.0], "x_edges": [0.0, 1.0], "mass": [[1.0]]}
TWO_SITE_LAW = {
    "z_grid": [0.25, 0.75],
    "pz": {"edges": [0.0, 0.5, 1.0], "masses": [0.5, 0.5]},
    "conditionals": [ONE_CELL, ONE_CELL],
}
BAD_LAWS = {
    "nested-z-grid-law": {"z_grid": [[0.25], [0.75]]},
    "scalar-z-grid-law": {"z_grid": 0.5, "conditionals": [ONE_CELL]},
    "two-dimensional-edges-law": {
        "conditionals": [{**ONE_CELL, "y_edges": [[0.0], [1.0]], "x_edges": [[0.0], [1.0]]},
                         ONE_CELL]
    },
}


# non-finite test constants on the command line, refused before the input is read
BAD_TEST_FLAGS = {
    "nan-tol-flag": ["--test", "fosd", "--tol", "nan"],
    "nan-K-flag": ["--test", "jump", "--K", "nan"],
    "infinite-K-flag": ["--test", "jump", "--K", "inf"],
    "nan-alpha-flag": ["--test", "moment", "--alpha", "nan"],
    "zero-K-flag": ["--test", "jump", "--K", "0"],
    "negative-K-flag": ["--test", "sure-decrease", "--K", "-1"],
}


@pytest.mark.parametrize(
    "case",
    ["missing-csv-input", "non-numeric-csv-field", "non-numeric-weights", *BAD_TEST_FLAGS,
     *BAD_CONFIGS, *BAD_LAWS],
)
def test_bad_input_exits_1(tmp_path, capsys, case):
    if case in BAD_LAWS:
        path = tmp_path / "law.json"
        path.write_text(json.dumps({**TWO_SITE_LAW, **BAD_LAWS[case]}))
        for command in ("replicate", "test"):
            assert main([command, "--input", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "must be one-dimensional" in err
        return
    if case in BAD_TEST_FLAGS:
        argv = ["test", "--input", str(tmp_path / "missing.csv"), *BAD_TEST_FLAGS[case]]
    elif case == "missing-csv-input":
        argv = ["test", "--input", str(tmp_path / "missing.csv")]
    elif case == "non-numeric-csv-field":
        path = tmp_path / "rows.csv"
        path.write_text("y,x,z\n1,2,3\n4,5,6\n1,two,3\n")
        argv = ["test", "--input", str(path)]
    elif case == "non-numeric-weights":
        path = tmp_path / "feas.json"
        path.write_text(json.dumps({"conditionals": [[0.5, 0.5]] * 2, "weights": ["a", 1]}))
        argv = ["feasibility", "--input", str(path)]
    else:
        base = {"specs": [{"name": "loc"}], "tests": [{"name": "fosd"}], "n": 200, "reps": 1}
        override = BAD_CONFIGS[case]
        config = [base] if override is None else {**base, **override}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["simulate", "--input", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "replication" not in err  # refused before any data is sampled
    if case.endswith("-depth"):
        assert "nontestability_depth" in err
    if case.endswith(("-n", "-reps")):
        assert f"config '{case.rsplit('-', 1)[1]}' must be an integer" in err
    if case.startswith(("nan-", "infinite-")):
        assert "must be finite" in err
    if case.startswith(("zero-K", "negative-K")):
        assert "K must be positive and finite" in err
    if case.startswith(("boolean-tolerance", "boolean-K")):
        assert "must be a number" in err
    if case.endswith("-copula-weight"):
        assert "copula_weight must be a finite number" in err
    if case.startswith(("duplicate-", "spec-named-")):
        assert "is not unique" in err
    if case == "non-numeric-csv-field":
        assert "row 3" in err and "'two'" in err


SIMULATE_SEEDS = {
    "negative-seed-flag": (["--seed", "-1"], "seed must be at least 0: -1"),
}


@pytest.mark.parametrize("case", list(SIMULATE_SEEDS))
def test_simulate_refuses_a_bad_seed_with_one_error_line(tmp_path, capsys, case):
    flags, message = SIMULATE_SEEDS[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"specs": [{"name": "loc"}], "n": 200, "reps": 1}))
    assert main(["simulate", "--input", str(path), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["replicate", "feasibility", "test", "simulate"])
def test_each_command_needs_an_input(capsys, command):
    assert main([command]) == 1
    assert capsys.readouterr().err == f"error: {command} needs --input\n"


@pytest.mark.parametrize("name", ["rows.csv", "missing.csv", "law.json", "missing.json"])
def test_cmd_test_refuses_bin_counts_that_do_not_parse(tmp_path, capsys, law_file, name):
    """Bad bin counts are refused before the input is read, whatever its
    type, even an input that does not exist."""
    (tmp_path / "rows.csv").write_text("y,x,z\n1,2,3\n4,5,6\n")
    path = tmp_path / name
    assert main(["test", "--input", str(path), "--bins", "4,x,4"]) == 1
    assert capsys.readouterr().err == (
        "error: --bins must be Y,X,Z integers: invalid literal for int() with base 10: 'x'\n"
    )


@pytest.mark.parametrize("name", ["rows.csv", "law.json"])
def test_cmd_test_refuses_a_cell_table_past_the_cap(tmp_path, capsys, law_file, name):
    """``--bins 300,300,300`` asks for 2.7e7 cells, past the cap: refused
    with one error line before the input is read."""
    (tmp_path / "rows.csv").write_text("y,x,z\n1,2,3\n4,5,6\n")
    assert main(["test", "--input", str(tmp_path / name), "--bins", "300,300,300"]) == 1
    assert capsys.readouterr().err == (
        "error: a 300x300x300 cell table needs 27000000 entries, more than 16777216\n"
    )


@pytest.mark.parametrize(
    "bins, reason",
    [
        ("4,4", "not enough values to unpack (expected 3, got 2)"),
        ("4,4,4,4", "too many values to unpack (expected 3)"),
        ("4,,4", "invalid literal for int() with base 10: ''"),
    ],
)
def test_cmd_test_refuses_bin_counts_that_are_not_three(law_file, capsys, bins, reason):
    """``--bins`` needs exactly three comma-separated integers, checked
    before a law file is read."""
    assert main(["test", "--input", str(law_file), "--bins", bins]) == 1
    assert capsys.readouterr().err == f"error: --bins must be Y,X,Z integers: {reason}\n"


def test_simulate_refusal_of_an_atomic_law_exits_2(tmp_path, capsys):
    """``main`` turns a ``NonAtomicityError`` into exit 2 in every command:
    here a jump first stage leaves the x-marginals of the outer z bins one
    bin wide, and their replication is refused."""
    path = tmp_path / "config.json"
    config = {"specs": [{"name": "j", "first_stage": "jump"}], "n": 2000, "nontestability_depth": 2}
    path.write_text(json.dumps(config))
    assert main(["simulate", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "refused: spec 'j', replication 0: x-marginals at z sites [0, 3] are atomic at grid"
        " resolution\n"
    )


def test_simulate_config_defaults(tmp_path, monkeypatch):
    """A config that leaves out ``n``, ``reps`` or ``bins`` runs with
    10 000 rows, 200 replications and 4 bins per axis."""
    seen = {}

    def fake(specs, tests, **kwargs):
        seen.update(kwargs)
        return ExperimentResult({})

    monkeypatch.setattr(cli, "run_experiment", fake)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"specs": [{"name": "loc"}]}))
    assert main(["simulate", "--input", str(path), "--seed", "3"]) == 0
    assert seen == {
        "n": 10_000, "reps": 200, "seed": 3, "bins": (4, 4, 4), "nontestability_depth": None
    }


def test_simulate_deterministic_csv(sim_config, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--input", str(sim_config), "--seed", "7",
                 "--format", "csv", "--output", str(out1)]) == 0
    assert main(["simulate", "--input", str(sim_config), "--seed", "7",
                 "--format", "csv", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "spec,test,rejection_rate,reps,mean_statistic"


def test_simulate_output_depends_on_its_flags_alone(sim_config, tmp_path, monkeypatch):
    """An ``IVT_<FLAG>`` environment variable for each ``simulate`` flag,
    seed included, set to another value, changes no byte of the output."""
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--input", str(sim_config), "--seed", "7", "--format", "csv", "--output"]
    assert main([*argv, str(out1)]) == 0
    for flag in SUBCOMMAND_OPTIONS["simulate"]:
        monkeypatch.setenv(f"IVT_{flag[2:].upper()}", "8")
    assert main([*argv, str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_zero_reps_exit1(tmp_path):
    cfg = {"specs": [{"name": "loc"}], "tests": [], "n": 100, "reps": 0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--input", str(path)]) == 1


def test_json_written_by_commands_reparses(law_file, tmp_path):
    """The model ``replicate`` writes reloads into one that samples the rows
    of the model built afresh, and dumps its generator byte for byte, at
    depths 0 and 3, with and without pz atoms."""
    atoms = tmp_path / "atoms.json"
    atoms.write_text(json.dumps(bernoulli_support_jump_law().to_json_dict()))
    for path, depth in itertools.product((law_file, atoms), (0, 3)):
        out = tmp_path / "model.json"
        args = ["replicate", "--input", str(path), "--depth", str(depth), "--output", str(out)]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        law = JointLaw.from_json_dict(payload["joint"])
        setup = (law.x_marginals(), law.pz, law.z_grid)
        gen = GeneratorMap.from_json_dict(payload["generator"], *setup)
        assert gen.depth == depth
        assert json.dumps(gen.to_json_dict()) == json.dumps(payload["generator"])
        rows = compose_structural_model(law, gen).sample(1000, seed=5)
        fresh = compose_structural_model(law, build_generator(*setup, depth))
        assert rows.tobytes() == fresh.sample(1000, seed=5).tobytes(), (path.name, depth)


SUBCOMMAND_OPTIONS = {
    "replicate": {"--input", "--output", "--depth"},
    "feasibility": {"--input", "--output"},
    "test": {"--input", "--output", "--format", "--bins", "--test",
             "--K", "--tol", "--alpha", "--beta", "--gamma", "--delta"},
    "simulate": {"--input", "--output", "--format", "--seed"},
}


def test_each_subcommand_has_only_the_flags_its_handler_reads():
    """A flag no handler reads (``replicate --seed``, ``replicate --format``)
    must not come back unnoticed."""
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(SUBCOMMAND_OPTIONS)
    for name, expected in SUBCOMMAND_OPTIONS.items():
        options = {o for a in sub.choices[name]._actions for o in a.option_strings}
        assert options == expected | {"-h", "--help"}, name


def test_cmd_test_flags_default_to_the_registry(law_file, capsys, monkeypatch):
    """A flag left out takes the registered default; a flag given wins."""
    monkeypatch.setitem(REGISTRY, "fosd", ({"tol": 0.5}, REGISTRY["fosd"][1]))
    for flags, tol in (([], 0.5), (["--tol", "0.25"], 0.25)):
        assert main(["test", "--input", str(law_file), "--test", "fosd", *flags]) == 0
        [report] = json.loads(capsys.readouterr().out)
        assert report["threshold"] == tol


def test_parser_is_built_once_and_parsing_leaves_it_unchanged():
    """Every call returns the one parser; a parse leaves no value behind for
    the next (``--test`` appends to a fresh list each time)."""
    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["test", "--input", "a.csv", "--test", "fosd", "--tol", "0.5"])
    second = parser.parse_args(["test", "--input", "b.csv"])
    assert first.tests == ["fosd"] and first.tol == 0.5
    assert second.tests is None and second.tol is None and second.input == "b.csv"
    third = parser.parse_args(["test", "--input", "c.csv", "--test", "jump"])
    assert third.tests == ["jump"] and first.tests == ["fosd"]

"""Every CLI output, pinned: the sha256 of what each subcommand prints or
writes on fixed inputs, against the table in ``golden/cli_digests.json``.

The inputs are built here from fixed seeds: the random 8^3 law
``random_joint_law(default_rng(20240817))``, ``support_gap_law`` on the same
seed (pz atoms and a zero-mass bin), a 10^4-row dataset CSV drawn with numpy
alone, a dataset CSV that only ``float`` reads whole, two feasibility inputs
and a simulate config.  A change that moves an
output moves its entry; ``golden/rewrite.py`` rewrites the table and prints
the entries that moved.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from ivtest.cli import main

from conftest import random_joint_law
from test_generator import support_gap_law

TABLE = Path(__file__).parent / "golden" / "cli_digests.json"

LAW_SEED = 20240817

SIMULATE_CONFIG = {
    "specs": [
        {"name": "loc-valid"},
        {"name": "loc-invalid", "instrument_valid": False, "copula_weight": 1.0,
         "copula_target": "v"},
    ],
    "tests": [
        {"name": "fosd", "tol": 0.12},
        {"name": "sure-decrease", "K": 1.0},
        {"name": "jump", "K": 1.0},
        {"name": "pearl"},
        {"name": "moment"},
    ],
    "n": 2000,
    "reps": 3,
    "bins": [4, 4, 4],
    "nontestability_depth": 4,
}


# every constant of the default test list away from its REGISTRY default
CONSTANT_FLAGS = [
    "--K", "0.25", "--tol", "0.05",
    "--alpha", "3", "--beta", "0.5", "--gamma", "1.5", "--delta", "2",
]


def dataset_csv_text(n=10_000, seed=7):
    """A valid location process drawn with numpy alone, so the input does not
    move with the package's sampler."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(size=n)
    x = z + rng.uniform(size=n)
    y = x + rng.uniform(size=n)
    return "y,x,z\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(y.tolist(), x.tolist(), z.tolist()))


def grammar_csv_bytes(n=2_000, seed=8):
    """A location process like ``dataset_csv_text``'s, ten times wider, written
    with CRLF endings, a blank line every 500 rows, spaces around fields and a
    last row of underscore literals, ``2_0,1_5,1_0``."""
    rng = np.random.default_rng(seed)
    z = 10.0 * rng.uniform(size=n)
    x = z + 10.0 * rng.uniform(size=n)
    y = x + 10.0 * rng.uniform(size=n)
    rows = "".join(
        f" {a!r} ,{b!r}, {c!r}\r\n" + ("\r\n" if i % 500 == 499 else "")
        for i, (a, b, c) in enumerate(zip(y.tolist(), x.tolist(), z.tolist()))
    )
    return (" y , x , z \r\n" + rows + "2_0,1_5,1_0\r\n\r\n").encode()


def write_inputs(directory: Path) -> None:
    laws = {
        "random": random_joint_law(np.random.default_rng(LAW_SEED)),
        "gap": support_gap_law(np.random.default_rng(LAW_SEED)),
    }
    for name, law in laws.items():
        (directory / f"{name}.json").write_text(json.dumps(law.to_json_dict()))
    (directory / "rows.csv").write_text(dataset_csv_text())
    (directory / "grammar.csv").write_bytes(grammar_csv_bytes())
    feasibility = {
        "feasible": [[0.5, 0.3, 0.2, 0.0], [0.0, 0.5, 0.3, 0.2], [0.2, 0.0, 0.5, 0.3]],
        "infeasible": [[0.7, 0.3], [0.5, 0.5]],
    }
    for name, conditionals in feasibility.items():
        (directory / f"{name}.json").write_text(json.dumps({"conditionals": conditionals}))
    (directory / "simulate.json").write_text(json.dumps(SIMULATE_CONFIG))


def commands() -> dict[str, tuple[int, list[str]]]:
    """Each command's exit code and arguments, input paths relative to the
    input directory; ``replicate`` also writes its model to ``--output``.
    The gap law has a pz atom, so its generator has arity 3, and depth 14
    is refused."""
    out = {}
    for law in ("random", "gap"):
        for depth in (0, 6, 14):
            code = 1 if (law, depth) == ("gap", 14) else 0
            out[f"replicate {law} depth {depth}"] = (
                code, ["replicate", "--input", f"{law}.json", "--depth", str(depth)]
            )
    for source in ("random.json", "gap.json", "rows.csv"):
        for tests, flags in (
            ("default", []),
            ("feasibility", ["--test", "feasibility"]),
            ("constants", CONSTANT_FLAGS),
        ):
            for fmt in ("json", "csv"):
                out[f"test {source} {tests} {fmt}"] = (
                    0, ["test", "--input", source, *flags, "--format", fmt]
                )
    for fmt in ("json", "csv"):
        out[f"test grammar.csv default {fmt}"] = (
            0, ["test", "--input", "grammar.csv", "--format", fmt]
        )
    for case in ("feasible", "infeasible"):
        out[f"feasibility {case}"] = (0, ["feasibility", "--input", f"{case}.json"])
    for fmt in ("csv", "json"):
        out[f"simulate {fmt}"] = (
            0, ["simulate", "--input", "simulate.json", "--seed", "808", "--format", fmt]
        )
    return out


def run_command(name: str, directory: Path) -> dict[str, str]:
    """The sha256 of every stream the command writes, keyed
    ``"<name>: <stream>"``: stdout and stderr when not empty, and the
    ``--output`` file of ``replicate`` when written."""
    code, argv = commands()[name]
    argv[2] = str(directory / argv[2])  # every command reads --input
    written = directory / "output"
    written.unlink(missing_ok=True)
    if argv[0] == "replicate":
        argv += ["--output", str(written)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert main(argv) == code, name
    streams = {"stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    if written.exists():
        streams["output"] = written.read_text()
    return {
        f"{name}: {stream}": hashlib.sha256(text.encode()).hexdigest()
        for stream, text in streams.items()
        if text
    }


def current_digests(directory: Path) -> dict[str, str]:
    write_inputs(directory)
    digests = {}
    for name in commands():
        digests.update(run_command(name, directory))
    return digests


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text())


def test_table_has_an_entry_for_every_command(table):
    assert {entry.split(": ")[0] for entry in table} == set(commands())


@pytest.mark.parametrize("name", list(commands()))
def test_cli_output_is_pinned(name, inputs, table):
    got = run_command(name, inputs)
    assert got == {entry: d for entry, d in table.items() if entry.startswith(f"{name}: ")}

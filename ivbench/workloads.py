"""The four benchmark workloads: inputs made from a seed, one op, its checks.

Each workload is a closed loop with one client.  ``op(i)`` calls only the
program and is what gets timed; ``check(i, out)`` runs afterwards, untimed,
and returns a list of problems (empty when the op's output is correct).
Every call into ivtest goes through a module or class attribute so that the
tracer's wrappers see it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Size:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` is for its tests."""

    sites: int  # z sites of a generated joint law
    bins: int  # y and x bins of a generated joint law
    laws: int  # replicate: laws in the input pool, alternating two kinds
    dgp_rows: int  # replicate: rows sampled before discretizing a DGP law
    replicate_depth: int
    query_depth: int
    query_rows: int
    sim_rows: int
    sim_bins: tuple[int, int, int]
    sim_depth: int
    sim_seeds: int  # simulate: distinct master seeds, reused cyclically
    csv_rows: int
    csv_bins: str
    csv_files: int


FULL = Size(8, 8, 16, 10_000, 8, 10, 2000, 10_000, (4, 4, 4), 6, 8, 10_000, "8,8,8", 8)
TINY = Size(4, 4, 4, 2000, 3, 4, 100, 2000, (4, 4, 4), 3, 2, 2000, "4,4,4", 4)
SIZES = {"full": FULL, "tiny": TINY}

# Criterion 8 of the acceptance suite: four processes, five tests.
CRITERION8_TESTS = (
    ("fosd", {"tol": 0.12}),
    ("sure-decrease", {"K": 1.0}),
    ("jump", {"K": 1.0}),
    ("pearl", {}),
    ("moment", {}),
)
# ``ivtest test`` runs these, with their default parameters, when no
# ``--test`` is given.
CLI_DEFAULT_TESTS = ("fosd", "sure-decrease", "jump", "pearl", "moment")


def derive_seed(seed: int, *tags: int) -> int:
    """Independent 32-bit stream for one input of one workload."""
    return int(np.random.SeedSequence((seed, *tags)).generate_state(1)[0])


def criterion8_specs(simulate) -> list:
    spec = simulate.DGPSpec
    invalid = dict(instrument_valid=False, copula_weight=1.0, copula_target="v")
    return [
        spec(name="loc-valid"),
        spec(name="scale-valid", first_stage="scale"),
        spec(name="loc-invalid", **invalid),
        spec(name="scale-invalid", first_stage="scale", **invalid),
    ]


def random_joint_law(iv, rng, nz: int, ny: int, nx: int):
    """Gamma-mass conditionals on a shared grid, uniform pz: never atomic."""
    m = iv.measures
    y_edges = np.linspace(-1.0, 2.0, ny + 1)
    x_edges = np.linspace(0.0, 3.0, nx + 1)
    conds = []
    for _ in range(nz):
        mass = rng.gamma(1.0, size=(ny, nx)) + 0.01
        conds.append(m.Conditional2D(y_edges, x_edges, mass / mass.sum()))
    pz = m.GridDistribution.uniform(0.0, 1.0, nz)
    z_grid = (np.arange(nz) + 0.5) / nz
    return m.JointLaw(z_grid, pz, tuple(conds))


class Replicate:
    """``nontestability_demo(law, depth)`` then ``model.to_json_dict()``."""

    def __init__(self, iv, seed: int, size: Size, workdir: Path):
        self.iv, self.size = iv, size
        sim = iv.simulate
        invalid = sim.DGPSpec(
            name="max-invalid", instrument_valid=False, copula_weight=1.0, copula_target="v"
        )
        b = size.bins
        self.laws = []
        for k in range(size.laws):
            if k % 2 == 0:
                rng = np.random.default_rng(derive_seed(seed, 1, k))
                self.laws.append(random_joint_law(iv, rng, size.sites, b, b))
            else:
                data = sim.sample(invalid, size.dgp_rows, derive_seed(seed, 2, k))
                self.laws.append(sim.discretize(data, b, b, size.sites))

    def op(self, i: int):
        law = self.laws[i % len(self.laws)]
        model, error = self.iv.simulate.nontestability_demo(law, self.size.replicate_depth)
        return error, model.to_json_dict()

    def check(self, i: int, out) -> list[str]:
        error, payload = out
        problems = []
        if error != 0.0:
            problems.append(f"replication error {error!r} is not exactly 0.0")
        gen = payload["generator"]
        depth = self.size.replicate_depth
        if gen["depth"] != depth or len(gen["cells"]) != 2**depth:
            problems.append(f"serialized generator has depth {gen['depth']}, {len(gen['cells'])} cells")
        return problems


class ModelQuery:
    """``model.sample(rows, seed_i)`` then ``collision_fraction(gen)`` on a model built in setup."""

    def __init__(self, iv, seed: int, size: Size, workdir: Path):
        self.iv, self.size, self.seed = iv, size, seed
        rng = np.random.default_rng(derive_seed(seed, 3))
        law = random_joint_law(iv, rng, size.sites, size.bins, size.bins)
        g = iv.generator
        self.gen = g.build_generator(law.x_marginals(), law.pz, law.z_grid, size.query_depth)
        self.model = g.compose_structural_model(law, self.gen)
        self.z_bounds = (float(law.pz.edges[0]), float(law.pz.edges[-1]))
        x_supports = [m.support_bounds() for m in law.x_marginals()]
        self.x_bounds = (min(lo for lo, _ in x_supports), max(hi for _, hi in x_supports))
        self.first_collision = None

    def op(self, i: int):
        rows = self.model.sample(self.size.query_rows, derive_seed(self.seed, 4, i))
        return rows, self.iv.generator.collision_fraction(self.gen)

    def check(self, i: int, out) -> list[str]:
        rows, collision = out
        problems = []
        if rows.shape != (self.size.query_rows, 3) or not np.all(np.isfinite(rows)):
            problems.append(f"sampled rows have shape {rows.shape} or are not finite")
        else:
            for col, (lo, hi), name in ((2, self.z_bounds, "z"), (1, self.x_bounds, "x")):
                if rows[:, col].min() < lo or rows[:, col].max() > hi:
                    problems.append(f"sampled {name} leaves its support [{lo}, {hi}]")
        bound = 2.0**-self.size.query_depth
        if not collision <= bound:
            problems.append(f"collision fraction {collision!r} exceeds {bound!r}")
        if self.first_collision is None:
            self.first_collision = collision
        elif collision != self.first_collision:
            problems.append(f"collision fraction {collision!r} != first op's {self.first_collision!r}")
        return problems


def parse_experiment_csv(text: str) -> dict[tuple[str, str], float]:
    rates = {}
    for line in text.strip().splitlines()[1:]:
        spec, test, rate, _, _ = line.split(",")
        rates[(spec, test)] = float(rate)
    return rates


class Simulate:
    """``run_experiment`` on the criterion-8 specs and tests with one replication."""

    def __init__(self, iv, seed: int, size: Size, workdir: Path):
        self.iv, self.size, self.seed = iv, size, seed
        self.specs = criterion8_specs(iv.simulate)
        self.invalid = {s.name for s in self.specs if not s.instrument_valid}
        self.tests = [iv.validity.make_test(name, **dict(p)) for name, p in CRITERION8_TESTS]
        self.csv_by_seed: dict[int, str] = {}

    def master_seed(self, i: int) -> int:
        return derive_seed(self.seed, 5, i % self.size.sim_seeds)

    def op(self, i: int):
        s = self.size
        result = self.iv.simulate.run_experiment(
            self.specs, self.tests, n=s.sim_rows, reps=1, seed=self.master_seed(i),
            bins=s.sim_bins, nontestability_depth=s.sim_depth,
        )
        return result.to_csv_text()

    def check(self, i: int, out) -> list[str]:
        problems = []
        rates = parse_experiment_csv(out)
        for (spec, test), rate in rates.items():
            if spec.endswith("@replicated"):
                source = rates[(spec.split("@")[0], test)]
                if rate != source:
                    problems.append(f"{spec} {test}: rate {rate} != source rate {source}")
        for test, _ in CRITERION8_TESTS:
            power = max(r for (sp, t), r in rates.items() if t == test and sp in self.invalid)
            size = max(r for (sp, t), r in rates.items() if t == test and sp not in self.invalid)
            if power - size > 0:
                problems.append(f"{test}: power {power} exceeds size {size}")
        key = i % self.size.sim_seeds
        earlier = self.csv_by_seed.setdefault(key, out)
        if earlier.encode() != out.encode():
            problems.append(f"CSV differs from the earlier op with master seed {self.master_seed(i)}")
        return problems


class TestCsv:
    """``ivtest test --input <csv> --bins ... --output <json>`` through ``cli.main``."""

    def __init__(self, iv, seed: int, size: Size, workdir: Path):
        self.iv, self.size = iv, size
        specs = criterion8_specs(iv.simulate)
        self.inputs = []
        for k in range(size.csv_files):
            data = iv.simulate.sample(specs[k % len(specs)], size.csv_rows, derive_seed(seed, 6, k))
            path = workdir / f"input{k}.csv"
            path.write_text(data.to_csv_text())
            self.inputs.append(path)
        self.output = workdir / "report.json"
        self.expected: dict[int, str] = {}

    def op(self, i: int):
        k = i % len(self.inputs)
        argv = ["test", "--input", str(self.inputs[k]), "--bins", self.size.csv_bins,
                "--output", str(self.output)]
        return k, self.iv.cli.main(argv)

    def expected_json(self, k: int) -> str:
        """The same law through the library: discretize, then ``make_test`` per test."""
        if k not in self.expected:
            sim, val = self.iv.simulate, self.iv.validity
            data = sim.Dataset.from_csv_text(self.inputs[k].read_text())
            law = sim.discretize(data, *(int(b) for b in self.size.csv_bins.split(",")))
            reports = [val.make_test(name)[1](law).to_json_dict() for name in CLI_DEFAULT_TESTS]
            self.expected[k] = json.dumps(reports)
        return self.expected[k]

    def check(self, i: int, out) -> list[str]:
        k, code = out
        if code != 0:
            return [f"cli exit code {code}"]
        if not self.output.exists():
            return ["cli wrote no report"]
        text = self.output.read_text()
        self.output.unlink()
        if text != self.expected_json(k):
            return [f"cli report for input{k}.csv differs from direct make_test calls"]
        return []


WORKLOADS = {
    "replicate": Replicate,
    "model-query": ModelQuery,
    "simulate": Simulate,
    "test-csv": TestCsv,
}

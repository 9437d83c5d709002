"""The package's export list and the Python version it declares."""

import ast
import re
from pathlib import Path

import numpy as np

import ivtest
from ivtest import GridDistribution
from ivtest.measures import GridStack, fosd_violations, winf_distances

PUBLIC_API = [
    "Conditional2D",
    "ContinuityParams",
    "DGPSpec",
    "Dataset",
    "DegenerateGridError",
    "EmptyBinError",
    "ExperimentResult",
    "GeneratorMap",
    "GridDistribution",
    "IVTestError",
    "InfeasibilityCertificate",
    "JointLaw",
    "LawBatch",
    "MarginalMismatchError",
    "NonAtomicityError",
    "StructuralModel",
    "TestReport",
    "TupleCoupling",
    "ValidationError",
    "build_generator",
    "collision_fraction",
    "compose_structural_model",
    "discrete_generator_feasible",
    "discretize",
    "feasibility_report",
    "group_collision_matrix",
    "instrumental_inequality",
    "make_test",
    "minimal_collision_mass",
    "nontestability_demo",
    "population_law",
    "product_conditional",
    "run_experiment",
    "sample",
    "verify_replication",
]


def test_every_exported_name_resolves():
    assert len(set(ivtest.__all__)) == len(ivtest.__all__)
    missing = [name for name in ivtest.__all__ if not hasattr(ivtest, name)]
    assert missing == []


def test_export_list_is_pinned():
    """An export added or removed has to edit this list."""
    assert sorted(ivtest.__all__) == PUBLIC_API


def test_one_law_spellings_are_gone():
    """Each statistic is reached through ``make_test`` or its batch form."""
    for name in ("monotonicity_test", "monotonicity_sure_decrease_test", "jump_test",
                 "continuity_moment_statistic", "winf_distance", "fosd_violation"):
        assert not hasattr(ivtest, name), name
        assert not hasattr(ivtest.validity, name) and not hasattr(ivtest.measures, name), name


def test_sources_parse_at_the_declared_python_floor():
    """Every source, test and demo file parses with the grammar of the
    oldest Python that ``requires-python`` in pyproject.toml admits."""
    root = Path(__file__).resolve().parents[1]
    floor = re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$', (root / "pyproject.toml").read_text(), re.M
    )
    version = (int(floor[1]), int(floor[2]))
    assert version == (3, 10)
    files = [f for d in ("src/ivtest", "tests", "demos") for f in sorted((root / d).glob("*.py"))]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


def test_stacked_pair_measures_on_a_two_law_stack():
    a = GridDistribution.uniform(0.0, 1.0, 4)
    b = GridDistribution(np.array([0.5, 1.0, 1.5]), np.array([0.5, 0.0]), ((1.25, 0.5),))
    stack = GridStack.of([a, b])
    winf = winf_distances(stack, np.array([0]), np.array([1]))
    fosd = fosd_violations(stack, np.array([1]), np.array([0]))
    # the atom at 1.25 against level 0.5+; F_a - F_b on [0.5, 1]
    assert winf.tolist() == [0.75] and fosd.tolist() == [0.5]

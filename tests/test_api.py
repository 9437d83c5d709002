"""The package's export list."""

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


def test_stacked_pair_measures_on_a_two_law_stack():
    a = GridDistribution.uniform(0.0, 1.0, 4)
    b = GridDistribution(np.array([0.5, 1.0, 1.5]), np.array([0.5, 0.0]), ((1.25, 0.5),))
    stack = GridStack.of([a, b])
    winf = winf_distances(stack, np.array([0]), np.array([1]))
    fosd = fosd_violations(stack, np.array([1]), np.array([0]))
    # the atom at 1.25 against level 0.5+; F_a - F_b on [0.5, 1]
    assert winf.tolist() == [0.75] and fosd.tolist() == [0.5]

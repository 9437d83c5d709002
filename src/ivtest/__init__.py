"""Grid-measure laboratory for instrument-validity testing.

Core pieces: exact grid measures (:mod:`ivtest.measures`), the
injectivity-improving first-stage construction and structural models
(:mod:`ivtest.generator`), the testable implications
(:mod:`ivtest.validity`), and the simulation harness
(:mod:`ivtest.simulate`).
"""

from .errors import (
    DegenerateGridError,
    EmptyBinError,
    IVTestError,
    MarginalMismatchError,
    NonAtomicityError,
    ValidationError,
)
from .generator import (
    GeneratorMap,
    StructuralModel,
    build_generator,
    collision_fraction,
    compose_structural_model,
    group_collision_matrix,
    verify_replication,
)
from .measures import Conditional2D, GridDistribution, JointLaw, LawBatch
from .simulate import (
    Dataset,
    DGPSpec,
    ExperimentResult,
    discretize,
    nontestability_demo,
    population_law,
    product_conditional,
    run_experiment,
    sample,
)
from .validity import (
    ContinuityParams,
    InfeasibilityCertificate,
    TestReport,
    TupleCoupling,
    discrete_generator_feasible,
    feasibility_report,
    instrumental_inequality,
    make_test,
    minimal_collision_mass,
)

__all__ = [
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

__version__ = "0.1.0"

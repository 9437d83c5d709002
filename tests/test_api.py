"""The package's export list."""

import numpy as np

import ivtest
from ivtest import GridDistribution


def test_every_exported_name_resolves():
    assert len(set(ivtest.__all__)) == len(ivtest.__all__)
    missing = [name for name in ivtest.__all__ if not hasattr(ivtest, name)]
    assert missing == []


def test_one_pair_measures_are_exported_and_return_floats():
    assert {"winf_distance", "fosd_violation"} <= set(ivtest.__all__)
    a = GridDistribution.uniform(0.0, 1.0, 4)
    b = GridDistribution(np.array([0.5, 1.0, 1.5]), np.array([0.5, 0.0]), ((1.25, 0.5),))
    winf = ivtest.winf_distance(a, b)
    fosd = ivtest.fosd_violation(b, a)
    assert type(winf) is float and type(fosd) is float
    assert winf == 0.75 and fosd == 0.5  # the atom at 1.25 against level 0.5+; F_a - F_b on [0.5, 1]

"""
What becomes testable under continuity or monotonicity
======================================================

Unrestricted models replicate everything, but mild path restrictions give
the observed law real bite.  Four checks, each shown on one law that
passes and one that fails:

* jump test        - an almost-sure displacement above K as z gaps shrink
* moment test      - the Kolmogorov-Chentsov style moment ratio
* FOSD test        - first-order stochastic dominance of both marginals in z
* sure decrease    - whole supports falling by more than K as z rises
"""

import numpy as np

from ivtest import (
    ContinuityParams,
    GridDistribution,
    make_test,
    population_law,
    product_conditional,
)


def location_conditional(z, x_bins=8, y_bins=16):
    """X = z + U[0,1], Y = X + V[0,1]: the everywhere-smooth reference."""
    e = np.linspace(z, z + 2.0, y_bins + 1)
    mids = 0.5 * (e[:-1] + e[1:]) - z
    dens = np.minimum(mids, 2.0 - mids)
    return product_conditional(
        GridDistribution(e, dens / dens.sum()),
        GridDistribution.uniform(z, z + 1, x_bins),
    )


def show(law, name, **params):
    """Run the registered test ``name`` with ``params`` on ``law`` and print its report."""
    report = make_test(name, **params)[1](law)
    print(f"  {report.test_name:>14}: statistic {report.statistic:.4f}  -> {report.decision}")


# ---------------------------------------------------------------------------
# 1. A two-point instrument whose treatment supports sit 3 apart.
# ---------------------------------------------------------------------------

pz_bern = GridDistribution(np.array([-0.5, 1.5]), np.array([0.0]), ((0.0, 0.5), (1.0, 0.5)))
law_jumpy = population_law(
    [0.0, 1.0],
    pz_bern,
    lambda z: product_conditional(
        GridDistribution.uniform(0, 1, 4),
        GridDistribution.uniform(0 if z < 0.5 else 3, 1 if z < 0.5 else 4, 4),
    ),
)
print("separated supports (U[0,1] vs U[3,4]):")
show(law_jumpy, "jump", K=1.0, z_star=1.0)

# ---------------------------------------------------------------------------
# 2. The smooth location family passes both continuity checks.
# ---------------------------------------------------------------------------

zs = [0.0, 0.2, 0.3, 0.35]
pz_edges = np.array([-0.025, 0.1, 0.25, 0.325, 0.4])
pz = GridDistribution(pz_edges, np.diff(pz_edges) / np.diff(pz_edges).sum())
law_smooth = population_law(zs, pz, location_conditional)
constants = dict(alpha=2, beta=1, gamma=2, delta=1)
print(f"\nsmooth location family (moment bound C = {ContinuityParams(**constants).c_bound}):")
show(law_smooth, "moment", **constants)
show(law_smooth, "jump", K=1.0, z_star=0.35)

# and a law that jumps between the two finest grid points diverges
law_break = population_law(
    zs,
    pz,
    lambda z: location_conditional(z if z < 0.325 else z + 3.0),
)
print("\nsame grid with a hidden support jump at the finest gap:")
show(law_break, "moment", **constants)

# ---------------------------------------------------------------------------
# 3. Monotone versus sign-flipped first stage.
# ---------------------------------------------------------------------------

pz_u = GridDistribution.uniform(0, 1, 3)
zs3 = [1 / 6, 0.5, 5 / 6]
law_mono = population_law(zs3, pz_u, location_conditional)
law_flip = population_law(
    zs3,
    pz_u,
    lambda z: product_conditional(
        GridDistribution.uniform(0, 1, 4), GridDistribution.uniform(-z, 1 - z, 8)
    ),
)
print("\nmonotone location family vs sign-flipped first stage (FOSD, tol 0):")
show(law_mono, "fosd", tol=0.0)
show(law_flip, "fosd", tol=0.0)

# ---------------------------------------------------------------------------
# 4. A sure decrease: supports [5,6] then [0,1] as z rises.
# ---------------------------------------------------------------------------

pz2 = GridDistribution(np.array([0.0, 1.0]), np.array([0.0]), ((0.25, 0.5), (0.75, 0.5)))
law_drop = population_law(
    [0.25, 0.75],
    pz2,
    lambda z: product_conditional(
        GridDistribution.uniform(0, 1, 4),
        GridDistribution.uniform(5, 6, 4) if z < 0.5 else GridDistribution.uniform(0, 1, 4),
    ),
)
print("\nwhole treatment support drops by 4 as z rises (threshold K = 3):")
show(law_drop, "sure-decrease", K=3.0)

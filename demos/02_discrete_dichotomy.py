"""
Why discrete treatments are different
=====================================

With a continuous treatment every observed law is replicable by a valid
instrument.  With a discrete treatment that replication can be impossible:
whenever two conditionals stack more than unit mass on one value, every
coupling of the two potential treatments collides with positive
probability, so no first stage can be one-to-one in z.  This script walks
the closed form, the transport witness, and Pearl's instrumental
inequality.
"""

import numpy as np

from ivtest import (
    Conditional2D,
    GridDistribution,
    JointLaw,
    NonAtomicityError,
    discrete_generator_feasible,
    instrumental_inequality,
    minimal_collision_mass,
    nontestability_demo,
)

# ---------------------------------------------------------------------------
# 1. Two z points, binary treatment: p(x1) + q(x1) > 1 forces collisions.
# ---------------------------------------------------------------------------

p, q = [0.7, 0.3], [0.5, 0.5]
print(f"conditionals p={p}, q={q}")
print(f"minimal collision mass: {minimal_collision_mass(p, q):.3f}")
feasible, certificate = discrete_generator_feasible([p, q])
print(f"one-to-one first stage exists: {feasible}")
print(f"certificate: {certificate.reason} (excess {certificate.excess:.3f})")

# symmetric laws escape through the anti-diagonal coupling
feasible, witness = discrete_generator_feasible([[0.5, 0.5], [0.5, 0.5]])
plan = [(t, round(float(w), 3)) for t, w in zip(witness.tuples, witness.weights)]
print(f"\nsymmetric case feasible: {feasible}, witness plan (pair, weight): {plan}")

# ---------------------------------------------------------------------------
# 2. Three z points need a plan over pairwise-distinct triples.
# ---------------------------------------------------------------------------

laws = [[0.5, 0.3, 0.2, 0.0], [0.0, 0.5, 0.3, 0.2], [0.2, 0.0, 0.5, 0.3]]
feasible, witness = discrete_generator_feasible(laws)
print(f"\nthree z points on four values: feasible = {feasible}")
if feasible:
    used = [(t, round(float(w), 3)) for t, w in zip(witness.tuples, witness.weights) if w > 1e-9]
    print(f"plan uses {len(used)} distinct-value triples, e.g. {used[:3]}")

# ---------------------------------------------------------------------------
# 3. The replication pipeline refuses a law whose treatment is discrete at
#    grid resolution and reports the forced collision mass.
# ---------------------------------------------------------------------------

edges = np.linspace(0.0, 1.0, 3)
stack = lambda top: Conditional2D(edges, edges, np.array([[top, 0.0], [0.0, 1 - top]]))
law = JointLaw(
    [0.25, 0.75],
    GridDistribution.uniform(0, 1, 2),
    (
        Conditional2D(edges, edges, np.array([[1.0, 0.0], [0.0, 0.0]])),
        Conditional2D(edges, edges, np.array([[1.0, 0.0], [0.0, 0.0]])),
    ),
)
try:
    nontestability_demo(law, depth=4)
except NonAtomicityError as exc:
    print(f"\nreplication refused for the discrete law:\n  {exc}")

# ---------------------------------------------------------------------------
# 4. Pearl's instrumental inequality, the classical discrete check.
# ---------------------------------------------------------------------------

c0 = np.array([[0.9, 0.04], [0.02, 0.04]])
c1 = np.array([[0.04, 0.04], [0.9, 0.02]])
report = instrumental_inequality([c0, c1])
print(
    f"\ninstrumental inequality: statistic {report.statistic:.2f} "
    f"(threshold 1), decision: {report.decision}"
)

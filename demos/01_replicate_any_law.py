"""
Replicating an arbitrary observed law with a valid instrument
=============================================================

The point of this script: take an observed law P_{Y,X|Z} that was produced
by a *maximally invalid* instrument (the z draw is a deterministic function
of the outcome noise), and build a structural model with a genuinely
independent instrument that induces exactly the same law.  The replication
error is exactly zero at grid resolution, at every partition depth, which
is why no test can detect the invalidity from the law alone.
"""

import numpy as np

from ivtest import (
    DGPSpec,
    build_generator,
    collision_fraction,
    compose_structural_model,
    discretize,
    nontestability_demo,
    sample,
    verify_replication,
)

# ---------------------------------------------------------------------------
# 1. Sample a law from an invalid-instrument process and bin it.
# ---------------------------------------------------------------------------

invalid = DGPSpec(
    name="maximally-invalid",
    instrument_valid=False,
    copula_weight=1.0,   # z is a deterministic function of ...
    copula_target="v",   # ... the outcome-stage latent
)
data = sample(invalid, n=10_000, seed=42)
law = discretize(data, y_bins=8, x_bins=8, z_bins=8)
print(f"observed law: {len(law.z_grid)} z sites, 8x8 cells per conditional")

# ---------------------------------------------------------------------------
# 2. One call builds the valid-instrument model and verifies replication.
# ---------------------------------------------------------------------------

model, error = nontestability_demo(law, depth=6)
print(f"replication error at depth 6: {error!r}")
print(f"model asserts instrument independence: {model.to_json_dict()['independence']}")

# ---------------------------------------------------------------------------
# 3. The permutations are what make the first stage injective across z;
#    they never change the induced conditionals.  Watch the collision mass
#    (the z-pair mass still sharing an identical map) halve with depth
#    while the replication error stays at zero.
# ---------------------------------------------------------------------------

margs = law.x_marginals()
print("\ndepth  collision fraction  replication error")
for depth in range(7):
    gen = build_generator(margs, law.pz, law.z_grid, depth)
    cf = collision_fraction(gen)
    err = verify_replication(compose_structural_model(law, gen), law)
    print(f"{depth:>5}  {cf:>18.6f}  {err!r}")

# ---------------------------------------------------------------------------
# 4. The model is a real sampler: rows drawn from it reproduce the law.
# ---------------------------------------------------------------------------

rows = model.sample(5, seed=1)
print("\nfive rows drawn from the replicating model (y, x, z):")
print(np.array_str(rows, precision=3))

"""
Size and power: restricted versus unrestricted model classes
============================================================

Two seeded Monte Carlo experiments.

Restricted class: maintain monotone stages, then the FOSD check separates a
sign-flipped first stage from a monotone one essentially perfectly.

Unrestricted class: every law is passed through the replication demo, which
builds a first stage replicating each x-marginal exactly.  The twin rows
(suffix ``@replicated``) test the law the built model induces, which is the
source law object itself: its outcome stage still reads the drawn z's site,
so the twins are not certified null members, and their rows repeat the
source rows.
"""

from ivtest import DGPSpec, make_test, run_experiment

REPS = 100   # bump to 200+ for a paper-grade table
N = 10_000

# ---------------------------------------------------------------------------
# 1. Restricted class: monotonicity maintained.
# ---------------------------------------------------------------------------

restricted_specs = [
    DGPSpec(name="monotone-location"),
    DGPSpec(name="monotone-scale", first_stage="scale"),
    DGPSpec(name="sign-flip", first_stage="sign_flip"),
]
res = run_experiment(
    restricted_specs,
    [make_test("fosd", tol=0.12), make_test("sure-decrease", K=1.0)],
    n=N,
    reps=REPS,
    seed=11,
)
print("restricted class (monotone stages maintained):")
print(res.to_csv_text())

# ---------------------------------------------------------------------------
# 2. Unrestricted class: invalidity dialed in through the copula weight,
#    every law passed through the replication demo first.
# ---------------------------------------------------------------------------

unrestricted_specs = [
    DGPSpec(name="valid"),
    DGPSpec(name="invalid", instrument_valid=False, copula_weight=1.0, copula_target="v"),
]
tests = [
    make_test("fosd", tol=0.12),
    make_test("jump", K=1.0),
    make_test("pearl"),
    make_test("moment"),
]
res_u = run_experiment(
    unrestricted_specs, tests, n=N, reps=REPS, seed=12, nontestability_depth=6
)
print("unrestricted class (laws certified replicable before testing):")
print(res_u.to_csv_text())

for name, _ in tests:
    power = res_u.entries[("invalid", name)].rejection_rate
    size = max(
        res_u.entries[(row, name)].rejection_rate
        for row in ("valid", "valid@replicated", "invalid@replicated")
    )
    print(f"{name:>14}: power {power:.3f} <= size {size:.3f} + 0.01: {power <= size + 0.01}")

"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from ivtest import (
    DGPSpec,
    GridDistribution,
    build_generator,
    collision_fraction,
    discrete_generator_feasible,
    discretize,
    group_collision_matrix,
    make_test,
    minimal_collision_mass,
    nontestability_demo,
    run_experiment,
    sample,
)
from ivtest.cli import main as cli_main
from ivtest.validity import ContinuityParams, continuity_moment_statistics

from conftest import (
    bernoulli_support_jump_law,
    identical_conditional_setup,
    location_family_law,
    random_joint_law,
)
from test_validity import (
    backtracking_feasible,
    lp_min_collision,
    random_integer_laws,
    smooth_location_law,
)


def verdict(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. Any observed law, including maximally invalid ones, replicates exactly
# ---------------------------------------------------------------------------


def test_criterion_1_replication_of_arbitrary_laws():
    laws = []
    master = np.random.default_rng(101)
    for k in range(10):
        laws.append(("random", random_joint_law(np.random.default_rng(1000 + k))))
    invalid = DGPSpec(
        name="max-invalid",
        instrument_valid=False,
        copula_weight=1.0,
        copula_target="v",
    )
    for k in range(10):
        law = discretize(sample(invalid, 10_000, seed=2000 + k), 8, 8, 8)
        for m in law.x_marginals():
            assert int(np.count_nonzero(m.masses > 0)) >= 2
            assert not m.atoms
        laws.append(("invalid-dgp", law))
    worst_err = 0.0
    worst_time = 0.0
    for origin, law in laws:
        t0 = time.perf_counter()
        _, err = nontestability_demo(law, 6)
        dt = time.perf_counter() - t0
        worst_err = max(worst_err, err)
        worst_time = max(worst_time, dt)
        assert err == 0.0, f"{origin} law replicated with error {err!r}"
        assert dt < 5.0
    verdict(
        1,
        worst_err == 0.0 and worst_time < 5.0,
        f"20 laws (10 random, 10 invalid-instrument) replicate with error exactly "
        f"0.0 at depth 6; slowest law {worst_time:.2f}s < 5s",
    )


# ---------------------------------------------------------------------------
# 2. Collision mass halves per level, exactly
# ---------------------------------------------------------------------------


def test_criterion_2_injectivity_convergence():
    margs, pz, zg = identical_conditional_setup()
    exact = []
    for n in range(11):
        gen = build_generator(margs, pz, zg, n)
        cf = collision_fraction(gen)
        exact.append(cf == 2.0**-n)
        assert cf == 2.0**-n, f"depth {n}: {cf!r} != 2^-{n}"
    verdict(
        2,
        all(exact),
        "identical conditionals: collision fraction equals 2^-n exactly for n in 0..10",
    )


# ---------------------------------------------------------------------------
# 3. Atomic z law: the cyclic shifts separate all top-level groups at level 1
# ---------------------------------------------------------------------------


def test_criterion_3_atomic_variant():
    worst = 0.0
    for k in (1, 2, 3):
        atoms = tuple((0.1 + 0.2 * j, 0.4 / k) for j in range(k))
        pz = GridDistribution(np.array([0.0, 1.0]), np.array([0.6]), atoms)
        z_grid = sorted([a for a, _ in atoms] + [0.95])
        margs = [GridDistribution.uniform(0, 1)] * (k + 1)
        for depth in (1, 2):
            gen = build_generator(margs, pz, z_grid, depth)
            _, mat = group_collision_matrix(gen)
            off = mat.copy()
            np.fill_diagonal(off, 0.0)
            worst = max(worst, float(off.max()))
    verdict(
        3,
        worst == 0.0,
        "k in {1,2,3} atoms: cross-group collision fraction is exactly 0 from level 1",
    )


# ---------------------------------------------------------------------------
# 4. Discrete dichotomy: feasibility decision matches exhaustive search
# ---------------------------------------------------------------------------


def test_criterion_4_discrete_dichotomy():
    feasible, cert = discrete_generator_feasible([[0.7, 0.3], [0.5, 0.5]])
    assert not feasible
    assert abs(cert.excess - 0.2) <= 1e-12

    rng = np.random.default_rng(77)
    disagreements = 0
    for _ in range(200):
        units = random_integer_laws(rng, 2, int(rng.integers(2, 5)), 16)
        got, _ = discrete_generator_feasible([np.array(u) / 16 for u in units])
        disagreements += got != backtracking_feasible(units, 16)
    for _ in range(50):
        units = random_integer_laws(rng, 3, 4, 12)
        got, _ = discrete_generator_feasible([np.array(u) / 12 for u in units])
        disagreements += got != backtracking_feasible(units, 12)
    verdict(
        4,
        disagreements == 0,
        "binary example rejected with excess 0.2 +- 1e-12; 200 two-point and 50 "
        "three-point instances agree with the exhaustive coupling oracle "
        f"({disagreements} disagreements)",
    )


# ---------------------------------------------------------------------------
# 5. Closed-form collision mass equals LP minimization
# ---------------------------------------------------------------------------


def test_criterion_5_minimal_collision_mass():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        worst = max(worst, abs(minimal_collision_mass(p, q) - lp_min_collision(p, q)))
    verdict(
        5,
        worst <= 1e-6,
        f"closed form vs brute-force coupling LP on 200 instances: max gap {worst:.2e} <= 1e-6",
    )


# ---------------------------------------------------------------------------
# 6. Continuity tests: the separated-support law rejects, the smooth law passes
# ---------------------------------------------------------------------------


def test_criterion_6_continuity_tests():
    law_b = bernoulli_support_jump_law()
    rj = make_test("jump", K=1.0, z_star=1.0)[1](law_b)
    ok_jump = rj.decision == "reject" and abs(rj.statistic - 3.0) <= 1e-9

    law_s = smooth_location_law(gaps=(0.2, 0.1, 0.05))
    params = ContinuityParams(alpha=2, beta=1, gamma=2, delta=1)
    rm = continuity_moment_statistics(law_s.batch, params)[0]
    ok_moment = rm.decision == "consistent"
    verdict(
        6,
        ok_jump and ok_moment,
        f"separated supports: jump statistic {rj.statistic!r} (3 +- 1e-9), reject at K=1; "
        f"smooth process: moment statistic {rm.statistic:.3f} <= C = {params.c_bound}, "
        "consistent at gaps 0.2/0.1/0.05",
    )


# ---------------------------------------------------------------------------
# 7. Monotonicity tests: soundness, power, and the sure-decrease witness
# ---------------------------------------------------------------------------


def test_criterion_7_monotonicity_tests():
    law_loc = location_family_law([0.0, 0.25, 0.5, 0.75])
    r_loc = make_test("fosd", tol=0.0)[1](law_loc)
    ok_loc = r_loc.statistic == 0.0 and r_loc.decision == "consistent"

    specs = [DGPSpec(name="flip", first_stage="sign_flip")]
    res = run_experiment(specs, [make_test("fosd", tol=0.12)], n=10_000, reps=200, seed=707)
    rate = res.entries[("flip", "fosd")].rejection_rate
    ok_flip = rate >= 0.95

    from conftest import GridDistribution as GD  # alias for brevity
    from ivtest import population_law, product_conditional

    pz = GridDistribution(np.array([0.0, 1.0]), np.array([0.0]), ((0.25, 0.5), (0.75, 0.5)))
    law_sd = population_law(
        [0.25, 0.75],
        pz,
        lambda z: product_conditional(
            GD.uniform(0, 1, 4),
            GD.uniform(5, 6, 4) if z < 0.5 else GD.uniform(0, 1, 4),
        ),
    )
    r_sd = make_test("sure-decrease", K=3.0)[1](law_sd)
    ok_sd = r_sd.decision == "reject" and abs(r_sd.statistic - 4.0) <= 1e-9
    verdict(
        7,
        ok_loc and ok_flip and ok_sd,
        f"location family: violation exactly 0; sign flip rejected at rate {rate} >= 0.95 "
        f"(200 reps, n=10^4); sure-decrease statistic {r_sd.statistic!r} (4 +- 1e-9), reject at K=3",
    )


# ---------------------------------------------------------------------------
# 8. Power bounded by size once every law is certified replicable
# ---------------------------------------------------------------------------


def test_criterion_8_power_bounded_by_size():
    t0 = time.perf_counter()
    specs = [
        DGPSpec(name="loc-valid"),
        DGPSpec(name="scale-valid", first_stage="scale"),
        DGPSpec(
            name="loc-invalid",
            instrument_valid=False,
            copula_weight=1.0,
            copula_target="v",
        ),
        DGPSpec(
            name="scale-invalid",
            first_stage="scale",
            instrument_valid=False,
            copula_weight=1.0,
            copula_target="v",
        ),
    ]
    tests = [
        make_test("fosd", tol=0.12),
        make_test("sure-decrease", K=1.0),
        make_test("jump", K=1.0),
        make_test("pearl"),
        make_test("moment"),
    ]
    res = run_experiment(
        specs, tests, n=10_000, reps=200, seed=808, bins=(4, 4, 4), nontestability_depth=6
    )
    invalid_names = {s.name for s in specs if not s.instrument_valid}
    gaps = {}
    for name, _ in tests:
        power = max(
            st.rejection_rate
            for (spec, t), st in res.entries.items()
            if t == name and spec in invalid_names
        )
        # the null class contains the plain valid processes and every
        # replicating valid model built by the demo pass
        size = max(
            st.rejection_rate
            for (spec, t), st in res.entries.items()
            if t == name and spec not in invalid_names
        )
        gaps[name] = power - size
    runtime = time.perf_counter() - t0
    ok = all(g <= 0.01 for g in gaps.values()) and runtime < 600.0
    detail = ", ".join(f"{k}: {v:+.3f}" for k, v in gaps.items())
    verdict(
        8,
        ok,
        f"power minus size per test ({detail}) all <= 0.01 over 200 replications; "
        f"runtime {runtime:.0f}s < 600s",
    )


# ---------------------------------------------------------------------------
# 9. Simulated experiments are byte-reproducible
# ---------------------------------------------------------------------------


def test_criterion_9_simulate_determinism(tmp_path):
    cfg = {
        "specs": [
            {"name": "loc-valid"},
            {
                "name": "loc-invalid",
                "instrument_valid": False,
                "copula_weight": 1.0,
                "copula_target": "v",
            },
        ],
        "tests": [{"name": "fosd", "tol": 0.12}, {"name": "jump", "K": 1.0}],
        "n": 2000,
        "reps": 5,
        "bins": [4, 4, 4],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = cli_main(
            ["simulate", "--input", str(cfg_path), "--seed", "7", "--format", "csv",
             "--output", str(out)]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    verdict(
        9,
        outs[0] == outs[1],
        "cmd_simulate with identical seeds produces byte-identical CSV",
    )

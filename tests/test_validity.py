"""Validity tests against brute-force oracles."""

import itertools
import json

import numpy as np
import pytest
from scipy.optimize import linprog

from ivtest import (
    ContinuityParams,
    DegenerateGridError,
    GridDistribution,
    InfeasibilityCertificate,
    IVTestError,
    TestReport,
    ValidationError,
    discrete_generator_feasible,
    feasibility_report,
    instrumental_inequality,
    make_test,
    minimal_collision_mass,
    population_law,
    product_conditional,
)

from ivtest.measures import (
    INPUT_TOL,
    Conditional2D,
    GridStack,
    JointLaw,
    LawBatch,
    fosd_violations,
    winf_distances,
)
from ivtest.simulate import DGPSpec, discretize, sample
from ivtest.validity import (
    continuity_moment_statistics,
    jump_tests,
    monotonicity_sure_decrease_tests,
    monotonicity_tests,
)

from conftest import (
    assert_tuple_plan,
    bernoulli_support_jump_law,
    location_family_law,
    one_pair_fosd_violation,
    one_pair_winf_distance,
    pair_loop_fosd,
    pair_loop_jump,
    pair_loop_moment,
    pair_loop_sure_decrease,
    pair_quantile_moment,
    random_joint_law,
    segment_loop_quantile_moment,
)

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def lp_min_collision(p, q):
    """Brute-force coupling minimization of the diagonal mass via an LP."""
    n = len(p)
    c = np.zeros(n * n)
    c[:: n + 1] = 1.0
    a_eq = np.zeros((2 * n, n * n))
    for i in range(n):
        a_eq[i, i * n : (i + 1) * n] = 1.0
        a_eq[n + i, i::n] = 1.0
    res = linprog(c, A_eq=a_eq, b_eq=np.concatenate([p, q]), bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


def grid_min_collision_binary(p, q, step=0.01):
    """Scan all couplings of two binary laws on a parameter grid."""
    lo = max(0.0, p[0] + q[0] - 1.0)
    hi = min(p[0], q[0])
    best = np.inf
    t = lo
    while t <= hi + 1e-12:
        diag = t + (1.0 - p[0] - q[0] + t)  # pi_00 + pi_11
        best = min(best, max(diag, 0.0))
        t += step
    return best


def backtracking_feasible(units_per_law, total_units):
    """Exhaustive integer search for a distinct-coordinate transport plan.

    Laws are given as integer unit vectors summing to ``total_units``; the
    plan assigns units to tuples of pairwise distinct support values.  The
    outcome from a tuple index on depends only on the units left, so each
    ``(tuple index, units left, remaining units)`` state is searched once,
    and a state that leaves units on a value no later tuple draws on fails
    at once.
    """
    m = len(units_per_law)
    support = len(units_per_law[0])
    tuples = [
        t for t in itertools.product(range(support), repeat=m) if len(set(t)) == m
    ]
    # end[zi][x]: one past the last tuple that draws on value x of law zi
    end = [[0] * support for _ in range(m)]
    for ti, t in enumerate(tuples):
        for zi, x in enumerate(t):
            end[zi][x] = ti + 1
    remaining = [list(u) for u in units_per_law]
    seen = {}

    def rec(ti, left):
        if left == 0:
            return all(all(v == 0 for v in r) for r in remaining)
        if ti == len(tuples):
            return False
        if any(r[x] and end[zi][x] <= ti for zi, r in enumerate(remaining) for x in range(support)):
            return False
        key = (ti, left, tuple(v for r in remaining for v in r))
        if key in seen:
            return seen[key]
        found = False
        cap = min(remaining[zi][x] for zi, x in enumerate(tuples[ti]))
        cap = min(cap, left)
        for take in range(cap, -1, -1):
            for zi, x in enumerate(tuples[ti]):
                remaining[zi][x] -= take
            found = rec(ti + 1, left - take)
            for zi, x in enumerate(tuples[ti]):
                remaining[zi][x] += take
            if found:
                break
        seen[key] = found
        return found

    return rec(0, total_units)


def random_integer_laws(rng, m, support, units):
    laws = []
    for _ in range(m):
        cuts = np.sort(rng.integers(0, units + 1, support - 1))
        vec = np.diff(np.concatenate([[0], cuts, [units]]))
        laws.append(vec.astype(int).tolist())
    return laws


# ---------------------------------------------------------------------------
# minimal_collision_mass
# ---------------------------------------------------------------------------


def test_mcm_examples():
    assert minimal_collision_mass([0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.2, abs=1e-12)
    assert minimal_collision_mass([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert minimal_collision_mass([1.0], [1.0]) == pytest.approx(1.0)


def test_mcm_binary_grid_oracle():
    assert minimal_collision_mass([0.7, 0.3], [0.5, 0.5]) == pytest.approx(
        grid_min_collision_binary([0.7, 0.3], [0.5, 0.5]), abs=1e-2
    )


def test_mcm_matches_lp_on_random_laws(rng):
    for _ in range(200):
        n = int(rng.integers(2, 4))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        assert minimal_collision_mass(p, q) == pytest.approx(
            lp_min_collision(p, q), abs=1e-6
        )


# ---------------------------------------------------------------------------
# discrete_generator_feasible
# ---------------------------------------------------------------------------


def test_feasibility_m2_examples():
    feasible, cert = discrete_generator_feasible([[0.7, 0.3], [0.5, 0.5]])
    assert not feasible
    assert isinstance(cert, InfeasibilityCertificate)
    assert cert.x_index == 0
    assert cert.excess == pytest.approx(0.2, abs=1e-12)

    feasible, witness = discrete_generator_feasible([[0.5, 0.5], [0.5, 0.5]])
    assert feasible
    assert_tuple_plan([[0.5, 0.5], [0.5, 0.5]], witness.tuples, witness.weights, atol=1e-9)


def test_feasibility_support_smaller_than_z_points():
    feasible, cert = discrete_generator_feasible([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    assert not feasible
    assert cert.x_index == 0
    assert cert.excess == 0.5


def test_feasibility_rejects_unnormalized():
    with pytest.raises(ValidationError):
        discrete_generator_feasible([[0.7, 0.7], [0.5, 0.5]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: minimal_collision_mass([], [1.0]), "p must be a non-empty vector"),
        (lambda: minimal_collision_mass([[0.5, 0.5]], [1.0]), "p must be a non-empty vector"),
        (lambda: minimal_collision_mass([0.5, 0.5], [1.5, -0.5]), "q has negative entries"),
        (lambda: minimal_collision_mass([0.5, 0.5], [1.0]), "p and q must share a support"),
        (lambda: instrumental_inequality([]), "need at least one conditional"),
        (
            lambda: instrumental_inequality([np.full((2, 2), 0.25), np.full((1, 4), 0.25)]),
            "conditionals must be matrices of equal shape",
        ),
        (
            lambda: discrete_generator_feasible([[0.5, 0.5], [0.5, 0.5]], [1.0]),
            "need one weight per z point",
        ),
    ],
    ids=["empty", "not-a-vector", "negative", "two-supports", "no-conditionals",
         "unequal-shapes", "weights-length"],
)
def test_discrete_inputs_are_refused(call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()


def test_feasibility_duality_with_mcm(rng):
    for _ in range(100):
        n = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        feasible, _ = discrete_generator_feasible([p, q])
        assert feasible == (minimal_collision_mass(p, q) <= 1e-9)


def test_feasibility_m2_agrees_with_backtracking(rng):
    units = 16
    disagreements = 0
    for _ in range(200):
        laws_units = random_integer_laws(rng, 2, int(rng.integers(2, 5)), units)
        laws = [np.array(u) / units for u in laws_units]
        feasible, _ = discrete_generator_feasible(laws)
        oracle = backtracking_feasible(laws_units, units)
        disagreements += feasible != oracle
    assert disagreements == 0


@pytest.mark.parametrize("m, units", [(3, 12), (4, 6)])
def test_feasibility_m3_agrees_with_backtracking(rng, m, units):
    disagreements = 0
    for _ in range(50):
        laws_units = random_integer_laws(rng, m, int(rng.integers(m, 7)), units)
        laws = [np.array(u) / units for u in laws_units]
        feasible, witness = discrete_generator_feasible(laws)
        oracle = backtracking_feasible(laws_units, units)
        disagreements += feasible != oracle
        if feasible:
            assert_tuple_plan(laws, witness.tuples, witness.weights, atol=1e-7)
    assert disagreements == 0


def test_feasibility_many_sites_and_values():
    rng = np.random.default_rng(8)
    for _ in range(5):
        laws = rng.dirichlet(np.ones(50), size=8)
        feasible, witness = discrete_generator_feasible(laws)
        assert feasible
        assert_tuple_plan(laws, witness.tuples, witness.weights, atol=1e-9)
    laws = 0.8 * laws
    laws[:, 0] += 0.2  # value 0 stacks at least 1.6
    feasible, cert = discrete_generator_feasible(laws)
    assert not feasible
    col = laws.sum(axis=0)
    assert cert.x_index == int(np.argmax(col))
    assert cert.excess == pytest.approx(float(col.max()) - 1.0, abs=1e-12)


def random_feasible_conditionals(rng):
    """Mixtures of injective tuples: some values in no tuple (zero columns),
    some in every tuple (column sum 1, exactly when the weights are dyadic)."""
    support = int(rng.integers(2, 9))
    m = int(rng.integers(2, support + 1))
    values = rng.permutation(support)
    used = values[: int(rng.integers(m, support + 1))]  # the rest are zero columns
    always = used[: int(rng.integers(0, m + 1))]
    free = used[len(always):]
    if rng.random() < 0.5:
        weights = np.full(16, 1.0 / 16.0)
    else:
        weights = rng.dirichlet(np.ones(int(rng.integers(1, 13))))
    laws = np.zeros((m, support))
    for w in weights:
        t = rng.permutation(np.concatenate([always, rng.choice(free, m - len(always), replace=False)]))
        laws[np.arange(m), t] += w
    return laws, always


def test_feasibility_witness_properties():
    rng = np.random.default_rng(22)
    full_columns = 0
    for _ in range(300):
        laws, always = random_feasible_conditionals(rng)
        full_columns += int(np.all(laws.sum(axis=0)[always] == 1.0)) * len(always)
        feasible, witness = discrete_generator_feasible(laws)
        assert feasible
        assert np.all(witness.weights > 0.0)
        # distinct coordinates, weights summing to 1, the term bound, marginals
        assert_tuple_plan(laws, witness.tuples, witness.weights, atol=INPUT_TOL)
    assert full_columns > 100  # the exactly-unit column sums are exercised


# ---------------------------------------------------------------------------
# instrumental inequality
# ---------------------------------------------------------------------------


def test_pearl_reject_example():
    c0 = np.array([[0.9, 0.04], [0.02, 0.04]])
    c1 = np.array([[0.04, 0.04], [0.9, 0.02]])
    r = instrumental_inequality([c0, c1])
    assert r.statistic == pytest.approx(1.8, abs=1e-12)
    assert r.decision == "reject"


def test_pearl_constant_in_z_consistent(rng):
    m = rng.dirichlet(np.ones(6)).reshape(2, 3)
    r = instrumental_inequality([m, m, m])
    assert r.statistic == pytest.approx(float(m.sum(axis=0).max()), abs=1e-12)
    assert r.decision == "consistent"


def dyadic_law(rng, n, denom=64):
    """Random law with dyadic masses: forward sums stay float-exact."""
    cuts = np.sort(rng.integers(0, denom + 1, n - 1))
    units = np.diff(np.concatenate([[0], cuts, [denom]]))
    return units / denom


def test_pearl_valid_models_by_forward_enumeration(rng):
    """P(y,x|z) computed exhaustively from random valid discrete models.

    Latent laws are dyadic so the enumeration is exact: equality cases of
    the inequality land exactly on 1 and stay consistent.
    """
    for _ in range(50):
        n_u, n_v, n_x, n_y, n_z = (int(rng.integers(2, 5)) for _ in range(5))
        pu = dyadic_law(rng, n_u)
        pv = dyadic_law(rng, n_v)
        g = rng.integers(0, n_x, size=(n_z, n_u))
        h = rng.integers(0, n_y, size=(n_x, n_v))
        conds = []
        for z in range(n_z):
            mat = np.zeros((n_y, n_x))
            for ui, vi in itertools.product(range(n_u), range(n_v)):
                x = g[z, ui]
                y = h[x, vi]
                mat[y, x] += pu[ui] * pv[vi]
            conds.append(mat)
        r = instrumental_inequality(conds)
        assert r.statistic <= 1.0 + 1e-9
        assert r.decision == "consistent"


def test_pearl_invariant_under_relabeling(rng):
    mats = [rng.dirichlet(np.ones(12)).reshape(3, 4) for _ in range(3)]
    base = instrumental_inequality(mats).statistic
    py = rng.permutation(3)
    px = rng.permutation(4)
    relabeled = [m[np.ix_(py, px)] for m in mats]
    assert instrumental_inequality(relabeled).statistic == pytest.approx(base, abs=1e-12)
    assert instrumental_inequality(mats[::-1]).statistic == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# continuity moment test
# ---------------------------------------------------------------------------


def smooth_location_law(gaps=(0.2, 0.1, 0.05)):
    zs = [0.0]
    for g in gaps:
        zs.append(zs[-1] + g)
    return location_family_law(zs)


def test_moment_smooth_dgp_consistent_closed_form():
    """X = Z + U, Y = X + V: quantile gaps equal the z gap exactly, so the
    moment is (2 gap^2)^2 and every ratio is 4 gap, far below the bound."""
    law = smooth_location_law()
    params = ContinuityParams(alpha=2, beta=1, gamma=2, delta=1)
    r = continuity_moment_statistics(law.batch, params)[0]
    assert r.decision == "consistent"
    gaps = sorted([r.diagnostics[f"gap_{k}"] for k in range(3)])
    ratios = [r.diagnostics[f"ratio_{k}"] for k in range(3)]
    for k, g in enumerate(sorted(gaps)):
        expected = (2 * g * g) ** 2 / g ** 3  # closed-form quantile-shift moment
        assert r.diagnostics[f"ratio_{k}"] == pytest.approx(expected, rel=1e-6) or any(
            abs(rr - expected) < 1e-6 * expected for rr in ratios
        )
    assert r.statistic == pytest.approx(4 * max(gaps), rel=1e-9)


def test_moment_constant_conditionals_zero():
    pz = GridDistribution.uniform(0, 1, 4)
    cond = product_conditional(
        GridDistribution.uniform(0, 1, 4), GridDistribution.uniform(0, 1, 4)
    )
    law = population_law([0.125, 0.375, 0.625, 0.875], pz, lambda z: cond)
    params = ContinuityParams(alpha=2, beta=1, gamma=2, delta=1)
    r = continuity_moment_statistics(law.batch, params)[0]
    assert r.statistic == 0.0
    assert r.decision == "consistent"


def test_moment_support_jump_diverges():
    zs = [0.0, 0.2, 0.3, 0.35]
    pz_edges = np.array([-0.025, 0.1, 0.25, 0.325, 0.4])
    pz = GridDistribution(pz_edges, np.diff(pz_edges) / np.diff(pz_edges).sum())

    def cond(z):
        shift = 0.0 if z < 0.325 else 3.0
        return product_conditional(
            GridDistribution.uniform(0, 1, 4),
            GridDistribution.uniform(shift, shift + 1, 4),
        )

    law = population_law(zs, pz, cond)
    params = ContinuityParams(alpha=2, beta=1, gamma=2, delta=1)
    r = continuity_moment_statistics(law.batch, params)[0]
    assert r.decision == "reject"
    assert r.statistic > 100.0


def random_marginal(rng, atoms=False, gaps=False):
    """Random grid law; ``gaps`` zeroes some bins, leaving holes in the support
    (and zero-mass bins at its ends), ``atoms`` adds point masses."""
    bins = int(rng.integers(1, 7))
    edges = np.cumsum(np.concatenate([[rng.uniform(-2, 2)], rng.uniform(0.1, 1.5, bins)]))
    masses = rng.gamma(1.0, size=bins)
    if gaps:
        masses[rng.random(bins) < 0.5] = 0.0
    locs = rng.choice(edges[0] + np.arange(1, 12) * (edges[-1] - edges[0]) / 12,
                      size=int(rng.integers(1, 4)) if atoms else 0, replace=False)
    weights = rng.gamma(1.0, size=len(locs))
    if masses.sum() + weights.sum() == 0:
        masses[0] = 1.0
    total = masses.sum() + weights.sum()
    return GridDistribution(edges, masses / total, tuple(zip(locs, weights / total)))


@pytest.mark.parametrize("power", [0.5, 1.0, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("kind", ["plain", "atoms", "gaps", "atoms+gaps"])
def test_pair_moment_matches_segment_loop_bit_for_bit(rng, power, kind):
    """One quantile sweep per marginal gives the per-segment loop's float exactly."""
    for _ in range(12):
        margs = [random_marginal(rng, "atoms" in kind, "gaps" in kind) for _ in range(4)]
        got = pair_quantile_moment(*margs, power)
        assert got == segment_loop_quantile_moment(*margs, power)


def test_vecdot_rows_are_the_one_dimensional_dot(rng):
    """``np.vecdot`` of every row of an ``(m, 16)`` array with the
    Gauss-Legendre weights is the 1-D ``weights @ row`` bit for bit, at
    scales from 1e-10 to 1e10.  The moment statistic sums its segments so;
    a NumPy or BLAS whose ``vecdot`` rounded otherwise would move the seeded
    simulate output."""
    weights = np.polynomial.legendre.leggauss(16)[1]
    vals = rng.random((20_000, 16)) * 10.0 ** rng.uniform(-10, 10, size=(20_000, 1))
    want = np.array([weights @ v for v in vals])
    assert np.vecdot(vals, weights).tobytes() == want.tobytes()


def ulp_segments(levels, nodes):
    """Gauss-Legendre nodes on segments that start or end on each level, or
    straddle it, and are 1 to 16 ulps wide: most of their end nodes round
    onto the level or onto the segment's other end."""
    lines = []
    for c in levels:
        for k in (1, 2, 3, 8):
            step = k * np.spacing(max(c, 1e-300))
            for a, b in ((c, c + step), (c - step, c), (c - step, c + step)):
                a, b = max(a, 0.0), min(b, 1.0)
                lines.append(0.5 * (b - a) * nodes + 0.5 * (a + b))
    return np.array(lines)


@pytest.mark.parametrize("kind", ["plain", "atoms", "gaps", "atoms+gaps"])
def test_quantile_sorted_searches_lines_that_cross_a_level_node_by_node(rng, kind):
    """Lines of nodes on segments a few ulps wide at a row's ``CL``/``CR``
    levels: where a line's end nodes fall on either side of a level, its
    ranks differ and it is searched node by node.  Those lines and the rest
    give per-node ``GridStack.quantile`` bit for bit."""
    nodes = np.polynomial.legendre.leggauss(16)[0]
    laws = [random_marginal(rng, "atoms" in kind, "gaps" in kind) for _ in range(4)]
    stack = GridStack.of(laws)
    rows, lines = [], []
    for r in range(len(laws)):
        at = slice(stack.starts[r], stack.starts[r + 1])
        t = ulp_segments(np.unique(np.clip(np.r_[stack.CL[at], stack.CR[at]], 0.0, 1.0)), nodes)
        rows.append(np.full(len(t), r))
        lines.append(t)
    rows, t = np.concatenate(rows), np.concatenate(lines)
    assert (np.diff(t, axis=1) >= 0).all()
    ends = stack._rank(stack._cr_keys, rows[:, None], t[:, [0, -1]], False)
    split = ends[:, 0] != ends[:, 1]
    assert split.any() and not split.all()
    got = stack.quantile_sorted(rows, t)
    assert got.tobytes() == stack.quantile(rows[:, None], t).tobytes()


@pytest.mark.parametrize("atoms", [False, True])
def test_pair_moment_on_levels_ulps_apart_matches_segment_loop(rng, atoms):
    """Two laws whose cumulative masses differ by a few ulps make segments a
    few ulps wide, whose end nodes round onto the levels: the moment through
    the node-by-node fallback is still the per-segment loop's float."""
    laws = (random_marginal(rng, atoms=atoms) for _ in range(100))
    for base in [law for law in laws if len(law.masses) > 1][:10]:
        masses = base.masses.copy()
        masses[[0, -1]] += [5e-16, -5e-16]
        nudged = GridDistribution(base.edges, masses, base.atoms)
        margs = [base, nudged, random_marginal(rng, atoms=atoms), random_marginal(rng)]
        for power in (1.0, 2.0, 3.0):
            assert pair_quantile_moment(*margs, power) == segment_loop_quantile_moment(
                *margs, power
            )


def count_kernel_calls(monkeypatch):
    """Record the stack of every stacked quantile and CDF call, and every
    one-law call."""
    calls = []
    for cls, name in ((GridStack, "quantile"), (GridStack, "quantile_sorted"),
                      (GridStack, "cdf"), (GridDistribution, "quantile"),
                      (GridDistribution, "cdf")):
        def counted(self, *args, _fn=getattr(cls, name), _stacked=cls is GridStack, **kwargs):
            calls.append(self if _stacked else "one law")
            return _fn(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return calls


def test_pair_moment_makes_one_quantile_call_on_its_stack(rng, monkeypatch):
    """The pair's two x laws and two y laws are one stack, evaluated at
    every node of both axes in one call."""
    margs = [random_marginal(rng, gaps=True) for _ in range(4)]
    calls = count_kernel_calls(monkeypatch)
    pair_quantile_moment(*margs, 4.0)
    assert len(calls) == 1 and "one law" not in calls


@pytest.mark.parametrize("name", ["fosd", "jump", "moment"])
def test_statistic_makes_one_kernel_call_on_the_batch_stack(rng, monkeypatch, name):
    """Every z pair, on both axes, is evaluated in one call on the law's one
    stack, whatever the number of sites; the stack is built once."""
    law = random_joint_law(rng, nz=7, ny=5, nx=6)
    built = []
    stack_of = GridStack.of.__func__

    def counting(cls, stacked):
        built.append(stack_of(cls, stacked))
        return built[-1]

    monkeypatch.setattr(GridStack, "of", classmethod(counting))
    calls = count_kernel_calls(monkeypatch)
    run = make_test(name)[1]
    first = run(law)
    assert calls == [law.batch.stack]
    assert run(law) == first and calls == [law.batch.stack] * 2
    assert built == [law.batch.stack]


def criterion8_laws(bins):
    """Discretized samples of the criterion-8 processes, two seeds each."""
    invalid = dict(instrument_valid=False, copula_weight=1.0, copula_target="v")
    specs = [
        DGPSpec(name="loc-valid"),
        DGPSpec(name="scale-valid", first_stage="scale"),
        DGPSpec(name="loc-invalid", **invalid),
        DGPSpec(name="scale-invalid", first_stage="scale", **invalid),
    ]
    return [discretize(sample(s, 4000, seed), *bins) for s in specs for seed in (1, 2)]


def gappy_joint_law(rng, nz, ny, nx):
    """A random joint law with about 40% of its cells emptied: its marginals
    have zero-mass bins, inside and at the ends of their supports."""
    law = random_joint_law(rng, nz, ny, nx)
    conds = []
    for c in law.conditionals:
        m = c.mass * (rng.random(c.mass.shape) < 0.6)
        m = m if m.sum() > 0 else c.mass
        conds.append(Conditional2D(c.y_edges, c.x_edges, m / m.sum()))
    return JointLaw(law.z_grid, law.pz, tuple(conds))


REPORT_LAWS = {
    "criterion8-4": lambda rng: criterion8_laws((4, 4, 4)),
    "criterion8-8": lambda rng: criterion8_laws((8, 8, 8)),
    "random-gaps": lambda rng: [gappy_joint_law(rng, int(rng.integers(3, 9)),
                                                int(rng.integers(2, 9)), int(rng.integers(2, 9)))
                                for _ in range(12)],
}


@pytest.mark.parametrize("laws", list(REPORT_LAWS))
def test_stacked_reports_match_per_pair_oracles(rng, laws):
    """Every statistic's report, diagnostics included, has the bits of the
    per-pair loop over the one-pair definitions."""
    moment = ContinuityParams(alpha=2.0, beta=1.0, gamma=2.0, delta=1.0)
    rough = ContinuityParams(alpha=1.0, beta=0.5, gamma=0.5, delta=0.5)
    for law in REPORT_LAWS[laws](rng):
        z_star = float(law.z_grid[len(law.z_grid) // 2])
        pairs = [
            (make_test("fosd", tol=0.12)[1](law), pair_loop_fosd(law, 0.12)),
            (make_test("sure-decrease", K=1.0)[1](law), pair_loop_sure_decrease(law, 1.0)),
            (make_test("jump", K=1.0, z_star=z_star)[1](law), pair_loop_jump(law, 1.0, z_star)),
            (continuity_moment_statistics(law.batch, moment)[0], pair_loop_moment(law, moment)),
            (continuity_moment_statistics(law.batch, rough)[0], pair_loop_moment(law, rough)),
        ]
        for got, want in pairs:
            assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


def batch_laws(rng):
    """Random laws with 1 to 8 sites, gappy laws, laws whose conditionals
    carry their own edges, criterion-8 laws, and one law object twice, in
    random order."""
    laws = [random_joint_law(rng, nz, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            for nz in range(1, 9)]
    laws += [gappy_joint_law(rng, int(rng.integers(2, 9)), 5, 4) for _ in range(3)]
    laws += [location_family_law([0.0, 0.1, 0.25, 0.3]), location_family_law([0.0, 0.5])]
    laws += criterion8_laws((4, 4, 4))[::3]
    laws.append(laws[int(rng.integers(len(laws)))])
    return [laws[i] for i in rng.permutation(len(laws))]


BATCH_TESTS = [
    ("fosd", {"tol": 0.12}),
    ("sure-decrease", {"K": 1.0}),
    ("jump", {"K": 1.0}),
    ("jump", {"K": 0.5, "z_star": 0.5}),
    ("pearl", {}),
    ("moment", {}),
    ("moment", {"alpha": 1.0, "beta": 0.5, "gamma": 0.5, "delta": 0.5}),
    ("feasibility", {}),
]


@pytest.mark.parametrize("name, params", BATCH_TESTS, ids=lambda v: str(v))
def test_batched_reports_match_one_law_reports(rng, name, params):
    """A runner's batch gives every law the JSON of its one-law report.  A
    batch holding laws the test refuses raises the first of them's refusal,
    type and message; the laws it accepts, batched, keep their reports."""
    run = make_test(name, **params)[1]
    for _ in range(3):
        laws = batch_laws(rng)
        one, refusal = {}, None
        for i, law in enumerate(laws):
            try:
                one[i] = json.dumps(run(law).to_json_dict())
            except IVTestError as exc:
                refusal = refusal or exc
        if refusal is not None:
            with pytest.raises(type(refusal)) as info:
                run.batch(LawBatch(laws))
            assert str(info.value) == str(refusal)
        accepted = [laws[i] for i in one]
        assert len(accepted) >= 4
        got = [json.dumps(r.to_json_dict()) for r in run.batch(LawBatch(accepted))]
        assert got == list(one.values())


@pytest.mark.parametrize("laws", list(REPORT_LAWS) + ["batch"])
def test_batched_reports_match_per_pair_oracles(rng, laws):
    """Batched over a whole set of laws, every statistic's report still has
    the bits of the per-pair loop over the one-pair definitions."""
    laws = batch_laws(rng) if laws == "batch" else REPORT_LAWS[laws](rng)
    paired = [law for law in laws if len(law.z_grid) >= 2]
    sized = [law for law in laws if len(law.z_grid) >= 3]
    rough = ContinuityParams(alpha=1.0, beta=0.5, gamma=0.5, delta=0.5)
    cases = [
        (laws, lambda b: monotonicity_tests(b, 0.12), lambda law: pair_loop_fosd(law, 0.12)),
        (paired, lambda b: monotonicity_sure_decrease_tests(b, 1.0),
         lambda law: pair_loop_sure_decrease(law, 1.0)),
        (paired, lambda b: jump_tests(b, 1.0, None),
         lambda law: pair_loop_jump(law, 1.0, float(np.max(law.z_grid)))),
    ]
    for p in (ContinuityParams(2.0, 1.0, 2.0, 1.0), rough):
        cases.append((sized, lambda b, p=p: continuity_moment_statistics(b, p),
                      lambda law, p=p: pair_loop_moment(law, p)))
    for subset, statistic, oracle in cases:
        reports = statistic(LawBatch(subset))
        assert len(reports) == len(subset) >= 4
        for got, law in zip(reports, subset):
            assert json.dumps(got.to_json_dict()) == json.dumps(oracle(law).to_json_dict())


@pytest.mark.parametrize("name", ["fosd", "jump", "moment"])
def test_batch_makes_one_kernel_call_on_its_stack(rng, monkeypatch, name):
    """Every z pair of every law of a batch, on both axes, is evaluated in
    one call on the batch's one stack, whatever the number of laws and
    sites; the stack is built once.  A law given twice is stacked twice."""
    laws = [random_joint_law(rng, nz, 5, 6) for nz in (3, 7, 4)]
    laws.append(laws[1])
    built = []
    stack_of = GridStack.of.__func__

    def counting(cls, stacked):
        built.append(stack_of(cls, stacked))
        return built[-1]

    monkeypatch.setattr(GridStack, "of", classmethod(counting))
    calls = count_kernel_calls(monkeypatch)
    batch = LawBatch(laws)
    run = make_test(name)[1]
    first = run.batch(batch)
    assert calls == [batch.stack]
    assert run.batch(batch) == first and calls == [batch.stack] * 2
    assert built == [batch.stack]
    assert batch.offsets.tolist() == [0, 3, 10, 14, 21] and batch.sites == 21
    assert len(batch.stack.starts) == 2 * 21 + 1
    assert first == [run(law) for law in laws]


def test_empty_batch_is_refused():
    with pytest.raises(ValidationError, match="need at least one law"):
        LawBatch([])


@pytest.mark.parametrize("kind", ["plain", "atoms", "gaps", "atoms+gaps"])
def test_stacked_pair_measures_match_one_pair_definitions(rng, kind):
    """``winf_distances`` and ``fosd_violations`` over a ragged stack give
    each pair's one-pair oracle exactly, in either order and paired with
    itself."""
    for _ in range(10):
        margs = [random_marginal(rng, "atoms" in kind, "gaps" in kind) for _ in range(5)]
        stack = GridStack.of(margs)
        a, b = np.array([0, 1, 2, 3, 4, 4, 2]), np.array([1, 0, 4, 3, 2, 0, 2])
        winf = winf_distances(stack, a, b)
        fosd = fosd_violations(stack, a, b)
        for k, (i, j) in enumerate(zip(a, b)):
            want = one_pair_winf_distance(margs[i], margs[j])
            assert winf[k] == want
            want = one_pair_fosd_violation(margs[i], margs[j])
            assert fosd[k] == want


def test_moment_needs_three_z_points():
    law = bernoulli_support_jump_law()
    with pytest.raises(DegenerateGridError):
        continuity_moment_statistics(law.batch, ContinuityParams(2, 1, 2, 1))


@pytest.mark.parametrize("field, value", [("d", 1), ("jump_threshold", 1.0)])
def test_continuity_params_refuse_removed_fields(field, value):
    """The dimension is always 1 and the jump test takes its own K, so
    neither is a setting of the moment constants."""
    with pytest.raises(TypeError, match=field):
        ContinuityParams(alpha=2, beta=1, gamma=2, delta=1, **{field: value})
    with pytest.raises(ValidationError, match=field):
        make_test("moment", **{field: value})
    assert ContinuityParams(2, 1, 2, 1).moment_exponents() == (4.0, 3.0)


# ---------------------------------------------------------------------------
# jump test
# ---------------------------------------------------------------------------


def test_jump_bernoulli_separated_supports():
    law = bernoulli_support_jump_law()
    r = make_test("jump", K=1.0, z_star=1.0)[1](law)
    assert r.statistic == pytest.approx(3.0, abs=1e-9)
    assert r.decision == "reject"


def test_jump_constant_conditionals():
    pz = GridDistribution.uniform(0, 1, 3)
    cond = product_conditional(
        GridDistribution.uniform(0, 1, 4), GridDistribution.uniform(0, 1, 4)
    )
    law = population_law([1 / 6, 0.5, 5 / 6], pz, lambda z: cond)
    r = make_test("jump", K=1.0, z_star=0.5)[1](law)
    assert r.statistic == 0.0
    assert r.decision == "consistent"


def test_jump_smooth_location_family():
    zs = [0.0, 0.05, 0.1, 0.15, 0.2]
    law = location_family_law(zs)
    r = make_test("jump", K=1.0, z_star=0.2)[1](law)
    assert r.statistic == pytest.approx(0.05, abs=1e-9)
    assert r.decision == "consistent"


def test_jump_soundness_holder_bound():
    """Location family satisfies the path bound with unit constants and unit
    exponent ratio, so every adjacent displacement is at most the gap."""
    zs = [0.0, 0.1, 0.2, 0.3]
    law = location_family_law(zs)
    for z_star in zs[1:]:
        r = make_test("jump", K=1.0, z_star=z_star)[1](law)
        gap = r.diagnostics["gap_0"]
        assert r.diagnostics["distance_0"] <= 1.0 * gap + 1e-12


# ---------------------------------------------------------------------------
# monotonicity tests
# ---------------------------------------------------------------------------


def test_fosd_location_family_zero_violation():
    law = location_family_law([0.0, 0.25, 0.5, 0.75])
    r = make_test("fosd", tol=0.0)[1](law)
    assert r.statistic == 0.0
    assert r.decision == "consistent"


def test_fosd_sign_flip_rejects():
    """X = -z + U: the CDF at higher z sits above by the density times gap."""
    pz = GridDistribution.uniform(0, 1, 3)

    def cond(z):
        return product_conditional(
            GridDistribution.uniform(0, 1, 4),
            GridDistribution.uniform(-z, 1 - z, 8),
        )

    law = population_law([1 / 6, 0.5, 5 / 6], pz, cond)
    r = make_test("fosd", tol=0.0)[1](law)
    assert r.decision == "reject"
    assert r.statistic == pytest.approx(1 / 3, abs=1e-9)  # CDF gap = density * z gap


def test_fosd_single_z_point_vacuous():
    pz = GridDistribution.uniform(0, 1, 1)
    cond = product_conditional(
        GridDistribution.uniform(0, 1, 4), GridDistribution.uniform(0, 1, 4)
    )
    law = population_law([0.5], pz, lambda z: cond)
    r = make_test("fosd", tol=0.0)[1](law)
    assert r.statistic == 0.0
    assert r.decision == "consistent"


def test_sure_decrease_example():
    pz = GridDistribution(np.array([0.0, 1.0]), np.array([0.0]), ((0.25, 0.5), (0.75, 0.5)))

    def cond(z):
        lo = 5.0 if z < 0.5 else 0.0
        return product_conditional(
            GridDistribution.uniform(0, 1, 4), GridDistribution.uniform(lo, lo + 1, 4)
        )

    law = population_law([0.25, 0.75], pz, cond)
    r = make_test("sure-decrease", K=3.0)[1](law)
    assert r.statistic == pytest.approx(4.0, abs=1e-9)
    assert r.decision == "reject"


def test_sure_decrease_monotone_family_consistent():
    law = location_family_law([0.0, 0.25, 0.5])
    r = make_test("sure-decrease", K=1.0)[1](law)
    assert r.decision == "consistent"


def test_sure_decrease_overlapping_supports_consistent():
    pz = GridDistribution.uniform(0, 1, 2)

    def cond(z):
        # means differ wildly but supports overlap: no sure decrease
        lo = 0.0 if z < 0.5 else -0.5
        return product_conditional(
            GridDistribution.uniform(0, 1, 4), GridDistribution.uniform(lo, lo + 2, 4)
        )

    law = population_law([0.25, 0.75], pz, cond)
    r = make_test("sure-decrease", K=0.5)[1](law)
    assert r.decision == "consistent"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_direct_calls_refuse_non_finite_thresholds(bad):
    """Called without ``make_test``, the statistics refuse a threshold that
    is not finite instead of reporting against it."""
    law = location_family_law([0.0, 0.25, 0.5, 0.75])
    for call, message in (
        (lambda: jump_tests(law.batch, bad, None), "K must be positive and finite"),
        (lambda: monotonicity_sure_decrease_tests(law.batch, bad), "K must be positive and finite"),
        (lambda: monotonicity_tests(law.batch, bad), "tol must be finite"),
    ):
        with pytest.raises(ValidationError, match=message):
            call()


# ---------------------------------------------------------------------------
# TestReport plumbing
# ---------------------------------------------------------------------------


def test_report_invariant_enforced():
    # the decision is derived from statistic > threshold and cannot be given
    with pytest.raises(TypeError):
        TestReport("x", 2.0, 1.0, "consistent", {})
    r = TestReport("x", np.float64(2.0), 1, {"a": np.int64(1)})
    assert r.decision == "reject"
    with pytest.raises(AttributeError):
        r.decision = "consistent"
    assert type(r.statistic) is float and type(r.threshold) is float
    assert r.diagnostics == {"a": 1.0} and type(r.diagnostics["a"]) is float
    tie = TestReport("x", 1.0, 1.0)
    assert tie.decision == "consistent"  # ties are consistent, strict rejection


def test_report_serialization():
    import json

    r = TestReport("jump", 3.0, 1.0, {"gap_0": 1.0})
    obj = r.to_json_dict()
    assert json.dumps(obj)  # serializable
    assert obj["test"] == "jump" and obj["decision"] == "reject"
    assert r.csv_row() == "jump,3.0,1.0,reject"


def test_make_test_registry():
    law = location_family_law([0.0, 0.25, 0.5, 0.75])
    for name in ("fosd", "sure-decrease", "jump", "moment", "pearl"):
        test_name, fn = make_test(name)
        report = fn(law)
        assert report.test_name == test_name
    # z_star=None is jump's default, each law's largest grid point
    explicit = make_test("jump", z_star=None)[1](law)
    assert explicit.to_json_dict() == make_test("jump")[1](law).to_json_dict()
    for name, params in [
        ("nope", {}),
        (["fosd"], {}),
        ("fosd", {"bogus": 1}),
        ("pearl", {"K": 1.0}),
        ("fosd", {"tol": "abc"}),
        ("jump", {"K": None}),
        ("moment", {"alpha": [1.0]}),
        ("moment", {"alpha": -1}),
        ("moment", {"kx": 0.0}),
        ("fosd", {"tol": float("nan")}),
        ("fosd", {"tol": float("inf")}),
        ("jump", {"K": float("nan")}),
        ("jump", {"K": "inf"}),
        ("jump", {"z_star": float("nan")}),
        ("sure-decrease", {"K": float("-inf")}),
        ("jump", {"K": 0}),
        ("jump", {"K": 0.0}),
        ("sure-decrease", {"K": -1.0}),
        ("fosd", {"tol": True}),
        ("jump", {"K": False}),
        ("moment", {"alpha": float("nan")}),
        ("moment", {"ky": float("inf")}),
    ]:
        with pytest.raises(ValidationError):
            make_test(name, **params)
    # a constant the statistic refuses is refused when the test is built
    for name in ("jump", "sure-decrease"):
        with pytest.raises(ValidationError, match="^K must be positive and finite, not 0.0$"):
            make_test(name, K=0)
    with pytest.raises(ValidationError, match="'tol' of test 'fosd' must be a number, not True"):
        make_test("fosd", tol=True)
    for bad in ({"alpha": float("nan")}, {"kx": float("inf")}, {"c_bound": float("nan")}):
        with pytest.raises(ValidationError, match="positive and finite"):
            ContinuityParams(**{"alpha": 2, "beta": 1, "gamma": 2, "delta": 1, **bad})


@pytest.mark.parametrize(
    "conditionals, x_index, excess",
    [
        ([[0.5 + 4e-10, 0.5 - 4e-10]] * 2, None, 0.0),  # stacks 1 + 8e-10, within INPUT_TOL
        ([[0.5, 0.5], [0.5, 0.5]], None, 0.0),
        ([[0.7, 0.3], [0.5, 0.5]], 0, 0.2),
        ([[0.5, 0.5, 0.0, 0.0]] * 3, 0, 0.5),  # no pair stacks > 1, the triple does
        ([[0.1, 0.9, 0.0], [0.2, 0.8, 0.0], [0.3, 0.3, 0.4]], 1, 1.0),
        ([[1.0, 0.0]] * 3, 0, 2.0),  # support smaller than the z points
    ],
)
def test_feasibility_report_decision_follows_statistic(conditionals, x_index, excess):
    feasible, witness = discrete_generator_feasible(conditionals)
    report = feasibility_report(conditionals)
    assert report.test_name == "feasibility"
    assert report.statistic == (0.0 if feasible else 1.0)
    assert report.threshold == 0.0
    assert report.decision == ("reject" if report.statistic > report.threshold else "consistent")
    assert report.decision == ("consistent" if feasible else "reject")
    assert report.diagnostics["excess"] == (0.0 if feasible else witness.excess)
    assert report.diagnostics["excess"] == pytest.approx(excess, abs=1e-12)
    assert report.diagnostics.get("x_index") == x_index

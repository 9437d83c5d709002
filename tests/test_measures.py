"""Measure primitives against independent numeric oracles."""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ivtest import (
    Conditional2D,
    GridDistribution,
    JointLaw,
    ValidationError,
    build_generator,
    compose_structural_model,
)
from ivtest import measures
from ivtest.measures import INPUT_TOL, GridStack, fosd_violations, winf_distances

from conftest import (
    element_json_dict,
    loop_profile,
    masked_cdf_eval,
    masked_quantile_eval,
    random_joint_law,
)

# ---------------------------------------------------------------------------
# Oracles: brute numeric versions that never reuse the library's profile code
# ---------------------------------------------------------------------------


def oracle_cdf(dist, xs):
    """CDF by direct mass accumulation over bins and atoms."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.zeros_like(xs)
    for i, (lo, hi) in enumerate(zip(dist.edges[:-1], dist.edges[1:])):
        w = hi - lo
        frac = np.clip((xs - lo) / w, 0.0, 1.0)
        out += frac * dist.masses[i]
    for loc, m in dist.atoms:
        out += m * (xs >= loc)
    return out


def oracle_quantile(dist, p, grid_n=400_001):
    """Invert the oracle CDF by scanning a dense x grid."""
    lo, hi = float(dist.edges[0]), float(dist.edges[-1])
    xs = np.linspace(lo, hi, grid_n)
    cs = oracle_cdf(dist, xs)
    idx = int(np.searchsorted(cs, p - 1e-12))
    return float(xs[min(idx, grid_n - 1)])


def oracle_set_measure(dist, intervals, grid_n=2_000_001):
    """Measure of a union of half-open intervals by Riemann counting."""
    lo, hi = float(dist.edges[0]) - 1.0, float(dist.edges[-1]) + 1.0
    xs = np.linspace(lo, hi, grid_n)
    inside = np.zeros(len(xs), dtype=bool)
    for a, b in intervals:
        inside |= (xs >= a) & (xs < b)
    dens = np.zeros(len(xs))
    for i, (a, b) in enumerate(zip(dist.edges[:-1], dist.edges[1:])):
        sel = (xs >= a) & (xs < b)
        dens[sel] = dist.masses[i] / (b - a)
    cont = float(np.sum(dens[inside]) * (xs[1] - xs[0]))
    atom = sum(m for loc, m in dist.atoms if any(a <= loc < b for a, b in intervals))
    return cont + atom


# ---------------------------------------------------------------------------
# quantile
# ---------------------------------------------------------------------------


def test_quantile_uniform_identity():
    u = GridDistribution.uniform(0, 1)
    assert u.quantile(0.3) == pytest.approx(0.3, abs=1e-15)


def test_quantile_point_mass():
    pm = GridDistribution.point_mass(2.0)
    assert pm.quantile(0.5) == 2.0


def test_quantile_two_bins_hand_cdf():
    # CDF: 0.5x on [0,1), 0.5 + 0.25(x-1) on [1,3); F(2) = 0.75
    d = GridDistribution(np.array([0.0, 1.0, 3.0]), np.array([0.5, 0.5]))
    assert d.quantile(0.75) == pytest.approx(2.0, abs=1e-12)
    assert d.quantile(0.75) == pytest.approx(oracle_quantile(d, 0.75), abs=1e-4)


def test_quantile_rejects_out_of_range():
    u = GridDistribution.uniform(0, 1)
    with pytest.raises(ValidationError):
        u.quantile(1.5)
    with pytest.raises(ValidationError):
        u.quantile(-0.1)


def test_quantile_level_one_is_support_upper_end():
    # two of these marginals accumulate their masses to 1 + 2**-52
    law = random_joint_law(np.random.default_rng(20240817))
    for m in law.x_marginals():
        assert m.quantile(1.0) == m.support_bounds()[1] == 3.0
        assert m.quantile(np.array([0.0, 1.0]))[1] == 3.0


def test_quantile_right_level_one_is_support_upper_end():
    # an atom on the top edge: the segment formula used to extrapolate to 2.0
    d = GridDistribution(np.array([0.0, 1.0]), np.array([0.5]), ((1.0, 0.5),))
    assert d.quantile_right(1.0) == d.quantile(1.0) == 1.0
    assert d.quantile_right(np.array([0.25, 0.5, 1.0])).tolist() == [0.5, 1.0, 1.0]
    # the quantile functions differ by at most 0.5, at p = 0.5
    stack = GridStack.of([d, GridDistribution.uniform(0, 1)])
    assert winf_distances(stack, np.array([0]), np.array([1])).tolist() == [0.5]


def test_quantile_matches_oracle_on_random_mixtures(rng):
    for _ in range(25):
        nb = rng.integers(1, 6)
        edges = np.sort(rng.uniform(-2, 2, nb + 1))
        while np.any(np.diff(edges) < 1e-3):
            edges = np.sort(rng.uniform(-2, 2, nb + 1))
        masses = rng.dirichlet(np.ones(nb)) * 0.8
        atom = (float(rng.uniform(edges[0], edges[-1])), 0.2)
        d = GridDistribution(edges, masses, (atom,))
        for p in rng.uniform(0.01, 0.99, 5):
            assert d.quantile(p) == pytest.approx(oracle_quantile(d, p), abs=5e-4)


def test_quantile_cdf_identity_on_edges(rng):
    for _ in range(10):
        nb = rng.integers(2, 7)
        edges = np.cumsum(rng.uniform(0.1, 1.0, nb + 1))
        masses = rng.dirichlet(np.ones(nb) * 2)
        d = GridDistribution(edges, masses)
        for e in edges[1:-1]:
            assert d.quantile(d.cdf(e)) == pytest.approx(e, abs=1e-9)


# ---------------------------------------------------------------------------
# one-search kernels against the masked oracles, bit for bit
# ---------------------------------------------------------------------------


@st.composite
def grid_distributions(draw):
    """Grids with zero-mass bins (support gaps included) and atoms on edges,
    inside bins and at the support's ends, some of them of zero mass."""
    nb = draw(st.integers(1, 6))
    widths = draw(st.lists(st.floats(0.01, 4.0), min_size=nb, max_size=nb))
    edges = draw(st.floats(-5.0, 5.0)) + np.cumsum([0.0] + widths)
    weight = st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-3, 3.0))
    masses = np.array(draw(st.lists(weight, min_size=nb, max_size=nb)))
    atoms = {}
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            loc = float(edges[draw(st.integers(0, nb))])
        else:
            loc = draw(st.floats(float(edges[0]), float(edges[-1])))
        atoms[loc] = draw(weight)
    total = masses.sum() + sum(atoms.values())
    if total == 0:
        masses[-1], total = 1.0, 1.0
    return GridDistribution(
        edges, masses / total, tuple((a, m / total) for a, m in atoms.items())
    )


def _same_bits(new, old):
    if isinstance(old, float):
        return type(new) is float and np.float64(new).tobytes() == np.float64(old).tobytes()
    return new.shape == old.shape and new.dtype == old.dtype and new.tobytes() == old.tobytes()


def _shapes(values):
    """The values as one array, one by one as floats and 0-d arrays, and empty."""
    yield values
    yield values.reshape(1, -1)
    for v in values:
        yield float(v)
        yield np.asarray(v)
    yield np.array([])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dist=grid_distributions(), extra=st.lists(st.floats(0.0, 1.0), max_size=4))
def test_quantile_kernel_matches_masked_oracle(dist, extra):
    _, CL, CR = dist._profile
    cums = np.concatenate([CL, CR])
    levels = np.concatenate([
        [0.0, 1.0, -0.5 * INPUT_TOL, -INPUT_TOL, 1.0 + 0.5 * INPUT_TOL, 1.0 + INPUT_TOL],
        cums, np.nextafter(cums, -1.0), np.nextafter(cums, 2.0), extra,
    ])
    levels = levels[(levels >= -INPUT_TOL) & (levels <= 1.0 + INPUT_TOL)]
    for strict, method in ((False, dist.quantile), (True, dist.quantile_right)):
        for p in _shapes(levels):
            assert _same_bits(method(p), masked_quantile_eval(dist, p, strict))
        for bad in (-2 * INPUT_TOL, 1.0 + 2 * INPUT_TOL, [0.5, 1.5], [-0.1, 0.5]):
            for fn in (method, lambda p: masked_quantile_eval(dist, p, strict)):
                with pytest.raises(ValidationError, match=r"level outside \[0, 1\]"):
                    fn(bad)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dist=grid_distributions(), extra=st.lists(st.floats(-10.0, 10.0), max_size=4))
def test_cdf_kernel_matches_masked_oracle(dist, extra):
    B = dist._profile[0]
    points = np.concatenate([
        B, np.nextafter(B, -np.inf), np.nextafter(B, np.inf),
        [B[0] - 1.0, B[-1] + 1.0, -np.inf, np.inf], extra,
    ])
    for left, method in ((False, dist.cdf), (True, dist.cdf_left)):
        for x in _shapes(points):
            assert _same_bits(method(x), masked_cdf_eval(dist, x, left))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dist=grid_distributions())
def test_profile_matches_breakpoint_loop(dist):
    """The one-cumsum profile has the bytes of the breakpoint loop."""
    for got, want in zip(dist._profile, loop_profile(dist)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the stacked kernel: every point against its own row, bit for bit
# ---------------------------------------------------------------------------


def _quantile_levels(dist, extra):
    """Every CL/CR value, its neighbours, 0, 1 and ``extra``, within range."""
    _, CL, CR = dist._profile
    cums = np.concatenate([CL, CR])
    levels = np.concatenate(
        [[0.0, 1.0], cums, np.nextafter(cums, -1.0), np.nextafter(cums, 2.0), extra]
    )
    return levels[(levels >= -INPUT_TOL) & (levels <= 1.0 + INPUT_TOL)]


def _cdf_points(dist, extra):
    B = dist._profile[0]
    return np.concatenate([
        B, np.nextafter(B, -np.inf), np.nextafter(B, np.inf),
        [B[0] - 1.0, B[-1] + 1.0, -np.inf, np.inf], extra,
    ])


def _stacked_points(dists, values, rng):
    """The points of every row, shuffled together: rows, values, and the
    slices that put each row's points back in order."""
    rows = np.concatenate([np.full(len(v), r) for r, v in enumerate(values)])
    order = rng.permutation(len(rows))
    return rows[order], np.concatenate(values)[order], np.argsort(order, kind="stable")


def _assert_rows_match(got, rows, vals, flags, unshuffle, oracle):
    """``got`` against ``oracle(row, values, flag)`` row by row and flag by flag."""
    got = got[unshuffle]
    rows, vals, flags = rows[unshuffle], vals[unshuffle], flags[unshuffle]
    for r in np.unique(rows):
        for flag in (False, True):
            at = (rows == r) & (flags == flag)
            want = oracle(int(r), vals[at], flag)
            assert got[at].tobytes() == np.asarray(want, dtype=float).tobytes()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    dists=st.lists(grid_distributions(), min_size=1, max_size=5),
    extra=st.lists(st.floats(0.0, 1.0), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_quantile_matches_masked_oracle(dists, extra, seed):
    """Ragged rows (knot counts, atoms, gaps, zero-mass edge bins), levels on
    every CR value and at 0 and 1, one mode for all or one per point."""
    rng = np.random.default_rng(seed)
    stack = GridStack.of(dists)
    rows, ps, unshuffle = _stacked_points(dists, [_quantile_levels(d, extra) for d in dists], rng)
    for strict in (False, True, rng.random(len(ps)) < 0.5):
        got = stack.quantile(rows, ps, strict=strict)
        flags = np.broadcast_to(strict, ps.shape)
        _assert_rows_match(
            got, rows, ps, flags, unshuffle,
            lambda r, p, flag: masked_quantile_eval(dists[r], p, flag),
        )


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    dists=st.lists(grid_distributions(), min_size=1, max_size=5),
    extra=st.lists(st.floats(-10.0, 10.0), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_cdf_and_bins_match_masked_oracle(dists, extra, seed):
    rng = np.random.default_rng(seed)
    stack = GridStack.of(dists)
    rows, xs, unshuffle = _stacked_points(dists, [_cdf_points(d, extra) for d in dists], rng)
    for left in (False, True, rng.random(len(xs)) < 0.5):
        got = stack.cdf(rows, xs, left=left)
        flags = np.broadcast_to(left, xs.shape)
        _assert_rows_match(
            got, rows, xs, flags, unshuffle,
            lambda r, x, flag: masked_cdf_eval(dists[r], x, flag),
        )
    B = [d._profile[0] for d in dists]
    want = [np.clip(np.searchsorted(B[r], x, side="right") - 1, 0, len(B[r]) - 2)
            for r, x in zip(rows, xs)]
    assert stack.bin_of(rows, xs).tolist() == [int(w) for w in want]


def test_stacked_nan_and_infinite_points_stay_in_their_row():
    """A NaN key sorts after every row's keys; each point still reads its own
    row and gets the bits of a one-law call."""
    laws = [
        GridDistribution.uniform(0.0, 1.0, 3),
        GridDistribution(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.0]), ((1.5, 0.5),)),
        GridDistribution.uniform(-2.0, 5.0, 7),
    ]
    stack = GridStack.of(laws)
    rows = np.array([0, 1, 2, 2, 1, 0, 1, 0, 2])
    xs = np.array([np.nan] * 6 + [-np.inf, np.inf, np.inf])
    ps = np.where(np.isnan(xs), np.nan, 0.5)
    for got, one in (
        (stack.cdf(rows, xs), lambda d, x: d.cdf(x)),
        (stack.cdf(rows, xs, left=True), lambda d, x: d.cdf_left(x)),
    ):
        want = [one(laws[r], x) for r, x in zip(rows, xs)]
        assert got.tobytes() == np.array(want).tobytes()
    for got, one in (
        (stack.quantile(rows, ps), lambda d, p: d.quantile(p)),
        (stack.quantile(rows, ps, strict=True), lambda d, p: d.quantile_right(p)),
    ):
        want = [one(laws[r], p) for r, p in zip(rows, ps)]
        assert got.tobytes() == np.array(want).tobytes()
    last = [len(laws[r]._profile[0]) - 2 for r in rows]
    assert stack.bin_of(rows, xs).tolist() == [0 if x == -np.inf else k for x, k in zip(xs, last)]


def _assert_same_tables(stack, laws):
    want = GridStack.of(laws)
    for name in ("B", "CL", "CR", "starts"):
        assert getattr(stack, name).tobytes() == getattr(want, name).tobytes()


def test_atom_free_stack_is_the_stack_of_its_laws(rng):
    """The atom-free stacks built from checked conditionals, the marginals of
    a ``LawBatch`` and a model's outcome columns, have the tables of the
    stacked laws, with totals up to 0.9 ``INPUT_TOL`` off 1, zero-mass bins
    and zero-mass columns: every one is a law its ``Conditional2D`` already
    checked, so the stack checks nothing again."""
    joints = []
    for scale in (1.0 - 0.9 * INPUT_TOL, 1.0, 1.0 + 0.9 * INPUT_TOL):
        law = random_joint_law(rng, nz=3, ny=4, nx=5)
        conds = []
        for k, c in enumerate(law.conditionals):
            mass = c.mass.copy()
            mass[k, :] = 0.0  # a zero-mass y bin
            mass[:, [0, 2 + k]] = 0.0  # zero-mass x bins: columns without a law
            conds.append(Conditional2D(c.y_edges, c.x_edges, mass / mass.sum() * scale))
        joints.append(JointLaw(law.z_grid, law.pz, conds))
    batch = measures.LawBatch(joints)
    conds = [c for law in joints for c in law.conditionals]
    _assert_same_tables(
        batch.stack, [c.x_marginal() for c in conds] + [c.y_marginal() for c in conds]
    )
    for law in joints:
        gen = build_generator(law.x_marginals(), law.pz, law.z_grid, 2)
        columns = compose_structural_model(law, gen)._outcome_columns[0]
        _assert_same_tables(columns, [
            GridDistribution(c.y_edges, c.mass[:, j] / s)
            for c in law.conditionals for j, s in enumerate(c.mass.sum(axis=0)) if s > 0
        ])


def test_stack_size_guard(monkeypatch):
    """At the cap a stack builds and a pair gather runs; one entry past it
    both are refused before allocating.  Stacked calls over given points are
    not capped: they allocate in proportion to their points, as a one-law
    call does."""
    laws = [GridDistribution.uniform(0.0, 1.0, 3)] * 4  # 4 rows x 5 slots
    cond = Conditional2D([0.0, 1.0], np.linspace(0.0, 1.0, 4), np.full((1, 3), 1 / 3))
    joint = JointLaw([0.125, 0.375, 0.625, 0.875], GridDistribution.uniform(0.0, 1.0, 4),
                     (cond,) * 4)
    monkeypatch.setattr(measures, "MAX_CELL_ENTRIES", 20)
    stack = GridStack.of(laws)
    points = np.linspace(0.0, 1.0, 40)
    rows = np.arange(40) % 4
    assert stack.quantile(rows, points).tobytes() == laws[0].quantile(points).tobytes()
    assert stack.cdf(rows, points).tobytes() == laws[0].cdf(points).tobytes()
    monkeypatch.setattr(measures, "MAX_CELL_ENTRIES", 19)
    with pytest.raises(ValidationError, match="stack of grid laws needs 20 entries"):
        GridStack.of(laws)
    # the batch stacks the joint's 4 x rows of 4 breakpoints and its 4 y
    # rows of 2: 20 + 12 entries
    monkeypatch.setattr(measures, "MAX_CELL_ENTRIES", 32)
    measures.LawBatch([joint]).stack
    monkeypatch.setattr(measures, "MAX_CELL_ENTRIES", 31)
    with pytest.raises(ValidationError, match="stack of grid laws needs 32 entries"):
        measures.LawBatch([joint]).stack
    # a pair of 4-breakpoint rows gathers 16 quantile levels (CL and CR) or
    # 8 breakpoints
    pairs = np.array([0, 1]), np.array([2, 3])
    monkeypatch.setattr(measures, "MAX_CELL_ENTRIES", 16)
    assert measures.winf_distances(stack, pairs[0][:1], pairs[1][:1]).tolist() == [0.0]
    assert measures.fosd_violations(stack, *pairs).tolist() == [0.0, 0.0]
    monkeypatch.setattr(measures, "MAX_CELL_ENTRIES", 15)
    with pytest.raises(ValidationError, match="pair gather needs 16 entries"):
        measures.winf_distances(stack, pairs[0][:1], pairs[1][:1])
    with pytest.raises(ValidationError, match="pair gather needs 16 entries"):
        measures.fosd_violations(stack, *pairs)


# ---------------------------------------------------------------------------
# equal-measure splitting: the generator's continuum cells
# ---------------------------------------------------------------------------


def continuum_cells(pz, z_grid, depth):
    """Generator on pz with uniform marginals; its cuts are the equal-mass splits."""
    margs = [GridDistribution.uniform(0, 1)] * len(z_grid)
    return build_generator(margs, pz, z_grid, depth)


def test_split_uniform_symmetry():
    gen = continuum_cells(GridDistribution.uniform(0, 1), [0.5], 1)
    assert gen.cuts.tolist() == [0.0, 0.5, 1.0]


def test_split_disconnected_set_piecewise():
    # mass on [0, 0.25) and [0.5, 0.75): the half-mass cut is the gap's left end
    pz = GridDistribution(np.array([0.0, 0.25, 0.5, 0.75, 1.0]), np.array([0.5, 0.0, 0.5, 0.0]))
    gen = continuum_cells(pz, [0.1, 0.6], 1)
    assert gen.cuts.tolist() == [0.0, 0.25, 0.75]
    cell, site, weight = gen.pieces
    assert cell.tolist() == [0, 1]
    assert site.tolist() == [0, 1]
    assert weight.tolist() == [0.5, 0.5]


def test_split_triangular_at_median():
    # cumulative-sum oracle: cum(1/3) = .25, target .5 -> 1/3 + (.25/.5)/3 = .5
    tri = GridDistribution(np.array([0, 1 / 3, 2 / 3, 1.0]), np.array([0.25, 0.5, 0.25]))
    gen = continuum_cells(tri, [1 / 6, 0.5, 5 / 6], 1)
    assert gen.cuts[1] == pytest.approx(0.5, abs=1e-12)


def test_split_keeps_atom_out_of_continuum():
    # half the mass sits on an atom inside the bin: the cuts split the other half
    pz = GridDistribution(np.array([0.0, 1.0]), np.array([0.5]), ((0.5, 0.5),))
    gen = continuum_cells(pz, [0.25, 0.5], 1)
    assert gen.atoms.tolist() == [0.5]
    assert gen.cuts.tolist() == [0.0, 0.5, 1.0]
    rows, sites = gen.locate([0.5, np.nextafter(0.5, 1.0), 0.25])
    assert rows.tolist() == [0, 2, 1]
    assert sites.tolist() == [1, 0, 0]
    cell, site, weight = gen.pieces
    assert cell.tolist() == [0, 1, 2]
    assert weight.tolist() == [0.5, 0.25, 0.25]


def test_split_exactness_and_reassembly_random(rng):
    """Cells carry equal mass within 1e-12 and tile the support bin for bin."""
    for _ in range(40):
        nb = int(rng.integers(1, 6))
        edges = np.cumsum(rng.uniform(0.2, 1.0, nb + 1))
        masses = rng.dirichlet(np.ones(nb))
        d = GridDistribution(edges, masses)
        z_grid = 0.5 * (edges[:-1] + edges[1:])
        depth = int(rng.integers(1, 4))
        gen = continuum_cells(d, z_grid, depth)
        m = 2**depth
        cell_mass = np.diff(d.cdf_left(gen.cuts))
        assert np.all(np.abs(cell_mass - 1.0 / m) <= 1e-12)
        assert gen.cuts[0] == edges[0]
        assert gen.cuts[-1] == pytest.approx(edges[-1], abs=1e-12)
        cell, _, weight = gen.pieces
        per_cell = np.bincount(cell, weights=weight, minlength=m)
        assert np.all(np.abs(per_cell - 1.0 / m) <= 1e-12)
        first = [(gen.cuts[0], gen.cuts[1])]
        assert cell_mass[0] == pytest.approx(oracle_set_measure(d, first), abs=5e-5)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_winf_examples():
    u = GridDistribution.uniform(0, 1)
    stack = GridStack.of([u, GridDistribution.uniform(3, 4), GridDistribution.uniform(0.2, 1.2)])
    same, apart, near = winf_distances(stack, np.array([0, 0, 0]), np.array([0, 1, 2]))
    assert same == 0.0
    # supports separated by 3: every quantile moves by exactly 3
    assert apart == pytest.approx(3.0)
    assert near == pytest.approx(0.2)


def test_winf_matches_dense_level_scan(rng):
    for _ in range(20):
        d1 = GridDistribution(np.sort(rng.uniform(0, 2, 5)), rng.dirichlet(np.ones(4)))
        d2 = GridDistribution(np.sort(rng.uniform(0, 2, 5)), rng.dirichlet(np.ones(4)))
        ps = np.linspace(1e-9, 1.0, 100_001)
        dense = float(np.max(np.abs(d1.quantile(ps) - d2.quantile(ps))))
        got = winf_distances(GridStack.of([d1, d2]), np.array([0]), np.array([1]))[0]
        assert got >= dense - 1e-12
        assert got == pytest.approx(dense, abs=1e-3)


def test_winf_dominates_support_gap(rng):
    for _ in range(10):
        g = float(rng.uniform(0.3, 2.0))
        a = GridDistribution.uniform(0, 1, 3)
        b = GridDistribution.uniform(1 + g, 2 + g, 3)
        assert winf_distances(GridStack.of([a, b]), np.array([0]), np.array([1]))[0] >= g - 1e-12


def test_distance_symmetry_and_triangle(rng):
    dists = [
        GridDistribution(np.sort(rng.uniform(0, 2, 4)), rng.dirichlet(np.ones(3)))
        for _ in range(12)
    ]
    stack = GridStack.of(dists)
    for a in range(0, 12, 3):
        b, c = a + 1, a + 2
        ab, ba, ac, bc = winf_distances(stack, np.array([a, b, a, b]), np.array([b, a, c, c]))
        assert ab == pytest.approx(ba, abs=1e-9)
        assert ac <= ab + bc + 1e-9


# ---------------------------------------------------------------------------
# FOSD
# ---------------------------------------------------------------------------


def test_fosd_examples():
    u = GridDistribution.uniform(0, 1)
    shifted = GridDistribution.uniform(0.5, 1.5)
    # (lower, upper) pairs: (u, shifted), (u, u), (shifted, u)
    up, same, down = fosd_violations(
        GridStack.of([u, shifted]), np.array([0, 0, 1]), np.array([1, 0, 0])
    )
    assert up == 0.0
    assert same == 0.0
    assert down == pytest.approx(0.5, abs=1e-12)


def test_mutual_fosd_bounds_cdf_distance(rng):
    xs = np.linspace(-0.5, 2.5, 200_001)
    for _ in range(20):
        base = GridDistribution(np.sort(rng.uniform(0, 2, 4)), rng.dirichlet(np.ones(3)))
        other = GridDistribution(np.sort(rng.uniform(0, 2, 4)), rng.dirichlet(np.ones(3)))
        tol = float(rng.uniform(0.0, 0.5))
        both = fosd_violations(GridStack.of([base, other]), np.array([0, 1]), np.array([1, 0]))
        if both[0] <= tol and both[1] <= tol:
            dense = float(np.max(np.abs(oracle_cdf(base, xs) - oracle_cdf(other, xs))))
            assert dense <= tol + 1e-9


# ---------------------------------------------------------------------------
# validation and serialization
# ---------------------------------------------------------------------------


def oracle_support_bounds(dist):
    """Scan every bin and atom; keep the ones with positive mass."""
    pieces = [(a, b) for a, b, m in zip(dist.edges[:-1], dist.edges[1:], dist.masses) if m > 0]
    pieces += [(loc, loc) for loc, m in dist.atoms if m > 0]
    return min(a for a, _ in pieces), max(b for _, b in pieces)


SUPPORT_CASES = {
    "gap": GridDistribution([0.0, 1.0, 2.0, 3.0], [0.5, 0.0, 0.5]),
    "atom-on-left-edge": GridDistribution([0.0, 1.0, 2.0], [0.0, 0.7], ((0.0, 0.3),)),
    "atom-on-right-edge": GridDistribution([0.0, 1.0, 2.0, 3.0], [0.0, 0.6, 0.0], ((3.0, 0.4),)),
    "atom-on-inner-edge": GridDistribution([0.0, 1.0, 2.0], [0.0, 0.5], ((1.0, 0.5),)),
    "zero-mass-edge-bins": GridDistribution([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.5, 0.5, 0.0]),
    "atom-in-zero-mass-bin": GridDistribution([0.0, 1.0, 2.0, 3.0], [0.0, 0.8, 0.0], ((2.5, 0.2),)),
    "zero-mass-atom": GridDistribution([0.0, 1.0, 2.0], [1.0, 0.0], ((2.0, 0.0),)),
    "atoms-only": GridDistribution.from_atoms([(0.2, 0.5), (0.8, 0.5)]),
}


@pytest.mark.parametrize("case", list(SUPPORT_CASES))
def test_support_bounds_matches_scan(case):
    dist = SUPPORT_CASES[case]
    lo, hi = dist.support_bounds()
    assert (lo, hi) == oracle_support_bounds(dist)
    assert oracle_cdf(dist, np.nextafter(lo, -np.inf))[0] == 0.0
    assert oracle_cdf(dist, hi)[0] == pytest.approx(1.0, abs=1e-12)
    assert dist.quantile(0.0) == lo
    assert dist.support_bounds() is dist.support_bounds()  # computed once


def test_support_bounds_matches_scan_random(rng):
    for _ in range(200):
        nb = int(rng.integers(1, 7))
        edges = np.cumsum(rng.uniform(0.1, 1.0, nb + 1))
        masses = rng.gamma(1.0, size=nb) * (rng.random(nb) < 0.5)
        locs = rng.choice(np.concatenate([edges, rng.uniform(edges[0], edges[-1], 3)]), 2, replace=False)
        atom_mass = rng.gamma(1.0, size=2) * (rng.random(2) < 0.5)
        total = masses.sum() + atom_mass.sum()
        if total == 0:
            continue
        atoms = tuple(zip(locs, atom_mass / total))
        dist = GridDistribution(edges, masses / total, atoms)
        assert dist.support_bounds() == oracle_support_bounds(dist)


def test_conditional_marginals_built_once(rng):
    law = random_joint_law(rng, nz=2, ny=4, nx=5)
    c = law.conditionals[0]
    for marginal, edges, axis in ((c.x_marginal, c.x_edges, 0), (c.y_marginal, c.y_edges, 1)):
        m = marginal()
        assert marginal() is m
        np.testing.assert_array_equal(m.edges, edges)
        np.testing.assert_array_equal(m.masses, c.mass.sum(axis=axis))
        assert not m.masses.flags.writeable and not m.edges.flags.writeable
        with pytest.raises(AttributeError):
            m.masses = np.zeros(len(m.masses))
    assert law.x_marginals()[0] is c.x_marginal()
    assert law.y_marginals()[1] is law.conditionals[1].y_marginal()


def test_conditional_marginals_are_not_checked_again(rng, monkeypatch):
    """A marginal of a checked conditional skips the constructor's checks
    and is the law that the checked constructor builds from its arrays."""
    law = random_joint_law(rng, nz=3, ny=4, nx=5)
    checked = []
    post_init = GridDistribution.__post_init__
    monkeypatch.setattr(
        GridDistribution, "__post_init__", lambda self: checked.append(self) or post_init(self)
    )
    margs = law.x_marginals() + law.y_marginals()
    assert checked == []
    p = np.linspace(0.0, 1.0, 33)
    for m in margs:
        twin = GridDistribution(m.edges, m.masses)
        assert m.atoms == () and m.to_json_dict() == twin.to_json_dict()
        assert np.array_equal(m.quantile(p), twin.quantile(p))
        assert m.support_bounds() == twin.support_bounds()
    assert len(checked) == len(margs)


def test_grid_distribution_validation():
    with pytest.raises(ValidationError):
        GridDistribution(np.array([0.0, 0.0]), np.array([1.0]))  # not increasing
    with pytest.raises(ValidationError):
        GridDistribution(np.array([0.0, 1.0]), np.array([0.5]))  # mass 0.5
    with pytest.raises(ValidationError):
        GridDistribution(np.array([0.0, 1.0]), np.array([-0.2, 1.2]))
    with pytest.raises(ValidationError):
        GridDistribution(np.array([0.0, 1.0]), np.array([0.5]), ((5.0, 0.5),))
    for edges, masses, match in [
        ([0.0, 1.0, 2.0], [0.5, np.nan], "bin masses must be finite"),
        ([0.0, 1.0, 2.0], [1.5, -0.5], "non-negative"),
        ([0.0, 1.0, 2.0], [0.5, 0.6], "total mass"),
        ([0.0, 2.0, 1.0], [0.5, 0.5], "strictly increasing"),
        ([0.0, np.inf, 2.0], [0.5, 0.5], "edges must be finite"),
        ([0.0, 1.0], [0.5, 0.5], "len\\(edges\\)"),
    ]:
        with pytest.raises(ValidationError, match=match):
            GridDistribution(np.array(edges), np.array(masses))


@pytest.mark.parametrize(
    "args, message",
    [
        (([0.0, np.nan], [1.0]), "edges must be finite: nan at index 1"),
        (([0.0, 1.0, np.inf], [0.5, 0.5]), "edges must be finite: inf at index 2"),
        (([0.0, 1.0, 2.0], [np.nan, 1.0]), "bin masses must be finite: nan at index 0"),
        (([0.0, 1.0], [0.5], ((np.nan, 0.5),)), r"atom \(nan, 0.5\) must be finite"),
        (([0.0, 1.0], [0.5], ((0.5, np.inf),)), r"atom \(0.5, inf\) must be finite"),
    ],
)
def test_grid_distribution_refuses_non_finite(args, message):
    # NaN passes every order comparison the other checks make
    with pytest.raises(ValidationError, match=message):
        GridDistribution(*args)


@pytest.mark.parametrize(
    "y_edges, x_edges, mass, message",
    [
        ([0.0, np.nan], [0.0, 1.0, 2.0], [[0.5, 0.5]], "y edges must be finite"),
        ([0.0, 1.0], [-np.inf, 1.0, 2.0], [[0.5, 0.5]], "x edges must be finite"),
        (
            [0.0, 1.0], [0.0, 1.0, 2.0], [[0.5, np.nan]],
            r"cell masses must be finite: nan at index \(0, 1\)",
        ),
    ],
)
def test_conditional_refuses_non_finite(y_edges, x_edges, mass, message):
    with pytest.raises(ValidationError, match=message):
        Conditional2D(np.array(y_edges), np.array(x_edges), np.array(mass))


@pytest.mark.parametrize(
    "args, message",
    [
        (([[0.0, 1.0]], [[1.0]]), "edges and masses must be one-dimensional"),
        (([0.0], []), "need at least one bin"),
        (([0.0, 1.0], [1.2], ((0.5, -0.2),)), "atom masses must be non-negative"),
        (([0.0, 1.0], [0.5], ((0.5, 0.25), (0.5, 0.25))), "atom locations must be distinct"),
    ],
    ids=["not-1-d", "one-edge", "negative-atom", "duplicate-atoms"],
)
def test_grid_distribution_refuses_malformed(args, message):
    edges, masses, *atoms = args
    with pytest.raises(ValidationError, match=f"^{message}$"):
        GridDistribution(np.array(edges), np.array(masses), *atoms)


@pytest.mark.parametrize(
    "y_edges, x_edges, mass, message",
    [
        ([0.0, 1.0], [0.0, 1.0], [1.0], "mass must be a matrix"),
        ([0.0, 1.0], [0.0, 1.0], [[0.5, 0.5]], "edge lengths do not match the mass matrix"),
        ([0.0, 1.0], [0.0, 1.0, 2.0], [[1.5, -0.5]], "cell masses must be non-negative"),
        ([0.0, 1.0], [0.0, 1.0, 2.0], [[0.5, 0.6]], "conditional mass matrix must sum to 1"),
        ([[0.0], [1.0]], [0.0, 1.0], [[1.0]], "y and x edges must be one-dimensional"),
        ([0.0, 1.0], [[0.0], [1.0]], [[1.0]], "y and x edges must be one-dimensional"),
    ],
    ids=["not-a-matrix", "shape-mismatch", "negative-cell", "sum-not-1", "y-not-1-d", "x-not-1-d"],
)
def test_conditional_refuses_malformed(y_edges, x_edges, mass, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        Conditional2D(np.array(y_edges), np.array(x_edges), np.array(mass))


@pytest.mark.parametrize(
    "bins, message",
    [(0, "bins must be at least 1: 0"), (2.5, "bins must be an integer: 2.5"),
     (True, "bins must be an integer: True")],
)
def test_uniform_refuses_a_bin_count_that_is_not_a_positive_integer(bins, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        GridDistribution.uniform(0.0, 1.0, bins)


def test_joint_law_refuses_a_count_mismatch_and_an_empty_grid():
    cond = Conditional2D(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([[1.0]]))
    pz = GridDistribution.uniform(0.0, 1.0, 2)
    with pytest.raises(ValidationError, match="^need one conditional per z value$"):
        JointLaw([0.25, 0.75], pz, (cond,))
    with pytest.raises(ValidationError, match="^empty z grid$"):
        JointLaw([], pz, ())
    for z_grid in ([[0.25], [0.75]], 0.5):
        with pytest.raises(ValidationError, match="^z grid must be one-dimensional$"):
            JointLaw(z_grid, pz, (cond, cond))


def test_from_atoms_refuses_no_atoms():
    with pytest.raises(ValidationError, match="^need at least one atom$"):
        GridDistribution.from_atoms([])


def test_grid_distribution_json_roundtrip(rng):
    d = GridDistribution(
        np.sort(rng.uniform(0, 2, 4)), rng.dirichlet(np.ones(3)) * 0.7, ((1.0, 0.3),)
    )
    d2 = GridDistribution.from_json_dict(d.to_json_dict())
    assert np.array_equal(d.edges, d2.edges)
    assert np.array_equal(d.masses, d2.masses)
    assert d.atoms == d2.atoms


@pytest.mark.parametrize(
    "pz, z_grid, message",
    [
        (
            GridDistribution.uniform(0.0, 1.0, 3),
            [0.1, 0.2, 0.5, 0.6, 0.9],
            "two z values fall in the same pz bin (0.2)",
        ),
        (
            GridDistribution.uniform(0.0, 1.0, 4),
            [0.1, 0.6],
            "pz bin 1 has positive mass but no z value",
        ),
        (
            GridDistribution(np.array([0.0, 1.0]), np.array([0.8]), ((0.8, 0.1), (0.2, 0.1))),
            [0.5],
            "pz atom at 0.2 has no z value",
        ),
        (
            GridDistribution.uniform(0.0, 1.0, 2),
            [-0.5, 0.25, 0.75, 1.5],
            "z value -0.5 outside the pz grid",
        ),
        (
            GridDistribution.uniform(0.0, 1.0, 2),
            [0.25, 0.75, 1.0],
            "z value 1.0 outside the pz grid",
        ),
        (
            GridDistribution.uniform(0.0, 1.0, 2),
            [0.75, 0.25],
            "z_grid must be strictly increasing",
        ),
    ],
    ids=["same-bin", "empty-bin", "unmatched-atom", "below-grid", "top-edge", "unsorted"],
)
def test_sites_of_refusals_name_the_first_offender(pz, z_grid, message):
    """Every refusal of the site pairing, with its exact message; where
    several values offend, the first in z order is named (pz's atoms are
    listed out of z order here)."""
    for pair in (
        lambda: measures.sites_of(pz, z_grid),
        lambda: build_generator([GridDistribution.uniform(0.0, 1.0)] * len(z_grid), pz, z_grid, 2),
    ):
        with pytest.raises(ValidationError) as info:
            pair()
        assert str(info.value) == message


def signed_zero_law(rng):
    """A law with -0.0 as a pz edge, a z value, a y edge, an x edge and a
    cell mass, and a pz atom."""
    pz = GridDistribution(np.array([-1.0, -0.0, 1.0]), np.array([0.3, 0.5]), ((0.5, 0.2),))
    edges = np.array([-1.0, -0.0, 1.0])
    mass = rng.dirichlet(np.ones(4)).reshape(2, 2)
    zero = mass.copy()
    zero[0, 1] += zero[1, 1]
    zero[1, 1] = -0.0
    conds = (
        Conditional2D(edges, edges, mass),
        Conditional2D(edges, np.array([-2.0, -0.0, 2.0]), zero),
        Conditional2D(np.array([0.0, 1.0, 2.0]), edges, mass.T),
    )
    return JointLaw([-0.5, -0.0, 0.5], pz, conds)


def serialization_laws(rng):
    shapes = ((1, 1, 2), (3, 4, 5), (8, 8, 8))
    return [random_joint_law(rng, *shape) for shape in shapes] + [signed_zero_law(rng)]


def test_law_json_matches_element_serializer(rng):
    """Whole-array ``tolist`` writes the same Python floats as a per-element
    ``float()``, so the JSON text is byte-identical, -0.0 included."""
    for law in serialization_laws(rng):
        text = json.dumps(law.to_json_dict())
        assert text == json.dumps(element_json_dict(law))
    assert text.count("-0.0") == 8


def test_law_json_roundtrips_bit_for_bit(rng):
    """Reading the JSON back gives every stored float64 with its bits."""
    for law in serialization_laws(rng):
        back = JointLaw.from_json_dict(json.loads(json.dumps(law.to_json_dict())))
        assert back.z_grid.tobytes() == law.z_grid.tobytes()
        assert back.pz.edges.tobytes() == law.pz.edges.tobytes()
        assert back.pz.masses.tobytes() == law.pz.masses.tobytes()
        assert back.pz.atoms == law.pz.atoms
        for a, b in zip(back.conditionals, law.conditionals, strict=True):
            for field in ("y_edges", "x_edges", "mass"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

"""Construction invariants: measure preservation, injectivity decay, replication."""

import itertools
import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from ivtest import (
    GeneratorMap,
    GridDistribution,
    MarginalMismatchError,
    NonAtomicityError,
    ValidationError,
    build_generator,
    collision_fraction,
    compose_structural_model,
    group_collision_matrix,
    verify_replication,
)
from ivtest import generator, measures
from ivtest.measures import Conditional2D, GridStack, JointLaw

import conftest
from conftest import (
    address_digits,
    bernoulli_support_jump_law,
    eager_table_sample,
    identical_conditional_setup,
    level_loop_patterns,
    pairwise_agreement,
    pairwise_collision_fraction,
    pairwise_group_collision_matrix,
    pairwise_image_codes,
    perturbed_law,
    random_joint_law,
    refine_and_shift_cells,
    replay_induced_conditional,
    replay_replication_error,
    two_search_locate,
    two_search_lookup,
)


def all_images(gen):
    """Every row's image cells through the kernel, shape ``(rows, n_u_cells)``."""
    return gen.image_cells(np.arange(len(gen.cells))[:, None], np.arange(gen.n_u_cells))


def pointwise_collision_oracle(gen, u_points=256):
    """Independent collision estimate: evaluate g(z, u) through the public
    map at one representative z per piece and compare values exactly.

    Pieces are the segments between the merged cut points and site edges,
    represented by their midpoints.  Pieces of continuum cells share the map
    among all their z values, so a same-piece pair is a full collision; an
    atom paired with itself is the same z twice and never counts.
    """
    reps, weights, is_atom = [], [], []
    for z in gen.atoms:
        reps.append(float(z))
        weights.append(next(s.mass for s in gen.sites if s.kind == "atom" and s.z_value == z))
        is_atom.append(True)
    bins = [s for s in gen.sites if s.kind == "bin" and s.mass > 0]
    bp = sorted(set(gen.cuts.tolist()) | {e for s in bins for e in (s.lo, s.hi)})
    for a, b in zip(bp, bp[1:]):
        if not any(s.lo <= a and b <= s.hi for s in bins):
            continue
        w = gen.pz.cdf_left(b) - gen.pz.cdf_left(a)
        if w <= 0:
            continue
        reps.append(0.5 * (a + b))
        weights.append(w)
        is_atom.append(False)
    us = (np.arange(u_points) + 0.5) / u_points
    values = np.array([gen(z, us) for z in reps])
    total = 0.0
    for i in range(len(reps)):
        for j in range(len(reps)):
            if i == j:
                frac = 0.0 if is_atom[i] else 1.0
            else:
                frac = float(np.mean(values[i] == values[j]))
            total += weights[i] * weights[j] * frac
    return total


# ---------------------------------------------------------------------------
# build_generator
# ---------------------------------------------------------------------------


def test_identical_conditionals_depth0_full_collision():
    margs, pz, zg = identical_conditional_setup()
    gen = build_generator(margs, pz, zg, 0)
    assert collision_fraction(gen) == 1.0


def test_identical_conditionals_dyadic_decay_exact():
    margs, pz, zg = identical_conditional_setup()
    for n in range(15):
        gen = build_generator(margs, pz, zg, n)
        assert collision_fraction(gen) == 2.0**-n


def test_collision_matches_pointwise_oracle():
    margs, pz, zg = identical_conditional_setup()
    for n in (1, 2, 3, 4):
        gen = build_generator(margs, pz, zg, n)
        assert collision_fraction(gen) == pytest.approx(
            pointwise_collision_oracle(gen), abs=1e-12
        )


def test_rejects_atomic_marginal_accepts_atomic_pz():
    margs, pz, zg = identical_conditional_setup()
    with pytest.raises(NonAtomicityError):
        build_generator([GridDistribution.point_mass(0.5)] * 4, pz, zg, 1)
    pz_atom = GridDistribution(np.array([0.0, 1.0]), np.array([0.5]), ((0.5, 0.5),))
    gen = build_generator([GridDistribution.uniform(0, 1)] * 2, pz_atom, [0.25, 0.5], 1)
    assert gen.arity == 3
    assert gen.cells.shape == (3,) and gen.n_u_cells == 3


def test_depth_cap_refused_before_allocating():
    """One bound: the build refuses, before allocating, an interval-code
    table (sites × latent cells) past ``MAX_CELL_ENTRIES``, so every
    generator that builds is accounted."""
    margs, pz, zg = identical_conditional_setup()
    for depth in (25, 40, 64, 10**9):  # 2**depth latent cells
        with pytest.raises(ValidationError, match="latent cells or interval codes"):
            build_generator(margs, pz, zg, depth)
    with pytest.raises(ValidationError, match="latent cells or interval codes"):
        GeneratorMap.from_json_dict({"depth": 40, "arity": 2, "cells": []}, margs, pz, zg)
    # 2**13 row patterns build, and their collisions are accounted
    gen = build_generator(margs, pz, zg, 13)
    assert gen.cells.shape == (2**13,)
    assert collision_fraction(gen) == 2.0**-13
    labels, mat = group_collision_matrix(gen)
    assert labels == ["1", "2"] and np.array_equal(mat, np.diag([2.0**-12, 2.0**-12]))
    # one atom: 1 + 2**10 rows and 3**10 latent cells; the atom's shifts are
    # 0 and the continuum's never are, so only the continuum collides
    pz_atom = GridDistribution(np.array([0.0, 1.0]), np.array([0.5]), ((0.5, 0.5),))
    gen = build_generator([GridDistribution.uniform(0, 1)] * 2, pz_atom, [0.25, 0.5], 10)
    assert gen.cells.shape == (1 + 2**10,)
    assert collision_fraction(gen) == 0.25 * 2.0**-10
    # purely atomic z: the build codes every atom site's latent cells
    pz_atoms = GridDistribution(np.array([-0.5, 1.5]), np.array([0.0]), ((0.0, 0.5), (1.0, 0.5)))
    with pytest.raises(ValidationError, match="latent cells"):
        build_generator([GridDistribution.uniform(0, 1, 2)] * 2, pz_atoms, [0.0, 1.0], 12)


def test_cap_boundaries(monkeypatch):
    """At the cap a table is allowed; one entry past it is refused."""
    margs, pz, zg = identical_conditional_setup()
    monkeypatch.setattr(generator, "MAX_CELL_ENTRIES", 2**10)
    gen = build_generator(margs, pz, zg, 8)  # 256 rows, 4 sites x 256 = 2**10 codes
    assert collision_fraction(gen) == 2.0**-8
    with pytest.raises(ValidationError, match="interval codes"):
        build_generator(margs, pz, zg, 9)  # 4 x 512 = 2048
    # 16 sites at depth 6: 64 rows, but 16 x 64 = 2**10 interval codes
    many = identical_conditional_setup(n_sites=16)
    gen = build_generator(*many, 6)
    assert collision_fraction(gen) == 2.0**-6
    monkeypatch.setattr(generator, "MAX_CELL_ENTRIES", 2**10 - 1)
    with pytest.raises(ValidationError, match="interval codes"):
        build_generator(*many, 6)


def test_disjoint_supports_zero_collision():
    # purely atomic z, each site its own support: ranges never intersect
    pz = GridDistribution(
        np.array([-0.5, 4.5]), np.array([0.0]), ((0.0, 0.3), (2.0, 0.3), (4.0, 0.4))
    )
    margs = [GridDistribution.uniform(2 * k, 2 * k + 1, 2) for k in range(3)]
    gen = build_generator(margs, pz, [0.0, 2.0, 4.0], 2)
    assert collision_fraction(gen) == 0.0


@pytest.mark.parametrize("depth", [0, 1, 5, 8])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_shift_patterns_closed_form_match_level_loop(k, depth):
    """``j·R`` for atom j and ``(k+1)·R`` less the bits of i read in base K
    for continuum row i, R the base-K repunit, are the patterns grown level
    by level, with and without a continuum, and what a build stores."""
    arity = k + 2 if k else 2
    for continuum in (True, False):
        want = level_loop_patterns(k, arity, depth, continuum)
        got = generator._shift_patterns(k, arity, depth, continuum)
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
    uniform = GridDistribution.uniform(0.0, 1.0)
    setup = atomic_setup(k) if k else ([uniform], uniform, [0.5])
    gen = build_generator(*setup, depth)
    assert np.array_equal(gen.cells, level_loop_patterns(k, arity, depth, True))


@pytest.mark.parametrize("case", ["random", "atoms and a gap"])
def test_build_derives_the_site_layout_once(monkeypatch, case):
    """One build makes one ``sites_of`` call and one continuum-law build,
    and nothing done with the generator afterwards makes another;
    ``dataclasses.replace`` derives both anew."""
    calls = []
    for name in ("sites_of", "_continuum_law"):
        real = getattr(generator, name)
        monkeypatch.setattr(
            generator, name, lambda *args, _f=real, _n=name: calls.append(_n) or _f(*args)
        )
    rng = np.random.default_rng(5)
    law = random_joint_law(rng, nz=4, ny=4, nx=4) if case == "random" else support_gap_law(rng)
    gen = build_generator(law.x_marginals(), law.pz, law.z_grid, 4)
    assert sorted(calls) == ["_continuum_law", "sites_of"]
    model = compose_structural_model(law, gen)
    assert verify_replication(model, law) == 0.0
    json.dumps(model.to_json_dict())
    model.sample(100, seed=0)
    collision_fraction(gen)
    group_collision_matrix(gen)
    assert len(calls) == 2
    replace(gen, cells=gen.cells)
    assert sorted(calls) == ["_continuum_law", "_continuum_law", "sites_of", "sites_of"]


@pytest.mark.parametrize("case", ["random", "atoms and a gap"])
def test_json_load_derives_the_site_layout_once(monkeypatch, case):
    """Loading a generator from JSON makes one ``sites_of`` call and one
    continuum-law build, those of the generator it rebuilds, and the loaded
    generator needs no other: it dumps the same JSON and samples the same
    rows."""
    rng = np.random.default_rng(5)
    law = random_joint_law(rng, nz=4, ny=4, nx=4) if case == "random" else support_gap_law(rng)
    setup = (law.x_marginals(), law.pz, law.z_grid)
    gen = build_generator(*setup, 4)
    text = json.dumps(gen.to_json_dict())
    calls = []
    for name in ("sites_of", "_continuum_law"):
        real = getattr(generator, name)
        monkeypatch.setattr(
            generator, name, lambda *args, _f=real, _n=name: calls.append(_n) or _f(*args)
        )
    back = GeneratorMap.from_json_dict(json.loads(text), *setup)
    assert sorted(calls) == ["_continuum_law", "sites_of"]
    assert json.dumps(back.to_json_dict()) == text
    rows = compose_structural_model(law, gen).sample(500, seed=3)
    assert compose_structural_model(law, back).sample(500, seed=3).tobytes() == rows.tobytes()
    collision_fraction(back)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# collision codes and kernel: oracles, golden values
# ---------------------------------------------------------------------------


def atomic_setup(k):
    """k z atoms of total mass 0.4 below a uniform continuum, all uniform[0, 1]."""
    atoms = tuple((0.1 + 0.2 * j, 0.4 / k) for j in range(k))
    pz = GridDistribution(np.array([0.0, 1.0]), np.array([0.6]), atoms)
    z_grid = sorted([a for a, _ in atoms] + [0.95])
    return [GridDistribution.uniform(0, 1)] * (k + 1), pz, z_grid


def collision_case(name):
    """Generator named ``<law>-<depth>``: random, identical, atomic1..3, bernoulli."""
    law_name, depth = name.rsplit("-", 1)
    if law_name == "random":
        law = random_joint_law(np.random.default_rng(20240817))
    elif law_name == "bernoulli":
        law = bernoulli_support_jump_law()
    if law_name in ("random", "bernoulli"):
        setup = (law.x_marginals(), law.pz, law.z_grid)
    elif law_name == "identical":
        setup = identical_conditional_setup()
    else:
        setup = atomic_setup(int(law_name[len("atomic"):]))
    return build_generator(*setup, int(depth))


# collision_fraction, pinned bit for bit
GOLDEN_COLLISIONS = {
    "random-0": 1.0,  # every site maps onto [0, 3) at depth 0
    "random-3": 0.125,
    "random-6": 0.015625,
    "identical-0": 1.0,
    "identical-3": 0.125,
    "identical-6": 0.015625,
    "atomic1-1": 0.18,
    "atomic1-2": 0.09,
    "atomic2-1": 0.18,
    "atomic2-2": 0.09,
    "atomic3-1": 0.18,
    "atomic3-2": 0.09,
    "bernoulli-0": 0.0,
    "bernoulli-4": 0.0,
}

# group_collision_matrix is diagonal on the atomic laws: atoms never meet
# themselves, and each continuum half collides with itself at 2**(1 - depth)
GOLDEN_GROUP_DIAGONALS = {
    "atomic1-1": [0.0, 1.0, 1.0],
    "atomic1-2": [0.0, 0.5, 0.5],
    "atomic2-1": [0.0, 0.0, 1.0, 1.0],
    "atomic2-2": [0.0, 0.0, 0.5, 0.5],
    "atomic3-1": [0.0, 0.0, 0.0, 1.0, 1.0],
    "atomic3-2": [0.0, 0.0, 0.0, 0.5, 0.5],
}


def meeting_counts(gen):
    """Latent cells on which every ordered pair of pieces meets, read off the
    match table: ``m_PQ[σ_j ⊖ σ_i]`` for pieces of classes P, Q and shift
    patterns σ_i, σ_j, every class matching itself ``n`` times at δ = 0.
    The digit differences come straight from the rows' shift digits."""
    piece_class, _, (P, Q, delta, count) = gen.match_table()
    table = dict(zip(zip(P.tolist(), Q.tolist(), delta.tolist()), count.tolist()))
    place = gen.arity ** np.arange(gen.depth - 1, -1, -1)
    shifts = gen.cells[gen.pieces[0]][:, None] // place % gen.arity
    out = np.zeros((len(shifts), len(shifts)), dtype=np.int64)
    for i in range(len(shifts)):
        deltas = ((shifts - shifts[i]) % gen.arity @ place).tolist()
        for j, d in enumerate(deltas):
            p, q = int(piece_class[i]), int(piece_class[j])
            out[i, j] = table.get((p, q, d), 0) + (gen.n_u_cells if p == q and d == 0 else 0)
    return out


def pairwise_meeting_counts(gen):
    codes = pairwise_image_codes(gen)
    return (codes[:, None, :] == codes[None, :, :]).sum(axis=2)


@pytest.mark.parametrize("name", sorted(GOLDEN_COLLISIONS))
def test_match_table_matches_pairwise_oracle(name):
    """The sparse match table gives every pair of pieces the number of latent
    cells on which the pairwise image codes agree."""
    gen = collision_case(name)
    assert np.array_equal(meeting_counts(gen), pairwise_meeting_counts(gen))


@pytest.mark.parametrize("name", sorted(GOLDEN_COLLISIONS))
def test_collision_golden_values(name):
    gen = collision_case(name)
    assert collision_fraction(gen) == GOLDEN_COLLISIONS[name]
    if name in GOLDEN_GROUP_DIAGONALS:
        diagonal = GOLDEN_GROUP_DIAGONALS[name]
        labels, mat = group_collision_matrix(gen)
        assert labels == [str(g + 1) for g in range(len(diagonal))]
        assert np.array_equal(mat, np.diag(diagonal))


def test_collision_golden_value_depth10():
    # the benchmark's model-query shape: one random 8x8x8 law at depth 10
    law = random_joint_law(np.random.default_rng(901))
    gen = build_generator(law.x_marginals(), law.pz, law.z_grid, 10)
    assert collision_fraction(gen) == 0.0009765625


def oracle_cases():
    """Generators for the kernel-against-oracle check, named ``<law>-<depth>``."""
    cases = {}
    for seed in (7, 11):
        law = random_joint_law(np.random.default_rng(seed))
        for depth in range(9):
            cases[f"random{seed}-{depth}"] = (law.x_marginals(), law.pz, law.z_grid, depth)
    for k in (1, 2, 3):
        for depth in (1, 2):
            cases[f"atomic{k}-{depth}"] = (*atomic_setup(k), depth)
    for depth in range(11):
        cases[f"identical-{depth}"] = (*identical_conditional_setup(), depth)
    cases["identical64-8"] = (*identical_conditional_setup(n_sites=64, bins=4), 8)
    law = bernoulli_support_jump_law()
    for depth in (0, 4):
        cases[f"bernoulli-{depth}"] = (law.x_marginals(), law.pz, law.z_grid, depth)
    return cases


ORACLE_CASES = oracle_cases()


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_collision_kernel_matches_pairwise_oracle(name):
    """The Σ W² kernel equals the sum over piece pairs: bit for bit for the
    fraction, within rounding of the per-group normalisation for the matrix."""
    gen = build_generator(*ORACLE_CASES[name])
    agree = pairwise_agreement(gen)
    assert collision_fraction(gen) == pairwise_collision_fraction(gen, agree)
    labels, mat = group_collision_matrix(gen)
    oracle_labels, oracle = pairwise_group_collision_matrix(gen, agree)
    assert labels == oracle_labels
    assert np.max(np.abs(mat - oracle)) <= 1e-15


def partial_setup():
    """Three uniform z sites whose x-marginals agree below 0.5 and differ
    above it, so two rows meet on the latent cells they send below 0.5."""
    pz = GridDistribution.uniform(0.0, 1.0, 3)
    edges = np.array([0.0, 0.5, 0.75, 1.0])
    margs = [GridDistribution(edges, np.array([0.5, m, 0.5 - m])) for m in (0.1, 0.25, 0.4)]
    return margs, pz, [1 / 6, 1 / 2, 5 / 6]


def copies_setup(k, depth, n_sites=4):
    """Sites whose x-marginals are probability-shifted copies: site t holds
    ``n`` equal-mass bins of one random grid, from bin t on, so its image
    interval a is site 0's interval ``a + t`` and intervals match at a ≠ b.
    pz carries k atoms (arity k + 2) and ``n_sites - k`` uniform bins."""
    arity = k + 2 if k else 2
    n = arity**depth
    edges = np.cumsum(np.r_[0.0, np.random.default_rng(k).uniform(0.5, 1.5, n_sites + n)])
    margs = [GridDistribution(edges[t : t + n + 1], np.full(n, 1.0 / n)) for t in range(n_sites)]
    bins = n_sites - k
    atoms = tuple(((j + 0.25) / bins, 0.1) for j in range(k))
    pz = GridDistribution(np.linspace(0.0, 1.0, bins + 1), np.full(bins, (1 - 0.1 * k) / bins), atoms)
    z_grid = sorted([(i + 0.5) / bins for i in range(bins)] + [a for a, _ in atoms])
    return margs, pz, z_grid


COPIES = {"copies": (0, 4), "copies-atom": (1, 3), "copies-atoms": (2, 2)}


def shifted_case(law_name, rows, seed):
    """A generator whose rows carry shift digits the construction never
    makes, set with ``dataclasses.replace``: random digits, or random digits
    with row 1 a copy of row 0."""
    if law_name in COPIES:
        k, depth = COPIES[law_name]
        gen = build_generator(*copies_setup(k, depth), depth)
    elif law_name == "random":
        law = random_joint_law(np.random.default_rng(seed), nz=3, ny=3, nx=4)
        gen = build_generator(law.x_marginals(), law.pz, law.z_grid, 3)
    elif law_name == "identical":
        # three sites on a two-cell grid: cells straddle the site edges
        gen = build_generator(*identical_conditional_setup(n_sites=3), 2)
    elif law_name == "partial":
        gen = build_generator(*partial_setup(), 3)
    else:
        gen = build_generator(*atomic_setup(2), 2)
    rng = np.random.default_rng(seed)
    shifts = rng.integers(0, gen.arity, size=(len(gen.cells), gen.depth))
    cells = shifts @ gen.arity ** np.arange(gen.depth - 1, -1, -1)
    if rows == "equal":
        cells[1] = cells[0]
    return replace(gen, cells=cells)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("rows", ["random", "equal"])
@pytest.mark.parametrize("law_name", ["random", "identical", "atomic", "partial", *COPIES])
def test_collision_kernel_matches_pairwise_oracle_on_permuted_rows(law_name, rows, seed):
    """Rows that the construction never makes: pieces meet on some or all
    latent cells, so the kernel's shared-key path carries the cross mass."""
    gen = shifted_case(law_name, rows, seed)
    agree = pairwise_agreement(gen)
    assert abs(collision_fraction(gen) - pairwise_collision_fraction(gen, agree)) <= 1e-15
    labels, mat = group_collision_matrix(gen)
    oracle_labels, oracle = pairwise_group_collision_matrix(gen, agree)
    assert labels == oracle_labels
    assert np.max(np.abs(mat - oracle)) <= 1e-15


def test_match_gather_cap_boundaries(monkeypatch):
    """At depth 0 all eight random marginals code the same interval: their
    8 x 8 entry pairs are gathered at the cap and refused one entry past it.
    The match gather is built once per generator, so each cap gets a
    generator of its own."""
    monkeypatch.setattr(measures, "MAX_CELL_ENTRIES", 64)
    assert collision_fraction(collision_case("random-0")) == 1.0
    monkeypatch.setattr(measures, "MAX_CELL_ENTRIES", 63)
    with pytest.raises(ValidationError, match="accounting gather needs 64 entries"):
        collision_fraction(collision_case("random-0"))


def test_match_gather_built_once_per_generator(monkeypatch):
    """Repeated accounting on one generator codes its marginals once;
    ``dataclasses.replace`` gives a generator with a fresh gather; a refused
    build raises on every call and caches nothing."""
    coded = []
    real = generator._interval_codes
    monkeypatch.setattr(
        generator, "_interval_codes", lambda *args: coded.append(1) or real(*args)
    )
    gen = collision_case("random-6")
    first = collision_fraction(gen)
    labels, mat = group_collision_matrix(gen)
    for _ in range(3):
        assert collision_fraction(gen) == first
        again = group_collision_matrix(gen)
        assert again[0] == labels and np.array_equal(again[1], mat)
    assert len(coded) == 1
    shifted = replace(gen, cells=np.random.default_rng(3).integers(0, gen.n_u_cells, gen.cells.shape))
    assert "_match_gather" not in shifted.__dict__
    assert abs(collision_fraction(shifted) - pairwise_collision_fraction(shifted)) <= 1e-15
    assert len(coded) == 2
    monkeypatch.setattr(measures, "MAX_CELL_ENTRIES", 63)
    refused = collision_case("random-0")
    for account in (collision_fraction, group_collision_matrix, collision_fraction):
        with pytest.raises(ValidationError, match="accounting gather needs 64 entries"):
            account(refused)
        assert "_match_gather" not in refused.__dict__
    assert len(coded) == 5


@pytest.mark.parametrize("law_name", sorted(COPIES))
def test_shifted_copies_match_at_many_differences(law_name):
    """Shifted copies match across sites at many digit differences δ ≠ 0,
    and the match table still counts every pair's meetings exactly."""
    gen = shifted_case(law_name, "random", 0)
    _, _, (P, Q, delta, _) = gen.match_table()
    assert len(np.unique(delta[P != Q])) >= 8
    assert np.array_equal(meeting_counts(gen), pairwise_meeting_counts(gen))


def test_collision_kernel_wide_keys():
    """Two z atoms at depth 8: 4**8 latent cells, each with its own interval
    code; with both atom rows equal the two atoms meet on every latent cell."""
    pz = GridDistribution(np.array([-0.5, 1.5]), np.array([0.0]), ((0.0, 0.25), (1.0, 0.75)))
    margs = [GridDistribution.uniform(0, 1, 3)] * 2
    gen = build_generator(margs, pz, [0.0, 1.0], 8)
    assert gen.n_u_cells == 65536
    gen = replace(gen, cells=gen.cells[[1, 1]])
    assert collision_fraction(gen) == pairwise_collision_fraction(gen) == 0.375
    labels, mat = group_collision_matrix(gen)
    assert labels == ["1", "2"]
    assert np.array_equal(mat, [[0.0, 1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# atomic variant
# ---------------------------------------------------------------------------


def test_atoms_cyclic_three_groups_depth1():
    # one atom plus the two continuum halves: three distinct shifts of 3 cells
    pz = GridDistribution(np.array([0.0, 1.0]), np.array([2 / 3]), ((0.5, 1 / 3),))
    margs = [GridDistribution.uniform(0, 1)] * 2
    gen = build_generator(margs, pz, [0.25, 0.5], 1)
    assert gen.arity == 3
    patterns = gen.to_json_dict()["cells"]
    assert patterns[0] == 0  # first atom keeps the base map
    assert len(set(patterns)) == 3  # all groups distinct
    labels, mat = group_collision_matrix(gen)
    off = mat.copy()
    np.fill_diagonal(off, 0.0)
    assert off.max() == 0.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_atoms_cross_group_zero_after_level1(k):
    atom_mass = 0.4 / k
    atoms = tuple((0.1 + 0.2 * j, atom_mass) for j in range(k))
    pz = GridDistribution(np.array([0.0, 1.0]), np.array([0.6]), atoms)
    z_grid = sorted([a for a, _ in atoms] + [0.95])
    margs = [GridDistribution.uniform(0, 1)] * (k + 1)
    for depth in (1, 2):
        gen = build_generator(margs, pz, z_grid, depth)
        assert gen.arity == k + 2
        labels, mat = group_collision_matrix(gen)
        assert len(labels) == k + 2
        off = mat.copy()
        np.fill_diagonal(off, 0.0)
        assert off.max() == 0.0


def reference_perms(gen):
    """Every row's permutation rebuilt one row and one level at a time.

    Atom j rotates by j at every level; a continuum cell rotates by k+1 on
    each left half (address digit k+1) and by k on each right half.
    """
    k, K = len(gen.atoms), gen.arity
    out = []
    for row in range(len(gen.cells)):
        address = address_digits(gen, row)
        shifts = [row] * gen.depth if row < k else [k + 1 if d == k + 1 else k for d in address]
        perm = [0]
        for shift in shifts:
            perm = [p * K + (r + shift) % K for p in perm for r in range(K)]
        out.append(perm)
    return out


def test_atoms_k0_delegates_to_binary():
    margs, pz, zg = identical_conditional_setup()
    gen = build_generator(margs, pz, zg, 3)
    assert gen.arity == 2
    assert len(gen.atoms) == 0
    # continuum row i takes shift 1 on its left halves, where bit l of i is 0
    assert gen.cells.tolist() == [7 - i for i in range(8)]
    assert all_images(gen).tolist() == reference_perms(gen)
    atomic = GridDistribution(
        np.array([0.0, 1.0]), np.array([0.6]), ((0.1, 0.2), (0.3, 0.2))
    )
    gen = build_generator([GridDistribution.uniform(0, 1)] * 3, atomic, [0.1, 0.3, 0.95], 3)
    assert gen.arity == 4
    assert all_images(gen).tolist() == reference_perms(gen)


def shift_table_cases():
    """(label, generator setup, depth): atom-free pz at depths 0-10, one and
    two atoms at depths 0-6."""
    for depth in range(11):
        yield f"atom-free@{depth}", identical_conditional_setup(), depth
    for k in (1, 2):
        for depth in range(7):
            yield f"atoms{k}@{depth}", atomic_setup(k), depth


def test_nine_atoms_sort_two_character_group_labels():
    """Nine atoms make arity 11 and the continuum group labels 10 and 11,
    which sort as strings, before "2"."""
    atoms = tuple(((j + 1) / 10, 0.04) for j in range(9))
    pz = GridDistribution(np.array([0.0, 1.0]), np.array([0.64]), atoms)
    nine = ([GridDistribution.uniform(0, 1)] * 10, pz, [a for a, _ in atoms] + [0.95])
    for depth in (0, 1, 2):
        gen = build_generator(*nine, depth)
        labels, mat = group_collision_matrix(gen)
        oracle_labels, oracle = pairwise_group_collision_matrix(gen)
        assert labels == oracle_labels, depth
        assert np.max(np.abs(mat - oracle)) <= 1e-15, depth
        tops = ["10", "11"] if depth else [""]
        assert labels == sorted([str(j + 1) for j in range(9)] + tops), depth


def test_image_cells_match_level_by_level_oracle():
    """The digit-split kernel expands every shift table exactly as the
    level-by-level construction and the row-by-row reference do, and its
    elementwise form agrees with its row form."""
    rng = np.random.default_rng(5)
    for label, setup, depth in shift_table_cases():
        gen = build_generator(*setup, depth)
        images = all_images(gen)
        assert np.array_equal(images, refine_and_shift_cells(gen)), label
        assert images.tolist() == reference_perms(gen), label
        rows = rng.integers(0, len(gen.cells), size=500)
        cells = rng.integers(0, gen.n_u_cells, size=500)
        assert np.array_equal(gen.image_cells(rows, cells), images[rows, cells]), label
        if len(gen.atoms) == 0:
            # without atoms the map is c XOR ~r on depth bits
            r = np.arange(2**depth)[:, None]
            assert np.array_equal(images, np.arange(2**depth) ^ (~r % 2**depth)), label


def test_atoms_already_injective_identity_perms():
    # distinct supports at depth 0: nothing to permute
    pz = GridDistribution(np.array([-0.5, 3.5]), np.array([0.0]), ((0.0, 0.5), (3.0, 0.5)))
    margs = [GridDistribution.uniform(0, 1, 2), GridDistribution.uniform(3, 4, 2)]
    gen = build_generator(margs, pz, [0.0, 3.0], 0)
    assert not gen.cells.any()
    assert all(np.array_equal(row, np.arange(len(row))) for row in all_images(gen))


# ---------------------------------------------------------------------------
# partition tree invariants
# ---------------------------------------------------------------------------


def test_partition_tree_invariants():
    """The flat rows form the halving tree: continuum rows 2i and 2i+1 of
    one level are the two equal-mass halves of row i one level up, and each
    inherits row i's map on its coarse blocks."""
    pz = GridDistribution(np.array([0.0, 0.1, 0.5, 0.6, 1.0]), np.array([0.1, 0.4, 0.2, 0.3]))
    zg = [0.05, 0.3, 0.55, 0.8]
    margs = [GridDistribution.uniform(0.0, 1.0)] * 4
    gens = [build_generator(margs, pz, zg, level) for level in range(4)]
    for level, gen in enumerate(gens):
        n = 2**level
        assert gen.cells.shape == (n,)
        mass = np.diff(pz.cdf_left(gen.cuts))
        assert np.all(np.abs(mass - 1.0 / n) <= 1e-12)
        u_cells = np.arange(gen.n_u_cells + 1) / gen.n_u_cells
        x_mass = np.diff(margs[0].cdf_left(margs[0].quantile(u_cells)))
        assert np.all(np.abs(x_mass - 1.0 / gen.n_u_cells) <= 1e-12)
    for parent, child in zip(gens, gens[1:]):
        for i in range(len(parent.cells)):
            for half in (0, 1):
                # each half appends one shift digit: 1 on the left, 0 on the right
                assert divmod(int(child.cells[2 * i + half]), 2) == (parent.cells[i], 1 - half)
                coarse = all_images(child)[2 * i + half] // 2
                assert np.array_equal(coarse, np.repeat(all_images(parent)[i], 2))
            lo, mid, hi = child.cuts[2 * i : 2 * i + 3]
            assert (lo, hi) == (parent.cuts[i], parent.cuts[i + 1])
            assert lo < mid < hi
            m1 = pz.cdf_left(mid) - pz.cdf_left(lo)
            m2 = pz.cdf_left(hi) - pz.cdf_left(mid)
            assert abs(m1 - m2) <= 1e-12


def test_measure_preservation_per_cell():
    """Pushing the uniform through any cell's map reproduces the conditional."""
    rng = np.random.default_rng(7)
    law = random_joint_law(rng, nz=4, ny=4, nx=6)
    margs = law.x_marginals()
    gen = build_generator(margs, law.pz, law.z_grid, 3)
    n = gen.n_u_cells
    for row in all_images(gen):
        # each image cell is hit by exactly one latent cell
        assert sorted(row.tolist()) == list(range(n))
    model = compose_structural_model(law, gen)
    for i in range(len(law.z_grid)):
        induced = np.array(replay_induced_conditional(model, i), dtype=float)
        np.testing.assert_allclose(
            induced.sum(axis=0), law.conditionals[i].mass.sum(axis=0), atol=1e-15
        )


# ---------------------------------------------------------------------------
# structural model and replication
# ---------------------------------------------------------------------------


def test_replication_zero_at_every_depth(rng):
    law = random_joint_law(rng, nz=4, ny=5, nx=6)
    margs = law.x_marginals()
    for depth in (0, 1, 3, 5):
        gen = build_generator(margs, law.pz, law.z_grid, depth)
        model = compose_structural_model(law, gen)
        assert verify_replication(model, law) == 0.0


def test_replication_gaussian_mixture_8x8x8():
    """z-varying two-component normal mixtures on an 8x8x8 grid, depth 6."""
    from scipy.stats import norm

    y_edges = np.linspace(-3.0, 4.0, 9)
    x_edges = np.linspace(-3.0, 4.0, 9)
    conds = []
    zs = (np.arange(8) + 0.5) / 8
    for z in zs:
        wx = norm.cdf(x_edges, loc=z, scale=0.7)
        wx2 = norm.cdf(x_edges, loc=2 - z, scale=0.4)
        px = 0.6 * np.diff(wx) + 0.4 * np.diff(wx2)
        wy = norm.cdf(y_edges, loc=1 - z, scale=0.9)
        py = np.diff(wy)
        m = np.outer(py, px)
        conds.append(Conditional2D(y_edges, x_edges, m / m.sum()))
    law = JointLaw(zs, GridDistribution.uniform(0, 1, 8), tuple(conds))
    gen = build_generator(law.x_marginals(), law.pz, law.z_grid, 6)
    model = compose_structural_model(law, gen)
    assert verify_replication(model, law) == 0.0


def test_monotone_model_class_soundness():
    """A replicating model of a monotone law induces a law passing FOSD at tol 0."""
    from conftest import location_family_law

    law = location_family_law([0.0, 0.25, 0.5, 0.75])
    gen = build_generator(law.x_marginals(), law.pz, law.z_grid, 3)
    model = compose_structural_model(law, gen)
    from ivtest import make_test

    report = make_test("fosd", tol=0.0)[1](model.induced_law())
    assert report.statistic == 0.0
    assert report.decision == "consistent"


def test_replication_detects_perturbation(rng):
    law = random_joint_law(rng, nz=3, ny=4, nx=4)
    gen = build_generator(law.x_marginals(), law.pz, law.z_grid, 2)
    model = compose_structural_model(law, gen)
    eps = 0.04
    perturbed = perturbed_law(law, site=1, eps=eps)
    assert verify_replication(model, perturbed) >= eps / 2 - 1e-9


def test_verify_sees_a_one_ulp_difference(rng):
    """Sites with equal tables skip the rational sum; a site one ulp off still
    gets its exact positive gap."""
    law = random_joint_law(rng, nz=3, ny=4, nx=4)
    gen = build_generator(law.x_marginals(), law.pz, law.z_grid, 2)
    model = compose_structural_model(law, gen)
    m = law.conditionals[1].mass.copy().ravel()
    hi, lo = int(np.argmax(m)), int(np.argmin(m))
    nudged = np.nextafter(m[hi], 1.0)
    m[lo] -= nudged - m[hi]  # the partner mass compensates
    m[hi] = nudged
    conds = list(law.conditionals)
    c = conds[1]
    conds[1] = Conditional2D(c.y_edges, c.x_edges, m.reshape(c.mass.shape))
    near = JointLaw(law.z_grid, law.pz, tuple(conds))
    gap = verify_replication(model, near)
    assert 0.0 < gap < 1e-15
    assert gap == replay_replication_error(model, near)
    assert verify_replication(model, law) == 0.0


def test_degenerate_outcome_replicates_exactly():
    # Y concentrated on the diagonal of (y, x) cells: outcome map is x itself
    edges = np.linspace(0.0, 1.0, 5)
    mass = np.diag([0.25, 0.25, 0.25, 0.25])
    cond = Conditional2D(edges, edges, mass)
    pz = GridDistribution.uniform(0, 1, 2)
    law = JointLaw([0.25, 0.75], pz, (cond, cond))
    gen = build_generator(law.x_marginals(), pz, law.z_grid, 2)
    model = compose_structural_model(law, gen)
    assert verify_replication(model, law) == 0.0


def test_outcome_independent_of_treatment_replicates():
    edges = np.linspace(0.0, 1.0, 5)
    mass = np.full((4, 4), 1 / 16)
    cond = Conditional2D(edges, edges, mass)
    pz = GridDistribution.uniform(0, 1, 2)
    law = JointLaw([0.25, 0.75], pz, (cond, cond))
    gen = build_generator(law.x_marginals(), pz, law.z_grid, 1)
    model = compose_structural_model(law, gen)
    assert verify_replication(model, law) == 0.0


def test_compose_rejects_marginal_mismatch(rng):
    law = random_joint_law(rng, nz=3, ny=4, nx=4)
    other = random_joint_law(np.random.default_rng(123), nz=3, ny=4, nx=4)
    gen = build_generator(other.x_marginals(), other.pz, other.z_grid, 1)
    with pytest.raises(MarginalMismatchError):
        compose_structural_model(law, gen)


def test_model_sampling_never_reads_z_for_latents(rng):
    law = random_joint_law(rng, nz=3, ny=4, nx=4)
    gen = build_generator(law.x_marginals(), law.pz, law.z_grid, 2)
    model = compose_structural_model(law, gen)
    rows = model.sample(200, seed=4)
    assert rows.shape == (200, 3)
    again = model.sample(200, seed=4)
    assert np.array_equal(rows, again)


def test_induced_law_equals_input_bitwise(rng):
    law = random_joint_law(rng, nz=3, ny=4, nx=4)
    gen = build_generator(law.x_marginals(), law.pz, law.z_grid, 3)
    model = compose_structural_model(law, gen)
    induced = model.induced_law()
    for a, b in zip(induced.conditionals, law.conditionals):
        assert np.array_equal(a.mass, b.mass)


def test_model_sample_golden_rows(rng):
    """Seeded rows are pinned: layout changes must keep sampling bit for bit."""
    law = random_joint_law(rng, nz=3, ny=4, nx=4)
    gen = build_generator(law.x_marginals(), law.pz, law.z_grid, 3)
    rows = compose_structural_model(law, gen).sample(5, seed=11)
    expected = [
        [1.4347636167063034, 0.7430885038255626, 0.368993123729791],
        [-0.4258693972855616, 0.18338942683944, 0.5113900218032627],
        [0.5180287633060221, 2.0480515095898357, 0.6628429525167993],
        [1.903939717029712, 1.4557313597579191, 0.2753088157611293],
        [1.6732688534241984, 2.673118681604231, 0.13796807286695534],
    ]
    assert rows.tolist() == expected


def zero_mass_site_law(rng):
    """Two pz atoms, a positive bin, and a z value in a zero-mass bin."""
    pz = GridDistribution(
        np.array([0.0, 0.5, 1.0]), np.array([0.6, 0.0]), ((0.1, 0.2), (0.3, 0.2))
    )
    base = random_joint_law(rng, nz=4, ny=4, nx=4)
    return JointLaw([0.1, 0.3, 0.4, 0.8], pz, base.conditionals)


def support_gap_law(rng):
    """A zero-mass pz bin between positive bins and an atom inside a bin."""
    pz = GridDistribution(
        np.array([0.0, 0.25, 0.5, 0.75, 1.0]), np.array([0.3, 0.0, 0.3, 0.2]), ((0.6, 0.2),)
    )
    base = random_joint_law(rng, nz=4, ny=4, nx=4)
    return JointLaw([0.1, 0.6, 0.7, 0.9], pz, base.conditionals)


def test_support_gap_and_atom_inside_a_bin(rng):
    """A zero-mass pz bin is a gap no z cell serves; an atom inside a bin
    gets its own row while the rest of that bin stays continuum."""
    law = support_gap_law(rng)
    pz = law.pz
    gen = build_generator(law.x_marginals(), pz, law.z_grid, 3)
    assert gen.cells.shape == (1 + 8,) and gen.n_u_cells == 27
    model = compose_structural_model(law, gen)
    assert verify_replication(model, law) == 0.0
    z = model.sample(2000, seed=3)[:, 2]
    assert not np.any((z >= 0.25) & (z < 0.5))
    assert np.any(z == 0.6)
    rows, sites = gen.locate([0.6, 0.55, 0.1])
    assert rows[0] == 0 and sites.tolist() == [1, 2, 0]
    cell, _, weight = gen.pieces
    assert weight.sum() == pytest.approx(1.0, abs=1e-12)
    for z_gap in (0.3, 0.25, 1.0):
        with pytest.raises(ValidationError):
            gen(z_gap, 0.5)


# pz laws whose sites need every branch of the z lookup, with their depths
LOCATE_CASES = {
    # eight equal bins: cut points fall on every bin edge
    "bins": (
        GridDistribution.uniform(0.0, 1.0, 8),
        [(i + 0.5) / 8 for i in range(8)],
        range(13),
    ),
    # a zero-mass bin (a gap) and an atom inside a bin
    "gap-atom": (
        GridDistribution(
            np.array([0.0, 0.25, 0.5, 0.75, 1.0]), np.array([0.3, 0.0, 0.3, 0.2]), ((0.6, 0.2),)
        ),
        [0.1, 0.6, 0.7, 0.9],
        range(13),
    ),
    # atoms on bin edges (0.25 opens a gap, 0.5 closes it, 1.0 tops the
    # last bin, -1.0 opens a leading zero-mass bin), and a z site in a gap
    "edge-atoms": (
        GridDistribution(
            np.array([-1.0, 0.0, 0.25, 0.5, 0.75, 1.0]),
            np.array([0.0, 0.2, 0.0, 0.2, 0.2]),
            ((-1.0, 0.1), (0.25, 0.1), (0.5, 0.1), (1.0, 0.1)),
        ),
        [-1.0, 0.1, 0.25, 0.3, 0.5, 0.6, 0.9, 1.0],
        range(9),
    ),
    # atoms only: every other z is refused
    "atoms-only": (
        GridDistribution(np.array([-0.5, 1.5]), np.array([0.0]), ((0.0, 0.5), (1.0, 0.5))),
        [0.0, 1.0],
        range(9),
    ),
}


@pytest.mark.parametrize("name", sorted(LOCATE_CASES))
def test_locate_matches_two_search_oracle(name):
    """z on every cut point, pz edge and atom, their float neighbours, ±0,
    NaN and ±inf: the one-search lookup gives the two-search oracle's rows
    and sites, and refuses the same z with the same message."""
    pz, z_grid, depths = LOCATE_CASES[name]
    margs = [GridDistribution.uniform(0, 1)] * len(z_grid)
    for depth in depths:
        gen = build_generator(margs, pz, z_grid, depth)
        base = np.concatenate([gen.cuts, pz.edges, gen.atoms, [0.0, -0.0]])
        zs = np.concatenate([
            base, np.nextafter(base, -np.inf), np.nextafter(base, np.inf), [np.nan, np.inf, -np.inf]
        ])
        want_rows, want_sites = two_search_lookup(gen, zs)
        ok = want_sites >= 0
        assert ok.any() and not ok.all()
        rows, sites = gen.locate(zs[ok])
        assert np.array_equal(rows, want_rows[ok]) and np.array_equal(sites, want_sites[ok])
        if len(gen.atoms):
            assert np.isin(gen._atom_sites, sites).all()
        for batch in [zs, *zs[~ok]]:
            with pytest.raises(ValidationError) as want:
                two_search_locate(gen, batch)
            with pytest.raises(ValidationError, match="carries no conditional") as got:
                gen.locate(batch)
            assert str(got.value) == str(want.value)


def test_zero_mass_z_site_replicates(rng):
    """No z cell serves a z value in a zero-mass pz bin: its conditional is
    unconstrained and the model keeps it."""
    from ivtest import nontestability_demo

    law = zero_mass_site_law(rng)
    assert law.sites[3].kind == "bin" and law.sites[3].mass == 0.0
    for depth in (0, 3):
        model, error = nontestability_demo(law, depth)
        assert error == 0.0
        induced = model.induced_law()
        for a, b in zip(induced.conditionals, law.conditionals):
            assert np.array_equal(a.mass, b.mass)


def zero_column_law(rng):
    """A random 8x8x8 law whose site 2 puts no mass in x bin 3."""
    law = random_joint_law(rng)
    conds = list(law.conditionals)
    c = conds[2]
    m = c.mass.copy()
    m[:, 3] = 0.0
    conds[2] = Conditional2D(c.y_edges, c.x_edges, m / m.sum())
    return JointLaw(law.z_grid, law.pz, tuple(conds))


SAMPLING_LAWS = {
    "random": random_joint_law,
    "zero-mass-site": zero_mass_site_law,
    "zero-column": zero_column_law,
}


@pytest.mark.parametrize("depth", [0, 6])
@pytest.mark.parametrize("case", list(SAMPLING_LAWS))
def test_sample_matches_eager_table_oracle(rng, case, depth):
    """Column laws read off the joint on demand sample bit for bit like the
    outcome table built up front."""
    law = SAMPLING_LAWS[case](rng)
    gen = build_generator(law.x_marginals(), law.pz, law.z_grid, depth)
    model = compose_structural_model(law, gen)
    for seed in (0, 11):
        rows = model.sample(10_000, seed)
        assert rows.tobytes() == eager_table_sample(model, 10_000, seed).tobytes()


def test_outcome_columns_built_once_on_first_sample(rng, monkeypatch):
    """compose builds nothing; two samples build the outcome-column stack
    exactly once between them, one row per positive-mass column, and no
    distribution.  The zero-mass column has no row."""
    law = zero_column_law(rng)
    gen = build_generator(law.x_marginals(), law.pz, law.z_grid, 3)
    built, stacks = [], []
    post_init = GridDistribution.__post_init__
    stack_of = GridStack.of.__func__

    def counting(self):
        built.append(self)
        post_init(self)

    def counting_stack(cls, stacked):
        stacks.append(stack_of(cls, stacked))
        return stacks[-1]

    monkeypatch.setattr(GridDistribution, "__post_init__", counting)
    monkeypatch.setattr(GridStack, "of", classmethod(counting_stack))
    model = compose_structural_model(law, gen)
    assert built == [] and stacks == []
    model.sample(500, seed=1)
    model.sample(500, seed=2)
    columns, row_of, first = model._outcome_columns
    assert built == [] and [id(s) for s in stacks].count(id(columns)) == 1
    assert len(columns.starts) - 1 == 8 * 8 - 1
    assert row_of[first[2] + 3] == -1 and np.count_nonzero(row_of < 0) == 1
    assert row_of[row_of >= 0].tolist() == list(range(8 * 8 - 1))


@pytest.mark.parametrize("nz, nx", [(3, 4), (8, 8)])
def test_sample_makes_two_stacked_quantile_calls(rng, monkeypatch, nz, nx):
    """Whatever the number of sites and columns: one stacked quantile call
    for x, one for y, one bin lookup, and pz's one-law call for z (after the
    first call, which also finds the generator's cut points)."""
    law = random_joint_law(rng, nz=nz, ny=4, nx=nx)
    model = compose_structural_model(law, build_generator(law.x_marginals(), law.pz, law.z_grid, 3))
    model.sample(10, seed=3)
    calls = []
    for cls, name in ((GridStack, "quantile"), (GridStack, "cdf"), (GridStack, "bin_of"),
                      (GridDistribution, "quantile"), (GridDistribution, "cdf")):
        def counted(self, *args, _fn=getattr(cls, name), _key=f"{cls.__name__}.{name}", **kw):
            if args[0] is not None:  # rows None: a one-law call, counted as such
                calls.append(_key)
            return _fn(self, *args, **kw)

        monkeypatch.setattr(cls, name, counted)
    model.sample(2_000, seed=4)
    stacked = ["GridStack.quantile", "GridStack.quantile", "GridStack.bin_of"]
    assert sorted(calls) == sorted(stacked + ["GridDistribution.quantile"])


def test_sample_is_not_capped_by_the_table_bound(rng, monkeypatch):
    """``n`` rows make stacked calls of ``n`` points, which allocate in
    proportion to them as the drawn rows do: past ``MAX_CELL_ENTRIES`` the
    rows are drawn, and they are the rows drawn under the default bound."""
    law = random_joint_law(rng, nz=3, ny=4, nx=4)
    model = compose_structural_model(law, build_generator(law.x_marginals(), law.pz, law.z_grid, 3))
    want = model.sample(1000, seed=0)
    monkeypatch.setattr(measures, "MAX_CELL_ENTRIES", 100)
    fresh = compose_structural_model(law, build_generator(law.x_marginals(), law.pz, law.z_grid, 3))
    assert fresh.sample(1000, seed=0).tobytes() == want.tobytes()


def test_sampling_a_zero_mass_column_is_refused(rng):
    """A column the joint gives no mass has no outcome law to sample."""
    law = zero_column_law(rng)
    gen = build_generator(law.x_marginals(), law.pz, law.z_grid, 3)
    model = compose_structural_model(law, gen)
    # forced past compose's checks: first-stage marginals that give x bin 3 mass
    object.__setattr__(gen, "marginals", tuple(random_joint_law(rng).x_marginals()))
    with pytest.raises(ValidationError, match="zero conditional mass"):
        model.sample(2_000, seed=0)


@pytest.mark.parametrize(
    "n, seed, message",
    [
        (2.5, 1, "n must be an integer: 2.5"),
        (True, 1, "n must be an integer: True"),
        (0, 1, "n must be at least 1: 0"),
        (10, 1.5, "seed must be an integer: 1.5"),
        (10, -1, "seed must be at least 0: -1"),
    ],
)
def test_sample_refuses_a_count_or_seed_that_is_not_an_integer(rng, n, seed, message):
    law = random_joint_law(rng)
    model = compose_structural_model(law, build_generator(law.x_marginals(), law.pz, law.z_grid, 2))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        model.sample(n, seed)
    # numpy integers are integers
    assert model.sample(np.int64(50), np.uint32(7)).tobytes() == model.sample(50, 7).tobytes()


def oracle_cases(rng):
    """(label, model, law) triples: own laws, cross-law pairs, a perturbation."""
    a = random_joint_law(rng, nz=3, ny=4, nx=5)
    b = random_joint_law(rng, nz=3, ny=4, nx=5)
    # atoms raise the arity to k + 2, so their laws stop at smaller depths
    for label, law, depths in (("random", a, (0, 2, 6)),
                               ("zero-mass", zero_mass_site_law(rng), (0, 2, 4)),
                               ("gap", support_gap_law(rng), (0, 3, 5))):
        for depth in depths:
            gen = build_generator(law.x_marginals(), law.pz, law.z_grid, depth)
            yield f"{label}@{depth}", compose_structural_model(law, gen), law
    for depth in (1, 4):
        gen = build_generator(a.x_marginals(), a.pz, a.z_grid, depth)
        model = compose_structural_model(a, gen)
        yield f"a-vs-b@{depth}", model, b
        yield f"a-vs-perturbed@{depth}", model, perturbed_law(a)
    gen = build_generator(b.x_marginals(), b.pz, b.z_grid, 3)
    yield "b-vs-a@3", compose_structural_model(b, gen), a


def test_certificate_agrees_with_replay_oracle(rng):
    """verify_replication and induced_law equal the exact cell-by-cell replay."""
    for label, model, law in oracle_cases(rng):
        assert verify_replication(model, law) == replay_replication_error(model, law), label
        induced = model.induced_law()
        for i, c in enumerate(induced.conditionals):
            replayed = [[float(v) for v in row] for row in replay_induced_conditional(model, i)]
            assert c.mass.tolist() == replayed, label


def test_generator_rejects_out_of_range_shifts():
    margs, pz, zg = identical_conditional_setup()
    gen = build_generator(margs, pz, zg, 2)
    for r, v in ((1, 4), (2, -1), (0, 7)):  # arity 2 at depth 2: patterns in [0, 4)
        bad = gen.cells.copy()
        bad[r] = v
        with pytest.raises(ValidationError, match=r"pattern must lie in \[0, 4\)"):
            replace(gen, cells=bad)
        with pytest.raises(ValidationError, match=r"pattern must lie in \[0, 4\)"):
            GeneratorMap(gen.depth, pz, zg, tuple(margs), bad)
    for bad in (gen.cells[:, None], gen.cells[:3]):
        with pytest.raises(ValidationError, match="shape"):
            replace(gen, cells=bad)


def test_generator_checks_its_depth_and_derives_its_arity(rng):
    """The fields are depth, pz, z grid, marginals and patterns.  The arity
    is read off pz (k + 2 for k atoms), so no ``replace`` can make it
    disagree with the JSON that ``from_json_dict`` accepts; a depth that is
    not a non-negative integer is refused by name, and a NumPy one is
    stored as a plain int."""
    assert [f.name for f in fields(GeneratorMap)] == ["depth", "pz", "z_grid", "marginals", "cells"]
    law = random_joint_law(rng)
    setup = (law.x_marginals(), law.pz, law.z_grid)
    gen = build_generator(*setup, 3)
    assert gen.arity == 2
    with pytest.raises(TypeError, match="arity"):
        replace(gen, arity=3)
    for bad, message in (
        (2.5, "depth must be an integer: 2.5"),
        (True, "depth must be an integer: True"),
        (-1, "depth must be at least 0: -1"),
    ):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            replace(gen, depth=bad)
    same = replace(gen, depth=np.int64(3))
    assert type(same.depth) is int
    assert GeneratorMap.from_json_dict(same.to_json_dict(), *setup).cells.tolist() == gen.cells.tolist()
    atomic = build_generator(*atomic_setup(2), 2)
    assert atomic.arity == atomic.to_json_dict()["arity"] == 4


@pytest.mark.parametrize("k", [1, 2, 3])
def test_arity_counts_one_shift_per_atom_and_two_halves(k):
    """Under a pz with k atoms every level has k + 2 cuts: the latent grid
    has (k + 2)**depth cells, every pattern lies below it, and the JSON
    records the same arity that ``from_json_dict`` checks."""
    setup = atomic_setup(k)
    for depth in (0, 1, 2):
        gen = build_generator(*setup, depth)
        assert gen.arity == k + 2 and gen.n_u_cells == (k + 2) ** depth, depth
        assert len(gen.cells) == k + 2**depth and gen.cells.max() < gen.n_u_cells, depth
        obj = json.loads(json.dumps(gen.to_json_dict()))
        assert obj["arity"] == k + 2, depth
        assert GeneratorMap.from_json_dict(obj, *setup).arity == k + 2, depth
        with pytest.raises(ValidationError, match=f"arity {k + 1} does not match this pz's {k + 2}"):
            GeneratorMap.from_json_dict(dict(obj, arity=k + 1), *setup)


def test_image_cells_broadcast_rows_against_cells():
    """``image_cells`` is elementwise under NumPy broadcasting: a scalar row
    against a vector of cells, a column of rows against a row of cells, and
    two scalars all read the same table."""
    gen = build_generator(*atomic_setup(2), 3)
    images = all_images(gen)
    cells = np.arange(gen.n_u_cells)
    for row in range(len(gen.cells)):
        assert np.array_equal(gen.image_cells(row, cells), images[row]), row
        assert int(gen.image_cells(row, 5)) == images[row, 5], row
    rows = np.array([0, 3, 1])
    assert gen.image_cells(rows[:, None], cells[None, ::7]).shape == (3, len(cells[::7]))
    assert np.array_equal(gen.image_cells(rows[:, None], cells[None, ::7]), images[rows][:, ::7])


def test_replay_oracle_sees_a_non_permutation_row(rng, monkeypatch):
    """The replay is load-bearing: an expansion that duplicates an image
    cell makes it miss the law, while the true expansion replays it."""
    law = random_joint_law(rng, nz=3, ny=4, nx=4)
    gen = build_generator(law.x_marginals(), law.pz, law.z_grid, 2)
    model = compose_structural_model(law, gen)
    assert replay_replication_error(model, law) == 0.0
    expand = conftest.refine_and_shift_cells

    def duplicating(g):
        perms = expand(g)
        perms[1, 0] = perms[1, 1]
        return perms

    monkeypatch.setattr(conftest, "refine_and_shift_cells", duplicating)
    assert replay_replication_error(model, law) > 0.0


def test_verify_rejects_mismatched_shapes(rng):
    law = random_joint_law(rng, nz=3, ny=4, nx=4)
    gen = build_generator(law.x_marginals(), law.pz, law.z_grid, 1)
    model = compose_structural_model(law, gen)
    with pytest.raises(MarginalMismatchError):
        verify_replication(model, random_joint_law(rng, nz=2, ny=4, nx=4))
    with pytest.raises(MarginalMismatchError):
        verify_replication(model, random_joint_law(rng, nz=3, ny=5, nx=4))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_generator_json_roundtrip():
    """One pattern per row, in row order: the reloaded generator samples
    bit-identical rows and dumps byte-identical JSON, at depths 0 and 3,
    with and without pz atoms."""
    rng = np.random.default_rng(4)
    laws = {
        "random": random_joint_law(rng, nz=3, ny=4, nx=4),
        "two atoms": zero_mass_site_law(rng),
        "atom in a bin": support_gap_law(rng),
    }
    for (name, law), depth in itertools.product(laws.items(), (0, 3)):
        setup = (law.x_marginals(), law.pz, law.z_grid)
        gen = build_generator(*setup, depth)
        obj = gen.to_json_dict()
        assert obj == {"depth": depth, "arity": gen.arity, "cells": gen.cells.tolist()}
        assert len(obj["cells"]) == len(gen.atoms) + 2**depth, (name, depth)
        text = json.dumps(obj)
        back = GeneratorMap.from_json_dict(json.loads(text), *setup)
        assert np.array_equal(back.cells, gen.cells), (name, depth)
        assert json.dumps(back.to_json_dict()) == text, (name, depth)
        rows = compose_structural_model(law, gen).sample(2000, seed=7)
        again = compose_structural_model(law, back).sample(2000, seed=7)
        assert again.tobytes() == rows.tobytes(), (name, depth)


def test_generator_json_rejects_bad_rows():
    """Malformed generator JSON fails fast: nothing is cast, truncated or
    reordered into a valid generator."""
    margs, pz, zg = identical_conditional_setup()
    obj = build_generator(margs, pz, zg, 2).to_json_dict()
    assert obj == {"depth": 2, "arity": 2, "cells": [3, 2, 1, 0]}
    cases = [
        # patterns that are not integers, or not in [0, 2**2)
        ({"cells": [0.9, 1.7, 2.0, 3.0]}, "must be an integer"),
        ({"cells": [True, False, True, False]}, "must be an integer"),
        ({"cells": [3, 2, 1, False]}, "must be an integer"),
        ({"cells": [3, 2, 1, "0"]}, "must be an integer"),
        ({"cells": [3, 2, 1, None]}, "must be an integer"),
        ({"cells": [[1, 1], [1, 0], [0, 1], [0, 0]]}, "must be an integer"),
        ({"cells": [{"z_addr": "11", "shifts": [1, 1]}] * 4}, "must be an integer"),
        ({"cells": [3, 2, 1, 4]}, r"integer in \[0, 4\)"),
        ({"cells": [3, 2, 1, -1]}, r"integer in \[0, 4\)"),
        ({"cells": [3, 2, 1, 2**70]}, r"integer in \[0, 4\)"),
        # a wrong row count
        ({"cells": [3, 2, 1]}, "3 cell patterns for the 4 z-cell rows"),
        ({"cells": [3, 2, 1, 0, 0]}, "5 cell patterns for the 4 z-cell rows"),
        ({"cells": []}, "0 cell patterns for the 4 z-cell rows"),
        ({"depth": 3}, "4 cell patterns for the 8 z-cell rows"),
        # a depth or arity that is not an integer, or the wrong arity
        ({"depth": 2.9}, "depth and arity must be integers"),
        ({"depth": 2.0}, "depth and arity must be integers"),
        ({"depth": True}, "depth and arity must be integers"),
        ({"depth": "2"}, "depth and arity must be integers"),
        ({"arity": 2.0}, "depth and arity must be integers"),
        ({"arity": True}, "depth and arity must be integers"),
        ({"arity": None}, "depth and arity must be integers"),
        ({"arity": 3}, "arity 3 does not match"),
        ({"cells": None}, "malformed"),
        ({"cells": 4}, "malformed"),
    ]
    for edit, message in cases:
        with pytest.raises(ValidationError, match=message):
            GeneratorMap.from_json_dict(dict(obj, **edit), margs, pz, zg)
    for key in obj:
        with pytest.raises(ValidationError, match="malformed"):
            GeneratorMap.from_json_dict({k: v for k, v in obj.items() if k != key}, margs, pz, zg)

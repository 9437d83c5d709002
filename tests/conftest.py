"""Shared builders for analytic test laws, the per-element law serializer,
the level-by-level pattern and cell expansion oracles, the exact replay
oracle, the eager-table sampling oracle, the two-search z lookup oracle,
the address spelling, the pairwise image-code, agreement and collision
oracles, the piece-loop inversion oracle, the one-pair moment and its
segment-loop oracle, the one-pair W-infinity and FOSD oracles, the
per-pair statistic oracles, the breakpoint-loop profile oracle, the
masked quantile/CDF and per-bin discretize oracles and the float-loop
dataset CSV oracle."""

import itertools
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from ivtest import (
    Conditional2D,
    DegenerateGridError,
    EmptyBinError,
    GridDistribution,
    JointLaw,
    TestReport,
    ValidationError,
    population_law,
    product_conditional,
)
from ivtest.measures import INPUT_TOL, GridStack
from ivtest.validity import _pair_quantile_moments


def uniform_grid(lo, hi, bins=1):
    return GridDistribution.uniform(lo, hi, bins)


def triangular_grid(z, bins=16):
    """Grid version of the sum of two independent uniforms, shifted by z."""
    e = np.linspace(z, z + 2.0, bins + 1)
    mids = 0.5 * (e[:-1] + e[1:]) - z
    dens = np.minimum(mids, 2.0 - mids)
    return GridDistribution(e, dens / dens.sum())


def location_family_law(z_values, x_bins=8, y_bins=16):
    """Population law of X = Z + U[0,1], Y = X + V[0,1] on a z grid.

    Conditionals carry their own shifted edges, so neighbouring z values give
    exact translates of one another.
    """
    z_values = [float(z) for z in z_values]
    edges = []
    prev = z_values[0] - 0.5 * (z_values[1] - z_values[0])
    for a, b in zip(z_values, z_values[1:]):
        edges.append(0.5 * (a + b))
    lo = z_values[0] - (edges[0] - z_values[0])
    hi = z_values[-1] + (z_values[-1] - edges[-1])
    pz_edges = np.array([lo] + edges + [hi])
    widths = np.diff(pz_edges)
    pz = GridDistribution(pz_edges, widths / widths.sum())

    def cond(z):
        return product_conditional(
            triangular_grid(z, y_bins), GridDistribution.uniform(z, z + 1, x_bins)
        )

    return population_law(z_values, pz, cond)


def bernoulli_support_jump_law(gap_lo=0.0, gap_hi=3.0):
    """Two z atoms with treatment supports [0,1] and [gap_hi, gap_hi+1]."""
    pz = GridDistribution(np.array([-0.5, 1.5]), np.array([0.0]), ((0.0, 0.5), (1.0, 0.5)))

    def cond(z):
        shift = gap_lo if z < 0.5 else gap_hi
        return product_conditional(
            GridDistribution.uniform(0, 1, 4),
            GridDistribution.uniform(shift, shift + 1, 4),
        )

    return population_law([0.0, 1.0], pz, cond)


def identical_conditional_setup(n_sites=4, bins=1):
    """Uniform pz sites all carrying the same uniform[0,1] treatment marginal."""
    pz = GridDistribution.uniform(0.0, 1.0, n_sites)
    z_grid = [(k + 0.5) / n_sites for k in range(n_sites)]
    margs = [GridDistribution.uniform(0.0, 1.0, bins) for _ in range(n_sites)]
    return margs, pz, z_grid


def random_joint_law(rng, nz=8, ny=8, nx=8):
    """Random mass matrices on a shared grid: every marginal is non-atomic."""
    y_edges = np.linspace(-1.0, 2.0, ny + 1)
    x_edges = np.linspace(0.0, 3.0, nx + 1)
    conds = []
    for _ in range(nz):
        m = rng.gamma(1.0, size=(ny, nx)) + 0.01
        conds.append(Conditional2D(y_edges, x_edges, m / m.sum()))
    pz = GridDistribution.uniform(0.0, 1.0, nz)
    z_grid = (np.arange(nz) + 0.5) / nz
    return JointLaw(z_grid, pz, tuple(conds))


def perturbed_law(law, site=1, eps=0.04):
    """``law`` with ``eps`` moved from the heaviest to the lightest positive
    cell of one conditional, renormalised."""
    m = law.conditionals[site].mass.copy()
    hi = np.unravel_index(np.argmax(m), m.shape)
    lo = np.unravel_index(np.argmin(m + (m == 0)), m.shape)
    m[lo] += eps
    m[hi] -= eps
    m = np.clip(m, 0, None)
    m /= m.sum()
    conds = list(law.conditionals)
    c = law.conditionals[site]
    conds[site] = Conditional2D(c.y_edges, c.x_edges, m)
    return JointLaw(law.z_grid, law.pz, tuple(conds))


def element_json_dict(law):
    """``JointLaw.to_json_dict`` written one element at a time with
    ``float()``: the oracle for the whole-array serializer, whose JSON must
    be byte-identical."""

    def dist(d):
        return {
            "edges": [float(e) for e in d.edges],
            "masses": [float(m) for m in d.masses],
            "atoms": [[a, m] for a, m in d.atoms],
        }

    return {
        "z_grid": [float(z) for z in law.z_grid],
        "pz": dist(law.pz),
        "conditionals": [
            {
                "y_edges": [float(e) for e in c.y_edges],
                "x_edges": [float(e) for e in c.x_edges],
                "mass": [[float(v) for v in row] for row in c.mass],
            }
            for c in law.conditionals
        ],
    }


def level_loop_patterns(k, arity, depth, continuum):
    """Every row's shift pattern grown one level at a time, the way the
    construction once built them: each level appends digit j to atom j, and
    ``k+1`` and ``k`` to the left and right halves of continuum row i, rows
    ``2i`` and ``2i+1``."""
    cells = np.zeros(k, dtype=np.int64)
    halves = np.zeros(1 if continuum else 0, dtype=np.int64)
    for _ in range(depth):
        cells = cells * arity + np.arange(k)
        halves = (halves[:, None] * arity + [k + 1, k]).ravel()
    return np.concatenate([cells, halves])


def _refine_and_shift(perms, arity, shift):
    """One level of the iteration applied to every row of inherited permutations.

    Each coarse cell splits into ``arity`` children preserving within-block
    order; the new level then rotates images within every image block by
    ``shift`` (a scalar, or one value per row as a column).  Shift 0 keeps
    the inherited map.
    """
    k = arity
    j = np.repeat(perms, k, axis=1) * k  # image block of each refined index
    r = np.arange(perms.shape[1] * k) % k
    return j + (r + shift) % k


def refine_and_shift_cells(gen):
    """Every row's permutation as one ``(rows, n_u_cells)`` matrix.

    An independent oracle for ``GeneratorMap.image_cells``: the permutations
    are grown one level at a time, every coarse cell splitting into
    ``arity`` children and each row rotating the new images within their
    blocks by its shift digit at that level, read off its pattern, the way
    the construction once built its matrix.
    """
    perms = np.zeros((len(gen.cells), 1), dtype=np.int64)
    for level in range(gen.depth):
        digit = gen.cells // gen.arity ** (gen.depth - 1 - level) % gen.arity
        perms = _refine_and_shift(perms, gen.arity, digit[:, None])
    return perms


def address_digits(gen, row):
    """z-cell address of a row, spelled from the row index, k and depth:
    atom j is ``(j+1,)``; continuum row i has one digit per level, most
    significant first, ``k+1`` where bit l of i is 0 (a left half) and
    ``k+2`` where it is 1 (a right half)."""
    k = len(gen.atoms)
    if row < k:
        return (row + 1,)
    return tuple(k + 1 + ((row - k) >> (gen.depth - 1 - level)) % 2 for level in range(gen.depth))


def replay_induced_conditional(model, site_idx):
    """Pushforward of the latent product measure at one z site, in exact rationals.

    An independent oracle for the replication certificate: it walks every
    latent cell of every z cell through the rows of
    :func:`refine_and_shift_cells` instead of relying on them being
    permutations.  Latent cell c occupies
    ``[c/n, (c+1)/n)`` of the site's total mass and x bin b the interval
    between the rational cumulative column sums.  Per z cell the image mass
    lands in the permuted slot and is split across bins by interval overlap;
    the outcome stage then distributes each bin's mass down its column.  A z
    site spanning several z cells averages the per-cell results by cell
    weight.  A site no z cell serves (a zero-mass pz bin) is returned as the
    model's own conditional, which is what it holds vacuously.
    """
    gen = model.generator
    site = gen.sites[site_idx]
    cond = model.joint.conditionals[site_idx]
    ny, nx = cond.mass.shape
    mass_q = [[Fraction(float(cond.mass[i, j])) for j in range(nx)] for i in range(ny)]
    colsum = [sum(mass_q[i][j] for i in range(ny)) for j in range(nx)]
    cum = [Fraction(0)]
    for j in range(nx):
        cum.append(cum[-1] + colsum[j])
    n = gen.n_u_cells
    h = cum[-1] / n

    if site.kind == "atom":
        rows, _ = gen.locate(site.z_value)
        overlapping = [(int(rows[0]), Fraction(1))]
    else:
        cell, piece_site, weight = gen.pieces
        at = piece_site == site_idx
        weighted = [(int(c), Fraction(float(w))) for c, w in zip(cell[at], weight[at])]
        if not weighted:
            return mass_q
        total = sum(w for _, w in weighted)
        overlapping = [(row, w / total) for row, w in weighted]

    perms = refine_and_shift_cells(gen)
    out = [[Fraction(0)] * nx for _ in range(ny)]
    for row, cell_weight in overlapping:
        xbin_mass = [Fraction(0)] * nx
        for c in perms[row].tolist():
            lo, hi = c * h, (c + 1) * h
            b = max(bisect_right(cum, lo) - 1, 0)
            while b < nx and cum[b] < hi:
                ov = min(hi, cum[b + 1]) - max(lo, cum[b])
                if ov > 0:
                    xbin_mass[b] += ov
                b += 1
        for b in range(nx):
            if colsum[b] == 0:
                continue
            scale = cell_weight * xbin_mass[b] / colsum[b]
            for i in range(ny):
                out[i][b] += scale * mass_q[i][b]
    return out


def replay_replication_error(model, law):
    """Largest exact total-variation gap between the replayed law and ``law``."""
    worst = Fraction(0)
    for i, c in enumerate(law.conditionals):
        induced = replay_induced_conditional(model, i)
        ny, nx = c.mass.shape
        tv = sum(
            abs(induced[r][b] - Fraction(float(c.mass[r, b])))
            for r in range(ny)
            for b in range(nx)
        ) / 2
        worst = max(worst, tv)
    return float(worst)


def eager_table_sample(model, n, seed):
    """``StructuralModel.sample`` with the outcome table built up front.

    The bit-for-bit oracle for the lazy column laws: one ``GridDistribution``
    per (z site, x bin) of positive mass, None otherwise, built before any
    row is drawn, then the same draws and lookups as the model, with the
    latent levels relocated through :func:`refine_and_shift_cells`.
    """
    outcome = []
    for c in model.joint.conditionals:
        cols = []
        colsums = c.mass.sum(axis=0)
        for b in range(c.mass.shape[1]):
            if colsums[b] > 0:
                cols.append(GridDistribution(c.y_edges, c.mass[:, b] / colsums[b]))
            else:
                cols.append(None)
        outcome.append(tuple(cols))
    gen = model.generator
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    u = rng.uniform(size=n)
    v = rng.uniform(size=n)
    z = gen.pz.quantile(rng.uniform(size=n))
    rows, sites = gen.locate(z)
    n_cells = gen.n_u_cells
    idx = np.minimum((u * n_cells).astype(np.int64), n_cells - 1)
    levels = (refine_and_shift_cells(gen)[rows, idx] + (u * n_cells - idx)) / n_cells
    y = np.empty(n)
    x = np.empty(n)
    for si in np.unique(sites):
        at = np.flatnonzero(sites == si)
        x[at] = gen.marginals[si].quantile(levels[at])
        cond = model.joint.conditionals[si]
        xb = np.searchsorted(cond.x_edges, x[at], side="right") - 1
        xb = np.clip(xb, 0, cond.mass.shape[1] - 1)
        for b in np.unique(xb):
            col = outcome[si][b]
            if col is None:
                raise ValidationError("sampled an x bin with zero conditional mass")
            hit = at[xb == b]
            y[hit] = col.quantile(v[hit])
    return np.column_stack([y, x, z])


def pairwise_image_codes(gen):
    """Image-interval codes of every (piece, latent cell), from the pairs themselves.

    An independent oracle for the code matches of ``GeneratorMap.match_table()``:
    it evaluates the ``(lo, hi)`` image interval of every piece at every
    latent cell, through :func:`refine_and_shift_cells`, and codes
    all of them with one ``np.unique`` over the pairs, taken as the complex
    numbers ``lo + i hi``, so two entries share a code exactly when their
    image intervals are equal as real intervals.
    """
    cell, site, _ = gen.pieces
    n = gen.n_u_cells
    grid = np.arange(n + 1) / n
    lo = np.empty((len(cell), n))
    hi = np.empty((len(cell), n))
    perms = refine_and_shift_cells(gen)
    for si in np.unique(site):
        at = site == si
        mapped = perms[cell[at]]
        qs = gen.marginals[si].quantile(grid)
        lo[at] = qs[mapped]
        hi[at] = qs[mapped + 1]
    _, codes = np.unique(lo.ravel() + 1j * hi.ravel(), return_inverse=True)
    return codes.reshape(len(cell), n).astype(np.int32)


def two_search_lookup(gen, z):
    """Cell row and site of every z by two binary searches, one of the cut
    points and one of the positive-mass bins, and one of the atoms, which
    match first; site -1 where no atom or positive-mass bin holds z."""
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    last = max(len(gen.cuts) - 2, 0)
    k = len(gen.atoms)
    rows = k + np.clip(np.searchsorted(gen.cuts, zs, side="right") - 1, 0, last)
    lo, hi, idx = gen._bins
    sites = np.full(zs.shape, -1, dtype=np.int64)
    if len(lo):
        j = np.clip(np.searchsorted(lo, zs, side="right") - 1, 0, len(lo) - 1)
        sites = np.where((zs >= lo[j]) & (zs < hi[j]), idx[j], -1)
    if k:
        j = np.minimum(np.searchsorted(gen.atoms, zs), k - 1)
        hit = gen.atoms[j] == zs
        rows = np.where(hit, j, rows)
        sites = np.where(hit, gen._atom_sites[j], sites)
    return rows, sites


def two_search_locate(gen, z):
    """``GeneratorMap.locate`` by :func:`two_search_lookup`: the oracle for
    the one-search lookup, with the same ``ValidationError`` refusal."""
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    rows, sites = two_search_lookup(gen, zs)
    if np.any(sites < 0):
        raise ValidationError(f"z value {zs[sites < 0][0]} carries no conditional")
    return rows, sites


def pairwise_agreement(gen):
    """Share of latent cells on which each ordered pair of pieces has equal
    :func:`pairwise_image_codes`, shape ``(pieces, pieces)``, one row of
    pairs at a time: the one pass that both pairwise collision oracles read."""
    codes = pairwise_image_codes(gen)
    return np.array([(codes == row).mean(axis=1) for row in codes])


def pairwise_collision_fraction(gen, agree=None):
    """Collision fraction summed over every ordered pair of pieces.

    An independent oracle for ``generator.collision_fraction``: each pair of
    pieces adds its z mass times the share of latent cells on which their
    image intervals agree; a piece paired with itself counts fully on the
    continuum and not at all for an atom.  ``agree`` is
    :func:`pairwise_agreement`, computed here when not given.
    """
    cell, _, w = gen.pieces
    if agree is None:
        agree = pairwise_agreement(gen)
    self_collides = (cell >= len(gen.atoms)).astype(float)
    total = 0.0
    for i in range(len(cell)):
        total += w[i] * float(agree[i] @ w)
        # replace the self term: full collision for continuum, none for atoms
        total += w[i] * w[i] * (self_collides[i] - float(agree[i, i]))
    return float(total)


def pairwise_group_collision_matrix(gen, agree=None):
    """``generator.group_collision_matrix`` summed over piece pairs, one row of
    pairs at a time; ``agree`` as in :func:`pairwise_collision_fraction`."""
    cell, _, weight = gen.pieces
    if agree is None:
        agree = pairwise_agreement(gen)
    labels, group = np.unique(
        ["".join(str(d) for d in address_digits(gen, c)[:1]) for c in cell], return_inverse=True
    )
    G = len(labels)
    mass = np.zeros((G, G))
    hits = np.zeros((G, G))
    for a in range(len(cell)):
        pair = weight[a] * weight
        row = agree[a].copy()
        # the self pair: full collision for continuum, none for atoms
        row[a] = 0.0 if cell[a] < len(gen.atoms) else 1.0
        mass[group[a]] += np.bincount(group, weights=pair, minlength=G)
        hits[group[a]] += np.bincount(group, weights=pair * row, minlength=G)
    out = np.zeros((G, G))
    nz = mass > 0
    out[nz] = hits[nz] / mass[nz]
    return labels.tolist(), out


def pair_quantile_moment(xm1, xm2, ym1, ym2, power):
    """``validity._pair_quantile_moments`` of one pair of laws on their
    one stack: the x laws are rows 0 and 1, the y laws rows 2 and 3."""
    stack = GridStack.of([xm1, xm2, ym1, ym2])
    return _pair_quantile_moments(stack, np.array([[0], [2]]), np.array([[1], [3]]), power)[0]


def segment_loop_quantile_moment(xm1, xm2, ym1, ym2, power):
    """:func:`pair_quantile_moment` one merged-breakpoint segment at a time.

    An independent oracle for the vectorised statistic: it rebuilds the
    Gauss-Legendre rule and makes four ``quantile`` calls per segment, then
    adds the segment's weighted sum to the running total in segment order.
    """
    cums = []
    for d in (xm1, xm2, ym1, ym2):
        _, cl, cr = d._profile
        cums.extend([cl, cr])
    ps = np.unique(np.clip(np.concatenate(cums), 0.0, 1.0))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    total = 0.0
    for a, b in zip(ps[:-1], ps[1:]):
        if b <= a:
            continue
        t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        dx = xm1.quantile(t) - xm2.quantile(t)
        dy = ym1.quantile(t) - ym2.quantile(t)
        vals = (dx * dx + dy * dy) ** (power / 2.0)
        total += 0.5 * (b - a) * float(weights @ vals)
    return total


def loop_profile(dist):
    """``GridDistribution._profile`` one breakpoint at a time, adding each
    atom and then the piece up to the next breakpoint to a running total.

    The byte-for-byte oracle for the one-``cumsum`` profile.
    """
    atom_at = {loc: m for loc, m in dist.atoms}
    locs = np.unique(np.concatenate([dist.edges, np.array(sorted(atom_at))]))
    widths = np.diff(dist.edges)
    cl = np.empty(len(locs))
    cr = np.empty(len(locs))
    cum = 0.0
    for k, x in enumerate(locs):
        cl[k] = cum
        cum += atom_at.get(float(x), atom_at.get(x, 0.0))
        cr[k] = cum
        if k + 1 < len(locs):
            b = int(np.searchsorted(dist.edges, x, side="right")) - 1
            b = min(max(b, 0), len(dist.masses) - 1)
            piece = (locs[k + 1] - x) / widths[b] * dist.masses[b]
            cum += piece
    return locs, cl, cr


def one_pair_winf_distance(a, b):
    """Sup of ``|Q_a(p) - Q_b(p)|`` from each law's own quantile calls, at
    the pair's merged CDF levels, both one-sided limits, and ``p -> 0+``:
    the one-pair oracle for ``winf_distances``."""
    ps = np.unique(np.concatenate([a._profile[1], a._profile[2], b._profile[1], b._profile[2]]))
    ps = ps[(ps > 0.0) & (ps <= 1.0)]
    gap_left = np.max(np.abs(a.quantile(ps) - b.quantile(ps)))
    ps_r = np.concatenate([[0.0], ps])
    gap_right = np.max(np.abs(a.quantile_right(ps_r) - b.quantile_right(ps_r)))
    return float(max(gap_left, gap_right))


def one_pair_fosd_violation(lower, upper):
    """``max_x (F_upper(x) - F_lower(x))``, 0 when dominated, from each law's
    own CDF calls at the pair's merged breakpoints, both one-sided limits:
    the one-pair oracle for ``fosd_violations``."""
    xs = np.unique(np.concatenate([lower._profile[0], upper._profile[0]]))
    v = max(
        float(np.max(upper.cdf(xs) - lower.cdf(xs))),
        float(np.max(upper.cdf_left(xs) - lower.cdf_left(xs))),
    )
    return max(v, 0.0)


def pair_loop_fosd(law, tol):
    """``validity.monotonicity_tests`` of one law, one adjacent z pair at a
    time through :func:`one_pair_fosd_violation`: the per-pair oracle for
    the stacked statistic."""
    xms, yms = law.x_marginals(), law.y_marginals()
    worst, worst_pair = 0.0, -1.0
    for i in range(len(law.z_grid) - 1):
        v = max(
            one_pair_fosd_violation(xms[i], xms[i + 1]),
            one_pair_fosd_violation(yms[i], yms[i + 1]),
        )
        if v > worst:
            worst, worst_pair = v, float(i)
    return TestReport(
        "fosd", worst, tol, {"worst_pair_index": worst_pair, "n_pairs": float(len(law.z_grid) - 1)}
    )


def pair_loop_sure_decrease(law, K):
    """``validity.monotonicity_sure_decrease_tests`` of one law over ordered
    z pairs and coordinates in loops, from each marginal's
    ``support_bounds``."""
    bounds = [(c.x_marginal().support_bounds(), c.y_marginal().support_bounds())
              for c in law.conditionals]
    worst, worst_pair = -np.inf, -1.0
    for i in range(len(bounds)):
        for j in range(i + 1, len(bounds)):
            for axis in (0, 1):
                gap = bounds[i][axis][0] - bounds[j][axis][1]
                if gap > worst:
                    worst, worst_pair = float(gap), float(i)
    return TestReport("sure-decrease", max(worst, 0.0), K, {"worst_low_z_index": worst_pair})


def pair_loop_jump(law, K, z_star):
    """``validity.jump_tests`` of one law, one neighbour at a time through
    :func:`one_pair_winf_distance`."""
    zs = np.asarray(law.z_grid, dtype=float)
    i_star = int(np.where(zs == z_star)[0][0])
    others = sorted((i for i in range(len(zs)) if i != i_star), key=lambda i: abs(zs[i] - z_star))
    xms, yms = law.x_marginals(), law.y_marginals()
    dists, diagnostics = [], {}
    for rank, i in enumerate(others[:3]):
        d = max(
            one_pair_winf_distance(xms[i], xms[i_star]),
            one_pair_winf_distance(yms[i], yms[i_star]),
        )
        dists.append(d)
        diagnostics[f"gap_{rank}"] = float(abs(zs[i] - z_star))
        diagnostics[f"distance_{rank}"] = float(d)
    diagnostics["distance_decreasing_with_gap"] = float(
        all(dists[r] <= dists[r + 1] for r in range(len(dists) - 1))
    )
    return TestReport("jump", min(dists), K, diagnostics)


def pair_loop_moment(law, params):
    """``validity.continuity_moment_statistics`` of one law, one adjacent z
    pair at a time through :func:`segment_loop_quantile_moment`."""
    zs = np.asarray(law.z_grid, dtype=float)
    if len(zs) < 3:
        raise DegenerateGridError("need at least 3 z points for the moment test")
    power, gap_expo = params.moment_exponents()
    xms, yms = law.x_marginals(), law.y_marginals()
    gaps, ratios = [], []
    for i in range(len(zs) - 1):
        gap = float(zs[i + 1] - zs[i])
        moment = segment_loop_quantile_moment(xms[i], xms[i + 1], yms[i], yms[i + 1], power)
        gaps.append(gap)
        ratios.append(moment / gap**gap_expo)
    order = np.argsort(gaps)[:3]
    finest = sorted(order, key=lambda i: gaps[i])
    diagnostics = {"n_pairs": float(len(gaps)), "max_ratio_all": float(max(ratios))}
    for rank, i in enumerate(finest):
        diagnostics[f"gap_{rank}"] = gaps[i]
        diagnostics[f"ratio_{rank}"] = ratios[i]
    diagnostics["ratio_increasing_as_gap_shrinks"] = float(
        all(ratios[finest[r]] >= ratios[finest[r + 1]] for r in range(len(finest) - 1))
    )
    return TestReport("moment", max(ratios[i] for i in order), params.c_bound, diagnostics)


def masked_cdf_eval(dist, x, left: bool):
    """``GridDistribution._cdf_eval`` with boolean masks, scattering the
    below-support, at-or-above-support and interior points separately.

    The bit-for-bit oracle for the one-search kernel.
    """
    B, CL, CR = dist._profile
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    out = np.empty_like(xs)
    below = xs < B[0]
    above = xs >= B[-1]
    out[below] = 0.0
    out[above] = CR[-1] if not left else np.where(xs[above] > B[-1], CR[-1], CL[-1])
    mid = ~below & ~above
    if np.any(mid):
        k = np.searchsorted(B, xs[mid], side="right") - 1
        at_break = xs[mid] == B[k]
        base = np.where(at_break, CL[k] if left else CR[k], 0.0)
        frac = (xs[mid] - B[k]) / (B[k + 1] - B[k])
        interp = CR[k] + frac * (CL[k + 1] - CR[k])
        out[mid] = np.where(at_break, base, interp)
    return float(out[0]) if scalar else out


def masked_quantile_eval(dist, p, strict: bool):
    """``GridDistribution._quantile_eval`` with boolean masks: jump levels and
    interpolated levels are scattered into the output separately.

    The bit-for-bit oracle for the one-search kernel.
    """
    B, CL, CR = dist._profile
    ps = np.asarray(p, dtype=float)
    scalar = ps.ndim == 0
    ps = np.atleast_1d(ps).copy()
    if np.any(ps < -INPUT_TOL) or np.any(ps > 1.0 + INPUT_TOL):
        raise ValidationError("probability level outside [0, 1]")
    np.clip(ps, 0.0, CR[-1], out=ps)
    lo, hi = dist.support_bounds()
    out = np.empty_like(ps)
    side = "right" if strict else "left"
    k = np.searchsorted(CR, ps, side=side)
    k = np.minimum(k, len(B) - 1)
    # jump at B[k] covers p when CL[k] < p <= CR[k] (or <= for strict)
    if strict:
        at_jump = (CL[k] <= ps) & (ps < CR[k])
    else:
        at_jump = (CL[k] < ps) & (ps <= CR[k])
    out[at_jump] = B[k][at_jump]
    rest = ~at_jump
    if np.any(rest):
        kk = k[rest]
        prev = np.maximum(kk - 1, 0)
        denom = CL[kk] - CR[prev]
        safe = denom > 0
        frac = np.zeros_like(denom)
        frac[safe] = (ps[rest][safe] - CR[prev][safe]) / denom[safe]
        vals = B[prev] + frac * (B[kk] - B[prev])
        vals[~safe] = B[kk][~safe]
        out[rest] = vals
    # the level that exhausts the mass is the support's upper end, even
    # when rounding leaves the cumulative mass a few ulps off 1
    out[ps >= (CR[-1] if strict else min(CR[-1], 1.0))] = hi
    out[ps <= 0.0] = lo
    return float(out[0]) if scalar else out


def per_bin_discretize(data, y_bins, x_bins, z_bins):
    """``simulate.discretize`` with one mask and one ``np.histogram2d`` per z bin.

    The bit-for-bit oracle for the one-bincount version.
    """
    for name, b in (("y_bins", y_bins), ("x_bins", x_bins), ("z_bins", z_bins)):
        if b < 2:
            raise ValidationError(f"{name} must be at least 2")
    y, x, z = data.rows[:, 0], data.rows[:, 1], data.rows[:, 2]

    def axis_edges(vals, bins):
        lo, hi = float(vals.min()), float(vals.max())
        if hi <= lo:
            hi = lo + 1.0
        return np.linspace(lo, hi, bins + 1)

    y_edges = axis_edges(y, y_bins)
    x_edges = axis_edges(x, x_bins)
    if float(z.max()) == float(z.min()):
        # constant instrument: a single populated bin is the whole grid
        z_bins = 1
        z_edges = np.array([z.min() - 0.5, z.min() + 0.5])
    else:
        z_edges = axis_edges(z, z_bins)
    zi = np.clip(np.searchsorted(z_edges, z, side="right") - 1, 0, z_bins - 1)
    conds = []
    counts = np.zeros(z_bins)
    for b in range(z_bins):
        mask = zi == b
        counts[b] = mask.sum()
        if counts[b] == 0:
            raise EmptyBinError(f"z bin {b} received no samples")
        mat, _, _ = np.histogram2d(y[mask], x[mask], bins=[y_edges, x_edges])
        conds.append(Conditional2D(y_edges, x_edges, mat / mat.sum()))
    pz = GridDistribution(z_edges, counts / counts.sum())
    z_grid = 0.5 * (z_edges[:-1] + z_edges[1:])
    return JointLaw(z_grid, pz, tuple(conds))


def float_loop_csv_rows(text):
    """The (n, 3) rows of a dataset CSV with every field read by ``float``, in
    one pass, or the ``ValidationError`` that names the bad header or row.
    A header-only text gives (0, 3) rows, which ``Dataset`` refuses."""
    lines = list(filter(None, text.strip().splitlines()))
    if not lines or lines[0].replace(" ", "") != "y,x,z":
        raise ValidationError("dataset CSV must start with header y,x,z")
    body = lines[1:]
    commas = list(map(str.count, body, itertools.repeat(",")))
    if commas.count(2) != len(body):
        i = next(i for i, c in enumerate(commas) if c != 2)
        raise ValidationError(f"malformed dataset row {i + 1}: need 3 fields, got {body[i]!r}")
    try:
        flat = np.fromiter(map(float, ",".join(body).split(",")), float, 3 * len(body))
    except ValueError:
        for i, row in enumerate(body, 1):
            try:
                list(map(float, row.split(",")))
            except ValueError as exc:
                raise ValidationError(f"malformed dataset row {i}: {exc}") from exc
        raise
    return flat.reshape(-1, 3)


def assert_tuple_plan(laws, tuples, weights, atol):
    """Check a plan over value tuples against the laws it must reproduce.

    Each tuple has pairwise-distinct values, the weights are a probability
    vector, there are at most ``(support - 1)**2 + 1`` terms, and the
    coordinate marginals equal ``laws`` within ``atol``.
    """
    laws = np.asarray(laws, dtype=float)
    weights = np.asarray(weights, dtype=float)
    m, support = laws.shape
    assert all(len(set(t)) == m for t in tuples)
    assert np.all(weights >= 0.0)
    assert float(weights.sum()) == pytest.approx(1.0, abs=1e-12)
    assert len(tuples) == len(weights) <= (support - 1) ** 2 + 1
    got = np.zeros((m, support))
    for t, w in zip(tuples, weights):
        got[np.arange(m), list(t)] += w
    np.testing.assert_allclose(got, laws, rtol=0.0, atol=atol)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

"""Testable implications of instrument validity.

Discrete treatments admit sharp checks.  A one-to-one first stage exists iff a
transport plan with pairwise-distinct coordinates fits the observed
conditionals, which holds iff they stack at most unit mass on every value:
the bipartite matching polytope's vertices are exactly the injective tuples
(Koenig 1916; Birkhoff 1946), and a Birkhoff decomposition gives the plan.
Pearl's instrumental inequality bounds what any valid model can produce.
Continuous treatments admit no check without restrictions, so the remaining
tests here presuppose either Hoelder-continuity constants or monotone
first/second stages and reject observed laws that no model in the
restricted class can generate.

Each statistic of joint laws is one function of a ``LawBatch`` that
reports on every law of the batch; one law is ``law.batch``.
``make_test(name, **params)`` binds a statistic to its constants, and
refuses bad constants before any law is seen.  ``instrumental_inequality``
and ``feasibility_report`` take raw conditionals instead.

The cross-z joint coupling of the observed process is not identified from
the data, so every process-level statistic below is evaluated under the
comonotone (common quantile level) coupling, coordinate by coordinate.  In
one dimension that coupling minimizes both almost-sure and moment distances,
hence each statistic lower-bounds its value under every coupling consistent
with the data and a rejection is valid for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateGridError, ValidationError
from .measures import (
    INPUT_TOL,
    GridStack,
    JointLaw,
    LawBatch,
    _distinct_levels,
    _pair_entries,
    fosd_violations,
    winf_distances,
)

# 16-point Gauss-Legendre rule on [-1, 1] for the moment statistic
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _require_positive(what: str, value: float) -> None:
    """Refuse a constant that is not positive and finite; NaN fails too."""
    if not 0 < value < math.inf:
        raise ValidationError(f"{what} must be positive and finite, not {value}")


@dataclass(frozen=True)
class ContinuityParams:
    """Hoelder constants of the two stages and the derived rejection bound.

    ``alpha``/``ky``/``beta`` bound the outcome stage moments, ``gamma``/
    ``kx``/``delta`` the first stage.  The package is one-dimensional, so
    the common dimension of the two stages is 1.  ``c_bound`` defaults to
    the constant delivered by the Pythagorean bound on the joint process,
    2 * max(ky * kx**(beta/alpha), ky * kx).  Every constant must be
    positive and finite, or ``ValidationError`` is raised.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    ky: float = 1.0
    kx: float = 1.0
    c_bound: float | None = None

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta", "ky", "kx"):
            _require_positive(name, getattr(self, name))
        if self.c_bound is None:
            c = 2.0 * max(self.ky * self.kx ** (self.beta / self.alpha), self.ky * self.kx)
            object.__setattr__(self, "c_bound", c)
        _require_positive("c_bound", self.c_bound)

    def moment_exponents(self) -> tuple[float, float]:
        """(moment power, gap power) for the path-regularity moment ratio.

        With beta <= alpha the joint path regularity is beta*gamma /
        (2*alpha*delta), certified by moments of order 2*alpha*delta against
        gap**(1 + beta*gamma); otherwise the first stage binds and the pair
        is (2*delta, 1 + gamma).
        """
        if self.beta <= self.alpha:
            return 2.0 * self.alpha * self.delta, 1 + self.beta * self.gamma
        return 2.0 * self.delta, 1 + self.gamma


@dataclass(frozen=True)
class TestReport:
    """Outcome of one validity check; reject iff statistic > threshold, strictly."""

    __test__ = False  # not a pytest class

    test_name: str
    statistic: float
    threshold: float
    diagnostics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "statistic", float(self.statistic))
        object.__setattr__(self, "threshold", float(self.threshold))
        diag = {k: float(v) for k, v in self.diagnostics.items()}
        object.__setattr__(self, "diagnostics", diag)

    @property
    def decision(self) -> str:
        return "reject" if self.statistic > self.threshold else "consistent"

    def to_json_dict(self) -> dict:
        return {
            "test": self.test_name,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "decision": self.decision,
            "diagnostics": self.diagnostics,
        }

    def csv_row(self) -> str:
        return f"{self.test_name},{self.statistic!r},{self.threshold!r},{self.decision}"


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Witness that no distinct-coordinate transport plan exists."""

    x_index: int
    excess: float
    reason: str


@dataclass(frozen=True, eq=False)
class TupleCoupling:
    """A transport plan over pairwise-distinct value tuples, one axis per z point."""

    tuples: tuple[tuple[int, ...], ...]
    weights: np.ndarray


# ---------------------------------------------------------------------------
# Discrete treatment
# ---------------------------------------------------------------------------


def _check_discrete_law(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or len(p) == 0:
        raise ValidationError(f"{name} must be a non-empty vector")
    if np.any(p < -INPUT_TOL):
        raise ValidationError(f"{name} has negative entries")
    if abs(float(p.sum()) - 1.0) > INPUT_TOL:
        raise ValidationError(f"{name} does not sum to 1")
    return np.clip(p, 0.0, None)


def minimal_collision_mass(p: Sequence[float], q: Sequence[float]) -> float:
    """Minimum over couplings of P(X1 = X2): sum_x max(0, p(x) + q(x) - 1)."""
    pa = _check_discrete_law(np.asarray(p), "p")
    qa = _check_discrete_law(np.asarray(q), "q")
    if len(pa) != len(qa):
        raise ValidationError("p and q must share a support")
    return float(np.maximum(pa + qa - 1.0, 0.0).sum())


def _birkhoff_tuples(p: np.ndarray) -> TupleCoupling:
    """Decompose a feasible ``(m, support)`` marginal matrix into distinct-value tuples.

    ``support - m`` slack rows pad ``p`` to a doubly stochastic matrix: the
    slack ``1 - column sum`` is cut north-west-corner into consecutive unit
    rows, which keeps the matrix sparse.  Each step peels the permutation
    that ``linear_sum_assignment`` finds on the entries above ``INPUT_TOL``,
    with the weight of its smallest entry, and zeroes that entry; the peel
    ends within ``(support - 1)**2 + 1`` terms.  A tuple is a permutation's
    first ``m`` coordinates.
    """
    # imported here, not at module level: loading scipy would triple the
    # start-up time of every command that builds no witness
    from scipy.optimize import linear_sum_assignment

    m, support = p.shape
    slack = np.clip(1.0 - p.sum(axis=0), 0.0, None)
    cum = np.concatenate([[0.0], np.cumsum(slack)])
    unit = np.arange(support - m)[:, None]
    fill = np.clip(np.minimum(cum[1:], unit + 1) - np.maximum(cum[:-1], unit), 0.0, None)
    d = np.vstack([p, fill])
    tuples, weights = [], []
    while True:
        rows, cols = linear_sum_assignment(d <= INPUT_TOL)
        entries = d[rows, cols]
        k = int(np.argmin(entries))
        if entries[k] <= INPUT_TOL:
            break
        d[rows, cols] -= entries[k]
        d[rows[k], cols[k]] = 0.0
        tuples.append(tuple(int(x) for x in cols[:m]))
        weights.append(entries[k])
    w = np.array(weights)
    return TupleCoupling(tuple(tuples), w / w.sum())


def _column_check(
    conditionals: Sequence[Sequence[float]], weights: Sequence[float] | None = None
) -> tuple[np.ndarray, InfeasibilityCertificate | None]:
    """The checked ``(m, support)`` matrix of conditionals, and the
    certificate naming the value with the largest column sum when some
    column sum exceeds 1, else None."""
    laws = [np.asarray(c, dtype=float) for c in conditionals]
    m = len(laws)
    if m < 2:
        raise ValidationError("need at least two z points")
    support = len(laws[0])
    for i, p in enumerate(laws):
        laws[i] = _check_discrete_law(p, f"conditional {i}")
        if len(p) != support:
            raise ValidationError("conditionals must share a support")
    if weights is not None:
        _check_discrete_law(np.asarray(weights, dtype=float), "weights")
        if len(weights) != m:
            raise ValidationError("need one weight per z point")
    p = np.array(laws)
    excess = p.sum(axis=0) - 1.0
    worst = int(np.argmax(excess))
    if excess[worst] > INPUT_TOL:
        return p, InfeasibilityCertificate(
            worst,
            float(excess[worst]),
            f"conditionals stack {1 + excess[worst]:.6g} > 1 on value {worst}",
        )
    return p, None


def discrete_generator_feasible(
    conditionals: Sequence[Sequence[float]], weights: Sequence[float] | None = None
):
    """Decide whether a one-to-one first stage exists for discrete treatments.

    Existence is equivalent to a transport plan over tuples of pairwise
    distinct support values whose coordinate marginals are the observed
    conditionals.  Such a plan exists iff the conditionals stack at most
    unit mass on every value, ``sum_z p_z(x) <= 1``: the matrix of
    conditionals must then lie in the bipartite matching polytope, whose
    vertices are exactly the injective tuples (Koenig 1916; Birkhoff 1946).
    The certificate names the value with the largest column sum; the witness
    is a Birkhoff decomposition of the matrix padded to doubly stochastic.
    Only the witness loads scipy (``linear_sum_assignment``), on first use.

    Returns ``(True, TupleCoupling)`` or ``(False, InfeasibilityCertificate)``.
    """
    p, certificate = _column_check(conditionals, weights)
    if certificate is not None:
        return False, certificate
    return True, _birkhoff_tuples(p)


def witness_report(witness) -> TestReport:
    """Statistic 1 for an infeasibility certificate, else 0, against threshold 0.

    Diagnostics: ``excess`` (0 when feasible) and the certificate's ``x_index``.
    """
    diagnostics = {"excess": 0.0}
    infeasible = isinstance(witness, InfeasibilityCertificate)
    if infeasible:
        diagnostics["excess"] = witness.excess
        diagnostics["x_index"] = witness.x_index
    return TestReport("feasibility", float(infeasible), 0.0, diagnostics)


def feasibility_report(conditionals: Sequence[Sequence[float]]) -> TestReport:
    """Reject iff no one-to-one first stage fits the discrete conditionals.

    Decided from the column sums alone; no witness is built."""
    return witness_report(_column_check(conditionals)[1])


def instrumental_inequality(conditionals: Sequence[np.ndarray]) -> TestReport:
    """Pearl's instrumental inequality for finite (y, x, z).

    Statistic: max over x of sum over y of max over z of P(y, x | z).  Any
    law generated by a valid-instrument model keeps it at or below 1.
    """
    mats = [np.asarray(c, dtype=float) for c in conditionals]
    if len(mats) < 1:
        raise ValidationError("need at least one conditional")
    shape = mats[0].shape
    for i, m in enumerate(mats):
        if m.ndim != 2 or m.shape != shape:
            raise ValidationError("conditionals must be matrices of equal shape")
        _check_discrete_law(m.ravel(), f"conditional {i}")
    return _pearl_reports(np.stack(mats), [0])[0]


def instrumental_inequalities(batch: LawBatch) -> list[TestReport]:
    """:func:`instrumental_inequality` of every law of ``batch``, from its
    conditionals' mass matrices, which are checked laws already.

    The laws whose matrices share a shape are stacked as one ``(sites, y,
    x)`` array: one maximum over each law's sites and one sum over y serve
    them all, with the float of a one-law call.
    """
    shapes = []
    for law in batch.laws:
        shape = law.conditionals[0].mass.shape
        if any(c.mass.shape != shape for c in law.conditionals):
            raise ValidationError("conditionals must be matrices of equal shape")
        shapes.append(shape)
    reports: list[TestReport | None] = [None] * len(shapes)
    for group in _groups(shapes):
        conds = [batch.laws[i].conditionals for i in group]
        mats = np.stack([c.mass for cs in conds for c in cs])
        starts = np.cumsum([0] + [len(cs) for cs in conds[:-1]])
        for i, report in zip(group, _pearl_reports(mats, starts)):
            reports[i] = report
    return reports


def _pearl_reports(mats: np.ndarray, starts) -> list[TestReport]:
    """The Pearl report of every law whose conditionals are the ``(y, x)``
    slices ``starts[l]:starts[l + 1]`` of the ``(sites, y, x)`` stack
    ``mats``: one maximum over each law's sites, one sum over y."""
    per_x = np.maximum.reduceat(mats, starts, axis=0).sum(axis=1)
    worst = np.argmax(per_x, axis=1)
    return [
        TestReport("pearl", float(row[k]), 1.0, {"worst_x_index": float(k)})
        for row, k in zip(per_x, worst.tolist())
    ]


def _groups(keys: Sequence) -> list[list[int]]:
    """The positions of equal keys, one list per key in first-seen order."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


# ---------------------------------------------------------------------------
# Continuity-based tests
# ---------------------------------------------------------------------------


def _pair_quantile_moments(
    stack: GridStack, first: np.ndarray, second: np.ndarray, power: float
) -> list[float]:
    """E[((Qx1-Qx2)^2 + (Qy1-Qy2)^2)^(power/2)] under the common-level
    coupling for every pair ``i``: the x rows ``first[0, i]`` (1) and
    ``second[0, i]`` (2) and the y rows ``first[1, i]`` and ``second[1, i]``
    of ``stack`` (see :meth:`LawBatch.rows`).

    The four quantile functions of a pair are piecewise linear between their
    merged CDF breakpoints, so on each segment the integrand is a function of
    two linear displacements.  16-point Gauss-Legendre quadrature per segment
    is exact (to rounding) when that function is a polynomial of degree at
    most 31, as for even integer powers up to 30.  Otherwise it is
    approximate.  Where ``dx`` or ``dy`` changes sign inside a segment the
    integrand has a kink: with one kink at the middle of a single segment the
    error is 2.5e-3 at power 0.5 and 3.8e-4 at power 1.

    The nodes of every segment of every pair, on both axes, take one
    :meth:`GridStack.quantile_sorted` call: a segment lies between
    consecutive levels of its pair, so its nodes mostly share one rank.
    Every segment's weighted sum is the 1-D dot ``_GL_WEIGHTS @ v``:
    ``np.vecdot`` of each row with the weights calls that same dot.  A
    batched ``vals @ w``, ``einsum`` or ``(v * w).sum`` does not: each
    rounds differently on a fifth to a third of random 16-vectors, which
    would move the seeded simulate output.  A tier-1 test pins ``vecdot``
    to the 1-D dot bit for bit on random rows at scales 1e-10 to 1e10.
    Each pair's total adds its segments' sums to 0.0 in segment order, as
    ``np.add.at`` accumulates repeated indices, and as a loop over the
    segments would.
    """
    n = first.shape[1]
    lev, pair = _pair_entries(stack, first.ravel(), second.ravel(), (stack.CL, stack.CR))
    # a pair's x and y levels merge
    ps, pair = _distinct_levels(np.clip(lev, 0.0, 1.0), pair % n)
    # the segments between a pair's consecutive distinct levels
    inside = pair[1:] == pair[:-1]
    a, b, seg_pair = ps[:-1][inside], ps[1:][inside], pair[1:][inside]
    half = 0.5 * (b - a)
    t = half[:, None] * _GL_NODES + (0.5 * (a + b))[:, None]
    # x1, x2, y1, y2 of every segment
    rows = np.stack([first[:, seg_pair], second[:, seg_pair]], axis=1).ravel()
    q = stack.quantile_sorted(rows, np.tile(t, (4, 1))).reshape(4, len(half), len(_GL_NODES))
    dx, dy = q[0] - q[1], q[2] - q[3]
    vals = (dx * dx + dy * dy) ** (power / 2.0)
    totals = np.zeros(n)
    np.add.at(totals, seg_pair, half * np.vecdot(vals, _GL_WEIGHTS))
    return totals.tolist()


def _adjacent_pairs(batch: LawBatch) -> tuple[np.ndarray, np.ndarray]:
    """The lower stack row of every adjacent z pair of every law of
    ``batch``, law after law, and where each law's pairs start (one more
    entry, the number of pairs)."""
    lower = np.delete(np.arange(batch.offsets[-1]), batch.offsets[1:] - 1)
    return lower, batch.offsets - np.arange(len(batch.offsets))


def continuity_moment_statistics(batch: LawBatch, params: ContinuityParams) -> list[TestReport]:
    """Moment-ratio check of path regularity between neighbouring z values,
    one report per law of ``batch``.

    For every adjacent z pair the comonotone moment of the joint displacement
    is divided by the gap raised to the certifying exponent; the statistic is
    the worst ratio among the three smallest gaps, standing in for the limit
    as the gap shrinks.  Rejection (statistic above ``c_bound``) means no
    model with the given constants can generate the law.

    The moments of all adjacent z pairs of all laws, on both axes, take one
    quantile call on the batch's stack.  Refuses the first law with fewer
    than 3 z points."""
    for law in batch.laws:
        if len(law.z_grid) < 3:
            raise DegenerateGridError("need at least 3 z points for the moment test")
    power, gap_expo = params.moment_exponents()
    lower, first = _adjacent_pairs(batch)
    moments = _pair_quantile_moments(batch.stack, batch.rows(lower), batch.rows(lower + 1), power)
    reports = []
    for law, a in zip(batch.laws, first.tolist()):
        gaps = np.diff(np.asarray(law.z_grid, dtype=float)).tolist()
        # Python's float power: numpy's rounds differently on many gaps
        ratios = [m / g**gap_expo for m, g in zip(moments[a : a + len(gaps)], gaps)]
        finest = np.argsort(gaps)[:3]  # the three smallest gaps, in gap order
        statistic = max(ratios[i] for i in finest)
        diagnostics = {"n_pairs": float(len(gaps)), "max_ratio_all": float(max(ratios))}
        for rank, i in enumerate(finest):
            diagnostics[f"gap_{rank}"] = gaps[i]
            diagnostics[f"ratio_{rank}"] = ratios[i]
        # ratios growing as gaps shrink signal divergence of the limit
        trend = all(
            ratios[finest[r]] >= ratios[finest[r + 1]] for r in range(len(finest) - 1)
        )
        diagnostics["ratio_increasing_as_gap_shrinks"] = float(trend)
        reports.append(TestReport("moment", statistic, params.c_bound, diagnostics))
    return reports


def jump_tests(batch: LawBatch, K: float, z_star: float | None) -> list[TestReport]:
    """Detect an almost-sure jump of size above K at ``z_star``, or at each
    law's largest grid point when it is None, one report per law of
    ``batch``.

    For the nearest grid neighbours of ``z_star`` the statistic is the
    smallest coordinate-wise comonotone a.s. displacement bound; it exceeding
    K means the displacement stays above K as the gap shrinks, which no
    continuous-path model allows under the maintained constants.

    The distances of all laws' neighbour pairs, on both axes, take one
    quantile call on the batch's stack.  Refuses the first law that
    ``z_star`` does not fit."""
    _require_positive("K", K)
    nearest, star, gaps = [], [], []
    for law, offset in zip(batch.laws, batch.offsets.tolist()):
        zs = np.asarray(law.z_grid, dtype=float)
        at = float(np.max(zs)) if z_star is None else z_star
        hits = np.where(zs == at)[0]
        if len(hits) != 1:
            raise ValidationError("z_star must be a z-grid point")
        i_star = int(hits[0])
        others = [i for i in range(len(zs)) if i != i_star]
        if not others:
            raise DegenerateGridError("z_star has no neighbours")
        others.sort(key=lambda i: abs(zs[i] - at))
        nearest.extend(offset + i for i in others[:3])
        star.extend([offset + i_star] * len(others[:3]))
        gaps.append([float(abs(zs[i] - at)) for i in others[:3]])
    nearest, star = np.array(nearest), np.array(star)
    dists = winf_distances(batch.stack, batch.rows(nearest).ravel(), batch.rows(star).ravel())
    dists = np.maximum(*dists.reshape(2, -1)).tolist()
    reports, k = [], 0
    for law_gaps in gaps:
        d, k = dists[k : k + len(law_gaps)], k + len(law_gaps)
        diagnostics = {}
        for rank, (g, dist) in enumerate(zip(law_gaps, d)):
            diagnostics[f"gap_{rank}"] = g
            diagnostics[f"distance_{rank}"] = dist
        diagnostics["distance_decreasing_with_gap"] = float(
            all(d[r] <= d[r + 1] for r in range(len(d) - 1))
        )
        reports.append(TestReport("jump", min(d), K, diagnostics))
    return reports


# ---------------------------------------------------------------------------
# Monotonicity-based tests
# ---------------------------------------------------------------------------


def monotonicity_tests(batch: LawBatch, tol: float) -> list[TestReport]:
    """Check first-order stochastic dominance of both marginals along z, one
    report per law of ``batch``.

    A model with monotone stages moves the whole conditional law upward in z,
    so any adjacent pair with F_{z2}(x) > F_{z1}(x) + tol (in x or y) is a
    violation; the statistic is the largest such CDF excess.

    All adjacent z pairs of all laws, on both axes, take one CDF call on the
    batch's stack."""
    if not math.isfinite(tol):
        raise ValidationError(f"tol must be finite, not {tol}")
    lower, first = _adjacent_pairs(batch)
    v = fosd_violations(batch.stack, batch.rows(lower).ravel(), batch.rows(lower + 1).ravel())
    v = np.maximum(*v.reshape(2, -1))
    reports = []
    for a, b in zip(first[:-1].tolist(), first[1:].tolist()):
        # the first pair attaining the largest positive violation, or none
        worst, worst_pair = 0.0, -1.0
        if b > a and v[a:b].max() > 0.0:
            worst_pair = float(np.argmax(v[a:b]))
            worst = float(v[a:b].max())
        reports.append(
            TestReport("fosd", worst, tol, {"worst_pair_index": worst_pair, "n_pairs": float(b - a)})
        )
    return reports


def monotonicity_sure_decrease_tests(batch: LawBatch, K: float) -> list[TestReport]:
    """Reject when some coordinate surely falls by more than K as z rises,
    one report per law of ``batch``.

    If the entire support at the larger z sits more than K below the entire
    support at the smaller z, every coupling realizes the decrease with
    probability one, contradicting monotone stages.  The statistic is the
    largest such support gap over ordered z pairs and coordinates.

    Computed from the support bounds of the batch's stack.  Refuses the
    first law with fewer than 2 z points."""
    _require_positive("K", K)
    for law in batch.laws:
        if len(law.z_grid) < 2:
            raise DegenerateGridError("need at least 2 z points")
    # lo[s, axis] and hi[s, axis] bound site s's support on that axis.  The
    # laws with z z-points are evaluated together: gap[l, i, j, axis] for
    # i < j, in that order, so argmax names law l's first pair attaining its
    # worst gap
    lo, hi = (b.reshape(2, -1).T for b in batch.stack.support_bounds())
    sizes = [len(law.z_grid) for law in batch.laws]
    reports: list[TestReport | None] = [None] * len(sizes)
    for group in _groups(sizes):
        z = sizes[group[0]]
        rows = batch.offsets[group][:, None] + np.arange(z)
        gap = lo[rows][:, :, None, :] - hi[rows][:, None, :, :]
        below = np.tril_indices(z)
        gap[:, below[0], below[1]] = -np.inf
        gap = gap.reshape(len(group), -1)
        flat = np.argmax(gap, axis=1)
        worst = gap[np.arange(len(group)), flat].tolist()
        for i, w, f in zip(group, worst, flat.tolist()):
            reports[i] = TestReport(
                "sure-decrease", max(w, 0.0), K, {"worst_low_z_index": float(f // (2 * z))}
            )
    return reports


# ---------------------------------------------------------------------------
# Named test registry (shared by the harness and the CLI)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Runner:
    """A registered test bound to its checked parameters, as
    :func:`make_test` builds it: ``runner.batch(laws)`` is the report of
    every law of a :class:`LawBatch`, in law order, and ``runner(law)`` one
    law's report, from its one-law batch."""

    batch: Callable[[LawBatch], list[TestReport]]

    def __call__(self, law: JointLaw) -> TestReport:
        return self.batch(law.batch)[0]


# Each build refuses bad constants before any law is seen.


def _sure_decrease(K):
    _require_positive("K", K)
    return lambda laws: monotonicity_sure_decrease_tests(laws, K)


def _jump(K, z_star):
    _require_positive("K", K)
    return lambda laws: jump_tests(laws, K, z_star)


def _moment(**params):
    cp = ContinuityParams(**params)
    return lambda laws: continuity_moment_statistics(laws, cp)


def _run_feasibility(law: JointLaw) -> TestReport:
    xs = [c.x_marginal().masses for c in law.conditionals]
    return feasibility_report([m / m.sum() for m in xs])


# name -> (parameter defaults, build(**params) -> batch runner(LawBatch)).
# Runners look the batch functions up as module globals at call time, so a
# wrapper installed on ``ivtest.validity.<function>`` sees every call.
REGISTRY = {
    "fosd": ({"tol": 0.0}, lambda tol: lambda laws: monotonicity_tests(laws, tol)),
    "sure-decrease": ({"K": 1.0}, _sure_decrease),
    "jump": ({"K": 1.0, "z_star": None}, _jump),
    "pearl": ({}, lambda: lambda laws: instrumental_inequalities(laws)),
    "moment": (
        {"alpha": 2.0, "beta": 1.0, "gamma": 2.0, "delta": 1.0, "ky": 1.0, "kx": 1.0},
        _moment,
    ),
    "feasibility": ({}, lambda: lambda laws: [_run_feasibility(law) for law in laws.laws]),
}


def make_test(name: str, **params):
    """Build a ``(name, Runner)`` pair for a registered test: the runner
    takes one ``JointLaw`` to its ``TestReport``, and its ``batch`` takes a
    ``LawBatch`` to one report per law.

    Parameters not given take the defaults in ``REGISTRY``; ``jump``'s
    ``z_star`` defaults to each law's largest grid point.  Unknown names,
    unknown parameters, bools, values that are not finite numbers and
    constants the test refuses (a ``K`` or moment constant that is not
    positive) raise ``ValidationError`` here, before any law is seen.
    """
    if not isinstance(name, str) or name not in REGISTRY:
        raise ValidationError(f"unknown test name {name!r}")
    defaults, build = REGISTRY[name]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValidationError(f"unknown parameters for test {name!r}: {unknown}")
    bound = dict(defaults)
    for key, value in params.items():
        if value is None and defaults[key] is None:
            continue
        if isinstance(value, (bool, np.bool_)):  # float(True) would be 1.0
            raise ValidationError(
                f"parameter {key!r} of test {name!r} must be a number, not {value!r}"
            )
        try:
            bound[key] = float(value)
        except (TypeError, ValueError, OverflowError) as exc:  # an int past the float range
            raise ValidationError(f"parameter {key!r} of test {name!r}: {exc}") from exc
        if not math.isfinite(bound[key]):
            raise ValidationError(f"parameter {key!r} of test {name!r} must be finite, not {value}")
    return name, Runner(build(**bound))

"""Discretized probability measures on the real line.

A grid distribution is piecewise uniform over bins plus an optional list of
point masses.  Its CDF is therefore piecewise linear with jumps, and every
operation in this module (quantiles, the sup-quantile distance,
stochastic-dominance violations) is computed from that exact profile rather
than by sampling.  Downstream constructions rely on this measure arithmetic being
reproducible to float precision.  Many laws stack into one ``GridStack``,
whose kernel evaluates every point against its own law in one call, bit for
bit as a call on that law alone.  Every stack is ``GridStack.of`` over laws:
a ``LawBatch`` stacks the cached x and y marginals of many joint laws'
conditionals as one stack, x rows first.

Conventions fixed here and used everywhere else:

* intervals and cells are half open ``[a, b)``, so every point belongs to
  exactly one cell of a partition;
* the quantile function is the generalized inverse ``Q(p) = inf {x: F(x) >= p}``
  with linear interpolation inside bins;
* normalization of user inputs is checked at ``INPUT_TOL``;
* a law is checked once, where it enters: by the constructors of
  ``GridDistribution`` and ``Conditional2D``, and of ``JointLaw`` through
  ``sites_of``, which the ``from_json_dict`` readers call.  What is built
  from checked laws (a ``GridStack``, a ``LawBatch``, a generator's tables)
  checks them no further, and neither do the laws counted inside the
  package: a marginal summed from a checked conditional, and a conditional
  of cell counts divided by their sum, go through ``_of_checked``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ValidationError

INPUT_TOL = 1e-9

# Largest table a stack of grid laws, a generator or its collision accounting
# may allocate, in entries.  A stack of several laws holds one table slot per
# breakpoint and one more per law, and a statistic over pairs of its rows
# gathers the profile entries of every pair.  A stacked call over given points
# allocates in proportion to them, as a one-law call does, and is not capped.
# The generator counts the interval codes of every site at every latent cell,
# and collision accounting's matched code pairs and their gather.  The codes
# are refused when the generator is built, so every generator that builds can
# be accounted unless its marginals match across many classes; on an 8-site
# arity-2 law that is up to depth 19.
MAX_CELL_ENTRIES = 2**24


def _as_readonly(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _require_finite(what: str, values: np.ndarray) -> None:
    """Refuse NaN and infinities, which slip past every order comparison."""
    if not np.isfinite(values).all():
        at = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
        index = at[0] if len(at) == 1 else at
        raise ValidationError(f"{what} must be finite: {values[at]} at index {index}")


def _require_int(what: str, value, least: int) -> int:
    """``value`` as a plain ``int``; a bool, a non-integer or a value below
    ``least`` raises ``ValidationError``.  NumPy integers are accepted and
    converted, so what is built from the result writes to JSON."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer: {value!r}")
    if value < least:
        raise ValidationError(f"{what} must be at least {least}: {value!r}")
    return int(value)


def _latent_ranks(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``n`` uniform ranks of each of u, v and z, drawn in this order
    from ``seed``'s stream, which fixes the bits of every seeded sample.
    ``n`` must be a positive and ``seed`` a non-negative integer."""
    n = _require_int("n", n, 1)
    rng = np.random.default_rng(np.random.SeedSequence((_require_int("seed", seed, 0),)))
    return rng.uniform(size=n), rng.uniform(size=n), rng.uniform(size=n)


def _require_increasing(what: str, edges: np.ndarray) -> None:
    """Refuse edges that are not finite and strictly increasing.  Increasing
    edges with finite ends are all finite, so the element-wise finite check
    runs only when that fails, to name the value."""
    if not (np.all(np.diff(edges) > 0) and math.isfinite(edges[0]) and math.isfinite(edges[-1])):
        _require_finite(what, edges)
        raise ValidationError(f"{what} must be strictly increasing")


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray, what: str) -> np.ndarray:
    """``arange(s, s + l)`` for every paired start and length, concatenated.
    Raises ``ValidationError``, naming the gather ``what``, before allocating
    when the result would exceed ``MAX_CELL_ENTRIES`` entries."""
    total = int(lengths.sum())
    _refuse_oversize(total, what)
    skip = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.repeat(starts, lengths) + np.arange(total) - skip


def _refuse_oversize(entries: int, what: str) -> None:
    if entries > MAX_CELL_ENTRIES:
        raise ValidationError(f"{what} needs {entries} entries, more than {MAX_CELL_ENTRIES}")


def _row_keys(rows, values) -> np.ndarray:
    """``rows + 1j * values`` pointwise, set part by part: the product would
    turn an infinite value into a NaN real part.  NumPy orders complex
    numbers by real part and then by imaginary part, so in a search of such
    keys every value meets only the entries of its own row."""
    keys = np.empty(np.shape(values), dtype=np.complex128)
    keys.real = rows
    keys.imag = values
    return keys


def _scalar(out: np.ndarray) -> np.ndarray | float:
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Exact CDF profiles, one law or a stack of them
# ---------------------------------------------------------------------------


class GridStack:
    """The CDF profiles of ``R`` grid laws, stacked flat, and the one exact
    kernel that evaluates their quantiles and CDFs.

    Row ``r`` holds the breakpoints ``B`` and left/right CDF values ``CL``/``CR``
    of law ``r`` (see :attr:`GridDistribution._profile`) at the flat positions
    ``starts[r]:starts[r + 1]``; rows may differ in length.  ``quantile(rows,
    p)`` and ``cdf(rows, x)`` take one row index per point and evaluate the
    whole batch in one pass, with the same arithmetic per element as a call
    on one law, so every value keeps its bits.  Each point is searched
    against its own row exactly, with no float offset to round a tie away
    (see :meth:`_rank`); :meth:`quantile_sorted` searches lines of sorted
    levels at their ends.  A :class:`GridDistribution` is the one-row stack,
    called with ``rows`` None, which searches its only row directly.  Tables
    are built on first use.
    """

    def __init__(self, B: np.ndarray, CL: np.ndarray, CR: np.ndarray, starts: np.ndarray):
        self.B, self.CL, self.CR = B, CL, CR
        self.starts = np.asarray(starts, dtype=np.intp)

    @classmethod
    def of(cls, laws: Sequence["GridDistribution"]) -> "GridStack":
        """The stack of ``laws``, row ``r`` being ``laws[r]``.  Raises
        ``ValidationError``, before stacking, when its tables would exceed
        ``MAX_CELL_ENTRIES`` entries."""
        profiles = [d._profile for d in laws]
        lengths = [len(B) for B, _, _ in profiles]
        _refuse_oversize(sum(lengths) + len(lengths), "a stack of grid laws")
        B, CL, CR = (np.concatenate(col) for col in zip(*profiles))
        return cls(B, CL, CR, np.concatenate([[0], np.cumsum(lengths)]))

    # -- layout -------------------------------------------------------------

    @cached_property
    def _length(self) -> np.ndarray:
        return np.diff(self.starts)

    @cached_property
    def _slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row, position within the row and profile entry of every table slot.

        A row of ``L`` breakpoints has ``L + 1`` slots, so row ``r``'s slots
        start at ``starts[r] + r``; slot ``s`` reads entry ``min(s, L - 1)``.
        """
        length = self._length
        row = np.repeat(np.arange(len(length)), length + 1)
        s = np.arange(len(row)) - (self.starts[:-1] + np.arange(len(length)))[row]
        return row, s, self.starts[row] + np.minimum(s, length[row] - 1)

    def _keys(self, values: np.ndarray) -> np.ndarray:
        """The search keys of a profile column: ``row + 1j * value`` per entry
        (see :func:`_row_keys`), sorted since each row is."""
        return _row_keys(np.repeat(np.arange(len(self._length)), self._length), values)

    @cached_property
    def _cr_keys(self) -> np.ndarray:
        return self._keys(self.CR)

    @cached_property
    def _b_keys(self) -> np.ndarray:
        return self._keys(self.B)

    def _rank(self, keys, rows, v, strict=True) -> np.ndarray:
        """Per point, the number of its row's entries in ``keys`` (see
        :meth:`_keys`) below ``v``, or at or below it when ``strict`` (for
        all points or one flag per point), as ``np.searchsorted`` counts them
        on the row alone; NaN lies above everything.  The point's key
        ``row + 1j * v`` is compared with its own row's entries only, so a tie
        is decided exactly."""
        point = _row_keys(rows, v)
        if strict is True or strict is False:
            k = np.searchsorted(keys, point, side="right" if strict else "left")
        else:
            # each side searches its own points only
            strict = np.broadcast_to(strict, point.shape)
            k = np.empty(point.shape, dtype=np.intp)
            k[strict] = np.searchsorted(keys, point[strict], side="right")
            k[~strict] = np.searchsorted(keys, point[~strict], side="left")
        # a NaN key sorts after every key of every row
        return np.minimum(k - self.starts[rows], self._length[rows])

    def _batch(self, rows, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = np.asarray(rows, dtype=np.intp)
        shape = np.broadcast_shapes(rows.shape, values.shape)
        return np.broadcast_to(rows, shape), np.broadcast_to(values, shape)

    # -- per-row ends -------------------------------------------------------

    @cached_property
    def _ends(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per row: the total mass ``CR[-1]`` and the ends of
        :meth:`support_bounds`."""
        B, CL, CR, st = self.B, self.CL, self.CR, self.starts
        filled = CL[1:] > CR[:-1]  # segment [B[k], B[k+1]] carries mass...
        filled[st[1:-1] - 1] = False  # ...unless B[k+1] starts the next row
        atom = CR > CL
        first = np.append(np.flatnonzero(np.append(filled, False) | atom), len(B))
        last = np.flatnonzero(np.insert(filled, 0, False) | atom)
        # every row is a checked law of total mass 1, so some segment or atom
        # of it carries mass
        lo = first[np.searchsorted(first, st[:-1])]
        hi = last[np.searchsorted(last, st[1:]) - 1]
        return CR[st[1:] - 1], B[lo], B[hi]

    def support_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the smallest closed interval ``[lo, hi]`` carrying all
        the mass (atoms are points)."""
        return self._ends[1:]

    # -- the kernel ---------------------------------------------------------

    @cached_property
    def _quantile_table(self) -> tuple[np.ndarray, ...]:
        """``(B, CL, CR, B[prev], CR[prev], B - B[prev], denominator, safe)``
        per slot ``k`` = the rank of a level among its row's ``CR``, with
        ``prev = max(k - 1, 0)`` in the row; the denominator ``CL - CR[prev]``
        reads 1 where no mass is left to interpolate over, and slot ``L``
        repeats slot ``L - 1``."""
        B, CL, CR = self.B, self.CL, self.CR
        prev = np.arange(len(B)) - 1
        prev[self.starts[:-1]] += 1  # a row's first breakpoint is its own predecessor
        denom = CL - CR[prev]
        safe = denom > 0
        cols = (B, CL, CR, B[prev], CR[prev], B - B[prev], np.where(safe, denom, 1.0), safe)
        entry = self._slots[2]
        return tuple(c[entry] for c in cols)

    def _clip_levels(self, rows, ps: np.ndarray) -> tuple[np.ndarray, ...]:
        """The levels ``ps`` clipped into ``[0, top]`` of their rows, and the
        rows' ``top``, ``lo`` and ``hi`` (see :attr:`_ends`); ``rows`` None
        reads the only row.  A level outside ``[0, 1]`` beyond ``INPUT_TOL``
        raises ``ValidationError``."""
        if ps.size and (ps.min() < -INPUT_TOL or ps.max() > 1.0 + INPUT_TOL):
            raise ValidationError("probability level outside [0, 1]")
        top, lo, hi = (e[0] if rows is None else e[rows] for e in self._ends)
        return np.minimum(np.maximum(ps, 0.0), top), top, lo, hi

    def quantile(self, rows, p, strict=False) -> np.ndarray:
        """Generalized inverse CDF ``inf {x: F(x) >= p}`` of row ``rows`` at
        level ``p``, pointwise, linear in bins; level 1 gives the support's
        upper end exactly.  ``strict`` gives the right-continuous version
        ``inf {x: F(x) > p}``, for all points or one flag per point.  ``rows``
        None evaluates a one-row stack, which takes one ``strict`` for all.
        """
        ps = np.asarray(p, dtype=float)
        if rows is not None:
            rows, ps = self._batch(rows, ps)
        ps, top, lo, hi = self._clip_levels(rows, ps)
        if rows is None:
            k = np.searchsorted(self.CR, ps, side="right" if strict else "left")
        else:
            k = self._rank(self._cr_keys, rows, ps, strict) + self.starts[rows] + rows
        return self._quantile_at(k, ps, top, lo, hi, strict)

    def quantile_sorted(self, rows, p) -> np.ndarray:
        """``quantile(rows[:, None], p)`` for an ``(m, n)`` array of levels,
        each line ``p[i]`` non-decreasing, bit for bit.

        A level's rank among its row's ``CR`` is monotone in the level, so
        where the ranks of a line's first and last level agree, every level
        between has that rank: such a line is searched at its two ends only
        and reads its table entries once, broadcast over its levels.  A line
        whose end ranks differ, as where a level rounds onto one of the
        row's ``CR``, is searched level by level.
        """
        rows = np.asarray(rows, dtype=np.intp)[:, None]
        ps, top, lo, hi = self._clip_levels(rows, np.asarray(p, dtype=float))
        slot = self.starts[rows] + rows
        k = self._rank(self._cr_keys, rows, ps[:, [0, -1]], False) + slot
        out = self._quantile_at(k[:, :1], ps, top, lo, hi, False)
        split = np.flatnonzero(k[:, 0] != k[:, 1])
        if len(split):
            r, ps = rows[split], ps[split]
            k = self._rank(self._cr_keys, r, ps, False) + slot[split]
            out[split] = self._quantile_at(k, ps, top[split], lo[split], hi[split], False)
        return out

    def _quantile_at(self, k, ps, top, lo, hi, strict) -> np.ndarray:
        """The quantile at clipped levels ``ps`` whose table slots are ``k``
        (see :attr:`_quantile_table`), for rows with ends ``top``, ``lo`` and
        ``hi``; every argument broadcasts against ``ps``."""
        Bk, CLk, CRk, Bp, CRp, span, denom, safe = self._quantile_table
        # jump at B[k] covers p when CL[k] < p <= CR[k] (or <= for strict).
        # The level that exhausts the mass is the support's upper end, even
        # when rounding leaves the cumulative mass a few ulps off 1; for the
        # strict version no x has F(x) > top, and the segment formula would
        # run past the last breakpoint
        if strict is True:
            at_jump = (CLk[k] <= ps) & (ps < CRk[k])
        elif strict is False:
            at_jump = (CLk[k] < ps) & (ps <= CRk[k])
            top = np.minimum(top, 1.0)
        else:
            at_jump = np.where(
                strict, (CLk[k] <= ps) & (ps < CRk[k]), (CLk[k] < ps) & (ps <= CRk[k])
            )
            top = np.where(strict, top, np.minimum(top, 1.0))
        # otherwise interpolate on the segment ending at B[k]; a segment
        # without mass gives its right end
        frac = (ps - CRp[k]) / denom[k]
        out = np.where(safe[k] & ~at_jump, Bp[k] + frac * span[k], Bk[k])
        out = np.where(ps >= top, hi, out)
        return np.where(ps <= 0.0, lo, out)

    @cached_property
    def _cdf_table(self) -> tuple[np.ndarray, ...]:
        """``(start, width, base, rise, cl)`` per slot ``j`` = the number of
        its row's breakpoints at or below x: slot ``j`` holds the segment from
        ``B[j-1]`` (``CR`` at its start, ``CL`` at its end less that as its
        rise); slot 0, below the support, is flat at 0, and slot ``L``, from
        ``B[-1]`` on, flat at ``CR[-1]``."""
        B, CL, CR = self.B, self.CL, self.CR
        row, s, _ = self._slots
        left = self.starts[row] + np.maximum(s - 1, 0)
        right = np.minimum(left + 1, len(B) - 1)
        first = s == 0
        inner = ~first & (s < self._length[row])
        return (
            B[left],
            np.where(inner, B[right] - B[left], 1.0),
            np.where(first, 0.0, CR[left]),
            np.where(inner, CL[right] - CR[left], 0.0),
            np.where(first, 0.0, CL[left]),
        )

    def cdf(self, rows, x, left=False) -> np.ndarray:
        """``P(X <= x)`` of row ``rows``, pointwise, right-continuous;
        ``left`` gives ``P(X < x)``, for all points or one flag per point.
        ``rows`` None evaluates a one-row stack."""
        start, width, base, rise, cl = self._cdf_table
        xs = np.asarray(x, dtype=float)
        if rows is None:
            b0, b1 = self.B[0], self.B[-1]
            j = np.searchsorted(self.B, xs, side="right")
        else:
            rows, xs = self._batch(rows, xs)
            b0, b1 = self.B[self.starts[rows]], self.B[self.starts[rows + 1] - 1]
            j = self._rank(self._b_keys, rows, xs) + self.starts[rows] + rows
        # CR[k] + frac * (CL[k+1] - CR[k]) with frac = (x - B[k]) / (B[k+1] - B[k]),
        # taken at x clipped to the profile so the flat slots add exactly 0
        xc = np.minimum(np.maximum(xs, b0), b1)
        out = base[j] + (xc - start[j]) / width[j] * rise[j]
        if left is not False:
            out = np.where(left & (xs == start[j]), cl[j], out)
        return out

    def bin_of(self, rows, x) -> np.ndarray:
        """Per point, the segment ``[B[k], B[k+1])`` of its row holding x, as
        ``k`` within the row, clipped to the row's segments: an atom-free
        row's bin, the last one closed."""
        rows, xs = self._batch(rows, np.asarray(x, dtype=float))
        k = self._rank(self._b_keys, rows, xs) - 1
        return np.clip(k, 0, self._length[rows] - 2)


# ---------------------------------------------------------------------------
# GridDistribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GridDistribution:
    """A probability measure given by bin edges, bin masses and point masses.

    ``edges`` has one more entry than ``masses`` and is strictly increasing;
    mass inside a bin is spread uniformly.  ``atoms`` is a tuple of
    ``(location, mass)`` pairs lying inside ``[edges[0], edges[-1]]``.
    Total mass must be 1 within ``INPUT_TOL``.
    """

    edges: np.ndarray
    masses: np.ndarray
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "edges", _as_readonly(self.edges))
        object.__setattr__(self, "masses", _as_readonly(self.masses))
        object.__setattr__(
            self, "atoms", tuple((float(a), float(m)) for a, m in self.atoms)
        )
        if self.edges.ndim != 1 or self.masses.ndim != 1:
            raise ValidationError("edges and masses must be one-dimensional")
        if len(self.edges) != len(self.masses) + 1:
            raise ValidationError("need len(edges) == len(masses) + 1")
        if len(self.edges) < 2:
            raise ValidationError("need at least one bin")
        _require_increasing("edges", self.edges)
        total = float(self.masses.sum()) + sum(m for _, m in self.atoms)
        if not math.isfinite(total):  # a non-finite mass; atoms are checked below
            _require_finite("bin masses", self.masses)
        if np.any(self.masses < 0):
            raise ValidationError("bin masses must be non-negative")
        for loc, m in self.atoms:
            if not (math.isfinite(loc) and math.isfinite(m)):
                raise ValidationError(f"atom ({loc}, {m}) must be finite")
            if m < 0:
                raise ValidationError("atom masses must be non-negative")
            if not (self.edges[0] <= loc <= self.edges[-1]):
                raise ValidationError(
                    f"atom at {loc} lies outside [{self.edges[0]}, {self.edges[-1]}]"
                )
        locs = [a for a, _ in self.atoms]
        if len(set(locs)) != len(locs):
            raise ValidationError("atom locations must be distinct")
        if abs(total - 1.0) > INPUT_TOL:
            raise ValidationError(f"total mass {total} differs from 1 by more than {INPUT_TOL}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def uniform(cls, lo: float, hi: float, bins: int = 1) -> "GridDistribution":
        bins = _require_int("bins", bins, 1)
        edges = np.linspace(lo, hi, bins + 1)
        return cls(edges, np.full(bins, 1.0 / bins))

    @classmethod
    def point_mass(cls, loc: float) -> "GridDistribution":
        return cls.from_atoms([(loc, 1.0)])

    @classmethod
    def from_atoms(cls, atoms: Sequence[tuple[float, float]]) -> "GridDistribution":
        """Purely atomic law on one empty bin reaching 0.5 past the outer atoms."""
        locs = [a for a, _ in atoms]
        if not locs:
            raise ValidationError("need at least one atom")
        return cls(np.array([min(locs) - 0.5, max(locs) + 0.5]), np.array([0.0]), tuple(atoms))

    @classmethod
    def _of_checked(cls, edges: np.ndarray, masses: np.ndarray) -> "GridDistribution":
        """The atom-free law on ``edges`` and ``masses`` that a checked law
        has passed already, built without checking them again; both arrays
        are read-only."""
        law = cls.__new__(cls)
        law.__dict__.update(edges=edges, masses=masses, atoms=())
        return law

    # -- exact CDF profile --------------------------------------------------

    @cached_property
    def _profile(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Breakpoints ``B`` with left/right CDF values ``CL``/``CR``.

        Between consecutive breakpoints the CDF is linear from ``CR[k]`` to
        ``CL[k+1]``; at a breakpoint it jumps from ``CL[k]`` to ``CR[k]`` (atoms
        only).  The breakpoints are the edges and the atom locations.  The
        running mass adds, breakpoint by breakpoint, the atom there and then the
        mass of the piece up to the next breakpoint: the terms are interleaved
        after a leading 0 and summed by one sequential ``np.cumsum``.  Without
        atoms every jump term is 0 and every piece is a whole bin, so the profile
        is ``[0, cumsum(masses)]`` on the edges, which is the same float.
        """
        edges, masses, atoms = self.edges, self.masses, self.atoms
        if not atoms:
            cum = np.zeros(len(edges))
            np.cumsum(masses, out=cum[1:])
            return edges, cum, cum
        locs = np.unique(np.concatenate([edges, [a for a, _ in atoms]]))
        b = np.clip(np.searchsorted(edges, locs[:-1], side="right") - 1, 0, len(masses) - 1)
        terms = np.zeros(2 * len(locs))
        terms[2 * np.searchsorted(locs, [a for a, _ in atoms]) + 1] = [m for _, m in atoms]
        terms[2::2] = (locs[1:] - locs[:-1]) / np.diff(edges)[b] * masses[b]
        cum = np.cumsum(terms)
        return locs, cum[0::2], cum[1::2]

    @cached_property
    def _stack(self) -> GridStack:
        """This law as the one-row stack, whose kernel gives its quantiles and CDFs."""
        B, CL, CR = self._profile
        return GridStack(B, CL, CR, np.array([0, len(B)]))

    def cdf(self, x) -> np.ndarray | float:
        """P(X <= x), right-continuous."""
        return _scalar(self._stack.cdf(None, x))

    def cdf_left(self, x) -> np.ndarray | float:
        """P(X < x)."""
        return _scalar(self._stack.cdf(None, x, left=True))

    def quantile(self, p) -> np.ndarray | float:
        """Generalized inverse CDF, ``inf {x: F(x) >= p}``, linear in bins;
        level 1 gives the support's upper end exactly."""
        return _scalar(self._stack.quantile(None, p))

    def quantile_right(self, p) -> np.ndarray | float:
        """Right-continuous version ``inf {x: F(x) > p}``; the level that
        exhausts the mass gives the support's upper end."""
        return _scalar(self._stack.quantile(None, p, strict=True))

    # -- support ------------------------------------------------------------

    @cached_property
    def _bounds(self) -> tuple[float, float]:
        lo, hi = self._stack.support_bounds()
        return float(lo[0]), float(hi[0])

    def support_bounds(self) -> tuple[float, float]:
        """Smallest closed interval carrying all the mass (atoms are points);
        computed once."""
        return self._bounds

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "edges": self.edges.tolist(),
            "masses": self.masses.tolist(),
            "atoms": [[a, m] for a, m in self.atoms],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GridDistribution":
        try:
            edges = np.asarray(obj["edges"], dtype=float)
            masses = np.asarray(obj["masses"], dtype=float)
            atoms = tuple((float(a), float(m)) for a, m in obj.get("atoms", []))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed distribution object: {exc}") from exc
        return cls(edges, masses, atoms)

    def __repr__(self):
        return (
            f"GridDistribution({len(self.masses)} bins on "
            f"[{self.edges[0]:g}, {self.edges[-1]:g}], {len(self.atoms)} atoms)"
        )


# ---------------------------------------------------------------------------
# Joint laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Conditional2D:
    """A 2-D grid measure over (Y, X): bin edges per axis and a mass matrix.

    ``mass[i, j]`` is the probability of the cell ``y_bin i x x_bin j``; the
    matrix sums to 1 within ``INPUT_TOL``.
    """

    y_edges: np.ndarray
    x_edges: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y_edges", _as_readonly(self.y_edges))
        object.__setattr__(self, "x_edges", _as_readonly(self.x_edges))
        object.__setattr__(self, "mass", _as_readonly(self.mass))
        if self.y_edges.ndim != 1 or self.x_edges.ndim != 1:
            raise ValidationError("y and x edges must be one-dimensional")
        if self.mass.ndim != 2:
            raise ValidationError("mass must be a matrix")
        ny, nx = self.mass.shape
        if len(self.y_edges) != ny + 1 or len(self.x_edges) != nx + 1:
            raise ValidationError("edge lengths do not match the mass matrix")
        _require_increasing("y edges", self.y_edges)
        _require_increasing("x edges", self.x_edges)
        total = float(self.mass.sum())
        if not math.isfinite(total):
            _require_finite("cell masses", self.mass)
        if np.any(self.mass < 0):
            raise ValidationError("cell masses must be non-negative")
        if abs(total - 1.0) > INPUT_TOL:
            raise ValidationError("conditional mass matrix must sum to 1")

    @classmethod
    def _of_checked(
        cls, y_edges: np.ndarray, x_edges: np.ndarray, mass: np.ndarray
    ) -> "Conditional2D":
        """The conditional on ``y_edges`` and ``x_edges`` with cell masses
        ``mass``, built without the checks of the constructor: the edges
        are finite and strictly increasing, and the matrix is counts divided
        by their sum, so it is finite, non-negative and sums to 1.  All
        three arrays are read-only."""
        cond = cls.__new__(cls)
        cond.__dict__.update(y_edges=y_edges, x_edges=x_edges, mass=mass)
        return cond

    def _marginal(self, edges: np.ndarray, axis: int) -> GridDistribution:
        # the edges are checked, and the sums of checked cell masses are
        # non-negative and add to 1 within INPUT_TOL
        return GridDistribution._of_checked(edges, _as_readonly(self.mass.sum(axis=axis)))

    @cached_property
    def _x_marginal(self) -> GridDistribution:
        return self._marginal(self.x_edges, 0)

    @cached_property
    def _y_marginal(self) -> GridDistribution:
        return self._marginal(self.y_edges, 1)

    def x_marginal(self) -> GridDistribution:
        """The x marginal, built once per conditional; every caller shares it,
        and with it its CDF profile and support bounds."""
        return self._x_marginal

    def y_marginal(self) -> GridDistribution:
        """The y marginal, built once per conditional like :meth:`x_marginal`."""
        return self._y_marginal

    def to_json_dict(self) -> dict:
        return {
            "y_edges": self.y_edges.tolist(),
            "x_edges": self.x_edges.tolist(),
            "mass": self.mass.tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Conditional2D":
        try:
            y_edges, x_edges, mass = (
                np.asarray(obj[key], dtype=float) for key in ("y_edges", "x_edges", "mass")
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed conditional object: {exc}") from exc
        return cls(y_edges, x_edges, mass)


@dataclass(frozen=True)
class Site:
    """One z location carrying a conditional: a pz bin or a pz atom."""

    kind: str  # "bin" or "atom"
    z_value: float
    lo: float
    hi: float
    mass: float


def sites_of(pz: GridDistribution, z_grid: Sequence[float]) -> list[Site]:
    """Pair each z-grid value with the pz bin or atom it belongs to.

    Every positive-mass bin and every atom must be matched by exactly one grid
    value; grid values must be strictly increasing.  A refusal names the
    first offender in z order.
    """
    z_grid = [float(z) for z in z_grid]
    if any(b <= a for a, b in zip(z_grid, z_grid[1:])):
        raise ValidationError("z_grid must be strictly increasing")
    atom_locs = {loc: m for loc, m in pz.atoms}
    edges, masses = pz.edges.tolist(), pz.masses.tolist()
    used_bins: set[int] = set()
    used_atoms: set[float] = set()
    sites: list[Site] = []
    # the bin of every z, atoms included, from one search
    for z, b in zip(z_grid, (np.searchsorted(pz.edges, z_grid, side="right") - 1).tolist()):
        if z in atom_locs:
            sites.append(Site("atom", z, z, z, atom_locs[z]))
            used_atoms.add(z)
            continue
        if not (0 <= b < len(masses)):
            raise ValidationError(f"z value {z} outside the pz grid")
        if b in used_bins:
            raise ValidationError(f"two z values fall in the same pz bin ({z})")
        used_bins.add(b)
        sites.append(Site("bin", z, edges[b], edges[b + 1], masses[b]))
    for b, m in enumerate(masses):
        if m > 0 and b not in used_bins:
            raise ValidationError(f"pz bin {b} has positive mass but no z value")
    for loc in sorted(atom_locs):
        if loc not in used_atoms:
            raise ValidationError(f"pz atom at {loc} has no z value")
    return sites


@dataclass(frozen=True, eq=False)
class JointLaw:
    """The observed object: P_{Y,X|Z=z} for each z-grid site plus P_Z.

    ``sites`` is the pairing of the z values with pz's bins and atoms
    (:func:`sites_of`), derived once at construction.
    """

    z_grid: np.ndarray
    pz: GridDistribution
    conditionals: tuple[Conditional2D, ...]

    def __post_init__(self):
        object.__setattr__(self, "z_grid", _as_readonly(self.z_grid))
        object.__setattr__(self, "conditionals", tuple(self.conditionals))
        if self.z_grid.ndim != 1:
            raise ValidationError("z grid must be one-dimensional")
        if len(self.z_grid) != len(self.conditionals):
            raise ValidationError("need one conditional per z value")
        if len(self.z_grid) == 0:
            raise ValidationError("empty z grid")
        # the pairing, validated once and kept
        object.__setattr__(self, "sites", sites_of(self.pz, self.z_grid))

    @cached_property
    def batch(self) -> "LawBatch":
        """This law as the one-law batch, whose stacks the statistics read."""
        return LawBatch((self,))

    def x_marginals(self) -> list[GridDistribution]:
        return [c.x_marginal() for c in self.conditionals]

    def y_marginals(self) -> list[GridDistribution]:
        return [c.y_marginal() for c in self.conditionals]

    def to_json_dict(self) -> dict:
        return {
            "z_grid": self.z_grid.tolist(),
            "pz": self.pz.to_json_dict(),
            "conditionals": [c.to_json_dict() for c in self.conditionals],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "JointLaw":
        try:
            z_grid = np.asarray(obj["z_grid"], dtype=float)
            pz, conditionals = obj["pz"], list(obj["conditionals"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed joint-law object: {exc}") from exc
        return cls(
            z_grid,
            GridDistribution.from_json_dict(pz),
            tuple(Conditional2D.from_json_dict(c) for c in conditionals),
        )


class LawBatch:
    """Joint laws stacked for the statistics: one stack of the x and y
    marginals of every z site of every law.

    Law ``l``'s sites are ``offsets[l]:offsets[l + 1]``, in z order; site
    ``s``'s x marginal is stack row ``s`` and its y marginal row
    ``sites + s``, so a statistic evaluates both axes of every z pair of
    every law in one kernel call (see :meth:`rows`).  The stack is
    :meth:`GridStack.of` over the conditionals' cached marginals, so every
    value keeps the bits of a call on that marginal alone.  A law may appear
    more than once.  :attr:`JointLaw.batch` is the one-law batch.  The stack
    is built on first use.  An empty batch is refused with
    ``ValidationError``.
    """

    def __init__(self, laws: Sequence[JointLaw]):
        self.laws = tuple(laws)
        if not self.laws:
            raise ValidationError("need at least one law")
        sites = [len(law.conditionals) for law in self.laws]
        self.offsets = np.concatenate([[0], np.cumsum(sites, dtype=np.intp)])
        self.sites = int(self.offsets[-1])

    @cached_property
    def stack(self) -> GridStack:
        conds = [c for law in self.laws for c in law.conditionals]
        return GridStack.of([c.x_marginal() for c in conds] + [c.y_marginal() for c in conds])

    def rows(self, sites: np.ndarray) -> np.ndarray:
        """The stack rows of ``sites``: their x rows, then their y rows, as
        a ``(2, len(sites))`` array."""
        return np.stack([sites, sites + self.sites])


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _pair_entries(
    stack: GridStack, first: np.ndarray, second: np.ndarray, columns: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """For every pair ``i``, the entries of rows ``first[i]`` and ``second[i]``
    of each profile column in ``columns``, pair after pair; returns the values
    and the pair of each.  Raises ``ValidationError``, before gathering, when
    they would exceed ``MAX_CELL_ENTRIES`` entries."""
    rows = np.column_stack([first, second])
    offsets = len(stack.B) * np.arange(len(columns))
    starts = stack.starts[rows][:, None, :] + offsets[None, :, None]
    lengths = np.broadcast_to(stack._length[rows][:, None, :], starts.shape)
    flat = _ragged_arange(starts.ravel(), lengths.ravel(), "a pair gather")
    values = np.concatenate(columns)[flat]
    return values, np.repeat(np.arange(len(rows)), lengths.sum(axis=(1, 2)))


def _distinct_levels(lev: np.ndarray, pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``(pair, level)`` entries, sorted by pair and then by level."""
    order = np.lexsort((lev, pair))
    lev, pair = lev[order], pair[order]
    distinct = np.ones(len(lev), dtype=bool)
    distinct[1:] = (lev[1:] != lev[:-1]) | (pair[1:] != pair[:-1])
    return lev[distinct], pair[distinct]


def _pair_max(values: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Largest value of every pair; each pair holds at least one value, in order."""
    return np.maximum.reduceat(values, np.flatnonzero(np.diff(pair, prepend=-1)))


def winf_distances(stack: GridStack, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Sup over probability levels of the quantile gap ``|Q_a(p) - Q_b(p)|``
    between rows ``a = first[i]`` and ``b = second[i]`` of ``stack``, for
    every pair, in one quantile call over all pairs.

    This equals the infimum over couplings of the almost-sure bound on
    ``|X_a - X_b|`` in one dimension, attained by the comonotone coupling.
    Two laws ``a`` and ``b`` alone are rows 0 and 1 of ``GridStack.of([a, b])``.

    Quantile functions are piecewise linear between the levels of the pair's
    four ``CL``/``CR`` columns, so the gap's one-sided limits there give the
    sup exactly.  Every level is evaluated as a left limit and as a right
    limit on both rows.  Left limits count at levels in ``(0, 1]`` and right
    limits at levels in ``[0, 1]``: every row's ``CL`` starts at 0, where the
    right limit is the support's lower end.  Each distinct level of a pair
    is evaluated once.
    """
    lev, pair = _distinct_levels(*_pair_entries(stack, first, second, (stack.CL, stack.CR)))
    n = len(lev)
    rows = np.concatenate([first[pair], first[pair], second[pair], second[pair]])
    strict = np.tile(np.repeat([False, True], n), 2)
    q = stack.quantile(rows, np.tile(np.minimum(lev, 1.0), 4), strict=strict).reshape(2, -1)
    gap = np.abs(q[0] - q[1]).reshape(2, n)
    gap[0, (lev <= 0.0) | (lev > 1.0)] = 0.0
    gap[1, lev > 1.0] = 0.0
    return _pair_max(np.maximum(gap[0], gap[1]), pair)


def fosd_violations(stack: GridStack, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Largest violation ``max_x (F_upper(x) - F_lower(x))`` of first-order
    stochastic dominance of row ``upper[i]`` over row ``lower[i]`` of
    ``stack``, 0 when dominated, for every pair, in one CDF call over all
    pairs: both CDF limits of both rows at the pair's breakpoints
    (duplicates leave a maximum unchanged)."""
    xs, pair = _pair_entries(stack, lower, upper, (stack.B,))
    n = len(xs)
    rows = np.concatenate([upper[pair], lower[pair], upper[pair], lower[pair]])
    F = stack.cdf(rows, np.tile(xs, 4), left=np.repeat([False, True], 2 * n)).reshape(4, n)
    return np.maximum(_pair_max(np.maximum(F[0] - F[1], F[2] - F[3]), pair), 0.0)

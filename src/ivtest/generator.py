"""Construction of one-to-one first-stage maps on grid measures.

The object built here is a map ``g(z, u)`` that transports a uniform latent
``u`` onto the conditional treatment law of every z site while being
injective across z at a chosen cell resolution.  The mechanism: the latent
interval ``[0, 1)`` is cut into ``K**depth`` equal cells, each z cell of an
iteratively halved z partition carries a permutation of those cells, and the
per-site quantile map is applied after the permutation.  Permuting
equal-mass cells never changes the pushforward, so every depth replicates
the input conditionals exactly; what changes with depth is how much z-pair
mass still shares an identical map.  Halving continues breadth first on
every z cell, so the colliding mass shrinks by the cell arity at each level.

Every permutation is a digitwise rotation.  Write latent cell ``c`` in base
``K`` with digits ``c_1 .. c_depth``, most significant first; z-cell row
``r`` rotates digit ``l`` by its shift ``s_l(r)``, so ``c`` lands on image
cell ``Σ_l ((c_l + s_l(r)) mod K) · K**(depth - l)``.  The shifts, read as
one base-``K`` numeral, are the row's pattern ``σ_r``, its image of latent
cell 0, and ``c`` lands on ``c ⊕ σ_r``, with ``⊕`` digitwise addition mod
``K``.  Atom j shifts by j at every level; a continuum cell shifts by
``k+1`` at each level where it is a left half and by ``k`` where it is a
right half (without atoms the image is ``c XOR ~r``), which separates all
top-level groups after one level.  With ``k`` point masses in the z law,
``K`` is ``k+2``; without, it is 2.

Exact replication is certified rather than recomputed.  A digitwise rotation
is a bijection of ``0..n-1`` by construction, so for every row the ``n``
image cells, of probability ``1/n`` each, tile the site's x-marginal exactly
once, so every x bin receives exactly its column sum and every (y, x) cell
exactly its own mass.  The model therefore induces its own joint law at
every depth, and :func:`verify_replication` reduces to an exact rational
comparison of two mass tables.

The layout is flat.  The continuum z cells are the intervals between the
``2**depth + 1`` equal-mass cut points of the atom-free part of pz, and the
rows, one per atom and then one per continuum cell in z order, hold only
their patterns: one integer per row.  No ``(rows, n)`` matrix is ever
built; :meth:`GeneratorMap.image_cells` evaluates ``c ⊕ σ_r`` from one
tabulated contribution of the high digits and one of the low digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import MarginalMismatchError, NonAtomicityError, ValidationError
from .measures import (
    INPUT_TOL,
    MAX_CELL_ENTRIES,
    GridDistribution,
    GridStack,
    JointLaw,
    Site,
    _latent_ranks,
    _ragged_arange,
    _require_int,
    sites_of,
)


def _refuse_deep(depth: int, arity: int, sites: int) -> None:
    """Raise ``ValidationError`` when the interval codes of the latent cells
    of a depth at all ``sites`` exceed ``MAX_CELL_ENTRIES``.  The codes are
    what collision accounting builds, one row per class of equal marginals,
    and what the build itself builds for the atom sites without a continuum
    (see :func:`_already_one_to_one`).  The z-cell rows, at most
    ``sites * arity**depth``, stay within the same bound.
    """
    # past the cap's bit length the latent cells alone overflow it
    if depth < MAX_CELL_ENTRIES.bit_length() and arity**depth * sites <= MAX_CELL_ENTRIES:
        return
    raise ValidationError(
        f"depth {depth} at arity {arity} needs more than {MAX_CELL_ENTRIES} "
        "latent cells or interval codes"
    )


def _layout(pz: GridDistribution) -> tuple[int, int, bool]:
    """Atom rows, arity and whether continuum rows exist, read off pz: a row
    and a latent cut per level for each atom, zero-mass ones too, two cuts
    for the continuum halves (so arity 2 without atoms), and continuum rows
    iff a bin carries mass.  Exact for every layout that :func:`sites_of`
    accepts, where each atom and positive-mass bin has a z value of its own."""
    k = len(pz.atoms)
    return k, k + 2, bool(pz.masses.max() > 0)


def _continuum_law(pz: GridDistribution) -> tuple[float, GridDistribution]:
    """Bin mass of pz, summed in bin order, and its atom-free law normalised
    to 1: pz itself when it has no atoms and its bins sum to exactly 1.  Read
    only when a bin carries mass (:func:`_layout`)."""
    mass = sum(pz.masses.tolist())
    if mass == 1.0 and not pz.atoms:
        return mass, pz
    masses = np.asarray(pz.masses) / mass if mass != 1.0 else pz.masses
    return mass, GridDistribution(pz.edges, masses)


@dataclass(frozen=True, eq=False)
class GeneratorMap:
    """A first-stage map: per-site quantile transforms behind cell rotations.

    ``cells[r]`` is the pattern of z-cell row ``r``: its ``depth`` shift
    digits, one per level, read as one base-``arity`` numeral, most
    significant first, which is also the row's image of latent cell 0;
    :meth:`image_cells` turns it into the row's image cells.  ``arity`` is
    derived from pz: k + 2 for its k atoms.  Rows ``0..k-1`` belong to the
    atoms of pz (``atoms``, in z order); the remaining ``2**depth`` rows are
    the continuum cells ``[cuts[i], cuts[i+1])`` in z order, so continuum
    rows ``2i`` and ``2i+1`` are the two halves of row ``i`` one level up.
    The constructor, ``dataclasses.replace`` included, checks all that
    :func:`build_generator` refuses: a z grid that does not pair with pz, a
    marginal count other than one per site, a marginal with a positive-mass
    atom (``NonAtomicityError``), a depth that is not a non-negative integer
    within the cap, and patterns that are not a ``(rows,)`` vector in
    ``[0, arity**depth)``.  It derives the site layout once and reads the
    row layout off pz once (:func:`_layout`); the continuum law and the z
    table are built on first use.
    """

    depth: int
    pz: GridDistribution
    z_grid: np.ndarray
    marginals: tuple[GridDistribution, ...]
    cells: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "depth", _require_int("depth", self.depth, 0))
        zg = np.array(self.z_grid, dtype=float)
        zg.setflags(write=False)
        object.__setattr__(self, "z_grid", zg)
        object.__setattr__(self, "marginals", tuple(self.marginals))
        cells = np.array(self.cells, dtype=np.int64)
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)
        if len(self.marginals) != len(self.sites):
            raise ValidationError("need one x-marginal per z site")
        if any(mass > 0 for m in self.marginals for _, mass in m.atoms):
            raise NonAtomicityError("conditional x-marginals must be non-atomic")
        _refuse_deep(self.depth, self.arity, len(self.marginals))
        k, _, continuum = self._layout
        rows = k + (2**self.depth if continuum else 0)
        if cells.shape != (rows,):
            raise ValidationError(f"cell pattern shape is not ({rows},), one per z-cell row")
        # a digitwise rotation is a bijection, which the replication
        # certificate rests on: see verify_replication
        if cells.size and (cells.min() < 0 or cells.max() >= self.n_u_cells):
            raise ValidationError(f"every cell pattern must lie in [0, {self.n_u_cells})")

    @cached_property
    def _layout(self) -> tuple[int, int, bool]:
        """Atom rows, arity and whether continuum rows exist (:func:`_layout`)."""
        return _layout(self.pz)

    @property
    def arity(self) -> int:
        return self._layout[1]

    @property
    def n_u_cells(self) -> int:
        return self.arity**self.depth

    @cached_property
    def marginal_stack(self) -> GridStack:
        """The site marginals as one stack, row ``i`` for site ``i``."""
        return GridStack.of(self.marginals)

    @cached_property
    def sites(self) -> list[Site]:
        return sites_of(self.pz, self.z_grid)

    @cached_property
    def _atom_sites(self) -> np.ndarray:
        return np.array([i for i, s in enumerate(self.sites) if s.kind == "atom"], dtype=np.int64)

    @cached_property
    def atoms(self) -> np.ndarray:
        """z value of each atom row, in row order (which is z order)."""
        return np.array([self.sites[i].z_value for i in self._atom_sites], dtype=float)

    @cached_property
    def _continuum(self) -> tuple[float, GridDistribution]:
        return _continuum_law(self.pz)

    @cached_property
    def cuts(self) -> np.ndarray:
        """Equal-mass cut points of the continuum cells; empty without bins."""
        if not self._layout[2]:
            return np.empty(0)
        m = 2**self.depth
        cuts = np.asarray(self._continuum[1].quantile(np.arange(m + 1) / m))
        cuts.setflags(write=False)
        return cuts

    @cached_property
    def _bins(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lower edges, upper edges and site indices of the positive-mass bins."""
        idx = [i for i, s in enumerate(self.sites) if s.kind == "bin" and s.mass > 0]
        lo = np.array([self.sites[i].lo for i in idx], dtype=float)
        hi = np.array([self.sites[i].hi for i in idx], dtype=float)
        return lo, hi, np.array(idx, dtype=np.int64)

    @cached_property
    def _z_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The z table that :meth:`locate` and :attr:`pieces` read.

        The cut points and the positive-mass bin edges, merged in z order
        into ``bp``, cut the z line into segments ``[bp[i-1], bp[i])``,
        ``i = 0..len(bp)``, with ``bp[-1]`` read as -inf.  Off the atoms,
        every z of a segment has the continuum row and the site (-1 where no
        positive-mass bin holds it) of the segment's lower end.  Returns
        ``bp`` and the row and site of every segment, -1 for both below
        every breakpoint.
        """
        lo, hi, idx = self._bins
        bp = np.union1d(self.cuts, np.concatenate([lo, hi]))
        row = np.full(len(bp) + 1, -1, dtype=np.int64)
        site = row.copy()
        k, last = self._layout[0], max(len(self.cuts) - 2, 0)
        row[1:] = k + np.clip(np.searchsorted(self.cuts, bp, side="right") - 1, 0, last)
        j = np.clip(np.searchsorted(lo, bp, side="right") - 1, 0, len(lo) - 1)
        site[1:] = np.where((bp >= lo[j]) & (bp < hi[j]), idx[j], -1)
        return bp, row, site

    def locate(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Cell row and site index of every z value, from one search of the
        z table (:attr:`_z_table`) and, when pz has atoms, one of the atoms.

        Atoms match first; any other z must lie in a positive-mass bin of pz,
        and raises ``ValidationError`` otherwise.
        """
        zs = np.atleast_1d(np.asarray(z, dtype=float))
        bp, row, site = self._z_table
        i = np.searchsorted(bp, zs, side="right")
        rows, sites = row[i], site[i]
        if len(self.atoms):
            j = np.minimum(np.searchsorted(self.atoms, zs), len(self.atoms) - 1)
            hit = self.atoms[j] == zs
            rows = np.where(hit, j, rows)
            sites = np.where(hit, self._atom_sites[j], sites)
        if np.any(sites < 0):
            raise ValidationError(f"z value {zs[sites < 0][0]} carries no conditional")
        return rows, sites

    @cached_property
    def pieces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell row, site and z mass of every piece, in (cell, site) order.

        A piece, one site inside one cell, is the largest unit on which the
        map is a single function.  Each atom row is one piece; the continuum
        pieces are the positive-mass segments of the z table
        (:attr:`_z_table`) that a bin holds, which come out in z order.
        """
        k, _, continuum = self._layout
        atom_mass = np.array([self.sites[i].mass for i in self._atom_sites], dtype=float)
        cell, site, weight = [np.arange(k)], [self._atom_sites], [atom_mass]
        if continuum:
            mass, cont = self._continuum
            bp, row, at = self._z_table
            w = mass * np.diff(cont.cdf_left(bp))
            keep = (at[1:-1] >= 0) & (w > 0)
            cell.append(row[1:-1][keep])
            site.append(at[1:-1][keep])
            weight.append(w[keep])
        return np.concatenate(cell), np.concatenate(site), np.concatenate(weight)

    @cached_property
    def _half_tables(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Image contribution of the high and of the low latent digits.

        A latent cell is ``c = c_hi * K**low + c_lo`` with ``low = depth // 2``,
        and so is a pattern.  Each half of the patterns takes only a few
        distinct values, each rotating digits the same way in every row that
        holds it.  Per half this gives the ``(values, K**width)`` table of
        rotated digit values, the high half scaled by ``K**low``, and the
        value of every row.  The tables are ``intp``, so images index arrays
        directly.
        """
        K, d = self.arity, self.depth
        low = d // 2
        out = []
        for half, width, scale in zip(np.divmod(self.cells, K**low), (d - low, low), (K**low, 1)):
            place = K ** np.arange(width - 1, -1, -1)
            pattern, row = np.unique(half, return_inverse=True)
            digits = np.arange(K ** len(place))[:, None] // place % K
            rotated = (digits + (pattern[:, None] // place % K)[:, None, :]) % K
            out.append((((rotated @ place) * scale).astype(np.intp), row))
        return tuple(out)

    def match_table(self) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        """Class and shift pattern of every piece, and the code matches of the
        classes.

        Sites with equal x-marginals form one class and are coded once.  A
        piece's pattern is its row's (``cells``).  Returns the piece classes,
        the patterns and :func:`_code_matches` of the classes.
        Built anew on every call; accounting reads the gather that
        :attr:`_match_gather` keeps instead.
        """
        cell, site, _ = self.pieces
        used, slot = np.unique(site, return_inverse=True)
        reps, of = _marginal_classes([self.marginals[si] for si in used])
        codes = _interval_codes(reps, self.n_u_cells)
        return of[slot], self.cells[cell], _code_matches(codes, self.arity, self.depth)

    @cached_property
    def _match_gather(self) -> tuple[np.ndarray, ...]:
        """The match table laid out for :func:`_collision_mass`, built on
        first use: the ``(class, pattern)`` key of every piece, the number of
        keys, the keys held by two or more pieces and the pieces that hold
        them, and, for every pair of keys that the sparse matches join, the
        two keys and the match count.  Only these arrays are kept; the sparse
        matches of :meth:`match_table` are freed once gathered.  Raises
        ``ValidationError``, caching nothing, when the matched entry pairs or
        the gather exceed ``MAX_CELL_ENTRIES``.
        """
        piece_class, pattern, (P, Q, delta, count) = self.match_table()
        n = self.n_u_cells
        keys, key_of, held = np.unique(
            piece_class * n + pattern, return_inverse=True, return_counts=True
        )
        shared = held > 1
        src = dst = np.zeros(0, dtype=np.intp)
        if len(count):
            key_class, key_pattern = np.divmod(keys, n)
            first = np.searchsorted(key_class, Q)
            size = np.searchsorted(key_class, Q, side="right") - first
            match = np.repeat(np.arange(len(count)), size)
            dst = _ragged_arange(first, size, "a collision accounting gather")
            want = P[match] * n + _digit_difference(
                key_pattern[dst], delta[match], self.arity, self.depth
            )
            src = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
            hit = keys[src] == want
            src, dst, count = src[hit], dst[hit], count[match[hit]]
        return key_of, len(keys), np.flatnonzero(shared), shared[key_of], src, dst, count

    def image_cells(self, rows, cells) -> np.ndarray:
        """Image cell of latent cell ``cells`` under z-cell row ``rows``,
        elementwise, broadcasting as NumPy does."""
        (hi, hi_row), (lo, lo_row) = self._half_tables
        c_hi, c_lo = np.divmod(cells, lo.shape[1])
        return hi[hi_row[rows], c_hi] + lo[lo_row[rows], c_lo]

    def permuted_level(self, rows, u: np.ndarray) -> np.ndarray:
        """Relocate latent levels within their cells by the rotations of ``rows``."""
        n = self.n_u_cells
        idx = np.minimum((u * n).astype(np.int64), n - 1)
        offset = u * n - idx
        return (self.image_cells(rows, idx) + offset) / n

    def __call__(self, z: float, u) -> np.ndarray | float:
        us = np.atleast_1d(np.asarray(u, dtype=float))
        rows, sites = self.locate(z)
        out = self.marginals[sites[0]].quantile(self.permuted_level(rows[0], us))
        return float(out[0]) if np.asarray(u).ndim == 0 else out

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Depth, arity and the pattern of every row, in row order."""
        return {"depth": self.depth, "arity": self.arity, "cells": self.cells.tolist()}

    @classmethod
    def from_json_dict(
        cls,
        obj: dict,
        marginals: Sequence[GridDistribution],
        pz: GridDistribution,
        z_grid: Sequence[float],
    ) -> "GeneratorMap":
        """Rebuild from the wire format; cell geometry is recomputed from pz.

        Raises ``ValidationError`` for a missing key, a depth, arity or
        pattern that is not an int (bools and floats included), a pattern
        past int64, and an arity other than the built generator's; the
        constructor checks the rest, the depth cap, the row count and the
        pattern range included.
        """
        try:
            depth, arity, patterns = obj["depth"], obj["arity"], list(obj["cells"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed generator object: {exc}") from exc
        if type(depth) is not int or type(arity) is not int:
            raise ValidationError("malformed generator object: depth and arity must be integers")
        # checked before conversion, which a pattern past int64 would fail
        if not all(type(p) is int and -(2**63) <= p < 2**63 for p in patterns):
            raise ValidationError("every cell pattern must be an integer within int64")
        gen = cls(depth, pz, z_grid, tuple(marginals), patterns)
        if arity != gen.arity:
            raise ValidationError(f"arity {arity} does not match this pz's {gen.arity}")
        return gen


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _interval_codes(marginals: Sequence[GridDistribution], n: int) -> np.ndarray:
    """Integer code of every image interval ``[q(c/n), q((c+1)/n))`` of every
    marginal, shape ``(len(marginals), n)``.

    Two entries share a code iff their intervals are equal as real intervals,
    on the same marginal or on different ones, which is the cell-resolution
    notion of collision.
    """
    grid = np.arange(n + 1) / n
    qs = np.reshape([m.quantile(grid) for m in marginals], (len(marginals), n + 1))
    lo, hi = qs[:, :-1].ravel(), qs[:, 1:].ravel()
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    codes = np.empty(len(order), dtype=np.int64)
    codes[order] = np.cumsum(new) - 1
    return codes.reshape(len(marginals), n)


def _already_one_to_one(marginals: Sequence[GridDistribution], n_cells: int) -> bool:
    """True when no two sites of a purely atomic z law share an image cell.

    A continuum site always collides with itself (nearby z share the map), so
    the shortcut only applies to purely atomic z laws.  Under the identity
    permutations latent cell c lands on image cell c at every site, so each
    column of interval codes must hold distinct codes.
    """
    columns = np.sort(_interval_codes(marginals, n_cells), axis=0)
    return not np.any(columns[1:] == columns[:-1])


def _shift_patterns(k: int, arity: int, depth: int, continuum: bool) -> np.ndarray:
    """Every row's pattern in closed form: the atoms' rows, then the
    ``2**depth`` continuum rows when ``continuum``.

    With the repunit ``R = (K**depth - 1) / (K - 1)``, whose ``depth``
    base-``K`` digits are all 1, atom j shifts every digit by j: pattern
    ``j·R``.  Continuum row i shifts level l by ``k+1`` less bit l of i, most
    significant first, so its pattern is ``(k+1)·R`` less i's bits read as
    base-``K`` digits; without atoms (``K`` = 2) that is ``2**depth - 1 - i``.
    """
    repunit = (arity**depth - 1) // (arity - 1)
    atoms = np.arange(k, dtype=np.int64) * repunit
    if not continuum:
        return atoms
    i = np.arange(2**depth, dtype=np.int64)
    if arity > 2:
        i = (i[:, None] >> np.arange(depth) & 1) @ arity ** np.arange(depth)
    return np.concatenate([atoms, (k + 1) * repunit - i])


def build_generator(
    marginals: Sequence[GridDistribution],
    pz: GridDistribution,
    z_grid: Sequence[float],
    depth: int,
) -> GeneratorMap:
    """Build the injectivity-improving map for a z law with finitely many atoms.

    ``marginals`` are the conditional x-marginals in z-grid order.  With k
    atoms in pz the latent interval is cut ``(k+2)``-fold per level; atom j
    shifts every digit by j, and the continuum halves take the two remaining
    shifts, ``k+1`` for a left half and ``k`` for a right half.  Without
    atoms the cut is binary.  The result holds these shifts as one pattern
    per z cell, and nothing of size ``n_u_cells`` per row.  The row layout
    is read off pz (:func:`_layout`), and a depth that is not a non-negative
    integer or past the cap of :func:`_refuse_deep` is refused before
    anything is allocated; :class:`GeneratorMap` makes every other check.
    """
    depth = _require_int("depth", depth, 0)
    k, arity, continuum = _layout(pz)
    _refuse_deep(depth, arity, len(marginals))
    cells = np.zeros(k, dtype=np.int64)
    # purely atomic z with pairwise distinct image cells keeps the base map:
    # every shift is 0
    if continuum or not _already_one_to_one(marginals, arity**depth):
        cells = _shift_patterns(k, arity, depth, continuum)
    return GeneratorMap(depth, pz, z_grid, tuple(marginals), cells)


# ---------------------------------------------------------------------------
# Collision accounting
# ---------------------------------------------------------------------------


def _digit_difference(b, a, arity: int, depth: int) -> np.ndarray:
    """Digitwise ``b ⊖ a``: each of the ``depth`` base-``arity`` digits of
    ``b`` less the same digit of ``a``, mod ``arity`` (``b XOR a`` at arity
    2).  Row r sends latent cell c to ``c ⊕ σ_r``, its shift digits added
    digitwise, so the rows that send c to image cell j are those with
    ``σ_r = j ⊖ c``."""
    b, a = np.asarray(b, dtype=np.int64), np.asarray(a, dtype=np.int64)
    out = np.zeros(np.broadcast(b, a).shape, dtype=np.int64)
    place = 1
    for _ in range(depth):
        out += (b // place - a // place) % arity * place
        place *= arity
    return out


def _marginal_classes(
    marginals: Sequence[GridDistribution],
) -> tuple[list[GridDistribution], np.ndarray]:
    """One representative of every distinct marginal (equal edges, masses and
    atoms) and the class of each marginal, numbered in order of appearance."""
    reps: list[GridDistribution] = []
    seen: dict = {}
    of = []
    for m in marginals:
        key = (m.edges.tobytes(), m.masses.tobytes(), m.atoms)
        if key not in seen:
            seen[key] = len(reps)
            reps.append(m)
        of.append(seen[key])
    return reps, np.array(of, dtype=np.int64)


def _code_matches(codes: np.ndarray, arity: int, depth: int):
    """Sparse match counts of a ``(classes, n)`` interval-code table.

    ``m_PQ[δ]`` counts the entries ``(P, a)`` and ``(Q, b)`` with equal codes
    and ``b ⊖ a = δ``.  Returned as the arrays ``P, Q, δ, count`` over the
    nonzero counts, leaving out each entry paired with itself (``n`` per
    class at ``δ = 0``, which the caller adds in closed form).  Codes held
    once match nothing else, so only entries whose code repeats, across
    classes or inside one class row, are paired.
    """
    n_classes, n = codes.shape
    flat = codes.ravel()
    held = np.bincount(flat)
    if held.max() == 1:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty
    order = np.argsort(flat, kind="stable")
    run = held[flat[order]]
    order, run = order[run > 1], run[run > 1]
    # pair every entry with each entry of its run, itself included, then drop itself
    coded = flat[order]
    src = np.repeat(order, run)
    starts = np.searchsorted(coded, coded)
    dst = order[_ragged_arange(starts, run, "a collision accounting gather")]
    distinct = src != dst
    (P, a), (Q, b) = np.divmod(src[distinct], n), np.divmod(dst[distinct], n)
    key = (P * n_classes + Q) * n + _digit_difference(b, a, arity, depth)
    key, count = np.unique(key, return_counts=True)
    PQ, delta = np.divmod(key, n)
    return (*np.divmod(PQ, n_classes), delta, count)


def _collision_mass(gen: GeneratorMap, group: np.ndarray) -> np.ndarray:
    """Colliding z-pair mass between every pair of piece groups, exact.

    Entry (g, h) sums ``w_i w_j`` times the share of latent cells on which
    piece i of group g and piece j of group h map onto the same image
    interval; a piece paired with itself counts fully on the continuum
    (nearby z share the map) and not at all for an atom (the same z twice).

    Every row is a digitwise rotation, so pieces i and j, of classes P and Q
    and patterns σ and τ, meet on exactly ``m_PQ[τ ⊖ σ]`` latent cells (see
    :func:`_code_matches`).  With ``W_P[σ]`` the z mass of each group on the
    pieces of class P and pattern σ, the cross mass is
    ``n Σ_{P,σ} W_P[σ] W_P[σ]ᵀ`` (every entry matching itself) plus
    ``Σ m_PQ[δ] Σ_τ W_P[τ ⊖ δ] W_Q[τ]`` over the sparse matches, less each
    piece's own ``n w_i²``; each match's sum is one ``searchsorted`` gather
    of the ``(class, pattern)`` keys.  It is averaged over the ``n`` latent
    cells, and the continuum's ``Σ w_i²`` self mass is added once.  Nothing
    of size ``pieces × n`` is built.  The codes, their matches and the
    gather are built once per generator (:attr:`GeneratorMap._match_gather`);
    a call only contracts the group weights.  Raises ``ValidationError``,
    before allocating, when the matched entry pairs or the gather exceed
    ``MAX_CELL_ENTRIES``.
    """
    cell, _, w = gen.pieces
    n, n_groups = gen.n_u_cells, int(group.max()) + 1
    key_of, n_keys, shared, sharing, src, dst, count = gen._match_gather
    W = np.bincount(
        key_of * n_groups + group, weights=w, minlength=n_keys * n_groups
    ).reshape(-1, n_groups)
    # a key held by one piece is that piece meeting only itself: W Wᵀ − w² is 0
    own = np.bincount(group[sharing], weights=w[sharing] ** 2, minlength=n_groups)
    cross = n * (W[shared].T @ W[shared] - np.diag(own))
    if len(count):
        cross += (W[src] * count[:, None]).T @ W[dst]
    continuum = cell >= len(gen.atoms)
    self_mass = np.bincount(
        group[continuum], weights=w[continuum] ** 2, minlength=n_groups
    )
    return cross / n + np.diag(self_mass)


def collision_fraction(gen: GeneratorMap) -> float:
    """Probability mass of (z_i, z_j, u) triples on which the map is not one-to-one.

    z_i and z_j are independent draws from pz and u is uniform; the map is
    not one-to-one at (z_i, z_j, u) when both z put u's latent cell onto the
    same image interval.  The value is exact, with no sampling: two pieces
    meet on as many latent cells as their classes' interval codes match at
    the digitwise difference of their shift patterns, so the colliding mass
    comes from the z mass on each (class, shift pattern) and from the few
    codes that match, divided by the number of latent cells, plus
    ``Σ w_i²`` over the continuum pieces; a draw of the same atom twice gives
    z_i = z_j and never counts as a collision.  See :func:`_collision_mass`.
    """
    cell = gen.pieces[0]
    return float(_collision_mass(gen, np.zeros(len(cell), dtype=np.int64))[0, 0])


def group_collision_matrix(gen: GeneratorMap) -> tuple[list[str], np.ndarray]:
    """Collision fraction between every pair of top-level z groups, exact.

    Entry (g, h) is the colliding mass of :func:`collision_fraction`
    restricted to z_i in group g and z_j in group h, divided by the mass of
    such pairs, so the u fraction on which the two groups share identical
    image cells.  The diagonal uses the same-z convention of
    :func:`collision_fraction`.
    """
    cell, _, weight = gen.pieces
    k = len(gen.atoms)
    # atom row j is group j+1, a continuum row k+1 plus its top bit; at depth
    # 0 the one continuum row has no digit and is labelled ""
    number = np.where(cell < k, cell + 1, k + 1 + ((cell - k) >> max(gen.depth - 1, 0)))
    names = np.array([str(g) if g <= k or gen.depth else "" for g in range(k + 3)])
    # the labels sort as strings, so "10" comes before "2"
    labels, group = np.unique(names[number], return_inverse=True)
    hits = _collision_mass(gen, group)
    group_mass = np.bincount(group, weights=weight)
    mass = np.outer(group_mass, group_mass)
    out = np.zeros_like(mass)
    nz = mass > 0
    out[nz] = hits[nz] / mass[nz]
    return labels.tolist(), out


# ---------------------------------------------------------------------------
# Structural model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StructuralModel:
    """A full two-equation model replicating an observed joint law, held as
    the pair of its first stage and that law.

    The first stage is the generator; the outcome stage maps an independent
    uniform through the sampled (z site, x bin) column of the joint law,
    normalised.  Both latents are uniform on [0, 1) and the instrument is
    drawn without reading them, so the instrument is independent by
    construction.

    The replication certificate rests on the generator's x-marginals being
    the joint's: the constructor, ``dataclasses.replace`` included, raises
    ``MarginalMismatchError`` when they differ in count, grid or, beyond
    ``INPUT_TOL``, mass.
    """

    generator: GeneratorMap
    joint: JointLaw

    def __post_init__(self):
        margs = self.joint.x_marginals()
        if len(margs) != len(self.generator.marginals):
            raise MarginalMismatchError("site counts differ")
        for a, b in zip(margs, self.generator.marginals):
            if a is b:
                continue  # the generator was built from this marginal itself
            if len(a.masses) != len(b.masses) or np.max(np.abs(a.edges - b.edges)) > 0:
                raise MarginalMismatchError("marginal grids differ")
            if 0.5 * float(np.abs(a.masses - b.masses).sum()) > INPUT_TOL:
                raise MarginalMismatchError("marginal masses differ beyond tolerance")

    @cached_property
    def _outcome_columns(self) -> tuple[GridStack, np.ndarray, np.ndarray]:
        """The outcome laws of every positive-mass (z site, x bin) column as
        one stack, the stack row of every column in (site, bin) order (-1 for
        a zero-mass column, which has no law), and each site's first column;
        built on the first ``sample`` call."""
        conds = self.joint.conditionals
        sums = [c.x_marginal().masses for c in conds]
        laws = []
        for c, s in zip(conds, sums):
            # each normalized column of a checked conditional is a checked law
            columns = (c.mass[:, s > 0] / s[s > 0]).T
            columns.setflags(write=False)
            laws += [GridDistribution._of_checked(c.y_edges, col) for col in columns]
        filled = np.concatenate(sums) > 0
        row_of = np.where(filled, np.cumsum(filled) - 1, -1)
        first = np.cumsum([0] + [len(s) for s in sums])
        return GridStack.of(laws), row_of, first[:-1]

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Draw (y, x, z) rows; the latent pair never reads z.

        Two stacked quantile calls, whatever the number of sites and columns:
        x through each row's site marginal, y through its (site, x bin)
        column law.  Every point is evaluated on its own, so the draws are
        taken in z order, where the searches run over sorted keys, and the
        rows are put back in draw order.  ``n`` must be a positive and
        ``seed`` a non-negative integer."""
        u, v, w = _latent_ranks(n, seed)
        gen = self.generator
        # the quantile is non-decreasing, so sorting its levels sorts z
        order = np.argsort(w)
        z = gen.pz.quantile(w[order])
        rows, sites = gen.locate(z)
        x = gen.marginal_stack.quantile(sites, gen.permuted_level(rows, u[order]))
        columns, row_of, first = self._outcome_columns
        column = row_of[first[sites] + self.joint.batch.stack.bin_of(sites, x)]
        if np.any(column < 0):
            raise ValidationError("sampled an x bin with zero conditional mass")
        out = np.empty((len(u), 3))
        out[order] = np.column_stack([columns.quantile(column, v[order]), x, z])
        return out

    def induced_law(self) -> JointLaw:
        """The law this model induces at cell resolution: its own joint law.

        Every cell row is a permutation, so the first stage pushes exactly
        each x bin's column sum to that bin and the outcome stage splits it
        down the column; see :func:`verify_replication`.  A z site that no
        z cell serves (a zero-mass pz bin) constrains nothing, and keeps its
        conditional too.
        """
        return self.joint

    def to_json_dict(self) -> dict:
        return {
            "joint": self.joint.to_json_dict(),
            "generator": self.generator.to_json_dict(),
            "independence": True,
        }


def compose_structural_model(joint: JointLaw, gen: GeneratorMap) -> StructuralModel:
    """Pair ``gen`` with ``joint`` as the model whose outcome stage realizes
    each conditional outcome law by a quantile transform: ``StructuralModel(gen,
    joint)``, which raises ``MarginalMismatchError`` when the generator was
    built from other x-marginals than the joint law provides.
    """
    return StructuralModel(gen, joint)


def verify_replication(model: StructuralModel, joint: JointLaw) -> float:
    """Largest total-variation gap, over z sites, between the law the model
    induces and ``joint``, computed in exact rational arithmetic.

    The induced law is the model's own joint law, by a certificate rather
    than a replay.  At a z site, z-cell row ``r`` sends latent cell ``c`` to
    the probability levels ``[j/n, (j + 1)/n)`` of the site's x-marginal,
    with ``j = gen.image_cells(r, c)``; the model's constructor checked that
    marginal against the joint's.  ``GeneratorMap`` admits only patterns in
    ``[0, arity**depth)``, whose digits are shifts in ``[0, arity)``, and a
    digitwise rotation by such shifts is a permutation of ``0..n-1``, so
    these ``n`` intervals each occur once and telescope onto ``[0, 1)``:
    each x bin receives exactly its column sum, whatever the permutation
    and however the bin edges cut the cells.  The outcome stage splits each
    column sum down its column in proportion to the cell masses, so every
    (y, x) cell gets exactly its own mass from every z cell, and averaging
    over the z cells of a site (weights summing to 1) keeps it.  A site
    that no z cell serves, a zero-mass pz bin, holds vacuously.

    The comparison itself is exact: every float mass is an exact rational,
    and the gap of a site whose two tables differ is summed in
    ``Fraction``s (a site with equal tables has gap 0 outright), so the
    result is 0.0 exactly when the two mass tables agree, at any depth.  Raises
    ``MarginalMismatchError`` when the site counts or mass shapes differ.
    """
    own = model.joint.conditionals
    if len(joint.conditionals) != len(own):
        raise MarginalMismatchError("site counts differ")
    worst = Fraction(0)
    for a, b in zip(own, joint.conditionals):
        if a.mass.shape != b.mass.shape:
            raise MarginalMismatchError("conditional mass shapes differ")
        if np.array_equal(a.mass, b.mass):
            continue  # equal floats are equal rationals: the gap is exactly 0
        tv = sum(
            abs(Fraction(p) - Fraction(q))
            for p, q in zip(a.mass.ravel().tolist(), b.mass.ravel().tolist())
        ) / 2
        worst = max(worst, tv)
    return float(worst)


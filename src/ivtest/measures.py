"""Discretized probability measures on the real line.

A grid distribution is piecewise uniform over bins plus an optional list of
point masses.  Its CDF is therefore piecewise linear with jumps, and every
operation in this module (quantiles, the sup-quantile distance,
stochastic-dominance violations) is computed from that exact profile rather
than by sampling.  Downstream constructions rely on this measure arithmetic being
reproducible to float precision.

Conventions fixed here and used everywhere else:

* intervals and cells are half open ``[a, b)``, so every point belongs to
  exactly one cell of a partition;
* the quantile function is the generalized inverse ``Q(p) = inf {x: F(x) >= p}``
  with linear interpolation inside bins;
* normalization of user inputs is checked at ``INPUT_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ValidationError

INPUT_TOL = 1e-9


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


def _require_increasing(what: str, edges: np.ndarray) -> None:
    """Refuse edges that are not finite and strictly increasing.  Increasing
    edges with finite ends are all finite, so the element-wise finite check
    runs only when that fails, to name the value."""
    if not (np.all(np.diff(edges) > 0) and math.isfinite(edges[0]) and math.isfinite(edges[-1])):
        _require_finite(what, edges)
        raise ValidationError(f"{what} must be strictly increasing")


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
        edges = np.linspace(lo, hi, bins + 1)
        return cls(edges, np.full(bins, 1.0 / bins))

    @classmethod
    def point_mass(cls, loc: float, pad: float = 0.5) -> "GridDistribution":
        return cls(np.array([loc - pad, loc + pad]), np.array([0.0]), ((loc, 1.0),))

    @classmethod
    def from_atoms(
        cls, atoms: Sequence[tuple[float, float]], pad: float = 0.5
    ) -> "GridDistribution":
        locs = [a for a, _ in atoms]
        lo, hi = min(locs) - pad, max(locs) + pad
        return cls(np.array([lo, hi]), np.array([0.0]), tuple(atoms))

    # -- exact CDF profile --------------------------------------------------

    @cached_property
    def _profile(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Breakpoints ``B`` with left/right CDF values ``CL``/``CR``.

        Between consecutive breakpoints the CDF is linear from ``CR[k]`` to
        ``CL[k+1]``; at a breakpoint it jumps from ``CL[k]`` to ``CR[k]``
        (atoms only).
        """
        atom_at = {loc: m for loc, m in self.atoms}
        locs = np.unique(np.concatenate([self.edges, np.array(sorted(atom_at))]))
        widths = np.diff(self.edges)
        cl = np.empty(len(locs))
        cr = np.empty(len(locs))
        cum = 0.0
        for k, x in enumerate(locs):
            cl[k] = cum
            cum += atom_at.get(float(x), atom_at.get(x, 0.0))
            cr[k] = cum
            if k + 1 < len(locs):
                b = int(np.searchsorted(self.edges, x, side="right")) - 1
                b = min(max(b, 0), len(self.masses) - 1)
                piece = (locs[k + 1] - x) / widths[b] * self.masses[b]
                cum += piece
        return locs, cl, cr

    def cdf(self, x) -> np.ndarray | float:
        """P(X <= x), right-continuous."""
        return self._cdf_eval(x, left=False)

    def cdf_left(self, x) -> np.ndarray | float:
        """P(X < x)."""
        return self._cdf_eval(x, left=True)

    @cached_property
    def _cdf_table(self) -> tuple[np.ndarray, ...]:
        """``(start, width, base, rise, cl)`` per index ``j = searchsorted(B, x,
        "right")``: slot ``j`` holds the segment from ``B[j-1]`` (``CR`` at its
        start, ``CL`` at its end less that as its rise); slot 0, below the
        support, is flat at 0, and the last slot, from ``B[-1]`` on, flat at
        ``CR[-1]``."""
        B, CL, CR = self._profile
        return (
            np.concatenate([B[:1], B]),
            np.concatenate([[1.0], np.diff(B), [1.0]]),
            np.concatenate([[0.0], CR]),
            np.concatenate([[0.0], CL[1:] - CR[:-1], [0.0]]),
            np.concatenate([[0.0], CL]),
        )

    def _cdf_eval(self, x, left: bool):
        B = self._profile[0]
        start, width, base, rise, cl = self._cdf_table
        xs = np.asarray(x, dtype=float)
        j = np.searchsorted(B, xs, side="right")
        # CR[k] + frac * (CL[k+1] - CR[k]) with frac = (x - B[k]) / (B[k+1] - B[k]),
        # taken at x clipped to the profile so the flat slots add exactly 0
        xc = np.minimum(np.maximum(xs, B[0]), B[-1])
        out = base[j] + (xc - start[j]) / width[j] * rise[j]
        if left:
            out = np.where(xs == start[j], cl[j], out)
        return float(out) if out.ndim == 0 else out

    def quantile(self, p) -> np.ndarray | float:
        """Generalized inverse CDF, ``inf {x: F(x) >= p}``, linear in bins;
        level 1 gives the support's upper end exactly."""
        return self._quantile_eval(p, strict=False)

    def quantile_right(self, p) -> np.ndarray | float:
        """Right-continuous version ``inf {x: F(x) > p}``; the level that
        exhausts the mass gives the support's upper end."""
        return self._quantile_eval(p, strict=True)

    @cached_property
    def _quantile_table(self) -> tuple[np.ndarray, ...]:
        """``(B, CL, CR, B[prev], CR[prev], B - B[prev], denominator, safe)``
        per index ``k = searchsorted(CR, p)``, with ``prev = max(k - 1, 0)``;
        the denominator ``CL - CR[prev]`` reads 1 where no mass is left to
        interpolate over, and index ``len(B)`` repeats the last slot."""
        B, CL, CR = self._profile
        prev = np.maximum(np.arange(len(B)) - 1, 0)
        denom = CL - CR[prev]
        safe = denom > 0
        cols = (B, CL, CR, B[prev], CR[prev], B - B[prev], np.where(safe, denom, 1.0), safe)
        return tuple(np.append(c, c[-1:]) for c in cols)

    def _quantile_eval(self, p, strict: bool):
        Bk, CLk, CRk, Bp, CRp, span, denom, safe = self._quantile_table
        ps = np.asarray(p, dtype=float)
        if ps.size and (ps.min() < -INPUT_TOL or ps.max() > 1.0 + INPUT_TOL):
            raise ValidationError("probability level outside [0, 1]")
        top = CRk[-1]
        ps = np.minimum(np.maximum(ps, 0.0), top)
        lo, hi = self.support_bounds()
        k = np.searchsorted(CRk[:-1], ps, side="right" if strict else "left")
        # jump at B[k] covers p when CL[k] < p <= CR[k] (or <= for strict)
        if strict:
            at_jump = (CLk[k] <= ps) & (ps < CRk[k])
        else:
            at_jump = (CLk[k] < ps) & (ps <= CRk[k])
        # otherwise interpolate on the segment ending at B[k]; a segment
        # without mass gives its right end
        frac = (ps - CRp[k]) / denom[k]
        out = np.where(safe[k] & ~at_jump, Bp[k] + frac * span[k], Bk[k])
        # the level that exhausts the mass is the support's upper end, even
        # when rounding leaves the cumulative mass a few ulps off 1; for the
        # strict version no x has F(x) > top, and the segment formula would
        # run past the last breakpoint
        out = np.where(ps >= (top if strict else min(top, 1.0)), hi, out)
        out = np.where(ps <= 0.0, lo, out)
        return float(out) if out.ndim == 0 else out

    # -- support ------------------------------------------------------------

    def support_bounds(self) -> tuple[float, float]:
        """Smallest closed interval carrying all the mass (atoms are points)."""
        if "_bounds" not in self.__dict__:  # computed once, kept like a cached_property
            B, CL, CR = self._profile
            filled = CL[1:] > CR[:-1]  # segment [B[k], B[k+1]] carries mass
            atom = CR > CL
            starts = np.flatnonzero(np.append(filled, False) | atom)
            ends = np.flatnonzero(np.insert(filled, 0, False) | atom)
            if len(starts) == 0:
                raise ValidationError("distribution has empty support")
            self.__dict__["_bounds"] = (float(B[starts[0]]), float(B[ends[-1]]))
        return self.__dict__["_bounds"]

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "edges": [float(e) for e in self.edges],
            "masses": [float(m) for m in self.masses],
            "atoms": [[a, m] for a, m in self.atoms],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GridDistribution":
        try:
            return cls(
                np.asarray(obj["edges"], dtype=float),
                np.asarray(obj["masses"], dtype=float),
                tuple((float(a), float(m)) for a, m in obj.get("atoms", [])),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed distribution object: {exc}") from exc

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

    @cached_property
    def _x_marginal(self) -> GridDistribution:
        return GridDistribution(self.x_edges, self.mass.sum(axis=0))

    @cached_property
    def _y_marginal(self) -> GridDistribution:
        return GridDistribution(self.y_edges, self.mass.sum(axis=1))

    def x_marginal(self) -> GridDistribution:
        """The x marginal, built once per conditional; every caller shares it,
        and with it its CDF profile and support bounds."""
        return self._x_marginal

    def y_marginal(self) -> GridDistribution:
        """The y marginal, built once per conditional like :meth:`x_marginal`."""
        return self._y_marginal

    def to_json_dict(self) -> dict:
        return {
            "y_edges": [float(e) for e in self.y_edges],
            "x_edges": [float(e) for e in self.x_edges],
            "mass": [[float(v) for v in row] for row in self.mass],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Conditional2D":
        try:
            return cls(
                np.asarray(obj["y_edges"], dtype=float),
                np.asarray(obj["x_edges"], dtype=float),
                np.asarray(obj["mass"], dtype=float),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed conditional object: {exc}") from exc


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
    value; grid values must be strictly increasing.
    """
    z_grid = [float(z) for z in z_grid]
    if any(b <= a for a, b in zip(z_grid, z_grid[1:])):
        raise ValidationError("z_grid must be strictly increasing")
    atom_locs = {loc: m for loc, m in pz.atoms}
    used_bins: set[int] = set()
    used_atoms: set[float] = set()
    sites: list[Site] = []
    for z in z_grid:
        if z in atom_locs:
            sites.append(Site("atom", z, z, z, atom_locs[z]))
            used_atoms.add(z)
            continue
        b = int(np.searchsorted(pz.edges, z, side="right")) - 1
        if not (0 <= b < len(pz.masses)):
            raise ValidationError(f"z value {z} outside the pz grid")
        if b in used_bins:
            raise ValidationError(f"two z values fall in the same pz bin ({z})")
        used_bins.add(b)
        sites.append(
            Site("bin", z, float(pz.edges[b]), float(pz.edges[b + 1]), float(pz.masses[b]))
        )
    for b, m in enumerate(pz.masses):
        if m > 0 and b not in used_bins:
            raise ValidationError(f"pz bin {b} has positive mass but no z value")
    for loc in atom_locs:
        if loc not in used_atoms:
            raise ValidationError(f"pz atom at {loc} has no z value")
    return sites


@dataclass(frozen=True, eq=False)
class JointLaw:
    """The observed object: P_{Y,X|Z=z} for each z-grid site plus P_Z."""

    z_grid: np.ndarray
    pz: GridDistribution
    conditionals: tuple[Conditional2D, ...]

    def __post_init__(self):
        object.__setattr__(self, "z_grid", _as_readonly(self.z_grid))
        object.__setattr__(self, "conditionals", tuple(self.conditionals))
        if len(self.z_grid) != len(self.conditionals):
            raise ValidationError("need one conditional per z value")
        if len(self.z_grid) == 0:
            raise ValidationError("empty z grid")
        sites_of(self.pz, self.z_grid)  # validates the pairing

    @cached_property
    def sites(self) -> list[Site]:
        return sites_of(self.pz, self.z_grid)

    def x_marginals(self) -> list[GridDistribution]:
        return [c.x_marginal() for c in self.conditionals]

    def y_marginals(self) -> list[GridDistribution]:
        return [c.y_marginal() for c in self.conditionals]

    def to_json_dict(self) -> dict:
        return {
            "z_grid": [float(z) for z in self.z_grid],
            "pz": self.pz.to_json_dict(),
            "conditionals": [c.to_json_dict() for c in self.conditionals],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "JointLaw":
        try:
            return cls(
                np.asarray(obj["z_grid"], dtype=float),
                GridDistribution.from_json_dict(obj["pz"]),
                tuple(Conditional2D.from_json_dict(c) for c in obj["conditionals"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed joint-law object: {exc}") from exc


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _eval_points(a: GridDistribution, b: GridDistribution) -> np.ndarray:
    return np.unique(np.concatenate([a._profile[0], b._profile[0]]))


def _quantile_levels(a: GridDistribution, b: GridDistribution) -> np.ndarray:
    cums = []
    for d in (a, b):
        _, cl, cr = d._profile
        cums.append(cl)
        cums.append(cr)
    ps = np.unique(np.concatenate(cums))
    return ps[(ps > 0.0) & (ps <= 1.0)]


def winf_distance(a: GridDistribution, b: GridDistribution) -> float:
    """Sup over probability levels of the quantile gap ``|Q_a(p) - Q_b(p)|``.

    This equals the infimum over couplings of the almost-sure bound on
    ``|X_a - X_b|`` in one dimension, attained by the comonotone coupling.
    Quantile functions are piecewise linear between the merged CDF
    breakpoints, so checking both one-sided limits at each breakpoint is
    exact.
    """
    ps = _quantile_levels(a, b)
    gap_left = np.max(np.abs(a.quantile(ps) - b.quantile(ps)))
    # right limits, including p -> 0+ where Q+ is the support infimum
    ps_r = np.concatenate([[0.0], ps])
    gap_right = np.max(np.abs(a.quantile_right(ps_r) - b.quantile_right(ps_r)))
    return float(max(gap_left, gap_right))


def fosd_violation(lower: GridDistribution, upper: GridDistribution) -> float:
    """Largest violation ``max_x (F_upper(x) - F_lower(x))``, 0 when dominated."""
    xs = _eval_points(lower, upper)
    v = max(
        float(np.max(upper.cdf(xs) - lower.cdf(xs))),
        float(np.max(upper.cdf_left(xs) - lower.cdf_left(xs))),
    )
    return max(v, 0.0)

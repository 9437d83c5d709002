"""Data-generating processes, discretization, and size/power experiments.

Instrument invalidity is dialed in with a single copula weight: the z draw
is a convex mix of an independent draw and the z quantile evaluated at the
latent rank, so weight 0 is full random assignment and weight 1 ties z
deterministically to the chosen latent.  Everything downstream is seeded
and reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import logging
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyBinError, IVTestError, NonAtomicityError, ValidationError
from .generator import (
    StructuralModel,
    build_generator,
    compose_structural_model,
    verify_replication,
)
from .measures import Conditional2D, GridDistribution, JointLaw, LawBatch, _latent_ranks
from .measures import _refuse_oversize, _require_finite, _require_increasing, _require_int
from .validity import Runner, minimal_collision_mass

FIRST_STAGE_KINDS = ("location", "scale", "jump", "sign_flip", "custom")
OUTCOME_KINDS = ("location", "jump", "custom")

# Largest bin count on an axis that is binned by comparisons (see
# _bin_index); above it each row is searched with np.searchsorted.
# Comparisons take one pass over the values per interior edge, a search
# about log2(bins) steps per value.  On a 2-core x86_64 Xeon, on twelve
# stacked 10^4-value axes, comparisons took 0.08 ms against 1.64 ms at 4
# bins and 1.9 against 5.8 ms at 64, and the two broke even near 300 bins;
# on one 10^6-value axis they took 29 against 43 ms at 64 bins and broke
# even near 110.  The cut keeps comparisons ahead at every size measured,
# and their count within the int8 it is kept in.
COMPARE_MAX_BINS = 64

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DGPSpec:
    """A parametric two-equation process plus the instrument-invalidity dial.

    ``copula_weight`` mixes the independent z draw with the z quantile of the
    rank of one latent (``copula_target`` "u" or "v"); a valid instrument
    forces weight 0.  First-stage kinds: location (z + u), scale
    ((1 + z) * u), jump (u + jump_size past jump_at), sign_flip (-z + u),
    custom.  Outcome kinds: location (x + v), jump (x + v + outcome_jump_size
    past outcome_jump_at), custom.  A custom function is given copies of its
    inputs, so writing into them changes no other draw, and must give one
    value per row.  The name, a field of every CSV row of an experiment,
    must be a string without commas or line breaks, ``instrument_valid`` a
    bool, and ``copula_weight`` and each jump constant a finite number,
    which is stored as a float; anything else raises ``ValidationError``.
    """

    name: str
    first_stage: str = "location"
    outcome: str = "location"
    z_law: GridDistribution = field(default_factory=lambda: GridDistribution.uniform(0, 1))
    u_law: GridDistribution = field(default_factory=lambda: GridDistribution.uniform(0, 1))
    v_law: GridDistribution = field(default_factory=lambda: GridDistribution.uniform(0, 1))
    instrument_valid: bool = True
    copula_weight: float = 0.0
    copula_target: str = "u"
    jump_size: float = 3.0
    jump_at: float = 0.5
    outcome_jump_size: float = 1.0
    outcome_jump_at: float = 0.5
    first_stage_fn: Callable | None = None
    outcome_fn: Callable | None = None

    def __post_init__(self):
        if not isinstance(self.name, str) or any(c in self.name for c in ",\n\r"):
            raise ValidationError(
                f"spec name must be a string without commas or line breaks: {self.name!r}"
            )
        if not isinstance(self.instrument_valid, (bool, np.bool_)):
            raise ValidationError(f"instrument_valid must be a bool: {self.instrument_valid!r}")
        numbers = ("copula_weight", "jump_size", "jump_at", "outcome_jump_size", "outcome_jump_at")
        for key in numbers:
            value = getattr(self, key)
            if isinstance(value, (np.integer, np.floating)):
                value = value.item()
            # NaN fails the comparison; an int past the float range has no float
            if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                raise ValidationError(f"{key} must be a finite number: {value!r}")
            object.__setattr__(self, key, float(value))
        if self.first_stage not in FIRST_STAGE_KINDS:
            raise ValidationError(f"unknown first stage {self.first_stage!r}")
        if self.outcome not in OUTCOME_KINDS:
            raise ValidationError(f"unknown outcome {self.outcome!r}")
        if self.first_stage == "custom" and not callable(self.first_stage_fn):
            raise ValidationError(
                f"custom first stage needs a callable first_stage_fn: {self.first_stage_fn!r}"
            )
        if self.outcome == "custom" and not callable(self.outcome_fn):
            raise ValidationError(
                f"custom outcome needs a callable outcome_fn: {self.outcome_fn!r}"
            )
        if not (0.0 <= self.copula_weight <= 1.0):
            raise ValidationError("copula_weight must lie in [0, 1]")
        if self.instrument_valid and self.copula_weight != 0.0:
            raise ValidationError("a valid instrument forces copula_weight 0")
        if self.copula_target not in ("u", "v"):
            raise ValidationError("copula_target must be 'u' or 'v'")

    def first_stage_values(self, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        if self.first_stage == "location":
            return z + u
        if self.first_stage == "scale":
            return (1.0 + z) * u
        if self.first_stage == "jump":
            return u + self.jump_size * (z >= self.jump_at)
        if self.first_stage == "sign_flip":
            return -z + u
        # a custom stage gets copies: the draws it is given are shared
        return _one_per_row("first stage", self.first_stage_fn(z.copy(), u.copy()), z)

    def outcome_values(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self.outcome == "location":
            return x + v
        if self.outcome == "jump":
            return x + v + self.outcome_jump_size * (x >= self.outcome_jump_at)
        return _one_per_row("outcome", self.outcome_fn(x.copy(), v.copy()), x)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DGPSpec":
        if not isinstance(obj, dict):
            raise ValidationError(f"a DGP spec must be an object: {obj!r}")
        kwargs = dict(obj)
        for law_key in ("z_law", "u_law", "v_law"):
            if law_key in kwargs:
                kwargs[law_key] = GridDistribution.from_json_dict(kwargs[law_key])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ValidationError(f"malformed DGP spec: {exc}") from exc


def _one_per_row(what: str, values, rows: np.ndarray) -> np.ndarray:
    """A custom stage's ``values`` as floats, refused unless there is one per row."""
    out = np.asarray(values, dtype=float)
    if out.shape != rows.shape:
        raise ValidationError(
            f"custom {what} must give one value per row: shape {out.shape}, not {rows.shape}"
        )
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sampled or read (y, x, z) rows."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 3 or rows.shape[0] == 0:
            raise ValidationError("rows must be a non-empty (n, 3) array")
        _require_finite("rows", rows)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def to_csv_text(self) -> str:
        values = map(repr, self.rows.ravel().tolist())
        return "y,x,z\n" + ("{},{},{}\n" * len(self.rows)).format(*values)

    @classmethod
    def from_csv_text(cls, text: str) -> "Dataset":
        """Parse ``y,x,z`` rows; values are those ``float`` gives.

        NumPy's C reader reads the body first: it converts each field with
        the string-to-double routine that ``float`` calls.  ``float`` reads
        the rest of its grammar (``1_0``, non-ASCII digits) and names a bad
        row.
        """
        lines = list(filter(None, text.strip().splitlines()))
        if not lines or lines[0].replace(" ", "") != "y,x,z":
            raise ValidationError("dataset CSV must start with header y,x,z")
        body = lines[1:]
        if body:  # first, as loadtxt warns on empty input
            try:
                rows = np.loadtxt(body, dtype=float, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass  # float reads the body below, or names the bad row
            else:
                if rows.shape == (len(body), 3):
                    return cls(rows)
        commas = list(map(str.count, body, itertools.repeat(",")))
        if commas.count(2) != len(body):
            i = next(i for i, c in enumerate(commas) if c != 2)
            raise ValidationError(
                f"malformed dataset row {i + 1}: need 3 fields, got {body[i]!r}"
            )
        try:
            flat = np.fromiter(map(float, ",".join(body).split(",")), float, 3 * len(body))
        except ValueError:
            # only now look for the row, so the parse above stays one pass
            for i, row in enumerate(body, 1):
                try:
                    list(map(float, row.split(",")))
                except ValueError as exc:
                    raise ValidationError(f"malformed dataset row {i}: {exc}") from exc
            raise
        return cls(flat.reshape(-1, 3))


class RankDraw:
    """One seed's latent ranks ``t_u``, ``t_v``, ``t_z``, drawn once, and the
    quantiles taken of them.

    Every spec sampled from one draw sees the same ranks (common random
    numbers), as every spec sampled with one seed always has.  Each law's
    quantile at each rank stream is taken once per draw; laws are keyed by
    value, so equal laws held as distinct objects share it.  Latent ranks
    never depend on z, and with a valid instrument the z draw in turn never
    reads them.  ``n`` must be a positive and ``seed`` a non-negative
    integer.
    """

    def __init__(self, n: int, seed: int):
        self.ranks = dict(zip(("u", "v", "z"), _latent_ranks(n, seed)))
        self._quantiles: dict[tuple, np.ndarray] = {}

    def quantile(self, law: GridDistribution, stream: str) -> np.ndarray:
        """``law.quantile`` at the ranks of ``stream``, taken once per draw."""
        atoms = np.array(law.atoms, dtype=float)
        key = (stream, law.edges.tobytes(), law.masses.tobytes(), atoms.tobytes())
        if key not in self._quantiles:
            self._quantiles[key] = np.asarray(law.quantile(self.ranks[stream]))
        return self._quantiles[key]

    def columns(self, spec: DGPSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The y, x and z values of ``spec``'s rows at these ranks, not yet
        checked for finite values."""
        u = self.quantile(spec.u_law, "u")
        v = self.quantile(spec.v_law, "v")
        z = self.quantile(spec.z_law, "z")
        if spec.copula_weight != 0.0:
            z_tied = self.quantile(spec.z_law, spec.copula_target)
            z = (1.0 - spec.copula_weight) * z + spec.copula_weight * z_tied
        x = spec.first_stage_values(z, u)
        return spec.outcome_values(x, v), x, z


def sample(spec: DGPSpec, n: int, seed: int) -> Dataset:
    """Forward-simulate n rows; deterministic in (spec, n, seed): the one-spec
    case of :class:`RankDraw`."""
    draw = RankDraw(n, seed)
    return Dataset(np.column_stack(draw.columns(spec)))


def _require_bin_counts(y_bins: int, x_bins: int, z_bins: int) -> tuple[int, int, int]:
    """The three bin counts as plain ints, each at least 2, whose table of
    z * y * x cells has at most ``MAX_CELL_ENTRIES`` entries."""
    bins = (
        _require_int("y_bins", y_bins, 2),
        _require_int("x_bins", x_bins, 2),
        _require_int("z_bins", z_bins, 2),
    )
    _refuse_oversize(math.prod(bins), "a {}x{}x{} cell table".format(*bins))
    return bins


def _axis_edges(lo: float, hi: float, bins: int) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, bins + 1)


def _bin_index(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Per value in row ``s`` of ``values``, its bin among the edges in row
    ``s`` of ``edges``: ``min(searchsorted(e, v, "right") - 1, bins - 1)``,
    half-open bins with the last one closed, as in ``np.histogramdd``.

    For strictly increasing edges and a value at or above the first, that
    is the number of interior edges at or below it, ``sum (v >= e_k)`` over
    ``k = 1..bins-1``, which has no rounding to get wrong.  Up to
    ``COMPARE_MAX_BINS`` bins it is counted so, one comparison of every row
    per edge; above, each row is searched.  The last edge only closes the
    last bin, which the clip does anyway, so ``+inf`` may stand for it, and
    ``+inf`` interior edges leave the bins past them empty.  Every index is
    clipped into ``0..bins-1``."""
    bins = edges.shape[1] - 1
    if bins <= COMPARE_MAX_BINS:
        idx = np.zeros(values.shape, dtype=np.int8)
        for k in range(1, bins):
            idx += values >= edges[:, k, None]
        return idx
    idx = np.empty(values.shape, dtype=np.intp)
    for out, e, v in zip(idx, edges, values):
        out[:] = np.clip(np.searchsorted(e, v, side="right") - 1, 0, bins - 1)
    return idx


def _count_cells(block: np.ndarray, y_bins: int, x_bins: int, z_bins: int):
    """Every spec's equal-width grid and its cell counts, from one pass over
    ``block``, the ``(specs, 3, n)`` stack of each spec's y, x and z values.

    Returns each spec's ``(y_edges, x_edges, z_edges)`` and the ``(specs,
    z_bins, y_bins, x_bins)`` tensor of counts, from one ``bincount``.  A
    constant instrument takes the one z bin ``[z - 0.5, z + 0.5]``, the
    first z slab of its counts."""
    grids = []
    for (y_lo, x_lo, z_lo), (y_hi, x_hi, z_hi) in zip(
        block.min(axis=2).tolist(), block.max(axis=2).tolist()
    ):
        if z_hi == z_lo:
            z_edges = np.array([z_lo - 0.5, z_lo + 0.5])
        else:
            z_edges = _axis_edges(z_lo, z_hi, z_bins)
        grids.append((_axis_edges(y_lo, y_hi, y_bins), _axis_edges(x_lo, x_hi, x_bins), z_edges))
    z_rows = np.full((len(grids), z_bins + 1), np.inf)
    for row, (_, _, e) in zip(z_rows, grids):
        row[: len(e) - 1] = e[:-1]  # a one-bin axis has no interior edge
    # the flat index ((spec * z_bins + z) * y_bins + y) * x_bins + x
    cells = z_bins * y_bins * x_bins
    flat = _bin_index(block[:, 2], z_rows).astype(np.intp)
    flat *= y_bins
    flat += _bin_index(block[:, 0], np.array([y for y, _, _ in grids]))
    flat *= x_bins
    flat += _bin_index(block[:, 1], np.array([x for _, x, _ in grids]))
    flat += np.arange(0, len(grids) * cells, cells)[:, None]
    counts = np.bincount(flat.ravel(), minlength=len(grids) * cells)
    return grids, counts.reshape(len(grids), z_bins, y_bins, x_bins)


def _law_of_counts(
    cells: np.ndarray, y_edges: np.ndarray, x_edges: np.ndarray, z_edges: np.ndarray
) -> JointLaw:
    """The empirical law of one spec's ``(z, y, x)`` cell counts on its
    grid (see :func:`_count_cells`); every z bin must be populated.  The
    z edges are checked first: edges that collapse or overflow leave bins
    empty, and the error names that cause."""
    # linspace collapses the edges of a range that is narrow for its
    # magnitude, and overflows to NaN on one wider than the largest float
    _require_increasing("z edges", z_edges)
    mass = cells[: len(z_edges) - 1].astype(float)
    counts = mass.sum(axis=(1, 2))
    empty = np.flatnonzero(counts == 0)
    if len(empty):
        raise EmptyBinError(f"z bin {empty[0]} received no samples")
    _require_increasing("y edges", y_edges)
    _require_increasing("x edges", x_edges)
    mass /= counts[:, None, None]
    for a in (y_edges, x_edges, mass):
        a.setflags(write=False)
    conds = tuple(Conditional2D._of_checked(y_edges, x_edges, m) for m in mass)
    pz = GridDistribution(z_edges, counts / counts.sum())
    return JointLaw(0.5 * (z_edges[:-1] + z_edges[1:]), pz, conds)


def discretize(data: Dataset, y_bins: int, x_bins: int, z_bins: int) -> JointLaw:
    """Empirical joint law on equal-width grids; every z bin must be populated.

    Each axis is cut into equal-width bins from its smallest to its largest
    value (a constant axis spans ``[v, v + 1]``, and a constant z takes the
    one bin ``[z - 0.5, z + 0.5]``).  Bins are half open and the last one is
    closed, as in ``np.histogramdd``: a value's bin is the number of interior
    edges at or below it, counted by comparisons on an axis of at most
    ``COMPARE_MAX_BINS`` bins and by binary search above that.  A bin count
    below 2, or a table of more than ``MAX_CELL_ENTRIES`` z * y * x cells,
    raises ``ValidationError`` before any binning.  This is the one-dataset
    call of the kernel that :func:`run_experiment` bins each replication
    with.
    """
    bins = _require_bin_counts(y_bins, x_bins, z_bins)
    grids, cells = _count_cells(np.ascontiguousarray(data.rows.T)[None], *bins)
    return _law_of_counts(cells[0], *grids[0])


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellStats:
    rejection_rate: float
    replications: int
    mean_statistic: float


@dataclass(frozen=True)
class ExperimentResult:
    """Rejection rates per (spec, test) over seeded replications."""

    entries: dict[tuple[str, str], CellStats]

    def to_csv_text(self) -> str:
        out = ["spec,test,rejection_rate,reps,mean_statistic"]
        for (spec, test), st in self.entries.items():
            out.append(
                f"{spec},{test},{st.rejection_rate!r},{st.replications},{st.mean_statistic!r}"
            )
        return "\n".join(out) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "results": [
                {
                    "spec": spec,
                    "test": test,
                    "rejection_rate": st.rejection_rate,
                    "reps": st.replications,
                    "mean_statistic": st.mean_statistic,
                }
                for (spec, test), st in self.entries.items()
            ]
        }


def replication_seed(master_seed: int, rep: int) -> int:
    """Stable per-replication stream derived by hashing (seed, index)."""
    return int(np.random.SeedSequence((master_seed, rep)).generate_state(1)[0])


@contextmanager
def _failure_context(spec_name: str, rep: int):
    """Prefix an error with the spec and replication it arose in.  Package
    errors keep their type, which the CLI's exit code reads; any other
    error becomes an ``IVTestError`` chained to the original."""
    try:
        yield
    except IVTestError as exc:
        raise type(exc)(f"spec {spec_name!r}, replication {rep}: {exc}") from exc
    except Exception as exc:
        raise IVTestError(f"spec {spec_name!r}, replication {rep}: {exc!r}") from exc


def _replication_laws(
    specs: Sequence[DGPSpec],
    draw: RankDraw,
    bins: tuple[int, int, int],
    depth: int | None,
    rep: int,
) -> tuple[list[JointLaw], list[float]]:
    """The laws of replication ``rep``, each spec's law followed by its twin
    when ``depth`` is set, and the seconds each spec took on its own.

    Every spec's rows are sampled from ``draw`` and checked for finite
    values into one ``(specs, 3, n)`` block, which is binned in one pass
    (:func:`_count_cells`).  Each law is then built from its counts and
    replicated, in spec order; a spec's own seconds are its sampling,
    building and replication.  A failure is raised with the prefix of its
    spec, and the one raised is the first that a spec-by-spec loop of
    :func:`sample`, :func:`discretize` and :func:`nontestability_demo` meets:
    a spec that cannot be sampled, or whose rows are not finite, is raised
    once every earlier spec's law is built."""
    block = np.empty((len(specs), 3, len(draw.ranks["u"])))
    own_s = [0.0] * len(specs)
    failure, sampled = None, len(specs)
    for i, spec in enumerate(specs):
        t0 = time.perf_counter()
        try:
            with _failure_context(spec.name, rep):
                block[i, 0], block[i, 1], block[i, 2] = draw.columns(spec)
                _require_finite("rows", block[i].T)
        except IVTestError as exc:
            failure, sampled = exc, i
            break
        own_s[i] += time.perf_counter() - t0
    laws = []
    if sampled:
        grids, cells = _count_cells(block[:sampled], *bins)
    for i in range(sampled):
        t0 = time.perf_counter()
        with _failure_context(specs[i].name, rep):
            law = _law_of_counts(cells[i], *grids[i])
            laws.append(law)
            if depth is not None:
                model, _ = nontestability_demo(law, depth)
                laws.append(model.induced_law())
        own_s[i] += time.perf_counter() - t0
    if failure is not None:
        raise failure
    return laws, own_s


def _reports(fn: Runner, batch: LawBatch, spec_names: Sequence[str], rep: int) -> list:
    """The report of ``fn`` on every law of ``batch``, from one batched
    call.  A batched call that fails is replayed law by law, so that an
    error names the spec of the law that raised it, ``spec_names[i]`` for
    law i.  If every law passes alone, a refusal (the table cap on the whole
    batch) leaves the law-by-law reports, and any other error is a defect of
    the batched code and is raised."""
    try:
        return fn.batch(batch)
    except Exception as exc:
        failure = exc
    reports = []
    for law, name in zip(batch.laws, spec_names):
        with _failure_context(name, rep):
            reports.append(fn(law))
    if not isinstance(failure, IVTestError):
        raise failure
    return reports


def run_experiment(
    specs: Sequence[DGPSpec],
    tests: Sequence[tuple[str, Runner]],
    n: int,
    reps: int,
    seed: int,
    bins: tuple[int, int, int] = (4, 4, 4),
    nontestability_depth: int | None = None,
) -> ExperimentResult:
    """Size/power table: rejection rate of every test on every process.

    ``tests`` are ``(name, runner)`` pairs from :func:`make_test`.  With
    ``nontestability_depth`` set, each replicated law is first passed
    through :func:`nontestability_demo` and the resulting model's induced
    law is tested as well, in the row of the process name suffixed with
    ``@replicated``.  That twin is the source law object itself: the model's
    first stage replicates every x-marginal, but its outcome stage reads the
    site of the drawn z, so the twin is not certified to be a
    valid-instrument law or a null-class member, and its row repeats the
    source row.

    Each replication draws its latent ranks once, from its own seed, and
    samples every spec from them, exactly as :func:`sample` with that seed
    would (:class:`RankDraw`).  Its laws, each spec's law and then its twin,
    are bit for bit :func:`discretize` of each sample, and each test takes
    them in one batched call (:func:`_reports`).  Row k of the table tallies
    law k of every replication, so the table is the same, bit for bit, as
    testing one law at a time.  A failure is raised with the prefix ``spec
    '<name>', replication <r>:`` of the law that failed: of a replication's
    sampling and law building, the first failure a spec-by-spec loop meets;
    of its tests, the first in test order and then law order.

    After each replication's tests, one INFO record per spec is logged on
    ``ivtest.simulate``, in spec order.  Its ``spec``, ``rep`` (0-based) and
    ``elapsed_s`` attributes give the process name, the replication index
    and the wall-clock seconds of that spec's sampling, law building and
    replication plus an equal share of the rest of the replication (its rank
    draw, binning pass and test pass), so a run's records sum to its wall
    time.

    ``n`` and ``reps`` must be positive integers, ``seed`` and a set
    ``nontestability_depth`` non-negative ones, and each bin count an
    integer of at least 2, with at most ``MAX_CELL_ENTRIES`` z * y * x cells.
    Every test must be a :func:`make_test` runner, and test names and row
    names must be unique.  Anything else raises ``ValidationError`` before
    any draw.
    """
    n = _require_int("n", n, 1)
    reps = _require_int("reps", reps, 1)
    seed = _require_int("seed", seed, 0)
    bins = _require_bin_counts(*bins)
    depth = nontestability_depth
    if depth is not None:
        depth = _require_int("nontestability_depth", depth, 0)
    for name, fn in tests:
        if not isinstance(fn, Runner):
            raise ValidationError(f"test {name!r} must be a make_test runner, not {fn!r}")
    # row k is law k of a replication's batch: each spec's law, then its twin
    suffixes = ("", "@replicated") if depth is not None else ("",)
    rows = [spec.name + suffix for spec in specs for suffix in suffixes]
    test_names = [name for name, _ in tests]
    for what, names in (("row", rows), ("test", test_names)):
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            raise ValidationError(f"{what} name {repeated[0]!r} is not unique")
    if not specs:
        return ExperimentResult({})
    spec_names = [spec.name for spec in specs for _ in suffixes]
    rejected = [[0] * len(tests) for _ in rows]
    stat_sum = [[0.0] * len(tests) for _ in rows]
    for rep in range(reps):
        t0 = time.perf_counter()
        draw = RankDraw(n, replication_seed(seed, rep))
        laws, own_s = _replication_laws(specs, draw, bins, depth, rep)
        batch = LawBatch(laws)
        for t, (_, fn) in enumerate(tests):
            for k, report in enumerate(_reports(fn, batch, spec_names, rep)):
                with _failure_context(spec_names[k], rep):
                    rejected[k][t] += report.decision == "reject"
                    stat_sum[k][t] += report.statistic
        if log.isEnabledFor(logging.INFO):
            share = (time.perf_counter() - t0 - sum(own_s)) / len(specs)
            for spec, own in zip(specs, own_s):
                elapsed = own + share
                log.info(
                    "spec %r, replication %d of %d: %.3f s",
                    spec.name, rep, reps, elapsed,
                    extra={"spec": spec.name, "rep": rep, "elapsed_s": elapsed},
                )
    return ExperimentResult({
        (row, name): CellStats(rejected[k][t] / reps, reps, stat_sum[k][t] / reps)
        for k, row in enumerate(rows)
        for t, name in enumerate(test_names)
    })


# ---------------------------------------------------------------------------
# Non-testability pipeline
# ---------------------------------------------------------------------------


def nontestability_demo(joint: JointLaw, depth: int) -> tuple[StructuralModel, float]:
    """Replicate an arbitrary observed law with a valid-instrument model.

    Builds the depth-``depth`` first stage for the law's x-marginals (with
    cyclic shifts for the atoms when pz carries point masses), composes the
    outcome stage, and returns the model with its exact replication error,
    which is 0 at cell resolution.  Laws whose treatment marginals are atomic
    at grid resolution are refused: for those the first stage may simply not
    exist.
    """
    margs = joint.x_marginals()
    # a conditional's x-marginal has no atoms, and its masses are
    # non-negative: it is atomic at grid resolution iff fewer than two bins
    # carry mass
    degenerate = [i for i, m in enumerate(margs) if np.count_nonzero(m.masses) < 2]
    if degenerate:
        detail = ""
        if len(degenerate) >= 2:
            i, j = degenerate[0], degenerate[1]
            a, b = margs[i].masses, margs[j].masses
            if len(a) == len(b):
                excess = minimal_collision_mass(a / a.sum(), b / b.sum())
                if excess > 0:
                    detail = (
                        f"; z sites {i} and {j} force collision mass {excess:.6g}"
                        " under every coupling"
                    )
        raise NonAtomicityError(
            f"x-marginals at z sites {degenerate} are atomic at grid resolution{detail}"
        )
    gen = build_generator(margs, joint.pz, joint.z_grid, depth)
    model = compose_structural_model(joint, gen)
    return model, verify_replication(model, joint)


# ---------------------------------------------------------------------------
# Analytic law construction (used by tests and demo scripts)
# ---------------------------------------------------------------------------


def population_law(
    z_grid: Sequence[float],
    pz: GridDistribution,
    conditional_at: Callable[[float], Conditional2D],
) -> JointLaw:
    """Build a joint law from an analytic conditional per z-grid value."""
    conds = tuple(conditional_at(float(z)) for z in z_grid)
    return JointLaw(np.asarray(z_grid, dtype=float), pz, conds)


def product_conditional(
    y_marg: GridDistribution, x_marg: GridDistribution
) -> Conditional2D:
    """Conditional with independent coordinates and the given marginals."""
    if y_marg.atoms or x_marg.atoms:
        raise ValidationError("product conditionals require atom-free marginals")
    mass = np.outer(y_marg.masses, x_marg.masses)
    s = mass.sum()
    return Conditional2D(y_marg.edges, x_marg.edges, mass / s)

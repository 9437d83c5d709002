"""In-memory span tracer that wraps ivtest's public functions at runtime.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each
target attribute (a module global or a class attribute) with a timing
wrapper and :meth:`Tracer.uninstall` puts the original back.  Every target
is wrapped under the name its caller looks up, because ``from .x import f``
copies the binding: ``run_experiment`` reaches ``verify_replication``
through ``ivtest.simulate``, so that is the attribute that gets wrapped.

A span is ``(span_id, parent_id, op_id, name, start, end)``.  Self time of a
span is its duration minus the durations of its direct children; calls are
strictly nested on one thread, so that is exactly the uncovered part.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (owner, attribute, metric key).  Owner is a module path, or a module path
# plus a class name.  Several lookups may feed one key.
TARGETS = (
    ("ivtest.generator", "build_generator", "generator.build"),
    ("ivtest.simulate", "build_generator", "generator.build"),
    ("ivtest.simulate", "build_generator_with_atoms", "generator.build"),
    ("ivtest.generator", "compose_structural_model", "generator.compose"),
    ("ivtest.simulate", "compose_structural_model", "generator.compose"),
    ("ivtest.simulate", "verify_replication", "generator.verify"),
    ("ivtest.generator.StructuralModel", "induced_law", "generator.induce"),
    ("ivtest.generator.StructuralModel", "to_json_dict", "generator.serialize"),
    ("ivtest.generator.StructuralModel", "sample", "generator.sample"),
    ("ivtest.generator", "collision_fraction", "generator.collision"),
    ("ivtest.measures.GridDistribution", "quantile", "measures.quantile"),
    ("ivtest.measures.GridDistribution", "cdf", "measures.cdf"),
    ("ivtest.measures.GridDistribution", "measure_of", "measures.measure_of"),
    ("ivtest.validity", "winf_distance", "measures.winf_distance"),
    ("ivtest.validity", "fosd_violation", "measures.fosd_violation"),
    ("ivtest.generator", "split_equal_measure", "measures.split_equal_measure"),
    ("ivtest.validity", "monotonicity_test", "validity.fosd"),
    ("ivtest.validity", "monotonicity_sure_decrease_test", "validity.sure-decrease"),
    ("ivtest.validity", "jump_test", "validity.jump"),
    ("ivtest.validity", "instrumental_inequality", "validity.pearl"),
    ("ivtest.validity", "continuity_moment_statistic", "validity.moment"),
    ("ivtest.simulate.Dataset", "from_csv_text", "simulate.from_csv_text"),
    ("ivtest.simulate", "sample", "simulate.sample"),
    ("ivtest.simulate", "discretize", "simulate.discretize"),
    ("ivtest.cli", "discretize", "simulate.discretize"),
    ("ivtest.simulate", "nontestability_demo", "simulate.nontestability_demo"),
    ("ivtest.simulate", "run_experiment", "simulate.run_experiment"),
    ("ivtest.cli", "main", "cli.main"),
)

KEYS = tuple(dict.fromkeys(key for _, _, key in TARGETS))
MODULES = tuple(dict.fromkeys(key.split(".")[0] for key in KEYS))
OP_SPAN = "op"


def _resolve_owner(owner: str):
    """Import ``ivtest.x`` or ``ivtest.x.Class``; None when it is gone."""
    try:
        return importlib.import_module(owner)
    except ImportError:
        mod_path, _, cls_name = owner.rpartition(".")
        try:
            return getattr(importlib.import_module(mod_path), cls_name, None)
        except ImportError:
            return None


def _observe(key: str, args: tuple, kwargs: dict, result, tracer: "Tracer"):
    """Input-describing counts recorded at the span boundary."""
    if key == "simulate.sample":
        n = kwargs.get("n", args[1] if len(args) > 1 else 0)
        tracer.counts["simulate.rows"] += int(n)
    elif key == "generator.build":
        tracer.describe_generator(result)
    elif key == "generator.sample":
        tracer.describe_generator(args[0].generator)
    elif key == "generator.collision":
        tracer.describe_generator(kwargs.get("gen", args[0] if args else None))


class Tracer:
    """Collects spans, calls, self time and errors per metric key."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.gauges: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span_id, child seconds]
        self._next_id = 0
        self._op_id: int | None = None
        self._saved: list[tuple] = []
        self._counted: set[tuple[str, int]] = set()

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> tuple[int, int | None, list]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        return sid, parent, frame

    def _exit(self, sid, parent, frame, name, key, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        self.self_s[key] += dur - frame[1]
        self.calls[key] += 1
        self.spans.append((sid, parent, self._op_id, name, t0, t1))

    def _wrap(self, fn, name: str, key: str):
        tracer = self

        def wrapped(*args, **kwargs):
            sid, parent, frame = tracer._enter()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                module = key.split(".")[0]
                if (module, id(exc)) not in tracer._counted:
                    tracer._counted.add((module, id(exc)))
                    tracer.errors[module] += 1
                raise
            finally:
                tracer._exit(sid, parent, frame, name, key, t0, time.perf_counter())
            _observe(key, args, kwargs, result, tracer)
            return result

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", name)
        return wrapped

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; its self time is the benchmark's own glue."""
        self._op_id = op_id
        sid, parent, frame = self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(sid, parent, frame, OP_SPAN, OP_SPAN, t0, time.perf_counter())
            self._op_id = None
            self._counted.clear()

    def describe_generator(self, gen):
        if gen is None:
            return
        self.gauges["generator.n_u_cells"] = int(gen.n_u_cells)
        self.gauges["generator.z_cells"] = len(gen.cells)

    # -- installation ----------------------------------------------------------

    def install(self):
        for owner_path, attr, key in TARGETS:
            owner = _resolve_owner(owner_path)
            name = f"{owner_path}.{attr}"
            if owner is None or not hasattr(owner, attr):
                if name not in self.missing:
                    self.missing.append(name)
                continue
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    repl = classmethod(self._wrap(raw.__func__, name, key))
                else:
                    repl = self._wrap(raw, name, key)
            else:
                raw = getattr(owner, attr)
                repl = self._wrap(raw, name, key)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, repl)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reporting -------------------------------------------------------------

    def metrics(self, traced_ops: int, traced_wall_s: float, overhead: float):
        """Per-op per-module numbers plus coverage and the given overhead.

        Coverage compares span self times, which are wall seconds, with the
        traced ops' summed wall time.
        """
        per_op = max(traced_ops, 1)
        out = {}
        for key in KEYS:
            out[f"{key}.calls"] = (self.calls[key] / per_op, "calls/op")
            out[f"{key}.self_s"] = (self.self_s[key] / per_op, "s/op")
        for module in MODULES:
            out[f"{module}.errors"] = (self.errors[module] / per_op, "errors/op")
        out["generator.n_u_cells"] = (self.gauges.get("generator.n_u_cells", 0), "count")
        out["generator.z_cells"] = (self.gauges.get("generator.z_cells", 0), "count")
        out["simulate.rows"] = (self.counts["simulate.rows"] / per_op, "rows/op")
        module_self = sum(self.self_s[key] for key in KEYS)
        out["trace.coverage"] = (module_self / traced_wall_s if traced_wall_s > 0 else 0.0, "ratio")
        out["trace.overhead"] = (overhead, "ratio")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, op_id, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "op": op_id, "name": name,
                         "start": t0, "end": t1}
                    )
                    + "\n"
                )

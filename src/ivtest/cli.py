"""Command-line driver: replicate, feasibility, test, simulate.

Exit codes: 0 clean run, 1 input error, 2 domain refusal (x-marginals atomic
at grid resolution, in ``replicate`` or ``simulate``).  Statistical decisions
are data, not exit codes.  Only ``simulate`` draws random numbers; its one
seed is ``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .errors import IVTestError, NonAtomicityError, ValidationError
from .generator import collision_fraction
from .measures import JointLaw, _require_int
from .simulate import (
    Dataset,
    DGPSpec,
    _require_bin_counts,
    discretize,
    nontestability_demo,
    run_experiment,
)
from .validity import (
    REGISTRY,
    InfeasibilityCertificate,
    discrete_generator_feasible,
    make_test,
    witness_report,
)


# what a simulate config that leaves out "n", "reps" or "bins" runs with
SIMULATE_N, SIMULATE_REPS, SIMULATE_BINS = 10_000, 200, [4, 4, 4]

# what ``ivtest test`` runs when no --test is given
DEFAULT_TESTS = ("fosd", "sure-decrease", "jump", "pearl", "moment")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every call returns
    the same parser, which parsing leaves unchanged."""
    parser = argparse.ArgumentParser(
        prog="ivtest",
        description=(
            "Replicate observed laws with valid-instrument models and run the "
            "validity checks that survive continuity or monotonicity restrictions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def files(p):
        p.add_argument("--input", help="input file path")
        p.add_argument("--output", help="output file path")

    p = sub.add_parser("replicate", help="replicate a joint-law JSON with a valid-instrument model")
    files(p)
    p.add_argument("--depth", type=int, default=6, help="partition depth (default 6)")

    p = sub.add_parser("feasibility", help="discrete first-stage feasibility and related checks")
    files(p)

    p = sub.add_parser("test", help="run validity tests on a joint law or dataset")
    files(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--bins", default="4,4,4", help="Y,X,Z bin counts for dataset input")
    p.add_argument("--test", action="append", choices=tuple(REGISTRY), dest="tests",
                   help=f"test to run (repeatable; default: {', '.join(DEFAULT_TESTS)})")
    # no defaults here: a flag left out takes the test's default in REGISTRY
    p.add_argument("--K", type=float, help="jump / sure-decrease threshold")
    p.add_argument("--tol", type=float, help="FOSD tolerance")
    for name in ("alpha", "beta", "gamma", "delta"):
        p.add_argument(f"--{name}", type=float, help="moment test constant")

    p = sub.add_parser("simulate", help="run a size/power experiment from a spec config")
    files(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=7, help="RNG seed (default 7)")
    return parser


def _read_text(path: str) -> str:
    try:  # as UTF-8, less the byte-order mark that spreadsheets write
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str) -> dict:
    try:
        obj = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{path} must hold a JSON object")
    return obj


def _write_text(path: str | None, text: str):
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _parse_bins(spec: str) -> tuple[int, int, int]:
    try:
        y, x, z = (int(v) for v in spec.split(","))
    except ValueError as exc:
        raise ValidationError(f"--bins must be Y,X,Z integers: {exc}") from exc
    return _require_bin_counts(y, x, z)


def cmd_replicate(args) -> int:
    if not args.input:
        raise ValidationError("replicate needs --input")
    law = JointLaw.from_json_dict(_read_json(args.input))
    model, error = nontestability_demo(law, args.depth)
    gen = model.generator
    collision = collision_fraction(gen)
    payload = model.to_json_dict()
    payload["replication_error"] = error
    payload["collision_fraction"] = collision
    _write_text(args.output, json.dumps(payload))
    print(f"replication error: {error!r}")
    print(
        f"generator: depth {gen.depth}, arity {gen.arity}, "
        f"{len(gen.cells)} z cells, {gen.n_u_cells} latent cells"
    )
    print(f"collision fraction: {collision!r}")
    return 0


def cmd_feasibility(args) -> int:
    if not args.input:
        raise ValidationError("feasibility needs --input")
    obj = _read_json(args.input)
    try:
        conditionals = [np.asarray(c, dtype=float) for c in obj["conditionals"]]
        weights = obj.get("weights")
        weights = None if weights is None else np.asarray(weights, dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"feasibility input needs numeric 'conditionals': {exc}") from exc
    _, witness = discrete_generator_feasible(conditionals, weights)
    payload = witness_report(witness).to_json_dict()
    if isinstance(witness, InfeasibilityCertificate):
        payload["reason"] = witness.reason
    else:
        payload["tuples"] = witness.tuples
        payload["weights"] = witness.weights.tolist()
    _write_text(args.output, json.dumps(payload))
    return 0


def cmd_test(args) -> int:
    runners = []
    for name in args.tests or DEFAULT_TESTS:
        defaults, _ = REGISTRY[name]
        params = {k: getattr(args, k) for k in defaults if getattr(args, k, None) is not None}
        runners.append(make_test(name, **params)[1])
    bins = _parse_bins(args.bins)  # bad constants and bins fail before the input is read
    if not args.input:
        raise ValidationError("test needs --input")
    if args.input.lower().endswith(".csv"):
        law = discretize(Dataset.from_csv_text(_read_text(args.input)), *bins)
    else:
        law = JointLaw.from_json_dict(_read_json(args.input))
    reports = [run(law) for run in runners]
    if args.format == "csv":
        lines = ["test,statistic,threshold,decision"] + [r.csv_row() for r in reports]
        _write_text(args.output, "\n".join(lines) + "\n")
    else:
        _write_text(args.output, json.dumps([r.to_json_dict() for r in reports]))
    return 0


def cmd_simulate(args) -> int:
    if not args.input:
        raise ValidationError("simulate needs --input")
    obj = _read_json(args.input)
    spec_objs = obj.get("specs")
    if not isinstance(spec_objs, list):
        raise ValidationError(f"config 'specs' must be a list of objects: {spec_objs!r}")
    specs = [DGPSpec.from_json_dict(s) for s in spec_objs]
    test_objs = obj.get("tests", [])
    if not isinstance(test_objs, list):
        raise ValidationError("config 'tests' must be a list")
    tests = []
    for t in test_objs:
        if not isinstance(t, dict) or "name" not in t:
            raise ValidationError(f"each config test needs a 'name': {t!r}")
        t = dict(t)
        tests.append(make_test(t.pop("name"), **t))
    bins = obj.get("bins", SIMULATE_BINS)
    if not (isinstance(bins, list) and len(bins) == 3):
        raise ValidationError(f"config 'bins' must be a list of three integers: {bins!r}")
    result = run_experiment(
        specs,
        tests,
        n=_require_int("config 'n'", obj.get("n", SIMULATE_N), 1),
        reps=_require_int("config 'reps'", obj.get("reps", SIMULATE_REPS), 1),
        seed=args.seed,
        bins=tuple(bins),
        nontestability_depth=obj.get("nontestability_depth"),
    )
    if args.format == "json":
        _write_text(args.output, json.dumps(result.to_json_dict()))
    else:
        _write_text(args.output, result.to_csv_text())
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "replicate": cmd_replicate,
        "feasibility": cmd_feasibility,
        "test": cmd_test,
        "simulate": cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except NonAtomicityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except IVTestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

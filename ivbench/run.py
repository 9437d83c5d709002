"""Run one ivtest benchmark workload and print its metrics.

    python3 ivbench/run.py --workload replicate --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Op 0 is an untimed warm-up; ops then run back to back (a closed loop, one
client) until ``--seconds`` have passed.  Ops are timed in CPU seconds and
rescaled to a reference host speed (``calibrate.py``).  With ``--trace 0``
the last line of output holds the end-to-end metrics; with ``--trace 1``
every other pair of ops runs under the tracer and the last line holds the
per-module metrics.
The full record, with provenance, goes to ``ivbench/out/results/``.
``--workload all`` runs the four workloads one after another, each in its
own process.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before anything can load numpy: one client, one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import MIN_SLICES, REFERENCE_S, SHARE, cpu_s, point  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("replicate", "model-query", "simulate", "test-csv")
SETUP_REPS = 3  # setup_s is the median of this many setups
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here (for example, no ``src/ivtest``)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' exists for the benchmark's own tests")
    p.add_argument("--results", type=Path, default=OUT / "results",
                   help="directory that receives the run's JSON record")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def set_up(workload: str, seed: int, scale: str, workdir: Path):
    """Import the program and make the workload's inputs; returns (workload, CPU seconds)."""
    t0 = time.process_time()
    sys.path.insert(0, str(SRC))
    import ivtest
    import ivtest.cli  # noqa: F401  (the package does not import its CLI)

    from workloads import SIZES, WORKLOADS as CLASSES

    if Path(ivtest.__file__).resolve().parent != (SRC / "ivtest").resolve():
        raise BenchError(f"imported ivtest from {ivtest.__file__}, not from {SRC}")
    wl = CLASSES[workload](ivtest, seed, SIZES[scale], workdir)
    return wl, time.process_time() - t0


def normalized_setup_s(setup_cpu_s: float) -> float:
    """Set-up CPU time at the reference speed, calibrated right after set-up."""
    return setup_cpu_s * REFERENCE_S / statistics.fmean(point(setup_cpu_s))


def setup_in_child(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise BenchError(f"setup child failed: {done.stderr.strip()[-500:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# Timed loop
# ---------------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it, else 50."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def measure(wl, seconds: float, tracer=None) -> dict:
    """Run ops until ``seconds`` of timed loop have passed; op 0 warms up.

    Each op is timed in wall seconds and in CPU seconds.  A calibration
    point runs after each op, outside its timing; timed op ``j`` lies
    between points ``j`` and ``j + 1``, and its normalized time is its CPU
    time rescaled by their mean (see ``calibrate.py``).

    With a tracer, ops 2-3, 6-7, ... run traced and the rest untraced, so
    both halves see both kinds of input and the run yields the overhead.
    """
    timed, cal, failures = [], [], []  # timed: (traced, wall_s, cpu_s) per timed op
    kinds = set()  # whether traced and untraced ops have been timed
    attempted = 0
    deadline = None
    i = 0
    while True:
        traced = tracer is not None and (i // 2) % 2 == 1
        problems = []
        t0, c0 = time.perf_counter(), cpu_s()
        try:
            if traced:
                with tracer.installed(), tracer.op(i):
                    out = wl.op(i)
            else:
                out = wl.op(i)
        except Exception as exc:  # a failing op is counted, not fatal
            problems.append(f"{type(exc).__name__}: {exc}")
        dt, dc = time.perf_counter() - t0, cpu_s() - c0
        if not problems:
            try:
                problems = wl.check(i, out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        attempted += 1
        if problems:
            failures.append(f"op {i}: " + "; ".join(problems))
        if deadline is None:
            deadline = time.perf_counter() + seconds
        else:
            timed.append((traced, dt, dc))
            kinds.add(traced)
        cal.append(point(dc))
        i += 1
        enough_ops = False in kinds and (tracer is None or True in kinds)
        if enough_ops and time.perf_counter() >= deadline:
            break
    run = {"attempted": attempted, "failures": failures, "calibration_s": cal,
           "latencies": [], "traced_latencies": [], "wall_s": [], "traced_wall_s": [],
           "cpu_s": []}
    for j, (traced, dt, dc) in enumerate(timed):
        norm = dc * REFERENCE_S / statistics.fmean(cal[j] + cal[j + 1])
        run["traced_latencies" if traced else "latencies"].append(norm)
        run["traced_wall_s" if traced else "wall_s"].append(dt)
        if not traced:
            run["cpu_s"].append(dc)
    return run


def end_to_end(run: dict, setup_times: list[float]) -> tuple[dict, dict]:
    lat = run["latencies"]
    p_tail = tail_percentile(len(lat))
    rate_ok = 1.0 - len(run["failures"]) / run["attempted"]
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (percentile(lat, p_tail), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (rate_ok, "ratio"),
    }
    wall, cpu = run["wall_s"], run["cpu_s"]
    notes = {
        "tail_percentile": p_tail,
        "tail_samples_beyond": round(len(lat) * (100.0 - p_tail) / 100.0),
        "setup_times_s": setup_times,
        "latencies_s": lat,
        "error_rate": 1.0 - rate_ok,
        "wall_ops_per_s": len(wall) / sum(wall),
        "wall_op_p50_s": statistics.median(wall),
        "cpu_op_p50_s": statistics.median(cpu),
        "calibration_p50_s": statistics.median(x for c in run["calibration_s"] for x in c),
        "calibration_s": run["calibration_s"],
        "wall_latencies_s": wall,
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, run: dict, notes: dict) -> dict:
    import numpy
    import scipy

    tail = {k: notes[k] for k in ("tail_percentile", "tail_samples_beyond") if k in notes}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "ops_attempted": run["attempted"],
        "ops_timed_untraced": len(run["latencies"]),
        "ops_timed_traced": len(run["traced_latencies"]),
        "warmup_ops": 1,
        "setup_reps": SETUP_REPS,
        "calibration_reference_s": REFERENCE_S,
        "calibration_min_slices": MIN_SLICES,
        "calibration_share": SHARE,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        **tail,
    }


def print_table(title: str, metrics: dict):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")


def run_one(args) -> int:
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, setup_cpu_s = set_up(args.workload, args.seed, args.scale, workdir)
        setup_s = normalized_setup_s(setup_cpu_s)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_times = [setup_s] + [setup_in_child(args) for _ in range(SETUP_REPS - 1)]
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        run = measure(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed}
    if tracer is None:
        metrics, notes = end_to_end(run, setup_times)
        record["notes"] = notes
        print_table(f"{args.workload}, seed {args.seed}: end-to-end", metrics)
        print(f"  {'error_rate':<40} {notes['error_rate']:>14.6g} ratio "
              f"({len(run['failures'])} failed of {run['attempted']} attempted)")
        print(f"  tail percentile p{notes['tail_percentile']:g} of {len(run['latencies'])} timed ops")
        print(f"  not normalized: {notes['wall_ops_per_s']:.6g} ops/s and op p50 "
              f"{notes['wall_op_p50_s']:.6g} s in wall time, op p50 {notes['cpu_op_p50_s']:.6g} s "
              f"in CPU time; calibration slice p50 {notes['calibration_p50_s']:.6g} s "
              f"(reference {REFERENCE_S:g} s)")
    else:
        traced, untraced = run["traced_latencies"], run["latencies"]
        overhead = (len(traced) / sum(traced)) / (len(untraced) / sum(untraced))
        metrics = tracer.metrics(len(traced), sum(run["traced_wall_s"]), overhead)
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        record["notes"] = {"spans": str(spans_path.relative_to(ROOT)), "spans_n": len(tracer.spans),
                           "unwrapped": tracer.missing}
        print_table(f"{args.workload}, seed {args.seed}: per module, per traced op", metrics)
    for line in run["failures"][:20]:
        print(f"FAILED {line}", file=sys.stderr)

    record["provenance"] = provenance(args, run, record["notes"])
    record["failures"] = run["failures"]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    args.results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = args.results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))
    print("provenance: " + json.dumps(record["provenance"]))
    correct = not run["failures"]
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": len(run["failures"]), "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and set-up stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale,
               "--results", str(args.results)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            raise BenchError(f"workload {w} exited with {done.returncode}")
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, m in last["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if not (SRC / "ivtest" / "__init__.py").is_file():
            raise BenchError(f"no ivtest package under {SRC}")
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

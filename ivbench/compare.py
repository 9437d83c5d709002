"""Compare two result sets of the benchmark, metric by metric.

    python3 ivbench/compare.py RESULTS_A RESULTS_B

Each argument is a directory of run records written by ``run.py`` (the
``--results`` directory), holding several runs per workload.  For every
workload and end-to-end metric in ``BENCHMARK.json`` the report gives each
side's median and quartiles, the ratio B/A of the medians, and a verdict:

* ``unresolved`` when either side's spread (quartile distance over median)
  is wider than the metric's bound, unless every B run beats every A run;
* ``worse`` or ``better`` when B's median differs from A's by more than the
  bound, in that direction;
* ``within bound`` otherwise.

The report does not pair runs, so it claims no gain.  A gain needs at least
ten alternating before/after pairs, nine tenths of them won.

Traced runs (``--trace 1``) are ignored: their timings include the tracer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values over the untraced runs in ``directory``."""
    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("provenance", {}).get("trace"):
            continue
        for name, m in record["metrics"].items():
            out[record["workload"]][name].append(float(m["value"]))
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run has zero spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(a: list[float], b: list[float], bound: float, higher_is_better: bool) -> str:
    sign = 1.0 if higher_is_better else -1.0
    med_a, med_b = summary(a)[1], summary(b)[1]
    if max(spread(a), spread(b)) > bound:
        if min(sign * x for x in b) > max(sign * x for x in a):
            return "better"
        return "unresolved"
    change = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "within bound"


def report(dir_a: Path, dir_b: Path, bench: dict) -> list[str]:
    a, b = load(dir_a), load(dir_b)
    lines = [f"A = {dir_a}", f"B = {dir_b}",
             f"{'workload':<12} {'metric':<13} {'unit':<6} {'nA':>3} {'A q1/med/q3':>33} "
             f"{'nB':>3} {'B q1/med/q3':>33} {'B/A':>7} {'bound':>6}  verdict"]
    for workload in sorted(set(a) & set(b)):
        for m in bench["end_to_end"]:
            va, vb = a[workload].get(m["name"]), b[workload].get(m["name"])
            if not va or not vb:
                continue
            sa, sb = summary(va), summary(vb)
            ratio = sb[1] / sa[1] if sa[1] else float("nan")
            v = verdict(va, vb, m["bound"], m["better"] == "higher")
            lines.append(
                f"{workload:<12} {m['name']:<13} {m['unit']:<6} {len(va):>3} "
                f"{sa[0]:>10.4g}/{sa[1]:>10.4g}/{sa[2]:>10.4g} {len(vb):>3} "
                f"{sb[0]:>10.4g}/{sb[1]:>10.4g}/{sb[2]:>10.4g} {ratio:>7.3f} {m['bound']:>6.2f}  {v}"
            )
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    p.add_argument("results_a", type=Path)
    p.add_argument("results_b", type=Path)
    p.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = p.parse_args(argv)
    bench = json.loads(args.benchmark.read_text())
    print("\n".join(report(args.results_a, args.results_b, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

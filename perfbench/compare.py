#!/usr/bin/env python3
"""Summarise one result set, or compare two, against the bounds in BENCHMARK.json.

A result set is a JSON-lines file written by ``run.py --save``; runs are
grouped by workload and paired across the two sets by seed.

    python3 perfbench/compare.py BASE.jsonl             # spread of each metric
    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

With one set, each row gives the median, the quartiles and the spread
(quartile distance over median) of a metric, and flags a spread that is
not below a third of its bound.  With two sets, each row gives both
sides and a verdict:

- ``unresolved``: either side's spread is wider than the bound, and not
  every run of the change reads better than every run of the base;
- ``better (every run)``: the spread is wider than the bound, but every
  run of the change reads better than every run of the base;
- ``regression``: the change's median is worse than the base median by
  more than the bound;
- ``improved``: the change wins at least nine tenths of the seed-matched
  pairs (ties count for neither) and the medians differ by more than the
  base's quartile distance;
- ``within bound``: none of these.

Metrics without a bound (the per-layer ones) get no verdict.
"""

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]


def load(path: str) -> dict:
    """(workload, metric) -> {seed: value}."""
    values = defaultdict(dict)
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            meta = record["meta"]
            for metric, entry in record["result"]["metrics"].items():
                values[meta["workload"], metric][meta["seed"]] = entry["value"]
    return values


def summary(values) -> tuple[float, float, float]:
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return median(values), q1, q3


def spread(values) -> float:
    mid, q1, q3 = summary(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def verdict(base: dict, change: dict, spec: dict) -> tuple[str, str]:
    """Verdict for one workload and metric, and the pairs won."""
    direction, bound = spec["better"], spec.get("bound")
    seeds = sorted(set(base) & set(change))
    wins = sum(better(change[s], base[s], direction) for s in seeds)
    losses = sum(better(base[s], change[s], direction) for s in seeds)
    won = f"{wins}/{len(seeds)}" + (f" ({losses} lost)" if losses else "")
    if bound is None:
        return "no bound", won
    base_mid, base_q1, base_q3 = summary(base.values())
    change_mid = summary(change.values())[0]
    if max(spread(base.values()), spread(change.values())) > bound:
        if all(better(c, b, direction) for c in change.values() for b in base.values()):
            return "better (every run)", won
        return "unresolved", won
    worse = (change_mid - base_mid) / abs(base_mid)
    if direction == "higher":
        worse = -worse
    if worse > bound:
        return "regression", won
    if (seeds and wins >= 0.9 * len(seeds) and better(change_mid, base_mid, direction)
            and abs(change_mid - base_mid) > base_q3 - base_q1):
        return "improved", won
    return "within bound", won


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)

    bench = json.loads(Path(args.benchmark).read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base = load(args.base)
    change = load(args.change) if args.change else None

    def fmt(values):
        mid, q1, q3 = summary(values)
        return f"{mid:.5g} [{q1:.5g}, {q3:.5g}]"

    unsteady = 0
    for workload in bench["workloads"]:
        for name, spec in specs.items():
            key = (workload["name"], name)
            if key not in base or (change is not None and key not in change):
                continue
            bound = spec.get("bound")
            bound_text = f"{bound:g}" if bound is not None else "-"
            row = f"{key[0]:<12} {name:<38} {spec['unit']:<6}"
            if change is None:
                s = spread(base[key].values())
                flag = ""
                if bound is not None and name != "setup_s" and s >= bound / 3:
                    flag = "  spread not below a third of the bound"
                    unsteady += 1
                print(f"{row} n={len(base[key]):<3} {fmt(base[key].values()):<36} "
                      f"spread {s:.4f}  bound {bound_text}{flag}")
            else:
                mid_b = summary(base[key].values())[0]
                mid_c = summary(change[key].values())[0]
                delta = (mid_c - mid_b) / abs(mid_b) if mid_b else float("nan")
                text, won = verdict(base[key], change[key], spec)
                print(f"{row} base {fmt(base[key].values()):<34} change "
                      f"{fmt(change[key].values()):<34} {delta:+.2%}  bound {bound_text:<5} "
                      f"won {won:<14} {text}")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing around the package's public functions, from outside the package.

Modules import functions by name (``from .rankstats import
u_statistic_unpaired``), so replacing a function in its defining module is
not enough.  While installed, the tracer replaces each public function of
every layer module with a pass-through wrapper in every ``surrank``
namespace that holds it, and restores the originals on exit.  No file of
the package is changed.

Each span records its name, start, end, parent span and operation id,
plus counts computed from argument sizes.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from statistics import median
from time import perf_counter

LAYERS = ("cli", "dataio", "pipeline", "rankstats", "variance", "inference",
          "multitest", "simulate")


def _span_name(layer: str, name: str, args) -> str:
    # `surrank.cli.main(argv)` is named after its subcommand: cli.rise.
    if layer == "cli" and name == "main" and args and args[0]:
        return f"cli.{args[0][0]}"
    return f"{layer}.{name}"


def _ingest_counts(args, result):
    spec = args[0]
    size = os.path.getsize(spec.response_path) + os.path.getsize(spec.candidates_path)
    return {"bytes": size, "cells": (result.n_a + result.n_b) * (result.p + 1)}


# Work counts computed from argument sizes (labelled "computed" in reports).
_COUNTS = {
    "rankstats.u_statistic_unpaired": lambda args, result: {"pairs": args[0].n1 * args[0].n0},
    "rankstats.u_statistic_paired": lambda args, result: {"pairs": args[0].n},
    # Each call forms the response's and the candidate's kernel.
    "variance.delta_variance_unpaired":
        lambda args, result: {"pairs": 2 * args[0].n1 * args[0].n0},
    "variance.delta_variance_paired": lambda args, result: {"pairs": 2 * args[0].n},
    "pipeline.screen": lambda args, result: {"candidates": args[0].p},
    "dataio.ingest": _ingest_counts,
}


def public_functions(module):
    """Public callables defined in ``module`` (classes excluded)."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__}


class Tracer:
    """Installs wrappers for the duration of one operation and keeps its spans."""

    def __init__(self):
        # (name, start, end, parent index or -1, op id, counts or None)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op = None
        self._originals = {}
        for layer in LAYERS:
            module = sys.modules[f"surrank.{layer}"]
            for name, fn in public_functions(module).items():
                self._originals[id(fn)] = self._wrap(layer, name, fn)
        self._patched = []

    def _wrap(self, layer: str, name: str, fn):
        counts = _COUNTS.get(f"{layer}.{name}")
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (_span_name(layer, name, args), start, end, parent,
                                self._op, None)
            if counts is not None:
                spans[index] = spans[index][:5] + (counts(args, result),)
            return result

        return wrapper

    def __call__(self, op_id: int):
        self._op = op_id
        return self

    def __enter__(self):
        for module_name, module in list(sys.modules.items()):
            if module_name != "surrank" and not module_name.startswith("surrank."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        self._op = None
        return False

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        fields = ("name", "start", "end", "parent", "op", "counts")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


# --------------------------------------------------------------------------
# Per-layer metrics from spans.

_U = ("rankstats.u_statistic_unpaired", "rankstats.u_statistic_paired")
_DV = ("variance.delta_variance_unpaired", "variance.delta_variance_paired")
_WRITERS = ("dataio.write_screening_table", "dataio.write_selected", "dataio.write_weights",
            "dataio.write_evaluation_summary", "dataio.write_volcano",
            "dataio.write_rank_scatter")
_SIM_DRIVERS = ("simulate.run_screening_experiment", "simulate.run_evaluation_experiment")

# name: (unit, better, description).  Times are seconds and counts are
# units per round, where a round is one operation of each kind the
# workload runs (one operation, except on `simulate`); each is the median
# over the traced rounds that enter the layer, 0 where none does.  Set-up
# is traced as a round of its own, which is where write_dataset and the
# study generation of `screen_wide` run.
LAYER_METRICS = {
    "cli.rise.s": ("s", "lower", "wall time of `surrank rise`"),
    "cli.rise.self_s": ("s", "lower", "cli.rise minus its child spans"),
    "dataio.ingest.s": ("s", "lower", "reading the two input files"),
    "dataio.ingest.cells_per_s": ("1/s", "higher", "values parsed per ingest second"),
    "dataio.bytes_read": ("bytes", "lower", "input bytes per ingest (computed)"),
    "dataio.write_artifacts.s": ("s", "lower", "the six write_* calls of rise"),
    "dataio.write_dataset.s": ("s", "lower", "writing the input files (set-up)"),
    "pipeline.split.s": ("s", "lower", "split stage"),
    "pipeline.screen.s": ("s", "lower", "screen stage"),
    "pipeline.screen.self_s": ("s", "lower", "screen minus its child spans"),
    "pipeline.screen.candidates": ("count", "higher", "candidates screened (computed)"),
    "pipeline.screen.op_share": ("ratio", "lower",
                                 "screen time over the time of operations that screen"),
    "pipeline.combine.s": ("s", "lower", "combine stage"),
    "pipeline.evaluate.s": ("s", "lower", "evaluate stage"),
    "rankstats.u_statistic.calls": ("count", "lower", "U estimator calls"),
    "rankstats.u_statistic.s": ("s", "lower", "time in U estimators"),
    "rankstats.pair_comparisons": ("count", "lower", "kernel comparisons in U (computed)"),
    "variance.delta_variance.calls": ("count", "lower", "delta-variance calls"),
    "variance.delta_variance.s": ("s", "lower", "time in delta-variance"),
    "variance.pair_comparisons": ("count", "lower",
                                  "kernel comparisons in delta-variance (computed)"),
    "variance.response_kernel_useful_frac": (
        "ratio", "higher", "screens and single tests over response-kernel builds"),
    "inference.select_epsilon.s": ("s", "lower", "margin selection"),
    "inference.assemble.s": ("s", "lower", "surrogate_test_from_estimates"),
    "inference.surrogate_test.calls": ("count", "lower", "single-marker tests"),
    "inference.surrogate_test.s": ("s", "lower", "time in single-marker tests"),
    "multitest.adjust.calls": ("count", "lower", "multiplicity adjustments"),
    "multitest.adjust.s": ("s", "lower", "time in adjust"),
    "simulate.generate.calls": ("count", "lower", "datasets generated"),
    "simulate.generate.s": ("s", "lower", "time in generate"),
    "simulate.weighted_sum.s": ("s", "lower",
                                "weighted_standardized_sum inside the drivers"),
    "trace.overhead_frac": ("ratio", "lower", "traced / untraced op_s.p50 - 1"),
}


def _ancestor(spans, index: int, names) -> int:
    """Index of the nearest ancestor span whose name is in ``names``, or -1."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return parent
        parent = spans[parent][3]
    return -1


def layer_metrics(spans, op_round: dict, op_times: dict, overhead_frac: float) -> dict:
    """Per-layer metrics from the spans of the traced operations.

    ``op_round`` maps each traced operation id to its round, and
    ``op_times`` maps it to the operation's wall time.
    """
    per_round = defaultdict(lambda: defaultdict(float))  # metric -> round -> value
    child_time = defaultdict(float)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    kernel_users = defaultdict(set)
    screen_share = {}

    def add(metric, op, value):
        per_round[metric][op_round[op]] += value

    for index, (name, start, end, parent, op, counts) in enumerate(spans):
        duration = end - start
        if name == "cli.rise":
            add("cli.rise.s", op, duration)
            add("cli.rise.self_s", op, duration - child_time[index])
        elif name == "dataio.ingest":
            add("dataio.ingest.s", op, duration)
            add("dataio.ingest.cells", op, counts["cells"])
            add("dataio.bytes_read", op, counts["bytes"])
        elif name in _WRITERS and parent >= 0 and spans[parent][0] == "cli.rise":
            add("dataio.write_artifacts.s", op, duration)
        elif name == "dataio.write_dataset":
            add("dataio.write_dataset.s", op, duration)
        elif name in ("pipeline.split", "pipeline.combine", "pipeline.evaluate"):
            add(f"{name}.s", op, duration)
        elif name == "pipeline.screen":
            add("pipeline.screen.s", op, duration)
            add("pipeline.screen.self_s", op, duration - child_time[index])
            add("pipeline.screen.candidates", op, counts["candidates"])
            screen_share[op] = screen_share.get(op, 0.0) + duration / op_times[op]
        elif name in _U:
            add("rankstats.u_statistic.calls", op, 1)
            add("rankstats.u_statistic.s", op, duration)
            add("rankstats.pair_comparisons", op, counts["pairs"])
        elif name in _DV:
            add("variance.delta_variance.calls", op, 1)
            add("variance.delta_variance.s", op, duration)
            add("variance.pair_comparisons", op, counts["pairs"])
            user = _ancestor(spans, index, ("pipeline.screen", "inference.surrogate_test"))
            kernel_users[op_round[op]].add(user)
        elif name == "inference.select_epsilon":
            add("inference.select_epsilon.s", op, duration)
        elif name == "inference.surrogate_test_from_estimates":
            add("inference.assemble.s", op, duration)
        elif name == "inference.surrogate_test":
            add("inference.surrogate_test.calls", op, 1)
            add("inference.surrogate_test.s", op, duration)
        elif name == "multitest.adjust":
            add("multitest.adjust.calls", op, 1)
            add("multitest.adjust.s", op, duration)
        elif name == "simulate.generate":
            add("simulate.generate.calls", op, 1)
            add("simulate.generate.s", op, duration)
        elif (name == "pipeline.weighted_standardized_sum"
              and _ancestor(spans, index, _SIM_DRIVERS) >= 0):
            add("simulate.weighted_sum.s", op, duration)

    for round_, users in kernel_users.items():
        per_round["variance.response_kernel_useful_frac"][round_] = (
            len(users) / per_round["variance.delta_variance.calls"][round_])
    for round_, cells in per_round.pop("dataio.ingest.cells", {}).items():
        per_round["dataio.ingest.cells_per_s"][round_] = (
            cells / per_round["dataio.ingest.s"][round_])

    metrics = {name: (median(per_round[name].values()) if per_round.get(name) else 0.0)
               for name in LAYER_METRICS}
    # A share of one operation, not of a round: on `simulate` it is the
    # share of a screening-driver call.
    metrics["pipeline.screen.op_share"] = median(screen_share.values()) if screen_share else 0.0
    metrics["trace.overhead_frac"] = overhead_frac
    return metrics


def children_of(spans, parent_name: str) -> dict:
    """Median time per operation of each direct child of spans named ``parent_name``."""
    per_op = defaultdict(lambda: defaultdict(float))
    for name, start, end, parent, op, _ in spans:
        if parent >= 0 and spans[parent][0] == parent_name:
            per_op[name][op] += end - start
    return {name: median(ops.values()) for name, ops in per_op.items()}

"""Time the evaluation-stage Monte-Carlo driver, ``run_evaluation_experiment``.

    PYTHONPATH=src python3 bench/evaluation.py [--out bench/BENCH_evaluation.json]

Three settings, all with n = 50 per arm, a combination of 20 members at
valid strength 0.9, the rho grid (0, 0.2, 0.6, 1) and power 0.8:

- ``perfbench_simulate``: 50 replicates, one evaluation operation of the
  perfbench ``simulate`` workload (normal process, seed 0);
- ``criterion_6``: 200 replicates at seed 60006, acceptance criterion 6;
- ``complex_correlated``: 50 replicates of the cubed process with
  ``sigma_corr`` 0.3 (seed 0), the correlated draws.

Before timing, each setting's p-values are checked bit for bit against a
per-cell oracle: for every (replicate, rho) cell, ``simulate._draw``, then
``pipeline.weighted_standardized_sum``, then ``inference.surrogate_test``,
in the driver's stream order.  The oracle calls ``_draw`` and
``weighted_standardized_sum`` with the arguments every tree since the
per-cell driver takes, so the same script times older trees, whose
driver is that loop.

Each timing is the median of ``REPEATS`` batches of calls.  Like the
perfbench workloads, the script fixes glibc's mmap threshold at 128 KiB.
The JSON records the sizes, the numpy/scipy versions and the git sha of
the tree the ``surrank`` package was imported from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from statistics import median
from time import perf_counter

import numpy as np
import scipy

from ingest import git_state
from kernel import MMAP_THRESHOLD, fix_mmap_threshold
from surrank.inference import TestConfig, surrogate_test
from surrank.pipeline import weighted_standardized_sum
from surrank.rankstats import TwoArmSample
from surrank.simulate import _draw, calibrate_sigma_valid, run_evaluation_experiment

REPEATS = 7
COMMON = {"n": 50, "valid_strength": 0.9, "set_size": 20, "rho_grid": (0.0, 0.2, 0.6, 1.0),
          "power": 0.8, "dgp": "normal", "sigma_corr": 0.0}
# name, settings beyond COMMON, calls per timed batch (each batch takes a few tenths of a second)
SETTINGS = (
    ("perfbench_simulate", {"n_sim": 50, "seed": 0}, 10),
    ("criterion_6", {"n_sim": 200, "seed": 60006}, 3),
    ("complex_correlated", {"n_sim": 50, "seed": 0, "dgp": "complex", "sigma_corr": 0.3}, 10),
)


def oracle(n, valid_strength, set_size, rho_grid, power, dgp, sigma_corr, n_sim,
           seed) -> np.ndarray:
    """Each cell's p-value from its own ``surrogate_test``, in the driver's stream order."""
    sigma_valid = calibrate_sigma_valid(dgp, valid_strength)
    config = TestConfig(power=power)
    pvalues = np.empty((len(rho_grid), n_sim))
    for i, stream in enumerate(np.random.SeedSequence(seed).spawn(n_sim)):
        rng = np.random.default_rng(stream)
        for g, rho in enumerate(rho_grid):
            k_invalid = int(np.ceil(rho * set_size))
            y1, y0, candidates1, candidates0 = _draw(rng, dgp, n, n, k_invalid,
                                                     set_size - k_invalid, sigma_valid,
                                                     sigma_corr)
            gamma1, gamma0, _, _, _ = weighted_standardized_sum(candidates1, candidates0,
                                                                np.ones(set_size))
            pvalues[g, i] = surrogate_test(TwoArmSample(y1, y0), TwoArmSample(gamma1, gamma0),
                                           config).p_value
    return pvalues


def time_setting(name: str, extra: dict, calls: int) -> dict:
    settings = {**COMMON, **extra}

    def run():
        return run_evaluation_experiment(**settings)

    if run().pvalues.tobytes() != oracle(**settings).tobytes():
        raise SystemExit(f"{name}: p-values differ from the per-cell surrogate_test oracle")
    run()  # warm-up
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(calls):
            run()
        times.append((perf_counter() - start) / calls)
    cells = settings["n_sim"] * len(COMMON["rho_grid"])
    return {"name": name, **settings, "rho_grid": list(COMMON["rho_grid"]), "cells": cells,
            "calls_per_batch": calls, "driver_s": median(times), "driver_s_all": times,
            "us_per_cell": median(times) / cells * 1e6}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(os.path.dirname(__file__),
                                                      "BENCH_evaluation.json"))
    args = parser.parse_args(argv)
    mmap_fixed = fix_mmap_threshold()
    cases = [time_setting(*setting) for setting in SETTINGS]
    result = {
        "script": "bench/evaluation.py", "repeats": REPEATS, **git_state(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "malloc_mmap_threshold": MMAP_THRESHOLD if mmap_fixed else "glibc default",
        "cases": cases,
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    for case in cases:
        print(f"{case['name']} ({case['n_sim']} replicates, {case['cells']} cells): "
              f"{case['driver_s'] * 1e3:.2f} ms, {case['us_per_cell']:.1f} us per cell")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

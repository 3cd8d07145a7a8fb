"""Sweep the kernel's column-block width, then time ``screen`` and the screening driver.

    PYTHONPATH=src python3 bench/screen.py [--out bench/BENCH_screen.json]

The sweep runs ``variance._gaps`` over a panel of ``SWEEP_COLUMNS``
continuous candidates in blocks of each width in ``WIDTHS``, each block
led by the response column as ``screen`` builds it, and records the time
per candidate column, the widths taking turns within each repeat.  Its
three block heights are the screening splits of the benchmark workloads:
unpaired 100 + 100 (one Monte-Carlo replicate of ``simulate``), unpaired
112 + 112 (``screen_wide``) and 150 paired units (``rise_files``).  The
cost per column drops where the kernel's temporaries stop crossing the
mmap threshold.  The largest takes the design's bytes per column: 8 (n_a +
n_b) unpaired and 8 n_units paired (before the design object, the block
rule counted 8 (n_a + n_b) for both).

Then ``screen`` runs on a whole study at each of those heights (p = 100,
10 000 and 3 000), with the minor page faults of one call, and
``run_screening_experiment`` at the criterion-5 setting (n = 100 + 100,
p = 100, ten per cent valid at strength 0.9, BH, 200 replicates).

Each timing is the median of ``REPEATS`` batches.  Like the perfbench
workloads, the script fixes glibc's mmap threshold at 128 KiB, so every
temporary above it is mapped and page-faulted afresh on each call.  The
JSON records the sizes, the numpy/scipy versions, the git sha of the tree
the ``surrank`` package was imported from and that tree's block rule.
Before timing, each sweep panel's U is checked against
``scipy.stats.mannwhitneyu`` (unpaired) or a direct count of wins and
ties (paired).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from statistics import median
from time import perf_counter

import numpy as np
import scipy
from scipy.stats import mannwhitneyu

from ingest import git_state
from kernel import MMAP_THRESHOLD, design_kernel, fix_mmap_threshold
from surrank import pipeline, rankstats
from surrank.inference import TestConfig
from surrank.pipeline import Dataset, screen
from surrank.simulate import DgpConfig, run_screening_experiment
from surrank.variance import _gaps

REPEATS = 5
SWEEP_COLUMNS = 2048
WIDTHS = (8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 96, 128, 192, 256, 384, 512)
# name, design, n_a, n_b, p of the whole-study screen, screen calls per batch
HEIGHTS = (
    ("unpaired_100+100", "unpaired", 100, 100, 100, 50),
    ("unpaired_112+112", "unpaired", 112, 112, 10_000, 1),
    ("paired_150", "paired", 150, 150, 3_000, 20),
)
DRIVER = {"scenario": "ten_pct_valid", "n1": 100, "n0": 100, "p_total": 100,
          "target_u_s": 0.9, "seed": 50090}
DRIVER_METHOD, DRIVER_REPLICATES = "bh", 200


def median_time(fn, calls: int) -> tuple[float, list[float]]:
    fn()  # warm-up
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - start) / calls)
    return median(times), times


def blocks(design: str, n_a: int, n_b: int, p: int):
    """A response column and ``p`` candidates as an (n_a, p + 1) and an (n_b, p + 1) block."""
    rng = np.random.default_rng(0)
    a = rng.normal(0.3, 1.0, (n_a, p + 1))
    b = rng.normal(0.0, 1.0, (n_b, p + 1))
    if design == "paired":
        a = b + a  # post = pre + a unit-level change
    return a, b


def gaps_design(design: str):
    """What the imported tree's ``_gaps`` takes for ``design``: its design object, or the name."""
    return rankstats._Design.named(design) if hasattr(rankstats, "_Design") else design


def column_bytes(design: str, n_a: int, n_b: int) -> int:
    """Bytes per candidate column that the imported tree's block rule counts."""
    if hasattr(rankstats, "_Design"):
        return rankstats._Design.named(design).column_bytes(n_a, n_b)
    return 8 * (n_a + n_b)


def check_u(design: str, a: np.ndarray, b: np.ndarray, name: str):
    u = design_kernel(design)(a, b).u
    if design == "unpaired":
        expected = mannwhitneyu(a, b, axis=0).statistic / (a.shape[0] * b.shape[0])
    else:
        expected = ((a > b).sum(axis=0) + 0.5 * (a == b).sum(axis=0)) / a.shape[0]
    if not np.array_equal(u, expected):
        raise SystemExit(f"{name}: kernel U differs from the reference count")


def sweep(name: str, design: str, n_a: int, n_b: int) -> dict:
    a, b = blocks(design, n_a, n_b, SWEEP_COLUMNS)
    check_u(design, a, b, name)
    response_a, response_b = a[:, :1], b[:, :1]
    candidates_a, candidates_b = a[:, 1:], b[:, 1:]
    core_design = gaps_design(design)

    def run(width):
        for start in range(0, SWEEP_COLUMNS, width):
            _gaps(core_design, np.hstack([response_a, candidates_a[:, start:start + width]]),
                  np.hstack([response_b, candidates_b[:, start:start + width]]))

    # the widths take turns within each repeat, so no width gets a heap shaped
    # by its own earlier passes only
    run(WIDTHS[0])  # warm-up
    passes = {width: [] for width in WIDTHS}
    for _ in range(REPEATS):
        for width in WIDTHS:
            start = perf_counter()
            run(width)
            passes[width].append(perf_counter() - start)
    points = [{"width": width, "temporary_bytes": column_bytes(design, n_a, n_b) * width,
               "us_per_column": median(passes[width]) / SWEEP_COLUMNS * 1e6,
               "pass_s_all": passes[width]} for width in WIDTHS]
    return {"name": name, "design": design, "n_a": n_a, "n_b": n_b,
            "columns": SWEEP_COLUMNS, "points": points}


def minor_faults(fn) -> int:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def time_screen(name: str, design: str, n_a: int, n_b: int, p: int, calls: int) -> dict:
    a, b = blocks(design, n_a, n_b, p)
    build = Dataset.unpaired if design == "unpaired" else Dataset.paired
    data = build(a[:, 0], b[:, 0], a[:, 1:], b[:, 1:])
    config = TestConfig()
    per_call, times = median_time(lambda: screen(data, config, "bh"), calls)
    return {"name": name, "design": design, "n_a": n_a, "n_b": n_b, "p": p,
            "calls_per_batch": calls, "screen_s": per_call, "screen_s_all": times,
            "minor_faults_per_call": minor_faults(lambda: screen(data, config, "bh"))}


def time_driver() -> dict:
    cfg = DgpConfig(**DRIVER)
    per_call, times = median_time(
        lambda: run_screening_experiment(cfg, method=DRIVER_METHOD, n_sim=DRIVER_REPLICATES), 1)
    return {**DRIVER, "method": DRIVER_METHOD, "n_sim": DRIVER_REPLICATES,
            "driver_s": per_call, "driver_s_all": times}


def block_rule() -> dict:
    """How the imported tree sizes the column blocks of ``screen``."""
    if hasattr(pipeline, "_BLOCK_BYTES"):
        return {"block_bytes": pipeline._BLOCK_BYTES,
                "widths": {name: max(1, pipeline._BLOCK_BYTES // column_bytes(design, n_a, n_b))
                           for name, design, n_a, n_b, _, _ in HEIGHTS}}
    return {"chunk_columns": pipeline._CHUNK_COLUMNS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(os.path.dirname(__file__),
                                                      "BENCH_screen.json"))
    args = parser.parse_args(argv)
    mmap_fixed = fix_mmap_threshold()
    sweeps = [sweep(name, design, n_a, n_b) for name, design, n_a, n_b, _, _ in HEIGHTS]
    screens = [time_screen(*height) for height in HEIGHTS]
    driver = time_driver()
    result = {
        "script": "bench/screen.py", "repeats": REPEATS, **git_state(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "malloc_mmap_threshold": MMAP_THRESHOLD if mmap_fixed else "glibc default",
        "block_rule": block_rule(), "sweeps": sweeps, "screens": screens,
        "criterion_5_driver": driver,
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    for case in sweeps:
        shown = " ".join(f"{point['width']}:{point['us_per_column']:.1f}"
                         for point in case["points"])
        print(f"sweep {case['name']} (width:us per column) {shown}")
    for case in screens:
        print(f"screen {case['name']} x {case['p']}: {case['screen_s'] * 1e3:.2f} ms, "
              f"{case['minor_faults_per_call']} minor faults")
    print(f"criterion-5 driver, {DRIVER_REPLICATES} replicates: {driver['driver_s']:.3f} s")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

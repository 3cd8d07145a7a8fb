"""Time the unpaired rank kernel and one single-marker test.

    PYTHONPATH=src python3 bench/kernel.py [--out bench/BENCH_kernel.json]

Sizes (n per arm, k kernel rows): 100 / 101 and 150 / 513 on continuous
normal data, 150 / 513 on the same data rounded to integers (10 levels,
so many comparisons sit in tie runs), and 50 / 2, the response
and one candidate of a single-marker test.  101 is the response plus the
p = 100 panel of the Monte-Carlo drivers and 513 the response plus 512
candidates, a block far wider than the 40 or fewer columns ``screen``
uses at these heights (``bench/screen.py`` sweeps the width).  The 50 / 2 case also times the whole ``surrogate_test``, whose
fixed per-call costs the simulation drivers pay 200 times per call.

Each case runs ``REPEATS`` batches of calls and records the time per call
of every batch and their median.  Trees whose kernel takes a pooled block
and a workspace get both built once per case, as a screening call builds
them once for all its blocks.  Like the perfbench workloads, the script
fixes glibc's mmap threshold (and the heap-trim threshold with it) at
128 KiB, so every large temporary the kernel allocates is mapped and
returned on each call and its page faults are timed.  The
JSON also records the sizes, the numpy/scipy versions and the git sha of
the tree the ``surrank`` package was imported from.  Each kernel's U is
checked against ``scipy.stats.mannwhitneyu`` before timing.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import platform
import sys
from statistics import median
from time import perf_counter

import numpy as np
import scipy
from scipy.stats import mannwhitneyu

from ingest import git_state
from surrank import rankstats
from surrank.inference import TestConfig, surrogate_test
from surrank.rankstats import TwoArmSample

REPEATS = 7
# calls per timed batch, so that each batch takes tens of milliseconds
SIZES = (
    ("continuous_100x101", 100, 101, False, 20),
    ("continuous_150x513", 150, 513, False, 4),
    ("rounded_150x513", 150, 513, True, 4),
    ("single_marker_50x2", 50, 2, False, 500),
)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, MMAP_THRESHOLD = -1, -3, 128 * 1024


def fix_mmap_threshold() -> bool:
    """Fix glibc's mmap threshold, and its heap-trim threshold, at 128 KiB.

    perfbench fixes the mmap threshold before numpy is imported, which
    leaves the trim threshold at its 128 KiB default.  The bench scripts
    fix it after their imports, whose frees may have raised the trim
    threshold along with the mmap threshold; unless it is set too, freed
    temporaries stay on the heap where perfbench would see them trimmed
    and faulted in again.
    """
    try:
        libc = ctypes.CDLL(None)
        return (libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
                and libc.mallopt(M_TRIM_THRESHOLD, MMAP_THRESHOLD) == 1)
    except (OSError, AttributeError):
        return False


def design_kernel(design: str):
    """The imported tree's kernel for ``design``: its design object's, or ``_placements``."""
    if hasattr(rankstats, "_Design"):
        return rankstats._Design.named(design).kernel
    return functools.partial(rankstats._placements, design)


def kernel_call(design: str, a: np.ndarray, b: np.ndarray):
    """One call of the imported tree's kernel on an ``(n_a, k)`` and an ``(n_b, k)`` block.

    Trees with a workspace take the pooled ``(k, n_a + n_b)`` block, which is
    built here once, and count the ties of the first row only, as ``screen``
    has them do; older trees take the two blocks.
    """
    kernel = design_kernel(design)
    if hasattr(rankstats, "_Workspace"):
        pooled = np.hstack([a.T, b.T])
        work = rankstats._Workspace(*pooled.shape)
        return lambda: kernel(pooled, a.shape[0], work, 1)
    return lambda: kernel(a, b)


def per_call(fn, calls: int) -> list[float]:
    fn()  # warm-up
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - start) / calls)
    return times


def time_case(name: str, n: int, k: int, rounded: bool, calls: int) -> dict:
    rng = np.random.default_rng(0)
    a, b = rng.normal(0.3, 1.0, (n, k)), rng.normal(0.0, 1.0, (n, k))
    if rounded:
        a, b = np.round(a), np.round(b)
    call = kernel_call("unpaired", a, b)
    expected = mannwhitneyu(a, b, axis=0).statistic / (n * n)
    if not np.array_equal(call().u, expected):
        raise SystemExit(f"{name}: kernel U differs from scipy's Mann-Whitney U")
    kernel_s = per_call(call, calls)
    case = {"name": name, "n_per_arm": n, "k": k, "rounded": rounded,
            "levels": int(np.unique(np.concatenate([a, b])).size) if rounded else None,
            "calls_per_batch": calls,
            "kernel_s": median(kernel_s), "kernel_s_all": kernel_s}
    if k == 2:
        response = TwoArmSample(treated=a[:, 0], control=b[:, 0])
        candidate = TwoArmSample(treated=a[:, 1], control=b[:, 1])
        test_s = per_call(lambda: surrogate_test(response, candidate, TestConfig(power=0.8)),
                          calls)
        case.update(surrogate_test_s=median(test_s), surrogate_test_s_all=test_s)
    return case


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(os.path.dirname(__file__),
                                                      "BENCH_kernel.json"))
    args = parser.parse_args(argv)
    mmap_fixed = fix_mmap_threshold()
    cases = [time_case(*size) for size in SIZES]
    result = {
        "script": "bench/kernel.py", "repeats": REPEATS, **git_state(),
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
        line = f"{case['name']}: kernel {case['kernel_s'] * 1e6:.1f} us"
        if "surrogate_test_s" in case:
            line += f"  surrogate_test {case['surrogate_test_s'] * 1e6:.1f} us"
        print(line)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

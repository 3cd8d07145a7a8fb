"""Time the screening path around the kernel: ``split``, ``screen``'s own work and the writers.

    PYTHONPATH=src python3 bench/report.py [--parent-src PARENT/src]
        [--out bench/BENCH_report.json] [--parent-out bench/BENCH_report-parent.json]

Two studies, each split at ratio 0.75 with seed 0 and screened with BH on
its screening split, as ``run_pipeline`` does:

- ``screen_wide``: the perfbench ``screen_wide`` study at its default seed,
  unpaired 150 + 150 with p = 10 000 from ``generate`` (normal process, ten
  per cent valid at strength 0.9), every fourth column cut into 5 ordinal
  levels at pooled quantiles;
- ``paper``: the size of the paper's application, 60 paired units and
  p = 20 000 full-precision candidates, a tenth of which track the
  response.

One measuring process times ``split``; ``screen``, with
``pipeline._screen_gaps`` timed inside each call, so that ``screen_self_s``
is a call less its kernel; and ``write_screening_table`` and
``write_volcano`` of that report.  Each time is the median of ``REPEATS``
batches, the operations taking turns within each repeat.  Like the
perfbench workloads, the process fixes glibc's mmap threshold (and the
heap-trim threshold with it) at 128 KiB.

The speed of a process on a small VM drifts, and one process can run all
its work some 20 % slower than the next, so the script runs
``PROCESSES`` fresh measuring processes per tree and records the median
of their medians with every process's value.  With ``--parent-src`` the
processes alternate between the imported tree and that one, each going
first in turn, and the SHA-256 of each artifact and of the selected list
must agree between the trees (the script exits non-zero otherwise).  Each
JSON records the sizes, the numpy/scipy versions and the git sha of the
tree the ``surrank`` package was imported from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from statistics import median
from time import perf_counter

import numpy as np
import scipy

import surrank
from ingest import git_state
from kernel import MMAP_THRESHOLD, fix_mmap_threshold
from surrank import pipeline
from surrank.dataio import write_screening_table, write_volcano
from surrank.inference import TestConfig
from surrank.pipeline import Dataset, screen, split
from surrank.simulate import DgpConfig, generate

REPEATS = 5
PROCESSES = 6
RATIO, SPLIT_SEED, METHOD = 0.75, 0, "bh"
# calls per timed batch of each operation, by study
CALLS = {"screen_wide": {"split": 10, "screen": 3, "write_screening_table": 3,
                         "write_volcano": 5},
         "paper": {"split": 10, "screen": 3, "write_screening_table": 2, "write_volcano": 3}}
TIMES = ("split", "screen", "screen_gaps", "screen_self", "write_screening_table",
         "write_volcano")


def screen_wide_study() -> Dataset:
    data = generate(DgpConfig(dgp="normal", scenario="ten_pct_valid", n1=150, n0=150,
                              p_total=10_000, target_u_s=0.9, seed=0)).dataset
    a, b = data.candidates_a.copy(), data.candidates_b.copy()
    cols = np.arange(0, data.p, 4)
    edges = np.quantile(np.vstack([a[:, cols], b[:, cols]]), np.arange(1, 5) / 5, axis=0)
    for k, j in enumerate(cols):
        a[:, j] = np.searchsorted(edges[:, k], a[:, j])
        b[:, j] = np.searchsorted(edges[:, k], b[:, j])
    return Dataset.unpaired(data.response_a, data.response_b, a, b, names=data.names,
                            treated_ids=data.ids_a, control_ids=data.ids_b)


def paper_study() -> Dataset:
    rng = np.random.default_rng(0)
    n, p = 60, 20_000
    pre = rng.normal(0.0, 1.0, (n, p + 1))
    post = pre + rng.normal(0.0, 0.6, (n, p + 1))
    post[:, 0] += 1.0
    tracking = p // 10
    post[:, 1:tracking + 1] += post[:, :1] - pre[:, :1]
    return Dataset.paired(post[:, 0], pre[:, 0], post[:, 1:], pre[:, 1:],
                          names=[f"gene{j:05d}" for j in range(p)],
                          subject_ids=[f"u{i:02d}" for i in range(n)])


def sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def time_study(name: str, data: Dataset, work: str) -> dict:
    screening, _ = split(data, RATIO, SPLIT_SEED)
    config = TestConfig()
    gaps_s = [0.0]
    kernel = pipeline._screen_gaps

    def timed_gaps(*args, **kwargs):
        start = perf_counter()
        try:
            return kernel(*args, **kwargs)
        finally:
            gaps_s[0] += perf_counter() - start

    report = screen(screening, config, METHOD)
    paths = {label: os.path.join(work, f"{name}-{label}") for label in ("screening.csv",
                                                                         "volcano.csv")}
    operations = {
        "split": lambda: split(data, RATIO, SPLIT_SEED),
        "screen": lambda: screen(screening, config, METHOD),
        "write_screening_table": lambda: write_screening_table(report, paths["screening.csv"]),
        "write_volcano": lambda: write_volcano(report, paths["volcano.csv"]),
    }
    times = {label: [] for label in operations}
    gaps = []
    pipeline._screen_gaps = timed_gaps
    try:
        for operation in operations.values():
            operation()  # warm-up
        for _ in range(REPEATS):
            for label, operation in operations.items():
                calls = CALLS[name][label]
                gaps_s[0] = 0.0
                start = perf_counter()
                for _ in range(calls):
                    operation()
                times[label].append((perf_counter() - start) / calls)
                if label == "screen":
                    gaps.append(gaps_s[0] / calls)
    finally:
        pipeline._screen_gaps = kernel
    times["screen_gaps"] = gaps
    times["screen_self"] = [total - kernel_s for total, kernel_s in zip(times["screen"], gaps)]
    digests = {label: sha256(path) for label, path in paths.items()}
    digests["selected"] = hashlib.sha256("\n".join(report.selected).encode()).hexdigest()
    return {"name": name, "design": data.design, "n_a": data.n_a, "n_b": data.n_b,
            "p": data.p, "ratio": RATIO, "split_seed": SPLIT_SEED, "method": METHOD,
            "screening_n_a": screening.n_a, "screening_n_b": screening.n_b,
            "selected": len(report.selected), "calls_per_batch": CALLS[name],
            "sha256": digests, **{f"{label}_s": median(times[label]) for label in TIMES}}


def measure() -> dict:
    """One measuring process: both studies in the imported tree."""
    mmap_fixed = fix_mmap_threshold()
    with tempfile.TemporaryDirectory() as work:
        studies = [time_study("screen_wide", screen_wide_study(), work),
                   time_study("paper", paper_study(), work)]
    return {"script": "bench/report.py", "repeats": REPEATS, **git_state(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "malloc_mmap_threshold": MMAP_THRESHOLD if mmap_fixed else "glibc default",
            "studies": studies}


def run_child(src: str) -> dict:
    env = {**os.environ, "PYTHONPATH": src}
    child = subprocess.run([sys.executable, __file__, "--measure"], env=env, check=True,
                           capture_output=True, text=True)
    return json.loads(child.stdout)


def combine_runs(runs: list[dict]) -> dict:
    """The first run's record, each time the median over processes, with every process's."""
    result = {**runs[0], "processes": len(runs)}
    result["studies"] = []
    for k, study in enumerate(runs[0]["studies"]):
        combined = dict(study)
        for label in TIMES:
            values = [run["studies"][k][f"{label}_s"] for run in runs]
            combined[f"{label}_s"] = median(values)
            combined[f"{label}_s_processes"] = values
        result["studies"].append(combined)
    return result


def write(result: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = os.path.dirname(os.path.abspath(__file__))
    parser.add_argument("--out", default=os.path.join(here, "BENCH_report.json"))
    parser.add_argument("--parent-src", default=None,
                        help="the src directory of a second tree to alternate with")
    parser.add_argument("--parent-out", default=os.path.join(here, "BENCH_report-parent.json"))
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    trees = {"change": os.path.dirname(os.path.dirname(os.path.abspath(surrank.__file__)))}
    if args.parent_src:
        trees["parent"] = os.path.abspath(args.parent_src)
    runs = {label: [] for label in trees}
    for k in range(PROCESSES):
        for label in (list(trees) if k % 2 == 0 else list(trees)[::-1]):
            runs[label].append(run_child(trees[label]))
    results = {label: combine_runs(tree_runs) for label, tree_runs in runs.items()}
    outputs = {"change": args.out, "parent": args.parent_out}
    for label, result in results.items():
        write(result, outputs[label])
        for study in result["studies"]:
            print(f"{label} {study['name']} ({study['design']}, {study['n_a']} + "
                  f"{study['n_b']} x {study['p']}, {study['selected']} selected): "
                  + " ".join(f"{time} {study[f'{time}_s'] * 1e3:.2f} ms" for time in TIMES))
        print(f"wrote {outputs[label]}")
    digests = {label: [[run["studies"][k]["sha256"] for k in range(2)] for run in tree_runs]
               for label, tree_runs in runs.items()}
    first = digests["change"][0]
    if any(d != first for tree_digests in digests.values() for d in tree_digests):
        print("artifacts differ between processes or trees")
        return 1
    print(f"every artifact is byte-identical across {len(trees)} tree(s) and "
          f"{PROCESSES} process(es) each")
    return 0


if __name__ == "__main__":
    sys.exit(main())

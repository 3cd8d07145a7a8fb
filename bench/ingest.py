"""Time ``ingest`` and ``write_dataset`` at two study sizes.

    PYTHONPATH=src python3 bench/ingest.py [--out bench/BENCH_ingest.json]

Sizes: the unpaired 150 + 150 study with p = 2 000 of the roadmap baseline
(full-precision values from ``simulate.generate``), and a paired study of
200 units with p = 3 000 and values rounded to two decimals, the size and
format of the benchmark's ``rise_files`` inputs.  Each case writes the
study ``REPEATS`` times and reads it back ``REPEATS`` times; the JSON
records every time, their medians, the sizes, the numpy/scipy versions
and the git sha of the tree the ``surrank`` package was imported from.
"""

from __future__ import annotations

import argparse
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
from surrank.dataio import IngestSpec, ingest, write_dataset
from surrank.pipeline import Dataset
from surrank.simulate import DgpConfig, generate

REPEATS = 5


def baseline_study() -> Dataset:
    return generate(DgpConfig(dgp="normal", scenario="ten_pct_valid", n1=150, n0=150,
                              p_total=2_000, seed=0)).dataset


def rise_files_study() -> Dataset:
    rng = np.random.default_rng(0)
    n, p = 200, 3_000
    pre = rng.normal(0.0, 1.0, (n, p))
    post = pre + rng.normal(0.0, 0.6, (n, p))
    return Dataset.paired(np.round(post[:, 0] + 1.0, 2), np.round(pre[:, 0], 2),
                          np.round(post, 2), np.round(pre, 2),
                          names=[f"m{j:04d}" for j in range(p)],
                          subject_ids=[f"u{i:04d}" for i in range(n)])


def git_state() -> dict:
    """Commit and cleanliness of the tree that ``surrank`` was imported from."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(surrank.__file__))))

    def git(*args):
        try:
            return subprocess.run(["git", "-C", root, *args], capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    status = git("status", "--porcelain", "--", "src")
    return {"git_sha": git("rev-parse", "HEAD"),
            "src_modified": None if status is None else bool(status)}


def time_case(name: str, data: Dataset, work: str) -> dict:
    resp, cand = os.path.join(work, f"{name}-resp.csv"), os.path.join(work, f"{name}-cand.csv")
    write_s, ingest_s = [], []
    for _ in range(REPEATS):
        start = perf_counter()
        spec = write_dataset(data, resp, cand)
        write_s.append(perf_counter() - start)
    for _ in range(REPEATS):
        start = perf_counter()
        back = ingest(spec)
        ingest_s.append(perf_counter() - start)
    if not (np.array_equal(back.candidates_a, data.candidates_a)
            and np.array_equal(back.candidates_b, data.candidates_b)):
        raise SystemExit(f"{name}: ingest did not reproduce the written study")
    rows = data.n_a + data.n_b
    return {
        "name": name, "design": data.design, "rows": rows, "p": data.p,
        "cells": rows * (data.p + 1),
        "bytes": os.path.getsize(resp) + os.path.getsize(cand),
        "ingest_s": median(ingest_s), "write_dataset_s": median(write_s),
        "ingest_s_all": ingest_s, "write_dataset_s_all": write_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(os.path.dirname(__file__),
                                                      "BENCH_ingest.json"))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        cases = [time_case("roadmap_baseline", baseline_study(), work),
                 time_case("rise_files", rise_files_study(), work)]
    result = {
        "script": "bench/ingest.py", "repeats": REPEATS, **git_state(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "cpu_count": os.cpu_count(), "cases": cases,
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    for case in cases:
        print(f"{case['name']}: {case['rows']} rows x p={case['p']}  "
              f"ingest {case['ingest_s']:.3f} s ({case['cells'] / case['ingest_s'] / 1e6:.2f} "
              f"M cells/s)  write_dataset {case['write_dataset_s']:.3f} s")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

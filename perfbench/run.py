#!/usr/bin/env python3
"""Benchmark of surrank: end-to-end and per-layer metrics on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rise_files --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # each workload in its own process

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics and the tracing overhead instead.  Every run prints a
table of metrics with units, a ``meta:`` line with the run metadata, and
as its last line one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--save FILE`` also appends metadata and result to a
JSON-lines file that ``perfbench/compare.py`` reads.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run stops with a non-zero exit code.
"""

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

# Set before numpy is imported, so that BLAS starts with this many threads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# glibc raises its mmap threshold each time a large block is freed, so
# whether a freed array returns to the system depends on the allocation
# history, and peak RSS jumps by whole array sizes between seeds.  Fixing
# the threshold at glibc's initial 128 KiB returns every large array on
# free, and peak RSS follows the largest live set.
M_MMAP_THRESHOLD, MMAP_THRESHOLD = -3, 128 * 1024
try:
    MALLOC_FIXED = ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
except (OSError, AttributeError):
    MALLOC_FIXED = False

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("rise_files", "screen_wide", "simulate")

# setup_s is the median time of SETUP_ROUNDS builds of the inputs plus the
# time of one warm-up operation of each kind.
SETUP_ROUNDS = 3

END_TO_END = {
    "op_s.p50": "s",
    "candidates_per_s": "1/s",
    "replicates_per_s": "1/s",
    "eval_replicates_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Throughput metric -> the work unit it counts (see workloads.Kind).
RATES = {"candidates_per_s": "candidates", "replicates_per_s": "replicates",
         "eval_replicates_per_s": "eval_replicates"}


def import_package():
    """Import surrank from this checkout's src/, or exit non-zero."""
    if not (SRC / "surrank" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'surrank'} not found; run from a checkout of the "
                 f"repository")
    sys.path.insert(0, str(SRC))
    import surrank
    if Path(surrank.__file__).resolve().parent != (SRC / "surrank").resolve():
        sys.exit(f"perfbench: imported surrank from {surrank.__file__}, not from {SRC}")
    return surrank


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def blas_threads() -> dict:
    """BLAS thread count as the loaded OpenBLAS reports it."""
    import numpy
    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"count": fn(), "source": symbol}
    return {"count": BLAS_THREADS, "source": "OPENBLAS_NUM_THREADS (requested)"}


class Outcomes:
    """Output checks: the first output of a kind is checked in full, and
    every later one must be identical to it.  A failed check or an
    exception counts the operation as failed; neither stops the run."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = {}
        self.reference_ok = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, kind: str, raw, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self._note(f"{kind}: {error}")
            ok = False
        else:
            try:
                ok = self._ok(kind, self.workload.collect(raw))
            except Exception:  # a broken output must not stop the run
                self._note(f"{kind}: check raised\n{traceback.format_exc()}")
                ok = False
        if not ok:
            self.failed += 1

    def _ok(self, kind: str, out) -> bool:
        if kind not in self.reference:
            problems = self.workload.check(kind, out)
            self.reference[kind] = out
            self.reference_ok[kind] = not problems
            for problem in problems:
                self._note(f"{kind}: {problem}")
            return not problems
        if not self.reference_ok[kind]:
            return False
        if self.workload.same(kind, out, self.reference[kind]):
            return True
        self._note(f"{kind}: output differs from the first operation")
        return False

    def _note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)


def run_op(workload, kind: str, op_id: int, tracer=None):
    """One operation; returns (raw result or None, seconds, error or None)."""
    gc.collect()
    with tracer(op_id) if tracer is not None else nullcontext():
        start = perf_counter()
        try:
            raw = workload.run(kind, op_id)
            error = None
        except Exception as err:  # counted as a failed operation
            raw, error = None, f"{type(err).__name__}: {err}"
        elapsed = perf_counter() - start
    return raw, elapsed, error


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n/a (n={n}; a tail with ten samples beyond it needs n >= 11)"
    k = n - 10
    return f"p{100 * k / n:.0f} {sorted(samples)[k - 1]:.6g} s (n={n}, 10 beyond)"


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool):
    """Run one workload; returns (table lines, metadata, result)."""
    import workloads
    from spans import LAYER_METRICS, Tracer, children_of, layer_metrics

    work_dir = BENCH_DIR / "_work" / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[name](seed, tiny, work_dir)
        kinds = [kind.name for kind in workload.kinds]
        outcomes = Outcomes(workload)
        tracer = Tracer() if trace else None

        # The inputs are built SETUP_ROUNDS times (the last build is kept);
        # then one warm-up operation of each kind runs on them.
        build_times = []
        for round_ in range(SETUP_ROUNDS):
            gc.collect()
            with tracer(-1) if trace and round_ == 0 else nullcontext():
                start = perf_counter()
                workload.setup()
                build_times.append(perf_counter() - start)
        warmups = [(kind, *run_op(workload, kind, -1)) for kind in kinds]
        for kind, raw, _, error in warmups:
            outcomes.record(kind, raw, error)
        setup_s = median(build_times) + sum(elapsed for _, _, elapsed, _ in warmups)

        times = {(kind, traced): [] for kind in kinds for traced in (False, True)}
        op_round, op_times = {-1: "setup"}, {-1: build_times[0]}
        total, op_id, round_ = 0.0, 0, 0
        deadline = perf_counter() + 2 * seconds + 30  # in case operations fail at once
        while (total < seconds or round_ < (2 if trace else 1)) and perf_counter() < deadline:
            traced = trace and round_ % 2 == 1
            for kind in kinds:
                raw, elapsed, error = run_op(workload, kind, op_id,
                                             tracer if traced else None)
                total += elapsed
                if error is None:
                    times[kind, traced].append(elapsed)
                if traced:
                    op_round[op_id], op_times[op_id] = round_, elapsed
                outcomes.record(kind, raw, error)
                op_id += 1
            round_ += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    def p50(kind, traced=False):
        return median(times[kind, traced])

    primary = kinds[0]
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  "
             f"rounds {round_}  op kinds {', '.join(kinds)}"]
    if not all(times[kind, traced] for kind in kinds for traced in {False, trace}):
        lines.append("  no successful operation of some kind; no metrics")
        lines += [f"  problem: {problem}" for problem in outcomes.problems]
        return lines, None, None
    samples = {}
    if not trace:
        metrics = {"op_s.p50": p50(primary)}
        samples["op_s.p50"] = len(times[primary, False])
        for metric, unit in RATES.items():
            using = [kind for kind in workload.kinds if unit in kind.work]
            metrics[metric] = (sum(kind.work[unit] for kind in using)
                               / sum(p50(kind.name) for kind in using))
            samples[metric] = min(len(times[kind.name, False]) for kind in using)
        metrics["setup_s"] = setup_s
        samples["setup_s"] = len(build_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples["peak_rss_mb"] = 1
        for metric, value in metrics.items():
            lines.append(f"  {metric:<24} {value:<14.6g} {END_TO_END[metric]:<5} "
                         f"(n={samples[metric]})")
        lines.append(f"  {'op_s.tail':<24} {tail(times[primary, False])}")
        for kind in kinds[1:]:
            lines.append(f"  {'op_s.p50 (' + kind + ')':<24} {p50(kind):<14.6g} s     "
                         f"(n={len(times[kind, False])})")
        result_metrics = {m: {"value": v, "unit": END_TO_END[m]} for m, v in metrics.items()}
    else:
        overhead = p50(primary, True) / p50(primary) - 1.0
        metrics = layer_metrics(tracer.spans, op_round, op_times, overhead)
        traced_rounds = len(set(op_round.values())) - 1
        samples = {metric: traced_rounds for metric in metrics}
        for metric, value in metrics.items():
            unit = LAYER_METRICS[metric][0]
            lines.append(f"  {metric:<38} {value:<14.6g} {unit}")
        lines.append(f"  untraced / traced op_s.p50 ({primary}): {p50(primary):.6g} s / "
                     f"{p50(primary, True):.6g} s over {len(times[primary, False])} / "
                     f"{len(times[primary, True])} operations")
        if name == "rise_files":
            children = children_of(tracer.spans, "cli.rise")
            lines.append("  children of cli.rise, s per operation: " + ", ".join(
                f"{child} {value:.4g}" for child, value in
                sorted(children.items(), key=lambda item: -item[1])))
        spans_path = BENCH_DIR / "_results" / f"spans-{name}-seed{seed}.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write(spans_path)
        lines.append(f"  {len(tracer.spans)} spans written to "
                     f"{spans_path.relative_to(ROOT)}")
        result_metrics = {m: {"value": v, "unit": LAYER_METRICS[m][0]} for m, v in metrics.items()}

    failed_frac = outcomes.failed / outcomes.attempted
    lines.append(f"  {'failed_frac':<24} {failed_frac:<14.6g} {'ratio':<5} "
                 f"({outcomes.failed} of {outcomes.attempted} operations)")
    lines += [f"  problem: {problem}" for problem in outcomes.problems]

    import numpy
    import scipy
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "malloc_mmap_threshold": MMAP_THRESHOLD if MALLOC_FIXED else "glibc default",
        "sizes": workload.sizes(),
        "setup_rounds": SETUP_ROUNDS, "samples": samples,
    }
    result = {"correct": outcomes.failed == 0, "attempted": outcomes.attempted,
              "failed": outcomes.failed, "metrics": result_metrics}
    return lines, meta, result


def write_golden(name: str, seed: int) -> None:
    import workloads
    work_dir = BENCH_DIR / "_work" / f"golden-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[name](seed, False, work_dir)
        workload.setup()
        outputs = {kind.name: workload.collect(workload.run(kind.name, 0))
                   for kind in workload.kinds}
        # Check the outputs on their own, not against the file being replaced.
        workloads.golden_path(name, seed).unlink(missing_ok=True)
        for kind, out in outputs.items():
            problems = workload.check(kind, out)
            if problems:
                sys.exit(f"perfbench: {name}/{kind} output fails its check: {problems}")
        print(f"wrote {workloads.write_golden(workload, outputs)}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        if args.save:
            cmd += ["--save", args.save]
        completed = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.splitlines()
        print("\n".join(line for line in lines if not line.startswith(("meta:", "{"))))
        if completed.returncode != 0:
            print(f"{name}: exit code {completed.returncode}")
            status = 1
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="operation time to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes, for the smoke test")
    parser.add_argument("--save", default=None,
                        help="append metadata and result to this JSON-lines file")
    parser.add_argument("--write-golden", action="store_true",
                        help="store the golden outputs for --seed and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, str(BENCH_DIR))
    if args.workload == "all":
        return run_all(args)
    if args.write_golden:
        write_golden(args.workload, args.seed)
        return 0
    lines, meta, result = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.tiny)
    if result is None:
        print("\n".join(lines), file=sys.stderr)
        return 1
    if args.save:
        with open(args.save, "a") as handle:
            handle.write(json.dumps({"meta": meta, "result": result}) + "\n")
    print("\n".join(lines))
    print("meta: " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

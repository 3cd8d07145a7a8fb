"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_result_line_follows_the_schema(workload, trace):
    completed = _run("--workload", workload, "--seed", "1", "--seconds", "0.3",
                     "--trace", str(trace), "--tiny")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for spec in expected:
        entry = result["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0.0
    meta = json.loads(completed.stdout.splitlines()[-2].removeprefix("meta: "))
    for key in ("git_sha", "python", "numpy", "scipy", "nproc", "blas_threads", "sizes",
                "seed", "samples"):
        assert key in meta


@pytest.fixture()
def package():
    run.import_package()
    sys.path.insert(0, str(run.BENCH_DIR))
    import workloads
    return workloads


def test_every_corrupted_output_fails_the_full_check(package, monkeypatch):
    collect = package.ScreenWide.collect

    def corrupted(self, result):
        out = collect(self, result)
        out["rows"] = out["rows"].copy()
        out["rows"][:, 0] += 1.0 / (2 * self.n * self.n)  # U off by one half-tie
        return out

    monkeypatch.setattr(package.ScreenWide, "collect", corrupted)
    _, _, result = run.measure("screen_wide", 1, 0.2, False, True)
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_one_corrupted_output_raises_failed_frac(package, monkeypatch):
    collect = package.RiseFiles.collect
    calls = []

    def corrupted(self, raw):
        out = collect(self, raw)
        calls.append(None)
        if len(calls) == 4:
            out["files"]["selected.txt"] += b"m00\n"
        return out

    monkeypatch.setattr(package.RiseFiles, "collect", corrupted)
    _, _, result = run.measure("rise_files", 1, 0.2, False, True)
    assert result["failed"] == 1
    assert 0.0 < result["failed"] / result["attempted"] < 1.0


def test_exits_without_result_when_the_package_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    completed = _run("--workload", "rise_files", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_compare_verdicts():
    spec = {"better": "lower", "bound": 0.1}
    base = {seed: 1.0 + 0.001 * seed for seed in range(10)}
    assert compare.verdict(base, base, spec)[0] == "within bound"
    assert compare.verdict(base, {s: v * 1.2 for s, v in base.items()}, spec)[0] == "regression"
    assert compare.verdict(base, {s: v * 0.8 for s, v in base.items()}, spec)[0] == "improved"
    noisy = {seed: 1.0 + 0.1 * seed for seed in range(10)}
    assert compare.verdict(base, noisy, spec)[0] == "unresolved"

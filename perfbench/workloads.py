"""The three benchmark workloads: inputs, operations and output checks.

Each workload builds its inputs from a seed, exposes one or more kinds of
operation, and checks every output outside the timed region.  The first
output of each kind is checked in full (against scipy, against the golden
file for the default seed, and for internal consistency); every later
output of that kind must be identical to the first.

Workload code calls the package through module attributes
(``surrank.cli.main``, ``surrank.pipeline.run_pipeline``, ...) at call
time, so the tracer's pass-through wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import mannwhitneyu

import surrank.cli
import surrank.dataio
import surrank.pipeline
import surrank.simulate

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# ROADMAP aim 1 asks sigma and p-values to agree to about 1e-15 relative.
# A p-value in the far tail amplifies a relative change in sigma by z^2
# (about 60 at p = 1e-15), so the bound leaves that headroom over 1e-15.
REL_TOL = 1e-13

# Candidates whose U is re-derived independently in the full check.
U_CHECK_COLUMNS = 64
# Candidates whose sigma and p-values are stored in a golden file.
GOLDEN_SAMPLE = 200


@dataclass(frozen=True)
class Kind:
    """One kind of operation a workload runs, and the work one call does.

    ``work`` maps a throughput metric ("candidates", "replicates",
    "eval_replicates") to the units one call completes.
    """

    name: str
    work: dict


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def golden_path(workload: str, seed: int) -> Path:
    return GOLDEN_DIR / f"{workload}-seed{seed}.json"


def _screening_golden(selected, rows: dict) -> dict:
    """Golden record of a screening table: ``rows`` maps name to
    (delta, sigma, raw_p, adjusted_p)."""
    names = sorted(rows)
    deltas = np.array([rows[name][0] for name in names], dtype=float)
    step = max(1, len(names) // GOLDEN_SAMPLE)
    return {
        "selected": list(selected),
        "delta_sha256": _sha256(deltas.tobytes()),
        "sample": {name: [repr(v) for v in rows[name][1:]] for name in names[::step]},
    }


def _check_screening_golden(golden: dict, selected, rows: dict) -> list[str]:
    problems = []
    if list(selected) != golden["selected"]:
        problems.append(f"selected set differs from golden ({len(selected)} vs "
                        f"{len(golden['selected'])} names)")
    names = sorted(rows)
    deltas = np.array([rows[name][0] for name in names], dtype=float)
    if _sha256(deltas.tobytes()) != golden["delta_sha256"]:
        problems.append("delta values are not bit-identical to golden")
    for name, expected in golden["sample"].items():
        if name not in rows:
            problems.append(f"golden candidate {name} missing")
            continue
        for label, got, want in zip(("sigma", "raw_p", "adjusted_p"), rows[name][1:],
                                    (float(v) for v in expected)):
            if not _close(got, want):
                problems.append(f"{name} {label} {got!r} != golden {want!r}")
    return problems


class Workload:
    """Base class: ``setup`` builds inputs, ``run`` performs one operation."""

    name = ""
    kinds: tuple[Kind, ...] = ()

    def __init__(self, seed: int, tiny: bool, work_dir: Path):
        self.seed = seed
        self.tiny = tiny
        self.work_dir = work_dir

    def sizes(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, kind: str, op_id: int):
        """One timed operation; returns its raw result."""
        raise NotImplementedError

    def collect(self, raw):
        """Turn a raw result into a comparable output (outside the timed region)."""
        raise NotImplementedError

    def same(self, kind: str, out, ref) -> bool:
        raise NotImplementedError

    def check(self, kind: str, out) -> list[str]:
        """Full check of one output; returns the problems found."""
        raise NotImplementedError

    def golden_record(self, kind: str, out) -> dict:
        raise NotImplementedError

    def check_golden(self, kind: str, out) -> list[str]:
        """Compare with the golden file when this run matches its seed and sizes."""
        path = golden_path(self.name, self.seed)
        if self.tiny or not path.exists():
            return []
        golden = json.loads(path.read_text())
        if golden["sizes"] != self.sizes():
            return [f"{path.name} was written for other sizes"]
        return self._check_golden(kind, golden["kinds"][kind], out)

    def _check_golden(self, kind: str, golden: dict, out) -> list[str]:
        raise NotImplementedError


# --------------------------------------------------------------------------
# rise_files: a paired study in two CSV files through `surrank rise`.

def paired_study(seed: int, n: int, p: int):
    """Paired (post, pre) study; about 10 % of candidates track the response.

    Tracking candidates are the response plus noise of a per-column scale,
    so their strength varies and selection is not all-or-nothing.  The
    others have no treatment effect.  Values are rounded to 2 decimals, so
    within-unit ties occur.
    """
    rng = np.random.default_rng(seed)
    base = rng.normal(0.0, 1.0, n)
    y_pre = base + rng.normal(0.0, 0.5, n)
    y_post = base + 1.0 + rng.normal(0.0, 0.5, n)
    pre = rng.normal(0.0, 1.0, (n, p))
    post = pre + rng.normal(0.0, 0.6, (n, p))
    tracking = rng.choice(p, size=max(1, round(0.1 * p)), replace=False)
    scale = rng.uniform(0.2, 1.5, tracking.size)
    pre[:, tracking] = y_pre[:, None] + scale * rng.standard_normal((n, tracking.size))
    post[:, tracking] = y_post[:, None] + scale * rng.standard_normal((n, tracking.size))
    width = len(str(p))
    return surrank.pipeline.Dataset.paired(
        np.round(y_post, 2), np.round(y_pre, 2), np.round(post, 2), np.round(pre, 2),
        names=[f"m{j:0{width}d}" for j in range(p)],
        subject_ids=[f"u{i:04d}" for i in range(n)],
    )


def _read_screening_csv(text: str) -> dict:
    lines = text.splitlines()
    header = lines[0].split(",")
    cols = [header.index(c) for c in ("name", "delta", "sigma", "raw_p", "adjusted_p")]
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows[cells[cols[0]]] = tuple(float(cells[c]) for c in cols[1:])
    return rows


def _sign_count_u(post: np.ndarray, pre: np.ndarray) -> float:
    return (np.count_nonzero(post > pre) + 0.5 * np.count_nonzero(post == pre)) / post.size


class RiseFiles(Workload):
    name = "rise_files"
    ARTIFACTS = ("screening.csv", "selected.txt", "weights.csv", "evaluation.csv",
                 "volcano.csv", "scatter.csv")
    RATIO = 0.75
    SPLIT_SEED = 0

    def __init__(self, seed, tiny, work_dir):
        super().__init__(seed, tiny, work_dir)
        self.n, self.p = (120, 60) if tiny else (200, 3_000)
        self.kinds = (Kind("rise", {"candidates": self.p, "replicates": 1,
                                    "eval_replicates": 1}),)
        self.response_path = work_dir / "response.csv"
        self.candidates_path = work_dir / "candidates.csv"

    def sizes(self):
        return {"design": "paired", "n": self.n, "rows_per_file": 2 * self.n, "p": self.p}

    def setup(self):
        self.data = paired_study(self.seed, self.n, self.p)
        surrank.dataio.write_dataset(self.data, str(self.response_path),
                                     str(self.candidates_path))

    def run(self, kind, op_id):
        out_dir = self.work_dir / f"out-{op_id}"
        argv = ["rise", "--response", str(self.response_path),
                "--candidates", str(self.candidates_path),
                "--design", "paired", "--correction", "bonferroni", "--mode", "tost",
                "--split-ratio", str(self.RATIO), "--seed", str(self.SPLIT_SEED),
                "--out", str(out_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = surrank.cli.main(argv)
        return {"out_dir": out_dir, "code": code, "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue()}

    def collect(self, raw) -> dict:
        """Read the artifacts of one operation and remove its directory."""
        out_dir = raw["out_dir"]
        files = {}
        for name in self.ARTIFACTS:
            path = out_dir / name
            files[name] = path.read_bytes() if path.exists() else None
        shutil.rmtree(out_dir, ignore_errors=True)
        # The printed paths name the per-operation directory; drop them.
        stdout = "\n".join(line for line in raw["stdout"].splitlines()
                           if not line.startswith("wrote "))
        return {"code": raw["code"], "stdout": stdout, "stderr": raw["stderr"],
                "files": files}

    def same(self, kind, out, ref):
        return out == ref

    def check(self, kind, out):
        if out["code"] != 0:
            return [f"rise exited with code {out['code']}: {out['stderr'].strip()}"]
        missing = [name for name, data in out["files"].items() if data is None]
        if missing:
            return [f"missing artifacts: {missing}"]
        table = out["files"]["screening.csv"].decode()
        rows = _read_screening_csv(table)
        selected = out["files"]["selected.txt"].decode().splitlines()
        if sorted(rows) != sorted(self.data.names) or len(table.splitlines()) != self.p + 1:
            return ["screening.csv does not list every candidate once"]
        problems = []
        if any(name not in rows for name in selected):
            problems.append("selected.txt names an unknown candidate")
        # Paired U is the within-unit sign count; delta = U_response - U_candidate.
        screening, _ = surrank.pipeline.split(self.data, self.RATIO, self.SPLIT_SEED)
        u_y = _sign_count_u(screening.response_a, screening.response_b)
        rng = np.random.default_rng(self.seed)
        for j in rng.choice(self.p, size=min(U_CHECK_COLUMNS, self.p), replace=False):
            name = self.data.names[j]
            u_s = _sign_count_u(screening.candidates_a[:, j], screening.candidates_b[:, j])
            if rows[name][0] != u_y - u_s:
                problems.append(f"{name}: delta {rows[name][0]!r} != sign-count "
                                f"{u_y - u_s!r}")
        return problems + self.check_golden(kind, out)

    def golden_record(self, kind, out):
        rows = _read_screening_csv(out["files"]["screening.csv"].decode())
        return _screening_golden(out["files"]["selected.txt"].decode().splitlines(), rows)

    def _check_golden(self, kind, golden, out):
        rows = _read_screening_csv(out["files"]["screening.csv"].decode())
        selected = out["files"]["selected.txt"].decode().splitlines()
        problems = _check_screening_golden(golden, selected, rows)
        if out["files"]["selected.txt"] != "".join(f"{n}\n" for n in golden["selected"]).encode():
            problems.append("selected.txt is not byte-identical to golden")
        return problems


# --------------------------------------------------------------------------
# screen_wide: an unpaired in-memory study through run_pipeline.

def quantise_quarter(data, levels: int = 5):
    """Cut every fourth candidate column into ordinal levels at pooled quantiles."""
    a = data.candidates_a.copy()
    b = data.candidates_b.copy()
    cols = np.arange(0, data.p, 4)
    pooled = np.vstack([a[:, cols], b[:, cols]])
    edges = np.quantile(pooled, np.arange(1, levels) / levels, axis=0)
    for k, j in enumerate(cols):
        a[:, j] = np.searchsorted(edges[:, k], a[:, j])
        b[:, j] = np.searchsorted(edges[:, k], b[:, j])
    return surrank.pipeline.Dataset.unpaired(data.response_a, data.response_b, a, b,
                                             names=data.names, treated_ids=data.ids_a,
                                             control_ids=data.ids_b)


def _report_rows(report) -> dict:
    return {row.name: (row.delta, row.sigma, row.raw_p, row.adjusted_p)
            for row in report.rows}


class ScreenWide(Workload):
    name = "screen_wide"
    RATIO = 0.75
    SPLIT_SEED = 0

    def __init__(self, seed, tiny, work_dir):
        super().__init__(seed, tiny, work_dir)
        self.n, self.p = (30, 40) if tiny else (150, 10_000)
        self.kinds = (Kind("pipeline", {"candidates": self.p, "replicates": 1,
                                        "eval_replicates": 1}),)

    def sizes(self):
        return {"design": "unpaired", "n1": self.n, "n0": self.n, "p": self.p,
                "quantised_columns": len(range(0, self.p, 4)), "levels": 5}

    def setup(self):
        cfg = surrank.simulate.DgpConfig(dgp="normal", scenario="ten_pct_valid",
                                         n1=self.n, n0=self.n, p_total=self.p,
                                         target_u_s=0.9, seed=self.seed)
        self.data = quantise_quarter(surrank.simulate.generate(cfg).dataset)

    def run(self, kind, op_id):
        return surrank.pipeline.run_pipeline(self.data, ratio=self.RATIO,
                                             seed=self.SPLIT_SEED, method="bh")

    def collect(self, result):
        report = result.screening
        evaluation = result.evaluation
        return {
            "selected": report.selected,
            "epsilon": report.epsilon_used,
            "u_response": report.u_response,
            "rows": np.array([(r.u_candidate, r.delta, r.sigma, r.raw_p, r.adjusted_p)
                              for r in report.rows]),
            "names": tuple(r.name for r in report.rows),
            "weights": result.combined.weights,
            "evaluation": (evaluation.delta, evaluation.sigma, evaluation.p_value),
        }

    def same(self, kind, out, ref):
        return (out["selected"] == ref["selected"] and out["names"] == ref["names"]
                and out["weights"] == ref["weights"]
                and out["evaluation"] == ref["evaluation"]
                and out["rows"].tobytes() == ref["rows"].tobytes())

    def check(self, kind, out):
        problems = []
        if out["names"] != self.data.names:
            return ["screening rows do not follow the candidate order"]
        screening, _ = surrank.pipeline.split(self.data, self.RATIO, self.SPLIT_SEED)
        pairs = screening.n_a * screening.n_b
        u_y = float(mannwhitneyu(screening.response_a, screening.response_b).statistic) / pairs
        if out["u_response"] != u_y:
            problems.append(f"u_response {out['u_response']!r} != scipy {u_y!r}")
        rng = np.random.default_rng(self.seed)
        for j in rng.choice(self.p, size=min(U_CHECK_COLUMNS, self.p), replace=False):
            u_s = float(mannwhitneyu(screening.candidates_a[:, j],
                                     screening.candidates_b[:, j]).statistic) / pairs
            if out["rows"][j, 0] != u_s:
                problems.append(f"{self.data.names[j]}: U {float(out['rows'][j, 0])!r} != "
                                f"scipy {u_s!r}")
        if not np.array_equal(out["rows"][:, 1], out["u_response"] - out["rows"][:, 0]):
            problems.append("delta is not U_response - U_candidate")
        if not np.all((out["rows"][:, 3:] >= 0.0) & (out["rows"][:, 3:] <= 1.0)):
            problems.append("p-values outside [0, 1]")
        return problems + self.check_golden(kind, out)

    def _rows(self, out) -> dict:
        return {name: tuple(float(v) for v in row[1:])
                for name, row in zip(out["names"], out["rows"])}

    def golden_record(self, kind, out):
        return _screening_golden(out["selected"], self._rows(out))

    def _check_golden(self, kind, golden, out):
        return _check_screening_golden(golden, out["selected"], self._rows(out))


# --------------------------------------------------------------------------
# simulate: the two Monte-Carlo drivers at acceptance-criterion settings.

class Simulate(Workload):
    name = "simulate"
    RHO_GRID = (0.0, 0.2, 0.6, 1.0)

    def __init__(self, seed, tiny, work_dir):
        super().__init__(seed, tiny, work_dir)
        # Criterion 5 at target 0.9, and criterion 6.  Few replicates per
        # call (about 0.2 and 0.1 s) give many operations per run, so the
        # run's median is steady and fixed per-call costs stay visible.
        self.n, self.p, self.n_screen = (20, 20, 2) if tiny else (100, 100, 5)
        self.n_eval, self.eval_sim = (10, 3) if tiny else (50, 50)
        self.kinds = (
            Kind("screening", {"candidates": self.p * self.n_screen,
                               "replicates": self.n_screen}),
            Kind("evaluation", {"eval_replicates": self.eval_sim}),
        )

    def sizes(self):
        return {"screening": {"n1": self.n, "n0": self.n, "p": self.p,
                              "scenario": "ten_pct_valid", "target_u_s": 0.9,
                              "method": "bh", "n_sim": self.n_screen},
                "evaluation": {"n": self.n_eval, "set_size": 20,
                               "rho_grid": list(self.RHO_GRID), "power": 0.8,
                               "n_sim": self.eval_sim}}

    def setup(self):
        self.cfg = surrank.simulate.DgpConfig(scenario="ten_pct_valid", n1=self.n,
                                              n0=self.n, p_total=self.p,
                                              target_u_s=0.9, seed=self.seed)

    def run(self, kind, op_id):
        if kind == "screening":
            return surrank.simulate.run_screening_experiment(
                self.cfg, method="bh", n_sim=self.n_screen)
        return surrank.simulate.run_evaluation_experiment(
            n=self.n_eval, valid_strength=0.9, set_size=20, rho_grid=self.RHO_GRID,
            n_sim=self.eval_sim, power=0.8, seed=self.seed)

    def collect(self, result):
        if hasattr(result, "metrics"):
            return tuple((m.tp, m.fp, m.tn, m.fn) for m in result.metrics)
        return result.pvalues.copy()

    def same(self, kind, out, ref):
        if kind == "screening":
            return out == ref
        return out.tobytes() == ref.tobytes()

    def check(self, kind, out):
        if kind == "screening":
            p_valid = self.cfg.p_valid
            problems = [f"replicate {i}: counts {c} do not cover the labels"
                        for i, c in enumerate(out)
                        if c[0] + c[3] != p_valid or c[1] + c[2] != self.p - p_valid]
            if len(out) != self.n_screen:
                problems.append(f"{len(out)} replicates, expected {self.n_screen}")
        else:
            problems = []
            if out.shape != (len(self.RHO_GRID), self.eval_sim):
                problems.append(f"p-value array has shape {out.shape}")
            elif not np.all((out >= 0.0) & (out <= 1.0)):
                problems.append("p-values outside [0, 1]")
        return problems + self.check_golden(kind, out)

    def golden_record(self, kind, out):
        if kind == "screening":
            return {"counts": [list(c) for c in out]}
        return {"pvalues": [[repr(float(v)) for v in row] for row in out]}

    def _check_golden(self, kind, golden, out):
        if kind == "screening":
            if [list(c) for c in out] != golden["counts"]:
                return ["confusion counts differ from golden"]
            return []
        want = np.array([[float(v) for v in row] for row in golden["pvalues"]])
        if want.shape != out.shape or not all(
                _close(float(a), float(b)) for a, b in zip(out.ravel(), want.ravel())):
            return ["evaluation p-values differ from golden"]
        return []


WORKLOADS = {cls.name: cls for cls in (RiseFiles, ScreenWide, Simulate)}


def write_golden(workload: Workload, outputs: dict) -> Path:
    """Store the golden record of one output per kind for this seed."""
    path = golden_path(workload.name, workload.seed)
    record = {"sizes": workload.sizes(),
              "kinds": {kind: workload.golden_record(kind, out)
                        for kind, out in outputs.items()}}
    GOLDEN_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path

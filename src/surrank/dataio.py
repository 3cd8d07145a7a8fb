"""Delimited-text ingestion and report emission.

Input is a response file and a candidates file, both delimited text
with a header row.  Each row carries a subject id and an arm label
(unpaired) or a timepoint label (paired); paired files are pivoted on
the explicit timepoint labels so row order never determines alignment.
Header names are stripped and must be unique and non-empty.  Cells are
read with Python ``float`` in one pass over each file's value block; a
file that fails it is rescanned cell by cell, so rows with missing or
non-numeric values are rejected with file and line context rather than
silently dropped.

All writers emit full-precision values (``repr`` of the float) so that
written datasets re-ingest to identical statistics; rounding for human
consumption lives in the separate formatting helpers.
"""

from __future__ import annotations

import csv
import math
import os
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, itemgetter

import numpy as np
from scipy.stats import rankdata, spearmanr

from .errors import IngestError
from .inference import SurrogateTestResult
from .pipeline import CombinedSurrogate, Dataset, ScreeningReport
from .rankstats import Design

_MAX_REPORTED_PROBLEMS = 25


def default_delimiter(path: str) -> str:
    """Comma unless the extension marks the file as tab-separated."""
    extension = os.path.splitext(path)[1].lower()
    return "\t" if extension in (".tsv", ".tab") else ","


@dataclass(frozen=True)
class IngestSpec:
    """Where the data lives and how its columns are named.

    ``group_column`` holds the arm label for unpaired designs and the
    timepoint label for paired designs; ``group_a``/``group_b`` are the
    labels mapped to the first block (treated or post) and the second
    (control or pre).  Leaving them unset picks design-appropriate
    defaults.  ``delimiter`` of None is auto-detected per file from the
    extension.
    """

    response_path: str
    candidates_path: str
    design: Design = "unpaired"
    subject_column: str = "subject"
    group_column: str | None = None
    group_a: str | None = None
    group_b: str | None = None
    response_column: str = "response"
    delimiter: str | None = None

    def __post_init__(self):
        if self.design not in ("unpaired", "paired"):
            raise IngestError(f"design must be 'unpaired' or 'paired', got {self.design!r}")
        defaults = (("arm", "treated", "control") if self.design == "unpaired"
                    else ("timepoint", "post", "pre"))
        for field, default in zip(("group_column", "group_a", "group_b"), defaults):
            if getattr(self, field) is None:
                object.__setattr__(self, field, default)
        if self.group_a == self.group_b:
            raise IngestError(f"group labels must differ, both are {self.group_a!r}")


def _is_number(text: str) -> bool:
    """Whether ``float`` reads the cell as a finite value (the rescan test)."""
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _read_rows(path: str, delimiter: str | None):
    """Stripped header names, then the line number and the fields of each row.

    Blank lines are skipped.  A row's line number is that of its last
    physical line, which differs from its first only inside quotes.
    """
    sep = delimiter if delimiter is not None else default_delimiter(path)
    try:
        handle = open(path, newline="")
    except OSError as err:
        raise IngestError(f"cannot open {path}: {err}") from None
    with handle:
        reader = csv.reader(handle, delimiter=sep)
        lines: list[int] = []
        rows: list[list[str]] = []
        try:
            header = next(reader, None)
            if header is None:
                raise IngestError(f"{path}:1: file is empty (no header row)")
            for row in reader:
                if row:
                    lines.append(reader.line_num)
                    rows.append(row)
        except csv.Error as err:
            raise IngestError(f"{path}:{reader.line_num}: unreadable row ({err})") from None
        except UnicodeDecodeError as err:
            # decoding runs ahead of the rows read so far
            raise IngestError(f"{path}:{reader.line_num + 1}: unreadable text at or after "
                              f"this line ({err.reason})") from None
    return [name.strip() for name in header], lines, rows


def _check_header(path: str, header: list[str], required) -> None:
    where = f"{path}:1"
    missing = [name for name in required if name not in header]
    if missing:
        raise IngestError(f"{where}: missing column(s) {', '.join(map(repr, missing))}")
    blank = [str(j + 1) for j, name in enumerate(header) if not name]
    if blank:
        raise IngestError(f"{where}: empty column name at position(s) {', '.join(blank)}")
    repeated = [name for name, count in Counter(header).items() if count > 1]
    if repeated:
        raise IngestError(f"{where}: duplicate column name(s) "
                          f"{', '.join(map(repr, repeated))}")


class _ProblemLog:
    def __init__(self):
        self.items: list[str] = []

    def add(self, message: str) -> None:
        self.items.append(message)

    def raise_if_any(self) -> None:
        if not self.items:
            return
        shown = self.items[:_MAX_REPORTED_PROBLEMS]
        extra = len(self.items) - len(shown)
        if extra > 0:
            shown.append(f"... and {extra} more problem(s)")
        raise IngestError("ingestion failed:\n  " + "\n  ".join(shown))


@dataclass
class _Table:
    """One ingested file: its value block and where each (subject, group) row is.

    ``columns`` names the columns of ``block``, and ``index`` maps (subject,
    group label) to a row of it.  ``subjects`` maps each subject to the line
    it first appears on, in file order.
    """

    path: str
    columns: list[str]
    index: dict[tuple[str, str], int]
    subjects: dict[str, int]
    block: np.ndarray | None

    def take(self, subjects, group: str) -> np.ndarray:
        """The block rows of ``subjects`` under ``group``, in that order."""
        return self.block[[self.index[subject, group] for subject in subjects]]


def _value_block(path: str, lines, rows, columns, problems: _ProblemLog):
    """The rows × columns float block, or None after logging each bad row.

    A valid file takes a single ``float`` pass over all of its cells; only
    a file that fails it is rescanned, cell by cell, to say where.
    """
    take = itemgetter(*columns.values())
    cells = chain.from_iterable(map(take, rows)) if len(columns) > 1 else map(take, rows)
    try:
        block = np.fromiter(map(float, cells), float, count=len(rows) * len(columns))
    except ValueError:
        block = None
    if block is not None and np.isfinite(block).all():
        return block.reshape(len(rows), len(columns))
    for line, row in zip(lines, rows):
        for name, j in columns.items():
            if not _is_number(row[j]):
                problems.add(f"{path}:{line}: missing or non-numeric value {row[j]!r} "
                             f"in column {name!r}")
                break
    return None


def _load(path: str, spec: IngestSpec, response_column: str | None,
          problems: _ProblemLog) -> _Table:
    """Read one file and check it row by row; value problems go to ``problems``.

    The response file's one value column is ``response_column``; with None,
    every column but the subject and group columns is a candidate.
    """
    header, lines, rows = _read_rows(path, spec.delimiter)
    keys = (spec.subject_column, spec.group_column)
    _check_header(path, header, keys if response_column is None
                  else (*keys, response_column))
    if response_column is None:
        columns = {name: j for j, name in enumerate(header) if name not in keys}
        if not columns:
            raise IngestError(f"{path}:1: no candidate columns beyond "
                              f"{spec.subject_column!r} and {spec.group_column!r}")
    else:
        columns = {response_column: header.index(response_column)}
    if not rows:
        raise IngestError(f"{path}:1: no data rows")

    subject_at, group_at = map(header.index, keys)
    index: dict[tuple[str, str], int] = {}
    subjects: dict[str, int] = {}
    kept_lines: list[int] = []
    kept_rows: list[list[str]] = []
    for line, row in zip(lines, rows):
        where = f"{path}:{line}"
        if len(row) != len(header):
            relation = "more" if len(row) > len(header) else "fewer"
            problems.add(f"{where}: row has {relation} fields than the header")
            continue
        subject = row[subject_at].strip()
        if not subject:
            problems.add(f"{where}: empty {spec.subject_column!r} cell")
            continue
        group = row[group_at].strip()
        if group not in (spec.group_a, spec.group_b):
            problems.add(
                f"{where}: unknown {spec.group_column!r} label {group!r} "
                f"(expected {spec.group_a!r} or {spec.group_b!r})"
            )
            continue
        key = (subject, group)
        if key in index:
            problems.add(
                f"{where}: duplicate entry for subject {subject!r} with "
                f"{spec.group_column} {group!r} (first seen at line {kept_lines[index[key]]})"
            )
            continue
        index[key] = len(kept_rows)
        subjects.setdefault(subject, line)
        kept_lines.append(line)
        kept_rows.append(row)
    return _Table(path, list(columns), index, subjects,
                  _value_block(path, kept_lines, kept_rows, columns, problems))


def _arms(table: _Table, spec: IngestSpec, problems: _ProblemLog) -> dict[str, str]:
    """Each subject's arm in a one-row-per-subject file."""
    arms: dict[str, str] = {}
    for subject, line in table.subjects.items():
        if (subject, spec.group_a) in table.index and (subject, spec.group_b) in table.index:
            problems.add(f"{table.path}:{line}: subject {subject!r} appears in both arms")
            continue
        arms[subject] = spec.group_a if (subject, spec.group_a) in table.index else spec.group_b
    return arms


def ingest(spec: IngestSpec) -> Dataset:
    """Load and align the response and candidate files into a Dataset."""
    problems = _ProblemLog()
    resp = _load(spec.response_path, spec, spec.response_column, problems)
    cand = _load(spec.candidates_path, spec, None, problems)
    problems.raise_if_any()

    for table, other in ((resp, cand), (cand, resp)):
        for subject, line in table.subjects.items():
            if subject not in other.subjects:
                problems.add(f"{table.path}:{line}: subject {subject!r} is not in {other.path}")
    problems.raise_if_any()

    if spec.design == "paired":
        for table in (resp, cand):
            for subject, line in table.subjects.items():
                present = [g for g in (spec.group_a, spec.group_b)
                           if (subject, g) in table.index]
                if len(present) != 2:
                    problems.add(
                        f"{table.path}:{line}: subject {subject!r} has only "
                        f"{spec.group_column} {present[0]!r} (need both "
                        f"{spec.group_a!r} and {spec.group_b!r})"
                    )
        problems.raise_if_any()
        ids = list(resp.subjects)
        return Dataset.paired(resp.take(ids, spec.group_a)[:, 0],
                              resp.take(ids, spec.group_b)[:, 0],
                              cand.take(ids, spec.group_a), cand.take(ids, spec.group_b),
                              names=cand.columns, subject_ids=ids)

    resp_arms = _arms(resp, spec, problems)
    cand_arms = _arms(cand, spec, problems)
    problems.raise_if_any()
    for subject, arm in resp_arms.items():
        if cand_arms[subject] != arm:
            problems.add(f"{cand.path}:{cand.subjects[subject]}: subject {subject!r} is "
                         f"{arm!r} in {resp.path} but {cand_arms[subject]!r} in {cand.path}")
    problems.raise_if_any()

    ids_a = [s for s, arm in resp_arms.items() if arm == spec.group_a]
    ids_b = [s for s, arm in resp_arms.items() if arm == spec.group_b]
    for label, ids in ((spec.group_a, ids_a), (spec.group_b, ids_b)):
        if not ids:
            raise IngestError(f"{resp.path}: no subjects with "
                              f"{spec.group_column} {label!r}")
    return Dataset.unpaired(resp.take(ids_a, spec.group_a)[:, 0],
                            resp.take(ids_b, spec.group_b)[:, 0],
                            cand.take(ids_a, spec.group_a), cand.take(ids_b, spec.group_b),
                            names=cand.columns, treated_ids=ids_a, control_ids=ids_b)


def _cell(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_rows(path: str, header, rows, delimiter: str | None) -> None:
    sep = delimiter if delimiter is not None else default_delimiter(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, delimiter=sep, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _float_rows(labels, block):
    """Rows of string labels then full-precision floats, with no per-cell dispatch.

    ``repr`` of each float is what ``_cell`` writes for it, so the bytes
    are those of ``write_table``.
    """
    for label, values in zip(labels, np.asarray(block, dtype=float)):
        yield [*label, *map(repr, values.tolist())]


def write_table(path: str, fieldnames, rows, delimiter: str | None = None) -> None:
    """Write dict rows as delimited text with full-precision numbers."""
    _write_rows(path, fieldnames, ([_cell(row[name]) for name in fieldnames] for row in rows),
                delimiter)


def read_table(path: str, delimiter: str | None = None):
    """Header fields and string-valued dict rows of a delimited file.

    A short row maps its missing fields to None; a long row's extra fields
    are dropped.
    """
    header, _, rows = _read_rows(path, delimiter)
    padding = [None] * len(header)
    return header, [dict(zip(header, row + padding)) for row in rows]


def write_dataset(data: Dataset, response_path: str, candidates_path: str,
                  spec: IngestSpec | None = None) -> IngestSpec:
    """Emit a Dataset in the ingestible two-file layout.

    Returns the IngestSpec that reads the files back; pass ``spec`` to
    control the column names and labels used.
    """
    if spec is None:
        spec = IngestSpec(response_path=response_path, candidates_path=candidates_path,
                          design=data.design)
    elif spec.design != data.design:
        raise IngestError(f"spec design {spec.design!r} does not match "
                          f"dataset design {data.design!r}")

    blocks = ((spec.group_a, data.ids_a, data.response_a, data.candidates_a),
              (spec.group_b, data.ids_b, data.response_b, data.candidates_b))
    keys = (spec.subject_column, spec.group_column)
    _write_rows(response_path, (*keys, spec.response_column),
                chain.from_iterable(_float_rows(((s, label) for s in ids), response[:, None])
                                    for label, ids, response, _ in blocks),
                spec.delimiter)
    _write_rows(candidates_path, (*keys, *data.names),
                chain.from_iterable(_float_rows(((s, label) for s in ids), candidates)
                                    for label, ids, _, candidates in blocks),
                spec.delimiter)
    return spec


SCREENING_FIELDS = ("name", "delta", "ci_lower", "ci_upper", "sigma",
                    "raw_p", "adjusted_p")
_screening_values = attrgetter(*SCREENING_FIELDS[1:])


def _by_evidence(report: ScreeningReport):
    """Screening rows, candidates with the strongest evidence first."""
    return sorted(report.rows, key=lambda r: (r.adjusted_p, abs(r.delta), r.name))


def screening_rows(report: ScreeningReport):
    """Screening rows as dicts, candidates with the strongest evidence first."""
    return [
        {
            "name": row.name,
            "delta": row.delta,
            "ci_lower": row.ci_lower,
            "ci_upper": row.ci_upper,
            "sigma": row.sigma,
            "raw_p": row.raw_p,
            "adjusted_p": row.adjusted_p,
        }
        for row in _by_evidence(report)
    ]


def write_screening_table(report: ScreeningReport, path: str,
                          delimiter: str | None = None) -> None:
    ordered = _by_evidence(report)
    _write_rows(path, SCREENING_FIELDS,
                _float_rows([(row.name,) for row in ordered],
                            [_screening_values(row) for row in ordered]),
                delimiter)


def write_selected(report: ScreeningReport, path: str) -> None:
    with open(path, "w") as handle:
        for name in report.selected:
            handle.write(name + "\n")


def write_weights(combined: CombinedSurrogate, path: str,
                  delimiter: str | None = None) -> None:
    rows = [
        {
            "name": name,
            "weight": weight,
            "mean": mean,
            "sd": sd,
            "degenerate": name in combined.degenerate_members,
        }
        for name, weight, (mean, sd) in zip(combined.members, combined.weights,
                                            combined.standardization)
    ]
    write_table(path, ("name", "weight", "mean", "sd", "degenerate"), rows, delimiter)


EVALUATION_FIELDS = ("marker", "u_response", "u_marker", "delta", "sigma", "epsilon",
                     "ci_lower", "ci_upper", "p_value", "reject")


def evaluation_rows(results: list[tuple[str, SurrogateTestResult]]):
    """One row of evaluation metrics per tested marker."""
    return [
        {
            "marker": label,
            "u_response": res.u_response,
            "u_marker": res.u_candidate,
            "delta": res.delta,
            "sigma": res.sigma,
            "epsilon": res.epsilon,
            "ci_lower": res.ci_lower,
            "ci_upper": res.ci_upper,
            "p_value": res.p_value,
            "reject": res.reject,
        }
        for label, res in results
    ]


def write_evaluation_summary(results: list[tuple[str, SurrogateTestResult]], path: str,
                             delimiter: str | None = None) -> None:
    write_table(path, EVALUATION_FIELDS, evaluation_rows(results), delimiter)


def write_volcano(report: ScreeningReport, path: str,
                  delimiter: str | None = None) -> None:
    """Effect size against evidence strength for every candidate."""
    delta = np.array([row.delta for row in report.rows], dtype=float)
    with np.errstate(divide="ignore"):
        strength = -np.log10(np.array([row.adjusted_p for row in report.rows], dtype=float))
    _write_rows(path, ("name", "delta", "neg_log10_adjusted_p"),
                _float_rows([(row.name,) for row in report.rows],
                            np.column_stack([delta, strength])),
                delimiter)


def rank_scatter(response_values: np.ndarray, marker_values: np.ndarray):
    """Midranks of two aligned vectors and their Spearman correlation."""
    response_values = np.asarray(response_values, dtype=float)
    marker_values = np.asarray(marker_values, dtype=float)
    if response_values.shape != marker_values.shape or response_values.ndim != 1:
        raise IngestError("rank scatter needs two aligned 1-D vectors")
    response_ranks = rankdata(response_values)
    marker_ranks = rankdata(marker_values)
    rho = float(spearmanr(response_values, marker_values).statistic)
    return response_ranks, marker_ranks, rho


def write_rank_scatter(ids, blocks, response_values, marker_values, path: str,
                       delimiter: str | None = None) -> float:
    """Emit per-unit rank pairs; returns the Spearman correlation."""
    response_ranks, marker_ranks, rho = rank_scatter(response_values, marker_values)
    rows = [
        {
            "subject": subject,
            "block": block,
            "response_rank": r_rank,
            "marker_rank": m_rank,
        }
        for subject, block, r_rank, m_rank in zip(ids, blocks, response_ranks, marker_ranks)
    ]
    write_table(path, ("subject", "block", "response_rank", "marker_rank"), rows, delimiter)
    return rho


def format_screening_table(report: ScreeningReport, digits: int = 4,
                           limit: int | None = None) -> str:
    """Human-readable rendering pass; numbers are rounded here only."""
    rows = screening_rows(report)
    if limit is not None:
        rows = rows[:limit]
    header = list(SCREENING_FIELDS)
    rendered = [[row["name"], *(f"{row[f]:.{digits}g}" for f in header[1:])] for row in rows]
    widths = [max(len(header[j]), *(len(r[j]) for r in rendered)) if rendered
              else len(header[j]) for j in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in rendered:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(lines)

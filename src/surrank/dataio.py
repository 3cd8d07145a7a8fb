"""Delimited-text ingestion and report emission.

Input is a response file and a candidates file, both delimited text
with a header row.  Each row carries a subject id and an arm label
(unpaired) or a timepoint label (paired); paired files are pivoted on
the explicit timepoint labels so row order never determines alignment.
Header names are stripped and must be unique and non-empty.  Each file
is read in one pass of numpy's C reader (``np.loadtxt``); a file that
fails it is rescanned cell by cell, so rows with missing or non-numeric
values are rejected with file and line context rather than silently
dropped.

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
from operator import attrgetter

import numpy as np
from scipy.stats import rankdata, spearmanr

from .errors import IngestError
from .inference import SurrogateTestResult
from .pipeline import CombinedSurrogate, Dataset, ScreeningReport
from .rankstats import Design, _Design

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
        defaults = _Design.named(self.design, IngestError).groups
        for field, default in zip(("group_column", "group_a", "group_b"), defaults):
            if getattr(self, field) is None:
                object.__setattr__(self, field, default)
        if self.group_a == self.group_b:
            raise IngestError(f"group labels must differ, both are {self.group_a!r}")


def _is_number(text: str) -> bool:
    """Whether numpy's C reader reads the cell as a finite value (the rescan test).

    It parses what ``float`` parses, except ``_`` digit separators and
    non-ASCII digits; Unicode whitespace around the number is ignored.
    """
    core = text.strip()
    if not core.isascii() or "_" in core:
        return False
    try:
        return math.isfinite(float(core))
    except ValueError:
        return False


def _read_lines(path: str) -> list[str]:
    """The physical lines of a file with their endings, split where ``csv`` splits them."""
    try:
        handle = open(path, newline="")
    except OSError as err:
        raise IngestError(f"cannot open {path}: {err}") from None
    lines: list[str] = []
    with handle:
        try:
            for line in handle:
                lines.append(line)
        except UnicodeDecodeError as err:
            # decoding runs ahead of the lines read so far
            raise IngestError(f"{path}:{len(lines) + 1}: unreadable text at or after "
                              f"this line ({err.reason})") from None
    return lines


def _header(path: str, reader) -> list[str]:
    """The stripped names of the first row of a ``csv.reader``."""
    try:
        header = next(reader, None)
    except csv.Error as err:
        raise IngestError(f"{path}:{reader.line_num}: unreadable row ({err})") from None
    if header is None:
        raise IngestError(f"{path}:1: file is empty (no header row)")
    return [name.strip() for name in header]


def _body_rows(path: str, reader, start: int = 0):
    """The line number and the fields of each remaining row; blank lines are skipped.

    A row's line number is that of its last physical line, which differs
    from its first only inside quotes; ``start`` is the number of lines
    before the first that ``reader`` reads.
    """
    try:
        for row in reader:
            if row:
                yield start + reader.line_num, row
    except csv.Error as err:
        raise IngestError(f"{path}:{start + reader.line_num}: unreadable row ({err})") from None


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
    """One ingested file: its block and where each (subject, group) row is.

    ``block`` holds every column of the file, and ``columns`` maps the name
    of each value column to its position in it.  ``index`` maps (subject,
    group label) to a row of the block, and ``subjects`` maps each subject
    to the line it first appears on, in file order.
    """

    path: str
    columns: dict[str, int]
    index: dict[tuple[str, str], int]
    subjects: dict[str, int]
    block: np.ndarray | None

    def take(self, subjects, group: str) -> np.ndarray:
        """The values of ``subjects`` under ``group``, in that order."""
        rows = [self.index[subject, group] for subject in subjects]
        return self.block[np.ix_(rows, list(self.columns.values()))]


def _index_rows(path: str, spec: IngestSpec, numbers: list[int], keys,
                problems: _ProblemLog) -> tuple[dict[tuple[str, str], int], dict[str, int]]:
    """Check the stripped (subject, group) label pair of each row, in file order.

    ``numbers`` holds the line of each row.  Returns the row of each pair and
    the first line of each subject; a row with an empty subject, an unknown
    group label or a pair seen before is logged and left out.
    """
    index: dict[tuple[str, str], int] = {}
    first_lines: dict[str, int] = {}
    for row, (line, key) in enumerate(zip(numbers, keys)):
        where = f"{path}:{line}"
        subject, group = key
        if not subject:
            problems.add(f"{where}: empty {spec.subject_column!r} cell")
        elif group not in (spec.group_a, spec.group_b):
            problems.add(
                f"{where}: unknown {spec.group_column!r} label {group!r} "
                f"(expected {spec.group_a!r} or {spec.group_b!r})"
            )
        elif key in index:
            problems.add(
                f"{where}: duplicate entry for subject {subject!r} with "
                f"{spec.group_column} {group!r} (first seen at line {numbers[index[key]]})"
            )
        else:
            index[key] = row
            first_lines.setdefault(subject, line)
    return index, first_lines


def _rescan(path: str, spec: IngestSpec, rows, header: list[str], columns: dict[str, int],
            problems: _ProblemLog) -> bool:
    """Log every problem of the ``csv`` rows of a file that the C reader cannot read.

    Returns whether a row had a width or a value that the C reader rejects.
    It only reports: a file that reaches it returns no data.
    """
    before = len(problems.items)
    numbers: list[int] = []
    full: list[list[str]] = []
    for line, row in rows:
        if len(row) != len(header):
            relation = "more" if len(row) > len(header) else "fewer"
            problems.add(f"{path}:{line}: row has {relation} fields than the header")
        else:
            numbers.append(line)
            full.append(row)
    unreadable = len(problems.items) > before
    subject_at, group_at = header.index(spec.subject_column), header.index(spec.group_column)
    index, _ = _index_rows(path, spec, numbers,
                           [(row[subject_at].strip(), row[group_at].strip()) for row in full],
                           problems)
    for r in index.values():
        for name, j in columns.items():
            if not _is_number(full[r][j]):
                problems.add(f"{path}:{numbers[r]}: missing or non-numeric value "
                             f"{full[r][j]!r} in column {name!r}")
                unreadable = True
                break
    return unreadable


def _load(path: str, spec: IngestSpec, response_column: str | None,
          problems: _ProblemLog) -> _Table:
    """Read one file and check it row by row; row problems go to ``problems``.

    The response file's one value column is ``response_column``; with None,
    every column but the subject and group columns is a candidate.  All the
    rows are parsed in one pass of numpy's C reader, with the subject and
    group labels turned into integer codes as they are read; a file that
    fails that pass is rescanned with ``csv`` only to say where.
    """
    sep = spec.delimiter if spec.delimiter is not None else default_delimiter(path)
    lines = _read_lines(path)
    reader = csv.reader(lines, delimiter=sep)
    header = _header(path, reader)
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
    start = reader.line_num
    body = lines[start:]
    # the C reader skips exactly the lines that csv reads as blank
    numbers = [n for n, line in enumerate(body, start + 1) if line.rstrip("\r\n")]
    if not numbers:
        raise IngestError(f"{path}:1: no data rows")

    subject_at, group_at = map(header.index, keys)
    subjects: dict[str, int] = {}
    groups = {spec.group_a: 0, spec.group_b: 1}
    converters = {j: (lambda text: 0) for j, name in enumerate(header) if name not in columns}
    converters[subject_at] = lambda text: subjects.setdefault(text.strip(), len(subjects))
    converters[group_at] = lambda text: groups.setdefault(text.strip(), len(groups))
    try:
        # comments=None: the default '#' would cut a row at a label like 's#1';
        # encoding=None: before numpy 2 the default hands converters bytes
        block = np.loadtxt(body, delimiter=sep, dtype=float, ndmin=2, quotechar='"',
                           comments=None, converters=converters, encoding=None)
    except ValueError as err:
        failure = str(err)
    else:
        if len(block) != len(numbers):
            # a quoted cell spans lines: csv says which line each row ends on
            numbers = [line for line, _ in _body_rows(path, csv.reader(body, delimiter=sep),
                                                      start)]
        failure = (None if block.shape == (len(numbers), len(header))
                   and np.isfinite(block).all()
                   else f"read {block.shape[0]} rows of {block.shape[1]} fields, expected "
                        f"{len(numbers)} rows of {len(header)} finite values")
    if failure is not None:
        rows = _body_rows(path, csv.reader(body, delimiter=sep), start)
        if not _rescan(path, spec, rows, header, columns, problems):
            problems.add(f"{path}: {failure}")
        return _Table(path, columns, {}, {}, None)

    names, labels = list(subjects), list(groups)
    codes = block[:, [subject_at, group_at]].astype(np.intp).tolist()
    index, first_lines = _index_rows(path, spec, numbers,
                                     [(names[s], labels[g]) for s, g in codes], problems)
    return _Table(path, columns, index, first_lines, block)


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

    if _Design.named(spec.design).shared_units:
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
                              names=list(cand.columns), subject_ids=ids)

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
                            names=list(cand.columns), treated_ids=ids_a, control_ids=ids_b)


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
        # csv quotes a line break only if the line terminator holds it, so not "\r"
        quoted = csv.writer(handle, delimiter=sep, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in chain([header], rows):
            (quoted if "\r" in "".join(row) else writer).writerow(row)


def _float_rows(labels, block):
    """Rows of string labels then full-precision floats, with no per-cell dispatch.

    ``repr`` of each float is what ``_cell`` writes for it, so the bytes
    are those of ``write_table``.
    """
    for label, values in zip(labels, np.asarray(block, dtype=float)):
        yield [*label, *map(repr, values.tolist())]


def write_table(path: str, fieldnames, rows) -> None:
    """Write dict rows as text delimited by the file extension, with full-precision numbers."""
    _write_rows(path, fieldnames, ([_cell(row[name]) for name in fieldnames] for row in rows),
                None)


def read_table(path: str):
    """Header fields and string-valued dict rows of a delimited file.

    A short row maps its missing fields to None; a long row's extra fields
    are dropped.
    """
    reader = csv.reader(_read_lines(path), delimiter=default_delimiter(path))
    header = _header(path, reader)
    padding = [None] * len(header)
    return header, [dict(zip(header, row + padding)) for _, row in _body_rows(path, reader)]


def _read_weights(path: str, data: Dataset):
    """Member names and weights from a table with name and weight columns.

    Each name must be a candidate of ``data``, listed once, with a positive
    finite weight as :class:`CombinedSurrogate` requires; the first row that
    breaks this is reported with its line.
    """
    reader = csv.reader(_read_lines(path), delimiter=default_delimiter(path))
    header = _header(path, reader)
    for column in ("name", "weight"):
        if column not in header:
            raise IngestError(f"{path}: missing column {column!r}")
    weights = {}
    for line, row in _body_rows(path, reader):
        fields = dict(zip(header, row + [None] * len(header)))
        name, cell = fields["name"], fields["weight"]
        try:
            weight = float(cell)
        except (TypeError, ValueError):
            weight = np.nan
        problem = ("is not in the candidates file" if name not in data._columns
                   else "is listed twice" if name in weights
                   else None if np.isfinite(weight) and weight > 0.0
                   else f"has weight {cell!r}, not a positive finite number")
        if problem:
            raise IngestError(f"{path}:{line}: candidate {name!r} {problem}")
        weights[name] = weight
    if not weights:
        raise IngestError(f"{path}: no data rows")
    return list(weights), np.array(list(weights.values()))


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


def write_screening_table(report: ScreeningReport, path: str) -> None:
    order = report.evidence_order()
    # a column at a time; repr of each float is what _cell writes for it
    columns = (map(repr, getattr(report, field)[order].tolist())
               for field in SCREENING_FIELDS[1:])
    _write_rows(path, SCREENING_FIELDS, zip(map(report.names.__getitem__, order.tolist()),
                                            *columns), None)


def write_selected(report: ScreeningReport, path: str) -> None:
    with open(path, "w") as handle:
        for name in report.selected:
            handle.write(name + "\n")


def write_weights(combined: CombinedSurrogate, path: str) -> None:
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
    write_table(path, ("name", "weight", "mean", "sd", "degenerate"), rows)


EVALUATION_FIELDS = ("marker", "u_response", "u_marker", "delta", "sigma", "epsilon",
                     "ci_lower", "ci_upper", "p_value", "reject")
_evaluation_values = attrgetter("u_response", "u_candidate", *EVALUATION_FIELDS[3:])


def evaluation_rows(results: list[tuple[str, SurrogateTestResult]]):
    """One row of evaluation metrics per tested marker."""
    return [dict(zip(EVALUATION_FIELDS, (label, *_evaluation_values(res))))
            for label, res in results]


def write_evaluation_summary(results: list[tuple[str, SurrogateTestResult]], path: str) -> None:
    write_table(path, EVALUATION_FIELDS, evaluation_rows(results))


def write_volcano(report: ScreeningReport, path: str) -> None:
    """Effect size against evidence strength for every candidate."""
    with np.errstate(divide="ignore"):
        strength = -np.log10(report.adjusted_p)
    _write_rows(path, ("name", "delta", "neg_log10_adjusted_p"),
                zip(report.names, *(map(repr, c.tolist()) for c in (report.delta, strength))),
                None)


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


def write_rank_scatter(ids, blocks, response_values, marker_values, path: str) -> float:
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
    write_table(path, ("subject", "block", "response_rank", "marker_rank"), rows)
    return rho


def format_screening_table(report: ScreeningReport, digits: int = 4,
                           limit: int | None = None) -> str:
    """The screening table's first ``limit`` rows for reading; numbers are rounded here only."""
    order = report.evidence_order()[:limit]
    columns = [[report.names[j] for j in order.tolist()],
               *([f"{value:.{digits}g}" for value in getattr(report, field)[order].tolist()]
                 for field in SCREENING_FIELDS[1:])]
    widths = [max(map(len, [field, *column])) for field, column in zip(SCREENING_FIELDS, columns)]
    return "\n".join("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
                     for row in [SCREENING_FIELDS, *zip(*columns)])

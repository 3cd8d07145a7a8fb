"""Two-stage screening and evaluation of candidate surrogates.

Stage one tests every candidate against the response on a screening split
and keeps those whose multiplicity-adjusted p-values clear the level.
Stage two collapses the kept candidates into a single weighted combination
and tests that combination on the held-out evaluation split, so that
selection and evaluation never touch the same observations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import (
    AlignmentError,
    ConfigurationError,
    InvalidInputError,
    NoSurrogatesSelectedError,
    SurrankError,
)
from .inference import Mode, SurrogateTestResult, TestConfig, _assemble, _margin, _tests
from .multitest import Method, adjust
from .rankstats import (
    Design,
    PairedSample,
    TwoArmSample,
    _as_finite_vector,
    _Design,
    _stack,
    _Workspace,
)
from .variance import _flat, _gaps

# Bytes of the kernel's largest float64 temporary allowed per block in `_screen_gaps`;
# the design's `column_bytes` gives its size per candidate column, 8 * (n_a + n_b)
# unpaired and 8 * n_units paired.  Every block of a call reuses one workspace, whose
# size the width sets: about a dozen arrays of the block's size (some 0.8 MB at 40
# columns of 100 + 100).  Under a 128 KiB mmap threshold bench/screen.py finds the
# cost per column falling steeply up to about 24 columns and within about 20 % of its
# least from there to 256 columns at the unpaired heights it sweeps.
_BLOCK_BYTES = 64 * 1024
# Selected candidates that `run_pipeline` retests one by one on the evaluation split.
_TOP_MARKERS = 10


def _as_matrix(values, rows: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if arr.shape[0] != rows:
        raise AlignmentError(f"{name} has {arr.shape[0]} rows, expected {rows}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class Dataset:
    """Response and candidate measurements aligned subject-for-subject.

    The two blocks hold the treated and control arms for the unpaired
    design, or the post and pre measurements of the same units for the
    paired design.  Candidate column j of each block belongs to the same
    subject as the response entry in that row.
    """

    design: Design
    response_a: np.ndarray
    response_b: np.ndarray
    candidates_a: np.ndarray
    candidates_b: np.ndarray
    names: tuple[str, ...]
    ids_a: tuple[str, ...]
    ids_b: tuple[str, ...]

    def __post_init__(self):
        # the design object; not a field, so equality ignores it
        object.__setattr__(self, "_design", _Design.named(self.design, ConfigurationError))
        resp_a = _as_finite_vector(self.response_a, "response_a")
        resp_b = _as_finite_vector(self.response_b, "response_b")
        object.__setattr__(self, "response_a", resp_a)
        object.__setattr__(self, "response_b", resp_b)
        object.__setattr__(
            self, "candidates_a", _as_matrix(self.candidates_a, resp_a.size, "candidates_a")
        )
        object.__setattr__(
            self, "candidates_b", _as_matrix(self.candidates_b, resp_b.size, "candidates_b")
        )
        if self.candidates_a.shape[1] != self.candidates_b.shape[1]:
            raise AlignmentError(
                f"candidate blocks disagree on p: {self.candidates_a.shape[1]} "
                f"vs {self.candidates_b.shape[1]}"
            )
        names = tuple(str(n) for n in self.names)
        object.__setattr__(self, "names", names)
        if len(names) != self.candidates_a.shape[1]:
            raise AlignmentError(f"{len(names)} names for {self.candidates_a.shape[1]} candidates")
        if len(names) == 0:
            raise InvalidInputError("need at least one candidate")
        # name -> column index; not a field, so equality ignores it
        object.__setattr__(self, "_columns", {name: j for j, name in enumerate(names)})
        if len(self._columns) != len(names):
            raise InvalidInputError("candidate names must be unique")
        ids_a = tuple(str(i) for i in self.ids_a)
        ids_b = tuple(str(i) for i in self.ids_b)
        object.__setattr__(self, "ids_a", ids_a)
        object.__setattr__(self, "ids_b", ids_b)
        if len(ids_a) != resp_a.size or len(ids_b) != resp_b.size:
            raise AlignmentError("subject id count does not match observation count")
        if len(set(ids_a)) != len(ids_a) or len(set(ids_b)) != len(ids_b):
            raise InvalidInputError("subject ids must be unique within a block")
        if self._design.shared_units and ids_a != ids_b:
            raise AlignmentError(f"{self.design} blocks must list the same units in order")

    @classmethod
    def unpaired(cls, response_treated, response_control, candidates_treated,
                 candidates_control, names=None, treated_ids=None, control_ids=None):
        """Build an independent two-arm dataset."""
        return cls("unpaired", response_treated, response_control, candidates_treated,
                   candidates_control, _default_names(names, candidates_treated),
                   _default_ids(treated_ids, response_treated, "t"),
                   _default_ids(control_ids, response_control, "c"))

    @classmethod
    def paired(cls, response_post, response_pre, candidates_post, candidates_pre,
               names=None, subject_ids=None):
        """Build a paired (post, pre) dataset."""
        ids = _default_ids(subject_ids, response_post, "u")
        return cls("paired", response_post, response_pre, candidates_post, candidates_pre,
                   _default_names(names, candidates_post), ids, ids)

    @property
    def p(self) -> int:
        return len(self.names)

    @property
    def n_a(self) -> int:
        return self.response_a.size

    @property
    def n_b(self) -> int:
        return self.response_b.size

    def response_sample(self):
        return self._design.sample(self.response_a, self.response_b)

    def candidate_sample(self, name: str):
        j = self._column(name)
        return self._design.sample(self.candidates_a[:, j], self.candidates_b[:, j])

    def _column(self, name: str) -> int:
        try:
            return self._columns[name]
        except KeyError:
            raise InvalidInputError(f"unknown candidate {name!r}") from None

    def take(self, rows_a, rows_b) -> "Dataset":
        """Subset by distinct row indices (paired designs require identical index sets).

        The subset shares this dataset's names, design and name lookup and
        copies rows of its checked blocks, so it is not checked again.
        """
        rows_a, rows_b = _row_indices(rows_a, self.n_a), _row_indices(rows_b, self.n_b)
        if self._design.shared_units and not np.array_equal(rows_a, rows_b):
            raise InvalidInputError(f"{self.design} blocks must take the same rows in order")
        subset = object.__new__(Dataset)
        subset.__dict__.update(
            self.__dict__, response_a=self.response_a[rows_a], response_b=self.response_b[rows_b],
            candidates_a=self.candidates_a[rows_a], candidates_b=self.candidates_b[rows_b],
            ids_a=tuple(map(self.ids_a.__getitem__, rows_a.tolist())),
            ids_b=tuple(map(self.ids_b.__getitem__, rows_b.tolist())))
        return subset


def _row_indices(rows, n: int) -> np.ndarray:
    """``rows`` as an array of distinct integer indices into ``n`` rows, at least one."""
    rows = np.asarray(rows)
    if (rows.ndim != 1 or rows.size == 0 or rows.dtype.kind not in "iu" or rows.min() < 0
            or rows.max() >= n or np.unique(rows).size != rows.size):
        raise InvalidInputError(f"row indices must be distinct integers in [0, {n}), got {rows!r}")
    return rows


def _default_names(names, candidates) -> tuple[str, ...]:
    if names is not None:
        return tuple(str(n) for n in names)
    shape = np.shape(candidates)
    if len(shape) != 2:
        raise InvalidInputError(f"candidates must be two-dimensional, got shape {shape}")
    return tuple(f"S{j + 1}" for j in range(shape[1]))


def _default_ids(ids, values, prefix: str) -> tuple[str, ...]:
    if ids is not None:
        return tuple(str(i) for i in ids)
    return tuple(f"{prefix}{i + 1}" for i in range(np.size(values)))


@dataclass(frozen=True)
class ScreeningRow:
    """Test summary for one candidate on the screening split."""

    name: str
    u_candidate: float
    delta: float
    sigma: float
    ci_lower: float
    ci_upper: float
    raw_p: float
    adjusted_p: float
    degenerate: bool


_ROW_COLUMNS = tuple(f.name for f in fields(ScreeningRow))[1:]


@dataclass(frozen=True, eq=False)
class ScreeningReport:
    """Stage-one output: per-candidate columns plus the ordered selected set.

    Entry j of each array, a field of :class:`ScreeningRow`, belongs to
    ``names[j]``.  ``selected`` is ordered by adjusted p, then absolute gap,
    then name, all ascending: :meth:`evidence_order`.  ``n_a``/``n_b``
    record the screening-split sizes that weight flooring is based on.
    Reports are equal when their fields are, the arrays bit for bit.
    """

    names: tuple[str, ...]
    u_candidate: np.ndarray
    delta: np.ndarray
    sigma: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    raw_p: np.ndarray
    adjusted_p: np.ndarray
    degenerate: np.ndarray
    selected: tuple[str, ...]
    epsilon_used: float
    method: Method | None
    alpha: float
    mode: Mode
    design: Design
    u_response: float
    n_a: int
    n_b: int

    def __eq__(self, other):
        if not isinstance(other, ScreeningReport):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all((a.shape, a.tobytes()) == (b.shape, b.tobytes()) if isinstance(a, np.ndarray)
                   else a == b for a, b in pairs)

    @cached_property
    def rows(self) -> tuple[ScreeningRow, ...]:
        """One row per candidate in column order, built on first access."""
        return tuple(map(ScreeningRow, self.names,
                         *(getattr(self, column).tolist() for column in _ROW_COLUMNS)))

    @cached_property
    def _columns(self) -> dict[str, int]:
        """Name -> entry, built on first access."""
        return dict(zip(self.names, range(len(self.names))))

    def row(self, name: str) -> ScreeningRow:
        if name not in self._columns:
            raise InvalidInputError(f"no screening row for candidate {name!r}")
        return ScreeningRow(name, *(getattr(self, column)[self._columns[name]].item()
                                    for column in _ROW_COLUMNS))

    def evidence_order(self) -> np.ndarray:
        """Every entry in the order of ``selected``: the screening table's row order."""
        return _by_evidence(self.names, self.delta, self.adjusted_p, np.arange(len(self.names)))


def _by_evidence(names, delta, adjusted_p, entries: np.ndarray) -> np.ndarray:
    """``entries`` by adjusted p, then absolute gap, then name as ``sorted`` orders names."""
    labels = [names[j] for j in entries.tolist()]
    by_name = np.empty(entries.size, dtype=np.intp)
    by_name[sorted(range(entries.size), key=labels.__getitem__)] = np.arange(entries.size)
    return entries[np.lexsort((by_name, np.abs(delta[entries]), adjusted_p[entries]))]


@dataclass(frozen=True)
class CombinedSurrogate:
    """Weighted standardized sum over the selected candidates.

    ``standardization`` holds the per-member (mean, sd) actually used;
    members listed in ``degenerate_members`` had zero spread where the
    combination was formed and contribute nothing to its values.
    """

    members: tuple[str, ...]
    weights: tuple[float, ...]
    standardization: tuple[tuple[float, float], ...]
    degenerate_members: tuple[str, ...]

    def __post_init__(self):
        if len(self.members) != len(self.weights):
            raise AlignmentError("one weight per member required")
        if len(self.members) != len(self.standardization):
            raise AlignmentError("one (mean, sd) pair per member required")
        weights = np.asarray(self.weights, dtype=float)
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise InvalidInputError("weights must be positive and finite")


@dataclass(frozen=True)
class PipelineResult:
    """Everything produced by one full screening-and-evaluation run.

    ``members`` pairs the first ten selected candidates with their own tests
    on the evaluation split at the margin of ``evaluation``; a derived margin
    depends only on the response and the block sizes, so it is theirs too.
    """

    screening: ScreeningReport
    combined: CombinedSurrogate
    evaluation: SurrogateTestResult
    members: tuple[tuple[str, SurrogateTestResult], ...]
    split_ratio: float
    split_seed: int
    evaluation_data: Dataset
    gamma: TwoArmSample | PairedSample


def split(data: Dataset, ratio: float = 0.75, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Partition subjects into screening and evaluation splits.

    floor(ratio * n) subjects go to screening.  Blocks that list the same
    units (paired) are split once; two arms (unpaired) are stratified so
    each arm is split at the same ratio.  The partition is a deterministic
    function of the seed and the block sizes.
    """
    if not 0.0 < ratio < 1.0:
        raise ConfigurationError(f"split ratio must be in (0, 1), got {ratio}")
    rng = np.random.default_rng(seed)
    first_a, second_a = _split_block(data.n_a, ratio, rng)
    first_b, second_b = ((first_a, second_a) if data._design.shared_units
                         else _split_block(data.n_b, ratio, rng))
    screening = data.take(first_a, first_b)
    evaluation = data.take(second_a, second_b)
    for part, label in ((screening, "screening"), (evaluation, "evaluation")):
        if part.n_a < 2 or part.n_b < 2:
            raise ConfigurationError(
                f"ratio {ratio} leaves the {label} split with fewer than 2 observations "
                f"per block ({part.n_a} and {part.n_b})"
            )
    return screening, evaluation


def _split_block(n: int, ratio: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    k = int(np.floor(ratio * n))
    perm = rng.permutation(n)
    return np.sort(perm[:k]), np.sort(perm[k:])


def screen(data: Dataset, config: TestConfig = TestConfig(),
           method: Method | None = "bh") -> ScreeningReport:
    """Test every candidate against the response on one dataset.

    The margin is fixed by ``config.epsilon`` or derived once from the
    response effect; it is shared by all candidates.  ``method=None``
    skips the multiplicity adjustment (adjusted p equals raw p).  The
    test is :func:`~surrank.inference.surrogate_test`'s, so each row equals
    the single test of its column bit for bit: a flat candidate, one value
    over both blocks, is uninformative and gets p = 1 and the degenerate flag.
    """
    u_y, tie_y, u_candidate, sigma, flat = _screen_gaps(
        data._design, data.response_a, data.response_b, data.candidates_a, data.candidates_b)
    epsilon = _margin(data.design, u_y, tie_y, data.n_a, data.n_b, config)
    delta = u_y - u_candidate
    test = _assemble(delta, sigma, flat, epsilon, config.alpha, config.mode)
    raw = test["p_value"]
    adjusted = adjust(raw, method).adjusted if method is not None else raw
    hits = _by_evidence(data.names, delta, adjusted, np.flatnonzero(adjusted < config.alpha))
    return ScreeningReport(
        data.names, u_candidate, delta, sigma, test["ci_lower"], test["ci_upper"], raw, adjusted,
        test["degenerate"], tuple(map(data.names.__getitem__, hits.tolist())), float(epsilon),
        method, config.alpha, config.mode, data.design, float(u_y), data.n_a, data.n_b)


def _screen_workspace(design: _Design, n_a: int, n_b: int, p: int) -> _Workspace:
    """A workspace for :func:`_screen_gaps`: the response row and a block of candidate rows.

    A block holds as many candidates as ``_BLOCK_BYTES`` allows, by the
    design's ``column_bytes``, and at most ``p``.
    """
    width = max(1, _BLOCK_BYTES // design.column_bytes(n_a, n_b))
    return _Workspace(min(width, p) + 1, n_a + n_b)


def _screen_gaps(design: _Design, response_a: np.ndarray, response_b: np.ndarray,
                 candidates_a: np.ndarray, candidates_b: np.ndarray,
                 work: _Workspace | None = None):
    """U_y, its tie fraction and each candidate's U, gap SE and flat flag, by :func:`_gaps`.

    Writes the response into row 0 of ``work`` (a :func:`_screen_workspace`
    made for this call when not given) and each block of candidate columns,
    transposed, into the rows below it, then runs :func:`_gaps` over the
    pooled block, so every block reuses the same buffers.  No candidate's
    arithmetic depends on the block that holds it, so the results do not
    depend on the width.
    """
    (n_a, p), n_b = candidates_a.shape, response_b.size
    if work is None:
        work = _screen_workspace(design, n_a, n_b, p)
    pooled, width = work.pooled, work.pooled.shape[0] - 1
    pooled[0, :n_a], pooled[0, n_a:] = response_a, response_b
    u, sigma, flat = np.empty(p), np.empty(p), np.empty(p, dtype=bool)
    for start in range(0, p, width):
        stop = min(start + width, p)
        block = pooled[:stop - start + 1]
        block[1:, :n_a] = candidates_a[:, start:stop].T
        block[1:, n_a:] = candidates_b[:, start:stop].T
        (u_y,), (tie_y,), u[start:stop], sigma[start:stop], flat[start:stop] = _gaps(
            design, block, n_a, 1, work)
    return u_y, tie_y, u, sigma, flat


def weighted_standardized_sum(values_a: np.ndarray, values_b: np.ndarray, weights):
    """Per-subject weighted sum of columns standardized with pooled moments.

    Flat columns, with no spread over the rows of both blocks, get their
    value as mean and an sd of 0 and contribute nothing, as a column of
    zeros would; so do columns whose sd underflows to zero.  The returned
    mask marks them.  Standardization uses the mean
    and ddof=1 sd over the rows of both blocks together.  The blocks may
    also be stacks of blocks, ``(cells, rows, p)``, each cell standardized
    and summed on its own.
    """
    n_a = np.shape(values_a)[-2]
    pooled = np.concatenate([values_a, values_b], axis=-2, dtype=float)
    gamma = np.empty(pooled.shape[:-1])
    means, sds, degenerate = _standardized_sum(pooled, n_a, weights, gamma)
    return gamma[..., :n_a], gamma[..., n_a:], means, sds, degenerate


def _standardized_sum(pooled: np.ndarray, n_a: int, weights, out: np.ndarray):
    """:func:`weighted_standardized_sum` of pooled blocks, standardized in place.

    Each ``(rows, p)`` block of ``pooled`` holds block a in its first
    ``n_a`` rows and block b in the rest, and ``out`` gets one sum per row.
    The moments take the operations of ``mean`` and ``std(ddof=1)`` over
    the rows, the deviations serving both, and each arm's sums are one
    matrix-vector product, so every block's results are those of a block
    standardized alone.  Returns the means, sds and zero-spread mask of
    each block.
    """
    rows = pooled.shape[-2]
    # A flat member's mean is its value, which the rounded sum can miss (seven rows of
    # 0.1 would get an sd of 1.5e-17); with it, its deviations and sd are 0.
    flat = _flat(np.swapaxes(pooled, -1, -2))
    means = np.add.reduce(pooled, axis=-2)
    means /= rows
    np.copyto(means, pooled[..., 0, :], where=flat)
    deviations = np.subtract(pooled, means[..., None, :], out=pooled)
    sds = np.add.reduce(np.square(deviations), axis=-2)
    sds /= rows - 1
    np.sqrt(sds, out=sds)
    degenerate = sds == 0.0
    effective = np.where(degenerate, 0.0, np.asarray(weights, dtype=float))[..., None]
    deviations /= np.where(degenerate, 1.0, sds)[..., None, :]
    np.matmul(deviations[..., :n_a, :], effective, out=out[..., :n_a, None])
    np.matmul(deviations[..., n_a:, :], effective, out=out[..., n_a:, None])
    return means, sds, degenerate


def _combined_marker(data: Dataset, names, weights):
    """The weighted standardized sum of the named columns, as a sample aligned with ``data``.

    Returns the sample with the per-member pooled means, sds and
    zero-spread mask of :func:`weighted_standardized_sum`.
    """
    cols = [data._column(name) for name in names]
    gamma_a, gamma_b, means, sds, degenerate = weighted_standardized_sum(
        data.candidates_a[:, cols], data.candidates_b[:, cols], weights
    )
    return data._design.sample(gamma_a, gamma_b), means, sds, degenerate


def combine(data: Dataset, report: ScreeningReport):
    """Collapse the selected candidates into one combined marker.

    Weights are inverse absolute gaps from the screening report, floored
    at the grid resolution of the screening split so that a gap of zero
    yields a large finite weight.  Member columns are standardized with
    pooled moments of ``data``, the dataset on which the combination is
    formed.  Returns the description and the per-subject values aligned
    like ``data``'s response.
    """
    if not report.selected:
        raise NoSurrogatesSelectedError("no candidates passed screening")
    if report.design != data.design:
        raise AlignmentError("screening report and dataset designs differ")
    missing = [name for name in report.selected if name not in data._columns]
    if missing:
        raise AlignmentError(f"selected candidates absent from dataset: {missing}")

    floor = _Design.named(report.design).weight_floor(report.n_a, report.n_b)
    delta = report.delta[[report._columns[name] for name in report.selected]]
    weights = 1.0 / np.maximum(np.abs(delta), floor)
    gamma, means, sds, degenerate = _combined_marker(data, report.selected, weights)
    combined = CombinedSurrogate(
        members=report.selected,
        weights=tuple(float(w) for w in weights),
        standardization=tuple((float(m), float(s)) for m, s in zip(means, sds)),
        degenerate_members=tuple(
            name for name, flat in zip(report.selected, degenerate) if flat
        ),
    )
    return combined, gamma


def evaluate(data: Dataset, gamma, config: TestConfig = TestConfig()) -> SurrogateTestResult:
    """Test a combined marker against the response on the evaluation split.

    With ``config.epsilon=None`` the margin is re-derived from this
    split's own response effect and size.  It is ``surrogate_test`` of the
    response against ``gamma``, flat rule included.
    """
    return _evaluation(data, gamma, (), config)[0]


def _evaluation(data: Dataset, gamma, selected, config: TestConfig):
    """The combined marker's test, then its first members' at its margin, in one kernel pass.

    The response, ``gamma`` and the members are the rows of one pooled
    block, tested by :func:`~surrank.inference._tests`.
    """
    members = selected[:_TOP_MARKERS]
    cols = [data._column(name) for name in members]
    design, pair, n_a = _stack(data.response_sample(), gamma)
    columns = np.concatenate([data.candidates_a[:, cols], data.candidates_b[:, cols]])
    evaluation, *tests = _tests(design, np.concatenate([pair, columns.T]), n_a, config)
    return evaluation, tuple(zip(members, tests))


def run_pipeline(data: Dataset, ratio: float = 0.75, seed: int = 0,
                 config: TestConfig = TestConfig(),
                 method: Method | None = "bh") -> PipelineResult:
    """Run split, screening, combination, and evaluation end to end.

    The combination is formed on the evaluation split (weights come from
    screening, standardization moments from the evaluation data), and the
    evaluation stage also retests the first selected members there.  Errors
    raised by a stage are re-raised with the stage named.
    """
    screening_data, evaluation_data = _stage("split", split, data, ratio, seed)
    report = _stage("screening", screen, screening_data, config, method)
    combined, gamma = _stage("combination", combine, evaluation_data, report)
    evaluation, members = _stage("evaluation", _evaluation, evaluation_data, gamma,
                                 report.selected, config)
    return PipelineResult(
        screening=report,
        combined=combined,
        evaluation=evaluation,
        members=members,
        split_ratio=ratio,
        split_seed=seed,
        evaluation_data=evaluation_data,
        gamma=gamma,
    )


def _stage(label: str, fn, *args):
    try:
        return fn(*args)
    except SurrankError as err:
        raise type(err)(f"{label} stage: {err}") from err

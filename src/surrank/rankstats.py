"""Rank-comparison kernels and probability-scale treatment-effect estimators.

The treatment effect on a variable is measured on the probability scale,
P(X^1 > X^0) + 0.5 * P(X^1 = X^0), and estimated by averaging the pairwise
win/tie kernel over all treated-control pairs (independent two-arm design)
or over within-unit pairs (paired design).  Ties contribute exactly 1/2
through the kernel.  The unpaired kernel sorts each pooled row once and
cuts the sorted row into runs of equal values; every observation scores
the other arm's entries below its run plus half of those inside it (the
midrank construction of Sun & Xu, 2014), so the order in which the sort
leaves equal values cannot change a count.

Each design has one kernel, which works on a pooled block of variables
at once, one variable per row with block a's observations first, and
returns every observation's doubled kernel sum against its comparison
partners (DeLong's placement values, scaled by twice the partner count).
Its temporaries live in a :class:`_Workspace` that a caller makes once
and reuses for every block.  The U estimates, the variance of a gap
between two U estimates and the single-variable estimator all derive
from it.  Everything else that depends on the design lives beside its
kernel in one :class:`_Design` object, and only :meth:`_Design.named`
checks a design name.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Literal

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import AlignmentError, InvalidInputError

Design = Literal["unpaired", "paired"]


def _as_finite_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidInputError(f"{name} must contain at least one observation")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class TwoArmSample:
    """Independent treated/control measurements of one variable."""

    treated: np.ndarray
    control: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "treated", _as_finite_vector(self.treated, "treated"))
        object.__setattr__(self, "control", _as_finite_vector(self.control, "control"))


@dataclass(frozen=True)
class PairedSample:
    """Per-unit (post, pre) or (treated, control) measurement pairs of one variable."""

    post: np.ndarray
    pre: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "post", _as_finite_vector(self.post, "post"))
        object.__setattr__(self, "pre", _as_finite_vector(self.pre, "pre"))
        if self.post.size != self.pre.size:
            raise AlignmentError(
                f"paired sample length mismatch: {self.post.size} post vs {self.pre.size} pre"
            )


@dataclass(frozen=True)
class UEstimate:
    """A probability-scale treatment-effect estimate in [0, 1].

    ``tie_fraction`` is the observed fraction of exactly tied comparisons;
    for the paired design it estimates the tie probability used by the
    null-variance formula, for the unpaired design it is informational.
    """

    value: float
    design: Design
    tie_fraction: float

    def __post_init__(self):
        _Design.named(self.design)
        if not 0.0 <= self.value <= 1.0:
            raise InvalidInputError(f"U estimate {self.value} outside [0, 1]")
        if not 0.0 <= self.tie_fraction <= 1.0:
            raise InvalidInputError(f"tie fraction {self.tie_fraction} outside [0, 1]")


def g_kernel(a: float, b: float) -> float:
    """Pairwise win/tie kernel: 1 if a > b, 1/2 if a == b, 0 if a < b."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise InvalidInputError("g_kernel requires finite inputs")
    if a > b:
        return 1.0
    if a == b:
        return 0.5
    return 0.0


class _Workspace:
    """Buffers for blocks of up to ``rows`` variables over ``n`` pooled observations.

    ``pooled`` holds a block: one variable per row, block a's observations
    first.  The other arrays are the kernels' and the variance's
    temporaries, which every block overwrites, so a call that makes one
    workspace for all its blocks allocates only argsort's index array per
    block and finds every other page already mapped.
    """

    def __init__(self, rows: int, n: int):
        marks = rows * (n + 1)
        self.pooled = np.empty((rows, n))
        self.row_starts = np.arange(0, rows * n, n)[:, None]
        self.control = np.empty((rows, n), dtype=bool)
        self.ordered = np.empty((rows, n))  # the sorted block, then its doubled counts
        # the unpaired kernel's flat positions: each row's sorted entries, then a row
        # end; columns 0 and n stay flagged and column 0 of `below` stays 0
        self.flags = np.ones((rows, n + 1), dtype=bool)
        self.below = np.zeros((rows, n + 1), dtype=np.intp)
        self.position = np.tile(np.arange(n + 1), rows)
        self.run = np.empty(marks, dtype=np.intp)
        self.slot = np.empty(marks, dtype=np.intp)  # compaction slots, then table lookups
        self.a_at = np.empty(marks + 1, dtype=np.intp)
        self.b_at = np.empty(marks + 1, dtype=np.intp)
        self.table = np.empty(2 * marks)
        self.counts = np.empty((rows, n))


@dataclass(frozen=True)
class _Placements:
    """Doubled kernel sums of every observation against its partners, one row per variable.

    ``counts`` holds one ``(k, n)`` view per side, each entry twice the
    kernel summed over that observation's ``partners`` comparisons:
    unpaired, the treated arm against all controls and all treated against
    each control; paired, the unit's own (post, pre) kernel.  Doubled, the
    entries are integers, so their sums are exact.  ``sizes`` gives each
    side's observation count and ``ties`` the tied comparisons of the
    leading rows the kernel was asked to count.
    """

    counts: tuple[np.ndarray, ...]
    partners: tuple[int, ...]
    sizes: tuple[int, ...]
    ties: np.ndarray

    @property
    def comparisons(self) -> int:
        return self.sizes[0] * self.partners[0]

    @property
    def u(self) -> np.ndarray:
        """U estimate of each row: the kernel total over the comparison count."""
        return self.counts[0].sum(axis=1) / (2 * self.comparisons)


def _paired_placements(pooled: np.ndarray, n_a: int, work: _Workspace,
                       tied_rows: int) -> _Placements:
    """The paired kernel: each unit's own (post, pre) comparison, row for row."""
    k = pooled.shape[0]
    post, pre = pooled[:, :n_a], pooled[:, n_a:]
    # doubled, a win scores 1 + 1, a tie 1 + 0
    counts = np.greater_equal(post, pre, out=work.counts.ravel()[:k * n_a].reshape(k, n_a))
    counts += np.greater(post, pre, out=work.control.ravel()[:k * n_a].reshape(k, n_a))
    ties = np.count_nonzero(counts[:tied_rows] == 1.0, axis=1)
    return _Placements((counts,), (1,), (n_a,), ties)


def _unpaired_placements(pooled: np.ndarray, n_a: int, work: _Workspace,
                         tied_rows: int) -> _Placements:
    """The unpaired kernel: every treated entry against every control, per row."""
    k, n = pooled.shape
    order = np.argsort(pooled, axis=1)
    control = np.greater_equal(order, n_a, out=work.control[:k])
    order += work.row_starts[:k]
    ordered = np.take(pooled, order, out=work.ordered[:k], mode="clip")
    # flat position i (n + 1) + j holds row i's j-th sorted entry and position
    # i (n + 1) + n ends row i.  A tie run starts at each row's first entry and
    # wherever the sorted value changes; run starts and row ends are flagged and
    # numbered from 1 in flat order, and a run spans its flag to the next one
    flags = work.flags[:k]
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=flags[:, 1:n])
    run = np.cumsum(flags, dtype=np.intp, out=work.run[:k * (n + 1)])
    marks = int(run[-1])
    below = work.below[:k]  # controls before each position of its row
    np.cumsum(control, axis=1, dtype=np.intp, out=below[:, 1:])
    # a_at[q - 1] and b_at[q - 1]: the treated and the controls before flag q in its
    # row; unflagged positions all write to slot `marks`, which nothing reads
    slot = work.slot[:run.size]
    slot.fill(marks)
    np.subtract(run, 1, out=slot, where=flags.ravel())
    a_at, b_at = work.a_at[:marks + 1], work.b_at[:marks + 1]
    b_at[slot] = below.ravel()
    a_at[slot] = work.position[:run.size]
    a_at -= b_at
    # doubled, a treated entry of run q scores the controls below the run plus those
    # in it, b_at[q - 1] + b_at[q], kept in table[q]; a control entry the treated
    # above it plus those in it, 2 n_a - a_at[q - 1] - a_at[q], in table[marks + q]
    table = work.table[:2 * marks]
    np.add(b_at[:marks - 1], b_at[1:marks], out=table[1:marks])
    np.add(a_at[:marks - 1], a_at[1:marks], out=table[marks + 1:])
    np.subtract(2 * n_a, table[marks + 1:], out=table[marks + 1:])
    lookup = np.multiply(control, marks, out=slot[:k * n].reshape(k, n))
    lookup += run.reshape(k, n + 1)[:, :n]
    doubled = np.take(table, lookup, out=ordered, mode="clip")
    counts = work.counts[:k]
    counts.ravel()[order] = doubled
    # run q has (a_at[q] - a_at[q - 1]) (b_at[q] - b_at[q - 1]) tied comparisons; the
    # pair of a row end and the next row's first flag is no run and gives n_a n_b
    ends = run[n:(n + 1) * tied_rows:n + 1]
    last = int(ends[-1])
    tied = np.subtract(a_at[1:last], a_at[:last - 1])
    tied *= b_at[1:last] - b_at[:last - 1]
    ties = np.add.reduceat(tied, np.concatenate([[0], ends[:-1]]))
    ties[:-1] -= n_a * (n - n_a)
    return _Placements((counts[:, :n_a], counts[:, n_a:]), (n - n_a, n_a), (n_a, n - n_a),
                       ties)


@dataclass(frozen=True)
class _Design:
    """What depends on the study design: one instance per design, in ``_DESIGNS``.

    ``shared_units`` says whether blocks a and b list the same units row for
    row (post and pre) rather than two arms.  ``blocks`` reads a sample's
    blocks a and b.  ``kernel`` takes a pooled ``(k, n_a + n_b)`` block, n_a,
    a workspace for at least that block and the number of leading rows whose
    ties it counts.  ``groups`` holds the default group column and the labels of
    blocks a and b in input files.
    """

    name: str
    sample: type
    blocks: Callable[[object], tuple[np.ndarray, np.ndarray]]
    shared_units: bool
    kernel: Callable[[np.ndarray, int, _Workspace, int], _Placements]
    null_variance: Callable[[int, int, float], float]  # of one U, given the tie fraction
    weight_floor: Callable[[int, int], float]  # floor of |gap| in the combination weights
    groups: tuple[str, str, str]

    def __reduce__(self):
        return _Design.named, (self.name,)  # by name: the callables are lambdas

    def column_bytes(self, n_a: int, n_b: int) -> int:
        """Bytes per column of the kernel's largest float64 temporary."""
        return 8 * (n_a if self.shared_units else n_a + n_b)

    @staticmethod
    def named(name, error: type[Exception] = InvalidInputError) -> "_Design":
        """The design called ``name``; any other name raises ``error``."""
        try:
            return _DESIGNS[name]
        except (KeyError, TypeError):
            raise error(f"design must be {' or '.join(map(repr, _DESIGNS))}, "
                        f"got {name!r}") from None


_DESIGNS = {design.name: design for design in (
    # the continuous-data Mann-Whitney null variance; U grid k / (2 n_a n_b)
    _Design("unpaired", TwoArmSample, attrgetter("treated", "control"), False,
            _unpaired_placements,
            lambda n_a, n_b, tie_fraction: (n_a + n_b + 1) / (12.0 * n_a * n_b),
            lambda n_a, n_b: 1.0 / (2.0 * n_a * n_b), ("arm", "treated", "control")),
    # a Bernoulli win indicator deflated by the observed tie mass; U grid k / (2 n_a)
    _Design("paired", PairedSample, attrgetter("post", "pre"), True, _paired_placements,
            lambda n_a, n_b, tie_fraction: (1.0 - tie_fraction) / (4.0 * n_a),
            lambda n_a, n_b: 1.0 / (4.0 * n_a), ("timepoint", "post", "pre")),
)}


def _unpack(sample) -> tuple[_Design, np.ndarray, np.ndarray]:
    """A sample's design, found from its type, and its blocks a and b."""
    for design in _DESIGNS.values():
        if isinstance(sample, design.sample):
            return (design, *design.blocks(sample))
    raise AlignmentError(f"{type(sample).__name__} is not the sample type of any design")


def _stack(response, candidate) -> tuple[_Design, np.ndarray, int]:
    """A response and a candidate sample as the two rows of a pooled block, and its n_a."""
    design, y_a, y_b = _unpack(response)
    other, s_a, s_b = _unpack(candidate)
    if other is not design:
        raise AlignmentError("response and candidate must both be unpaired or both paired")
    y_sizes, s_sizes = (y_a.size, y_b.size), (s_a.size, s_b.size)
    if y_sizes != s_sizes:
        raise AlignmentError(
            f"response and candidate cover different units: sizes {y_sizes} vs {s_sizes}"
        )
    return design, np.concatenate([y_a, y_b, s_a, s_b]).reshape(2, -1), y_a.size


def u_statistic(sample) -> UEstimate:
    """Mann-Whitney-type estimate of one variable's treatment effect.

    Averages the win/tie kernel over the n1 * n0 treated-control pairs of a
    :class:`TwoArmSample` (grid k / (2 * n1 * n0)), or over the n within-unit
    (post, pre) pairs of a :class:`PairedSample` (grid k / (2 * n)).
    """
    design, a, b = _unpack(sample)
    pooled = np.concatenate([a, b])[None]
    placements = design.kernel(pooled, a.size, _Workspace(*pooled.shape), 1)
    return UEstimate(float(placements.u[0]), design.name,
                     float(placements.ties[0] / placements.comparisons))


def normal_cdf(z) -> float | np.ndarray:
    """Standard normal distribution function."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("normal_cdf requires finite input")
    out = ndtr(z)
    return float(out) if out.ndim == 0 else out


def normal_quantile(p) -> float | np.ndarray:
    """Inverse of :func:`normal_cdf`; defined only on the open interval (0, 1)."""
    # ndtri is finite exactly inside (0, 1): -inf at 0, inf at 1, NaN beyond or on NaN
    out = ndtri(np.asarray(p, dtype=float))
    if not np.isfinite(out).all():
        raise InvalidInputError("normal_quantile requires probabilities strictly inside (0, 1)")
    return float(out) if out.ndim == 0 else out

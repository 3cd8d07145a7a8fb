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

Each design has one kernel, which works on whole blocks of variables at
once and returns every observation's kernel sum against its comparison
partners (DeLong's placement values, scaled by the partner count).  The U
estimates, the variance of a gap between two U estimates and the
single-variable estimator all derive from it.  Everything else that
depends on the design lives beside its kernel in one :class:`_Design`
object, and only :meth:`_Design.named` checks a design name.
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


@dataclass(frozen=True)
class _Placements:
    """Kernel sums of every observation against its partners, one row per variable.

    ``counts`` holds one ``(k, n)`` array per side, each entry the kernel
    summed over that observation's ``partners`` comparisons: unpaired, the
    treated arm against all controls and all treated against each control;
    paired, the unit's own (post, pre) kernel.  Entries are multiples of
    1/2, so their sums are exact.  ``sizes`` gives each side's observation
    count and ``ties`` the tied comparisons per row.
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
        return self.counts[0].sum(axis=1) / self.comparisons


def _paired_placements(a: np.ndarray, b: np.ndarray) -> _Placements:
    """The paired kernel: each unit's own (post, pre) comparison, row for row."""
    post, pre = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    ties = post == pre
    return _Placements(((post > pre) + 0.5 * ties,), (1,), (post.shape[1],), ties.sum(axis=1))


def _unpaired_placements(a: np.ndarray, b: np.ndarray) -> _Placements:
    """The unpaired kernel: every treated entry against every control, per row."""
    (n_a, k), n_b = a.shape, b.shape[0]
    n = n_a + n_b
    pooled = np.concatenate([a.T, b.T], axis=1)
    order = np.argsort(pooled, axis=1)
    rows = np.arange(k)[:, None]
    ordered = pooled[rows, order]
    # a tie run starts at each row's first entry and wherever the sorted value
    # changes; runs are numbered from 1 across all rows, and run r spans
    # bounds[r - 1]:bounds[r], the last bound being k * n
    flags = np.ones(k * n + 1, dtype=bool)
    starts = flags[:-1].reshape(k, n)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=starts[:, 1:])
    run = np.cumsum(starts)
    bounds = np.flatnonzero(flags)
    treated_before = np.zeros(k * n + 1, dtype=np.intp)
    np.cumsum(order < n_a, out=treated_before[1:])
    a_at = treated_before[bounds]
    b_at = bounds - a_at
    # a treated entry scores the controls below its run plus half those in it,
    # (b_at[r - 1] + b_at[r]) / 2, and a control entry the treated above its run
    # plus half those in it, n_a - (a_at[r - 1] + a_at[r]) / 2; both counts start
    # at row i with i * n_b controls and i * n_a treated before them
    treated_run, control_run = np.zeros(bounds.size), np.zeros(bounds.size)
    np.add(b_at[:-1], b_at[1:], out=treated_run[1:])
    np.add(a_at[:-1], a_at[1:], out=control_run[1:])
    treated_run *= 0.5
    control_run *= -0.5
    run_of = np.empty((k, n), dtype=np.intp)
    run_of[rows, order] = run.reshape(k, n)
    treated = treated_run[run_of[:, :n_a]]
    treated -= n_b * rows
    control = control_run[run_of[:, n_a:]]
    control += n_a * (rows + 1)
    tied = (a_at[1:] - a_at[:-1]) * (b_at[1:] - b_at[:-1])
    ties = np.add.reduceat(tied, run[::n] - 1)
    return _Placements((treated, control), (n_b, n_a), (n_a, n_b), ties)


@dataclass(frozen=True)
class _Design:
    """What depends on the study design: one instance per design, in ``_DESIGNS``.

    ``shared_units`` says whether blocks a and b list the same units row for
    row (post and pre) rather than two arms.  ``blocks`` reads a sample's
    blocks a and b.  ``kernel`` takes an ``(n_a, k)`` and an ``(n_b, k)``
    block.  ``groups`` holds the default group column and the labels of
    blocks a and b in input files.
    """

    name: str
    sample: type
    blocks: Callable[[object], tuple[np.ndarray, np.ndarray]]
    shared_units: bool
    kernel: Callable[[np.ndarray, np.ndarray], _Placements]
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


def _stack(response, candidate) -> tuple[_Design, np.ndarray, np.ndarray]:
    """A response and a candidate sample as the two columns of the design's blocks."""
    design, y_a, y_b = _unpack(response)
    other, s_a, s_b = _unpack(candidate)
    if other is not design:
        raise AlignmentError("response and candidate must both be unpaired or both paired")
    y_sizes, s_sizes = (y_a.size, y_b.size), (s_a.size, s_b.size)
    if y_sizes != s_sizes:
        raise AlignmentError(
            f"response and candidate cover different units: sizes {y_sizes} vs {s_sizes}"
        )
    return design, np.array([y_a, s_a]).T, np.array([y_b, s_b]).T


def u_statistic(sample) -> UEstimate:
    """Mann-Whitney-type estimate of one variable's treatment effect.

    Averages the win/tie kernel over the n1 * n0 treated-control pairs of a
    :class:`TwoArmSample` (grid k / (2 * n1 * n0)), or over the n within-unit
    (post, pre) pairs of a :class:`PairedSample` (grid k / (2 * n)).
    """
    design, a, b = _unpack(sample)
    placements = design.kernel(a[:, None], b[:, None])
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

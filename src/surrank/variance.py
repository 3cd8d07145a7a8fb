"""Variance estimation for the gap between two probability-scale effects.

The response and a candidate surrogate are measured on the same units, so
their U estimates are correlated.  The unpaired estimator projects each
statistic onto per-observation structural components (the average kernel
value of one observation against the whole opposite arm) and takes the
empirical variance of the componentwise differences; cross terms are then
handled automatically.  The paired estimator is the ordinary variance of
the per-unit kernel differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .rankstats import Design, PairedSample, TwoArmSample, _Placements, _placements, _stack, \
    require_min_size


@dataclass(frozen=True)
class DeltaVariance:
    """Standard error of delta = U_response - U_candidate, with diagnostics.

    ``treated_component`` and ``control_component`` are the two additive
    pieces of ``variance`` (for the paired design everything sits in the
    treated slot and the control slot is zero).
    """

    sigma: float
    variance: float
    design: Design
    treated_component: float
    control_component: float

    @property
    def degenerate(self) -> bool:
        """True when the estimated variance is exactly zero."""
        return self.variance == 0.0


def _gap_variances(placements: _Placements) -> tuple[np.ndarray, ...]:
    """Per-side pieces of Var(delta) for every candidate row against response row 0.

    Each side's structural components are the kernel sums over the partner
    count; a side contributes var(response - candidate components, ddof=1)
    over its observation count.  The control piece is zero for the paired
    design, which has one side.
    """
    require_min_size(placements.design, *placements.sizes)
    pieces = []
    for counts, partners, size in zip(placements.counts, placements.partners,
                                      placements.sizes):
        components = counts / partners
        pieces.append(np.var(components[0] - components[1:], axis=1, ddof=1) / size)
    if len(pieces) == 1:
        pieces.append(np.zeros_like(pieces[0]))
    return tuple(pieces)


def _delta_variance(placements: _Placements) -> DeltaVariance:
    """:class:`DeltaVariance` of a response and one candidate, rows 0 and 1."""
    treated, control = (float(piece[0]) for piece in _gap_variances(placements))
    variance = treated + control
    return DeltaVariance(
        sigma=float(np.sqrt(variance)),
        variance=variance,
        design=placements.design,
        treated_component=treated,
        control_component=control,
    )


def delta_variance_unpaired(response: TwoArmSample, candidate: TwoArmSample) -> DeltaVariance:
    """Structural-component variance of delta for the independent two-arm design.

    For each observation, average its kernel values against the whole
    opposite arm, once for the response and once for the candidate.  The
    variance of delta is var of the treated-side differences over n1 plus
    var of the control-side differences over n0 (both with ddof=1).
    """
    return _delta_variance(_placements(*_stack(response, candidate)))


def paired_kernel_differences(response: PairedSample, candidate: PairedSample) -> np.ndarray:
    """Per-unit kernel difference d_i = g(Y_post, Y_pre) - g(S_post, S_pre)."""
    (kernel,) = _placements(*_stack(response, candidate)).counts
    return kernel[0] - kernel[1]


def delta_variance_paired(response: PairedSample, candidate: PairedSample) -> DeltaVariance:
    """Variance of delta for the paired design: var(d_i, ddof=1) / n."""
    return _delta_variance(_placements(*_stack(response, candidate)))


def null_u_variance(design: Design, *, n1: int = 0, n0: int = 0, n: int = 0,
                    tie_fraction: float = 0.0) -> float:
    """Variance of a single U estimate under no treatment effect.

    Unpaired: (n1 + n0 + 1) / (12 * n1 * n0), the continuous-data
    Mann-Whitney null variance.  Paired: (1 - tie_fraction) / (4 * n),
    a Bernoulli win indicator deflated by the observed tie mass.
    """
    if design == "unpaired":
        if n1 < 1 or n0 < 1:
            raise InvalidInputError("unpaired null variance needs n1 >= 1 and n0 >= 1")
        return (n1 + n0 + 1) / (12.0 * n1 * n0)
    if design == "paired":
        if n < 1:
            raise InvalidInputError("paired null variance needs n >= 1")
        if not 0.0 <= tie_fraction <= 1.0:
            raise InvalidInputError(f"tie fraction {tie_fraction} outside [0, 1]")
        return (1.0 - tie_fraction) / (4.0 * n)
    raise InvalidInputError(f"unknown design {design!r}")

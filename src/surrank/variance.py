"""The screening core, and the null variance of a single U estimate.

The response and a candidate are measured on the same units, so their U
estimates are correlated.  :func:`_gaps` runs the design's kernel once
over a block led by ``r`` response columns (one, or one per candidate)
and returns U and the standard error of each gap; every test runs on it.
The unpaired variance projects each U onto per-observation structural
components (an observation's mean kernel value against the other arm)
and takes the empirical variance of the componentwise differences, so
cross terms are handled automatically; the paired one is the variance of
the per-unit kernel differences.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .rankstats import Design, _Design


def _gaps(design: _Design, a: np.ndarray, b: np.ndarray, r: int = 1
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """U_y and its tie fraction per response, the candidates' U and their gaps' SEs.

    Columns 0..r-1 of the ``(n_a, k)`` and ``(n_b, k)`` blocks are responses
    and the rest candidates, all against response 0 (r = 1) or candidate j
    against response j (k = 2r).  Each side's structural components are the
    kernel sums over the partner count; a side adds var(response - candidate
    components, ddof=1) over its observation count to Var(delta).  The
    paired design has one side.
    """
    smallest = min(a.shape[0], b.shape[0])
    if smallest < 2:
        label = "units" if design.shared_units else "observations per arm"
        raise InsufficientDataError(f"need at least 2 {label}, got {smallest}")
    placements = design.kernel(a, b)
    u, variance = placements.u, 0.0
    for counts, partners, size in zip(placements.counts, placements.partners,
                                      placements.sizes):
        # the counts are this call's own: components and gaps overwrite them
        components = np.divide(counts, partners, out=counts)
        gaps = np.subtract(components[:r], components[r:], out=components[r:])
        variance = variance + np.var(gaps, axis=1, ddof=1) / size
    return u[:r], placements.ties[:r] / placements.comparisons, u[r:], np.sqrt(variance)


def null_u_variance(design: Design, n_a: int, n_b: int, tie_fraction=0.0):
    """Variance of a single U estimate under no treatment effect, from the block sizes.

    Unpaired: (n_a + n_b + 1) / (12 * n_a * n_b), the continuous-data
    Mann-Whitney null variance.  Paired, where both blocks list the same
    n_a units: (1 - tie_fraction) / (4 * n_a), a Bernoulli win indicator
    deflated by the observed tie mass, elementwise on an array of them.
    """
    spec = _Design.named(design)
    if min(n_a, n_b) < 1 or spec.shared_units and n_b != n_a:
        raise InvalidInputError(f"{design} null variance needs block sizes of at least 1, "
                                f"equal if the blocks share units; got {n_a} and {n_b}")
    if not np.all((0.0 <= tie_fraction) & (tie_fraction <= 1.0)):
        raise InvalidInputError(f"tie fraction {tie_fraction} outside [0, 1]")
    return spec.null_variance(n_a, n_b, tie_fraction)

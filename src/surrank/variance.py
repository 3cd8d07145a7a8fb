"""The screening core, and the null variance of a single U estimate.

The response and a candidate are measured on the same units, so their U
estimates are correlated.  :func:`_gaps` runs the design's kernel once
over a pooled block led by ``r`` response rows (one, or one per
candidate) and returns U, the standard error of each gap and which
candidates are flat; every test runs on it.  It works in place in a
workspace that its caller can reuse for every block, taking ``np.var``'s
own operations, and no row's result depends on the block that holds it.
The unpaired variance projects each U onto per-observation structural
components (an observation's mean kernel value against the other arm)
and takes the empirical variance of the componentwise differences, so
cross terms are handled automatically; the paired one is the variance of
the per-unit kernel differences.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .rankstats import Design, _Design, _Workspace


def _gaps(design: _Design, pooled: np.ndarray, n_a: int, r: int, work: _Workspace
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """U_y and its tie fraction per response, the candidates' U, their gaps' SEs and flat flags.

    ``pooled`` is a ``(k, n_a + n_b)`` block, one variable per row with block
    a's n_a observations first.  Rows 0..r-1 are responses and the rest
    candidates, all against response 0 (r = 1) or candidate j against
    response j (k = 2r).  The kernel and the variance work in ``work``, a
    workspace for at least the block.  Each side's structural components
    are the kernel sums over the partner count; a side adds var(response -
    candidate components, ddof=1) over its observation count to Var(delta).
    The paired design has one side.  A candidate is flat when it takes one
    value over both blocks (:func:`_flat`), so its U is 1/2 from ties alone;
    this is the one place a test decides flatness.
    """
    k, n = pooled.shape
    smallest = min(n_a, n - n_a)
    if smallest < 2:
        label = "units" if design.shared_units else "observations per arm"
        raise InsufficientDataError(f"need at least 2 {label}, got {smallest}")
    flat = _flat(pooled[r:])
    placements = design.kernel(pooled, n_a, work, r)
    u, variance = placements.u, 0.0
    for counts, partners, size in zip(placements.counts, placements.partners,
                                      placements.sizes):
        # the counts are doubled and in the workspace: components and gaps overwrite them
        components = np.divide(counts, 2 * partners, out=counts)
        gaps = np.subtract(components[:r], components[r:], out=components[r:])
        variance = variance + _row_variances(gaps) / size
    return (u[:r], placements.ties / placements.comparisons, u[r:], np.sqrt(variance),
            flat)


def _flat(rows: np.ndarray) -> np.ndarray:
    """Which rows of a ``(..., k, n)`` array take one value over their n entries.

    Only rows whose first and last entries agree can, so only they get the
    ``np.ptp`` check, which over every row costs a third of a standardization.
    """
    flat = rows[..., 0] == rows[..., -1]
    flat[flat] = np.ptp(rows[flat], axis=-1) == 0.0
    return flat


def _row_variances(rows: np.ndarray) -> np.ndarray:
    """``np.var(rows, axis=1, ddof=1)`` by its own operations, overwriting ``rows``."""
    n = rows.shape[1]
    mean = np.add.reduce(rows, axis=1, keepdims=True)
    mean /= n
    deviations = np.subtract(rows, mean, out=rows)
    np.square(deviations, out=deviations)
    return np.add.reduce(deviations, axis=1) / (n - 1)


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

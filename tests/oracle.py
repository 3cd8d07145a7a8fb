"""Brute-force oracles that the tests pin the rank kernels against."""

import numpy as np

from surrank.errors import InvalidInputError


def g_kernel(a: float, b: float) -> float:
    """Pairwise win/tie kernel: 1 if a > b, 1/2 if a == b, 0 if a < b."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise InvalidInputError("g_kernel requires finite inputs")
    if a > b:
        return 1.0
    if a == b:
        return 0.5
    return 0.0

import numpy as np
import pytest

from oracle import g_kernel
from surrank.errors import InvalidInputError


def test_g_kernel_three_outcomes():
    assert g_kernel(2.0, 1.0) == 1.0
    assert g_kernel(1.0, 1.0) == 0.5
    assert g_kernel(0.0, 1.0) == 0.0


def test_g_kernel_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        g_kernel(np.nan, 1.0)
    with pytest.raises(InvalidInputError):
        g_kernel(1.0, np.inf)

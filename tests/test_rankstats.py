import numpy as np
import pytest

from oracle import g_kernel
from surrank.errors import AlignmentError, InvalidInputError
from surrank.rankstats import (
    PairedSample,
    TwoArmSample,
    UEstimate,
    normal_cdf,
    normal_quantile,
    u_statistic,
)


def brute_force_unpaired(treated, control):
    total = 0.0
    for a in treated:
        for b in control:
            total += g_kernel(a, b)
    return total / (len(treated) * len(control))


def test_unpaired_small_example():
    # pairs (3,1) (3,4) (5,1) (5,4) -> kernel values 1, 0, 1, 1
    est = u_statistic(TwoArmSample(treated=[3.0, 5.0], control=[1.0, 4.0]))
    assert est.value == 0.75
    assert est.tie_fraction == 0.0
    assert est.design == "unpaired"


def test_unpaired_ties_contribute_half():
    # pairs (1,1) (1,2) (2,1) (2,2) -> 0.5, 0, 1, 0.5
    est = u_statistic(TwoArmSample(treated=[1.0, 2.0], control=[1.0, 2.0]))
    assert est.value == 0.5
    assert est.tie_fraction == 0.5


def test_paired_small_example():
    # units (2,1) (3,1) (1,1) -> 1, 1, 0.5
    est = u_statistic(PairedSample(post=[2.0, 3.0, 1.0], pre=[1.0, 1.0, 1.0]))
    assert est.value == 5.0 / 6.0
    assert est.tie_fraction == 1.0 / 3.0
    assert est.design == "paired"


def test_unpaired_matches_brute_force():
    rng = np.random.default_rng(20260814)
    for _ in range(50):
        n1 = rng.integers(2, 40)
        n0 = rng.integers(2, 40)
        treated = np.round(rng.normal(size=n1), 1)
        control = np.round(rng.normal(size=n0), 1)
        est = u_statistic(TwoArmSample(treated=treated, control=control))
        assert est.value == brute_force_unpaired(treated, control)


def test_arm_swap_antisymmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        treated = np.round(rng.normal(size=15), 1)
        control = np.round(rng.normal(size=12), 1)
        forward = u_statistic(TwoArmSample(treated=treated, control=control)).value
        backward = u_statistic(TwoArmSample(treated=control, control=treated)).value
        assert forward + backward == 1.0


def test_monotone_transform_invariance():
    rng = np.random.default_rng(13)
    treated = rng.normal(size=25)
    control = rng.normal(size=30)
    base = u_statistic(TwoArmSample(treated=treated, control=control)).value
    for f in (np.exp, lambda x: x**3, lambda x: 2.0 * x - 7.0):
        transformed = u_statistic(
            TwoArmSample(treated=f(treated), control=f(control))
        ).value
        assert transformed == base


def test_unpaired_values_on_half_grid():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n1 = int(rng.integers(2, 20))
        n0 = int(rng.integers(2, 20))
        sample = TwoArmSample(
            treated=rng.integers(0, 5, size=n1).astype(float),
            control=rng.integers(0, 5, size=n0).astype(float),
        )
        doubled = 2 * n1 * n0 * u_statistic(sample).value
        assert doubled == pytest.approx(round(doubled), abs=1e-9)


def test_paired_values_on_half_grid():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        sample = PairedSample(
            post=rng.integers(0, 4, size=n).astype(float),
            pre=rng.integers(0, 4, size=n).astype(float),
        )
        doubled = 2 * n * u_statistic(sample).value
        assert doubled == pytest.approx(round(doubled), abs=1e-9)


def test_u_estimate_bounds_enforced():
    with pytest.raises(InvalidInputError):
        UEstimate(value=1.2, design="unpaired", tie_fraction=0.0)
    with pytest.raises(InvalidInputError):
        UEstimate(value=0.5, design="paired", tie_fraction=-0.1)


def test_u_estimate_rejects_unknown_design():
    with pytest.raises(InvalidInputError, match="'crossover'"):
        UEstimate(0.5, "crossover", 0.0)


def test_sample_validation():
    with pytest.raises(InvalidInputError):
        TwoArmSample(treated=[], control=[1.0])
    with pytest.raises(InvalidInputError):
        TwoArmSample(treated=[np.nan], control=[1.0])
    with pytest.raises(InvalidInputError):
        TwoArmSample(treated=[[1.0, 2.0]], control=[1.0])
    with pytest.raises(AlignmentError):
        PairedSample(post=[1.0, 2.0], pre=[1.0])


def test_normal_cdf_and_quantile_reference_values():
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
    assert normal_cdf(-2.0) == pytest.approx(0.02275013194817921, abs=1e-15)
    assert normal_cdf(0.0) == 0.5


def test_normal_quantile_roundtrip():
    rng = np.random.default_rng(23)
    p = rng.uniform(1e-6, 1.0 - 1e-6, size=50)
    assert np.allclose(normal_cdf(normal_quantile(p)), p, atol=1e-12)


def test_normal_quantile_domain():
    for bad in (0.0, 1.0, -0.1, 1.1, np.nan, [0.5, 1.0]):
        with pytest.raises(InvalidInputError):
            normal_quantile(bad)
    # the open interval holds right up to its ends
    assert np.isfinite(normal_quantile([5e-324, np.nextafter(1.0, 0.0)])).all()

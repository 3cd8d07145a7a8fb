import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from surrank.errors import AlignmentError, ConfigurationError, InvalidInputError
from surrank.inference import TestConfig, _assemble, select_epsilon, surrogate_test
from surrank.rankstats import (
    PairedSample,
    TwoArmSample,
    UEstimate,
    _stack,
    _Workspace,
    u_statistic,
)
from surrank.variance import _gaps


def assemble(delta, sigma, epsilon, alpha=0.05, mode="noninferiority"):
    """:func:`_assemble` on one gap of a marker that is not flat, with scalar p-values and CI."""
    test = _assemble(np.array([delta]), np.array([sigma]), np.array([False]), epsilon, alpha,
                     mode)
    del test["degenerate"]
    return {key: None if value is None else float(value[0]) for key, value in test.items()}


def test_select_epsilon_unpaired_reference():
    # null var 51/7500, z_0.90 + z_0.95 = 2.9264 -> u_star 0.74132
    u_y = UEstimate(value=0.97, design="unpaired", tie_fraction=0.0)
    eps = select_epsilon(u_y, 25, 25, alpha=0.05, power=0.90)
    assert eps == pytest.approx(0.22868, abs=1e-4)


def test_select_epsilon_paired_reference():
    # null var 1/308 with no ties -> u_star 0.66675
    u_y = UEstimate(value=0.97, design="paired", tie_fraction=0.0)
    eps = select_epsilon(u_y, 77, 77, alpha=0.05, power=0.90)
    assert eps == pytest.approx(0.30325, abs=1e-4)


def test_select_epsilon_takes_block_sizes_for_both_designs():
    # the paired null variance reads n_a units; the unpaired one both arm sizes
    unpaired = UEstimate(value=0.9, design="unpaired", tie_fraction=0.0)
    paired = UEstimate(value=0.9, design="paired", tie_fraction=0.0)
    z = 2.9264  # z_0.90 + z_0.95
    assert select_epsilon(unpaired, 25, 25) == pytest.approx(0.4 - np.sqrt(51.0 / 7500.0) * z,
                                                             abs=1e-4)
    assert select_epsilon(unpaired, 50, 20) == pytest.approx(0.4 - np.sqrt(71.0 / 12000.0) * z,
                                                             abs=1e-4)
    assert select_epsilon(paired, 25, 25) == pytest.approx(0.4 - np.sqrt(1.0 / 100.0) * z,
                                                           abs=1e-4)
    with pytest.raises(InvalidInputError, match="equal if the blocks share units"):
        select_epsilon(paired, 25, 24)


def test_select_epsilon_uses_tie_fraction():
    heavy_ties = UEstimate(value=0.97, design="paired", tie_fraction=0.75)
    no_ties = UEstimate(value=0.97, design="paired", tie_fraction=0.0)
    eps_ties = select_epsilon(heavy_ties, 77, 77)
    eps_none = select_epsilon(no_ties, 77, 77)
    assert eps_ties > eps_none


def test_select_epsilon_floors_at_zero():
    u_y = UEstimate(value=0.52, design="paired", tie_fraction=0.0)
    assert select_epsilon(u_y, 10, 10) == 0.0


def test_noninferiority_p_value():
    # z = (0.02 - 0.10) / 0.05 = -1.6
    res = assemble(0.92 - 0.90, 0.05, epsilon=0.10)
    assert res["p_value"] == pytest.approx(0.05479929169955799, abs=1e-12)
    assert res["p_lower"] is None
    assert res["p_upper"] == res["p_value"]
    assert not res["p_value"] < 0.05


def test_tost_symmetric_example():
    # both one-sided z scores are -2 when delta = 0, sigma = 0.05, eps = 0.1
    res = assemble(0.8 - 0.8, 0.05, epsilon=0.10, mode="tost")
    assert res["p_upper"] == pytest.approx(0.02275013194817921, abs=1e-12)
    assert res["p_lower"] == pytest.approx(0.02275013194817921, abs=1e-12)
    assert res["p_value"] == pytest.approx(0.02275013194817921, abs=1e-12)
    assert res["p_value"] < 0.05


def test_confidence_interval_level():
    # delta +/- z_0.95 * sigma gives a 90 percent interval at alpha 0.05
    res = assemble(0.92 - 0.90, 0.05, epsilon=0.10, alpha=0.05)
    half = 1.6448536269514722 * 0.05
    assert res["ci_lower"] == pytest.approx(0.02 - half, abs=1e-12)
    assert res["ci_upper"] == pytest.approx(0.02 + half, abs=1e-12)


def test_degenerate_variance_gives_indicator_p_values():
    below = assemble(0.9 - 0.85, 0.0, epsilon=0.10)
    assert below["p_value"] == 0.0
    assert below["ci_lower"] == below["ci_upper"] == pytest.approx(0.05)

    # 0.875 - 0.75 is exactly representable, so delta sits exactly on the margin
    on_boundary = assemble(0.875 - 0.75, 0.0, epsilon=0.125)
    assert on_boundary["p_value"] == 1.0

    tost_boundary = assemble(0.75 - 0.875, 0.0, epsilon=0.125, mode="tost")
    assert tost_boundary["p_lower"] == 1.0
    assert tost_boundary["p_value"] == 1.0


def test_rejection_matches_confidence_interval():
    rng = np.random.default_rng(20260814)
    for _ in range(200):
        delta = rng.uniform(-0.3, 0.3)
        sigma = rng.uniform(0.01, 0.2)
        eps = rng.uniform(0.01, 0.3)
        alpha = rng.uniform(0.01, 0.2)
        gap = 0.6 - (0.6 - delta)
        noninf = assemble(gap, sigma, eps, alpha)
        assert (noninf["p_value"] < alpha) == (noninf["ci_upper"] < eps)
        tost = assemble(gap, sigma, eps, alpha, mode="tost")
        assert (tost["p_value"] < alpha) == (-eps < tost["ci_lower"] and tost["ci_upper"] < eps)


@given(
    st.lists(st.tuples(st.floats(-1.0, 1.0), st.sampled_from(["free", "upper", "lower"]),
                       st.one_of(st.just(0.0), st.floats(1e-6, 0.5))),
             min_size=1, max_size=20),
    st.floats(0.0, 0.9),
    st.floats(0.001, 0.499),
    st.sampled_from(["noninferiority", "tost"]),
)
def test_assembled_rejection_is_interval_inclusion(gaps, epsilon, alpha, mode):
    # a gap is free, or sits exactly on +epsilon or -epsilon; sigma may be 0
    on = {"upper": epsilon, "lower": -epsilon}
    delta = np.array([on.get(where, value) for value, where, _ in gaps])
    sigma = np.array([sd for _, _, sd in gaps])
    test = _assemble(delta, sigma, np.zeros(delta.size, dtype=bool), epsilon, alpha, mode)
    inside = test["ci_upper"] < epsilon
    if mode == "tost":
        inside &= -epsilon < test["ci_lower"]
    assert np.array_equal(test["p_value"] < alpha, inside)


def test_surrogate_test_matches_manual_assembly():
    rng = np.random.default_rng(42)
    response = TwoArmSample(treated=rng.normal(2, 1, 30), control=rng.normal(0, 1, 25))
    candidate = TwoArmSample(
        treated=response.treated + rng.normal(0, 1, 30),
        control=response.control + rng.normal(0, 1, 25),
    )
    res = surrogate_test(response, candidate, TestConfig(epsilon=0.15))
    u_y = u_statistic(response).value
    u_s = u_statistic(candidate).value
    design, pooled, n_a = _stack(response, candidate)
    *_, sigma, _ = _gaps(design, pooled, n_a, 1, _Workspace(*pooled.shape))
    manual = assemble(u_y - u_s, float(sigma[0]), epsilon=0.15)
    assert (res.u_response, res.u_candidate, res.delta, res.sigma, res.epsilon) == (
        u_y, u_s, u_y - u_s, sigma[0], 0.15)
    assert {key: getattr(res, key) for key in manual} == manual
    assert (res.alpha, res.mode, res.degenerate) == (0.05, "noninferiority", False)


def test_surrogate_test_adaptive_margin_paired():
    rng = np.random.default_rng(43)
    pre = rng.normal(0, 1, 40)
    post = pre + rng.normal(2, 0.5, 40)
    response = PairedSample(post=post, pre=pre)
    candidate = PairedSample(post=post + rng.normal(0, 0.2, 40), pre=pre)
    res = surrogate_test(response, candidate, TestConfig(alpha=0.05, power=0.90))
    assert res.epsilon > 0.0
    assert res.mode == "noninferiority"


def test_surrogate_test_rejects_mixed_designs():
    unpaired = TwoArmSample(treated=[1.0, 2.0], control=[0.0, 1.0])
    paired = PairedSample(post=[1.0, 2.0], pre=[0.0, 0.0])
    with pytest.raises(AlignmentError):
        surrogate_test(unpaired, paired)
    with pytest.raises(AlignmentError):
        surrogate_test(paired, unpaired)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        TestConfig(alpha=0.6)
    with pytest.raises(ConfigurationError):
        TestConfig(power=1.0)
    with pytest.raises(ConfigurationError):
        TestConfig(epsilon=-0.1)
    with pytest.raises(ConfigurationError):
        TestConfig(mode="equivalence")
    with pytest.raises(ConfigurationError):
        select_epsilon(UEstimate(0.9, "paired", 0.0), 10, 10, alpha=0.5)

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from surrank.errors import AlignmentError, InsufficientDataError, InvalidInputError
from surrank.inference import surrogate_test
from surrank.rankstats import _DESIGNS, PairedSample, TwoArmSample, _stack, _Workspace, u_statistic
from surrank.variance import _gaps, null_u_variance


def gap_sd(response, candidate) -> float:
    """The screening core's standard error of U_response - U_candidate."""
    *_, sigma = _gaps(*_stack(response, candidate))
    return float(sigma[0])


def test_paired_kernel_differences_example():
    # response wins every unit, candidate wins units 2 and 4 -> d = 1,0,1,0
    response = PairedSample(post=[2.0, 2.0, 2.0, 2.0], pre=[1.0, 1.0, 1.0, 1.0])
    candidate = PairedSample(post=[0.0, 2.0, 0.0, 2.0], pre=[1.0, 1.0, 1.0, 1.0])
    design, pooled, n_a = _stack(response, candidate)
    (doubled,) = design.kernel(pooled, n_a, _Workspace(*pooled.shape), 2).counts
    assert ((doubled[0] - doubled[1]) / 2).tolist() == [1.0, 0.0, 1.0, 0.0]


def test_paired_variance_example():
    # var(d, ddof=1) = 1/3 over n=4 units -> variance 1/12
    response = PairedSample(post=[2.0, 2.0, 2.0, 2.0], pre=[1.0, 1.0, 1.0, 1.0])
    candidate = PairedSample(post=[0.0, 2.0, 0.0, 2.0], pre=[1.0, 1.0, 1.0, 1.0])
    u_y, tie_y, _, sigma = _gaps(*_stack(response, candidate))
    assert sigma[0] ** 2 == pytest.approx(1.0 / 12.0, rel=1e-15)
    assert sigma[0] == pytest.approx(np.sqrt(1.0 / 12.0), rel=1e-15)
    assert (u_y.tolist(), tie_y.tolist()) == ([1.0], [0.0])
    assert not surrogate_test(response, candidate).degenerate


def test_unpaired_variance_small_example():
    # g_y rows [[1,0],[1,1]], g_s rows [[0,1],[0,1]]
    # treated-side diffs (0, 0.5): var/2 = 0.0625
    # control-side diffs (1, -0.5): var/2 = 0.5625
    response = TwoArmSample(treated=[3.0, 5.0], control=[1.0, 4.0])
    candidate = TwoArmSample(treated=[2.0, 1.0], control=[3.0, 0.0])
    sigma = gap_sd(response, candidate)
    assert sigma**2 == pytest.approx(0.0625 + 0.5625, rel=1e-15)
    assert sigma == pytest.approx(np.sqrt(0.625), rel=1e-15)


def test_unpaired_variance_matches_covariance_form():
    # var(A - B) = var(A) + var(B) - 2 cov(A, B) on each side
    rng = np.random.default_rng(20260814)
    for _ in range(20):
        n1 = int(rng.integers(3, 30))
        n0 = int(rng.integers(3, 30))
        y = TwoArmSample(treated=rng.normal(1, 1, n1), control=rng.normal(0, 1, n0))
        s = TwoArmSample(
            treated=np.round(rng.normal(1, 1, n1), 1), control=np.round(rng.normal(0, 1, n0), 1)
        )
        variance = gap_sd(y, s) ** 2

        g_y = (y.treated[:, None] > y.control[None, :]) + 0.5 * (
            y.treated[:, None] == y.control[None, :]
        )
        g_s = (s.treated[:, None] > s.control[None, :]) + 0.5 * (
            s.treated[:, None] == s.control[None, :]
        )
        cov10 = np.cov(g_y.mean(axis=1), g_s.mean(axis=1), ddof=1)
        cov01 = np.cov(g_y.mean(axis=0), g_s.mean(axis=0), ddof=1)
        expected = (cov10[0, 0] + cov10[1, 1] - 2 * cov10[0, 1]) / n1
        expected += (cov01[0, 0] + cov01[1, 1] - 2 * cov01[0, 1]) / n0
        assert variance == pytest.approx(expected, rel=1e-12)
        assert variance >= 0.0


def test_perfect_surrogate_has_zero_variance():
    rng = np.random.default_rng(5)
    treated = rng.normal(2, 1, 20)
    control = rng.normal(0, 1, 15)
    response = TwoArmSample(treated=treated, control=control)
    candidate = TwoArmSample(treated=np.exp(treated), control=np.exp(control))
    res = surrogate_test(response, candidate)
    assert res.sigma == 0.0
    assert res.degenerate

    post = rng.normal(1, 1, 20)
    pre = rng.normal(0, 1, 20)
    res = surrogate_test(
        PairedSample(post=post, pre=pre), PairedSample(post=post**3, pre=pre**3)
    )
    assert res.degenerate


def test_variance_requires_matching_units():
    y = TwoArmSample(treated=[1.0, 2.0, 3.0], control=[0.0, 1.0])
    s = TwoArmSample(treated=[1.0, 2.0], control=[0.0, 1.0])
    with pytest.raises(AlignmentError):
        gap_sd(y, s)
    with pytest.raises(AlignmentError):
        gap_sd(
            PairedSample(post=[1.0, 2.0], pre=[0.0, 0.0]),
            PairedSample(post=[1.0, 2.0, 3.0], pre=[0.0, 0.0, 0.0]),
        )


def test_variance_requires_two_per_arm():
    with pytest.raises(InsufficientDataError):
        gap_sd(
            TwoArmSample(treated=[1.0], control=[0.0, 1.0]),
            TwoArmSample(treated=[1.0], control=[0.0, 1.0]),
        )
    with pytest.raises(InsufficientDataError):
        gap_sd(
            PairedSample(post=[1.0], pre=[0.0]), PairedSample(post=[1.0], pre=[0.0])
        )


def test_null_variance_reference_values():
    assert null_u_variance("paired", 77, 77, tie_fraction=0.0) == pytest.approx(1.0 / 308.0)
    assert null_u_variance("paired", 77, 77, tie_fraction=0.5) == pytest.approx(0.5 / 308.0)
    assert null_u_variance("unpaired", 25, 25) == pytest.approx(51.0 / 7500.0)


@given(design=st.sampled_from(sorted(_DESIGNS)), r=st.integers(1, 6),
       n_a=st.integers(2, 12), n_b=st.integers(2, 12), levels=st.integers(2, 6),
       seed=st.integers(0, 2**32 - 1))
def test_gaps_with_r_response_columns_equal_r_one_response_calls(design, r, n_a, n_b,
                                                                 levels, seed):
    # few levels, so ties and zero-spread columns occur
    spec = _DESIGNS[design]
    n_b = n_a if spec.shared_units else n_b
    rng = np.random.default_rng(seed)
    a = rng.integers(0, levels, (n_a, 2 * r)).astype(float)
    b = rng.integers(0, levels, (n_b, 2 * r)).astype(float)
    pooled = np.hstack([a.T, b.T])  # one variable per row, block a first
    u_y, tie_y, u, sigma = _gaps(spec, pooled, n_a, r)
    for j in range(r):
        one = _gaps(spec, pooled[[j, r + j]], n_a)
        assert [x.tobytes() for x in one] == [x[j:j + 1].tobytes() for x in (u_y, tie_y, u, sigma)]
        response = u_statistic(spec.sample(a[:, j], b[:, j]))
        assert (response.value, response.tie_fraction) == (u_y[j], tie_y[j])
    # one response column, as screen lays out its blocks: every candidate against column 0
    u_y, tie_y, u, sigma = _gaps(spec, pooled, n_a)
    for j in range(1, 2 * r):
        one = _gaps(spec, pooled[[0, j]], n_a)
        assert [x.tobytes() for x in one] == [
            x.tobytes() for x in (u_y, tie_y, u[j - 1:j], sigma[j - 1:j])]


def test_null_variance_takes_arrays_of_tie_fractions():
    ties = np.array([0.0, 0.25, 0.5])
    for design in ("paired", "unpaired"):
        expected = [null_u_variance(design, 77, 77, tie) for tie in ties.tolist()]
        assert np.broadcast_to(null_u_variance(design, 77, 77, ties), 3).tolist() == expected
    with pytest.raises(InvalidInputError):
        null_u_variance("paired", 10, 10, tie_fraction=np.array([0.5, 1.5]))


def test_null_variance_validation():
    with pytest.raises(InvalidInputError):
        null_u_variance("unpaired", 0, 10)
    with pytest.raises(InvalidInputError):
        null_u_variance("paired", 0, 0)
    with pytest.raises(InvalidInputError):
        null_u_variance("paired", 10, 10, tie_fraction=1.5)
    with pytest.raises(InvalidInputError, match="'crossover'"):
        null_u_variance("crossover", 10, 10)

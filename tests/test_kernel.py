"""Properties of the per-design rank kernel, on integer data with many ties.

The kernel screens whole column blocks; the single-marker functions are
its one-column case.  These tests pin both against the brute-force
win/tie kernel and against each other, bit for bit.
"""

from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from surrank import pipeline
from surrank.inference import TestConfig, surrogate_test
from surrank.pipeline import Dataset, screen
from surrank.rankstats import _Design, _Workspace, g_kernel, u_statistic


@st.composite
def studies(draw, max_p=10):
    """A dataset whose response is column 0 of two small-integer blocks."""
    design = draw(st.sampled_from(["unpaired", "paired"]))
    n_a = draw(st.integers(2, 9))
    n_b = n_a if design == "paired" else draw(st.integers(2, 9))
    p = draw(st.integers(1, max_p))
    # one level makes every comparison a tie and every column flat
    levels = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, levels, (n_a, p + 1)).astype(float)
    b = rng.integers(0, levels, (n_b, p + 1)).astype(float)
    if design == "paired":
        return Dataset.paired(a[:, 0], b[:, 0], a[:, 1:], b[:, 1:])
    return Dataset.unpaired(a[:, 0], b[:, 0], a[:, 1:], b[:, 1:])


def brute_force_u(design, a, b):
    if design == "paired":
        return sum(g_kernel(x, y) for x, y in zip(a, b)) / len(a)
    return sum(g_kernel(x, y) for x in a for y in b) / (len(a) * len(b))


def brute_force_variance(design, y_a, y_b, s_a, s_b):
    """Var(delta) from the full kernel matrices, averaged into structural components."""
    if design == "paired":
        d = [g_kernel(*ys[:2]) - g_kernel(*ys[2:]) for ys in zip(y_a, y_b, s_a, s_b)]
        return np.var(d, ddof=1) / len(d)
    g_y = np.array([[g_kernel(x, y) for y in y_b] for x in y_a])
    g_s = np.array([[g_kernel(x, y) for y in s_b] for x in s_a])
    return (np.var(g_y.mean(axis=1) - g_s.mean(axis=1), ddof=1) / len(y_a)
            + np.var(g_y.mean(axis=0) - g_s.mean(axis=0), ddof=1) / len(y_b))


@given(studies())
def test_u_equals_brute_force_kernel(data):
    report = screen(data, TestConfig())
    assert report.u_response == brute_force_u(data.design, data.response_a, data.response_b)
    assert u_statistic(data.response_sample()).value == report.u_response
    for j, row in enumerate(report.rows):
        expected = brute_force_u(data.design, data.candidates_a[:, j], data.candidates_b[:, j])
        assert row.u_candidate == expected
        assert u_statistic(data.candidate_sample(row.name)).value == expected


@given(studies())
def test_sigma_equals_brute_force_components(data):
    report = screen(data, TestConfig())
    for j, row in enumerate(report.rows):
        expected = brute_force_variance(data.design, data.response_a, data.response_b,
                                        data.candidates_a[:, j], data.candidates_b[:, j])
        assert row.sigma == np.sqrt(expected)


def assert_rows_match_single_tests(data, report, config):
    for j, row in enumerate(report.rows):
        single = surrogate_test(data.response_sample(), data.candidate_sample(row.name),
                                TestConfig(alpha=config.alpha, epsilon=report.epsilon_used,
                                           mode=config.mode))
        flat = np.ptp(data.candidates_a[:, j]) == 0.0 and np.ptp(data.candidates_b[:, j]) == 0.0
        assert (row.u_candidate, row.delta, row.sigma, row.ci_lower, row.ci_upper) == (
            single.u_candidate, single.delta, single.sigma, single.ci_lower, single.ci_upper)
        assert row.raw_p == (1.0 if flat else single.p_value)
        assert row.degenerate == (flat or single.degenerate)


@given(studies(), st.integers(1, 4), st.sampled_from(["noninferiority", "tost"]))
def test_screen_rows_equal_single_marker_tests(data, chunk, mode):
    config = TestConfig(mode=mode)
    # a budget of `chunk` columns of the largest temporary gives blocks `chunk` wide
    column_bytes = _Design.named(data.design).column_bytes(data.n_a, data.n_b)
    with mock.patch.object(pipeline, "_BLOCK_BYTES", chunk * column_bytes):
        report = screen(data, config, method=None)
    assert report.epsilon_used == surrogate_test(
        data.response_sample(), data.candidate_sample(data.names[0]), config).epsilon
    assert_rows_match_single_tests(data, report, config)


def assert_rows_match_single_tests_across_blocks(design, n_a, n_b):
    # p crosses two boundaries of the block width `screen` derives at these heights
    rng = np.random.default_rng(5)
    p = 2 * (pipeline._BLOCK_BYTES // _Design.named(design).column_bytes(n_a, n_b)) + 3
    data = getattr(Dataset, design)(
        rng.integers(0, 6, n_a).astype(float), rng.integers(0, 4, n_b).astype(float),
        rng.integers(0, 5, (n_a, p)).astype(float), rng.integers(0, 5, (n_b, p)).astype(float))
    config = TestConfig(mode="tost")
    assert_rows_match_single_tests(data, screen(data, config, method=None), config)


def test_screen_rows_equal_single_marker_tests_across_chunks():
    assert_rows_match_single_tests_across_blocks("unpaired", 30, 25)


def test_screen_rows_equal_single_marker_tests_across_chunks_paired():
    assert_rows_match_single_tests_across_blocks("paired", 40, 40)


@given(studies(), st.randoms(use_true_random=False))
def test_permuting_candidates_permutes_rows(data, random):
    order = list(range(data.p))
    random.shuffle(order)
    shuffled = Dataset(data.design, data.response_a, data.response_b,
                       data.candidates_a[:, order], data.candidates_b[:, order],
                       [data.names[j] for j in order], data.ids_a, data.ids_b)
    report = screen(data, TestConfig(), method="bh")
    permuted = screen(shuffled, TestConfig(), method="bh")
    assert permuted.rows == tuple(report.rows[j] for j in order)
    assert permuted.selected == report.selected


@given(studies())
def test_increasing_transforms_leave_screen_unchanged(data):
    # 2**x is strictly increasing and exact on small integers
    transformed = Dataset(data.design, 2.0 ** data.response_a, 2.0 ** data.response_b,
                          2.0 ** data.candidates_a, 2.0 ** data.candidates_b,
                          data.names, data.ids_a, data.ids_b)
    assert screen(transformed, TestConfig()) == screen(data, TestConfig())


def placements(data):
    """The kernel over the pooled block ``screen`` builds: the response, then every candidate."""
    pooled = np.hstack([np.column_stack([data.response_a, data.candidates_a]).T,
                        np.column_stack([data.response_b, data.candidates_b]).T])
    kernel = _Design.named(data.design).kernel
    return kernel(pooled, data.n_a, _Workspace(*pooled.shape), pooled.shape[0])


@given(studies(), st.randoms(use_true_random=False))
def test_permuting_subjects_moves_their_counts_and_keeps_every_row(data, random):
    # unpaired, subjects move within their arm; paired, whole units move
    perm_a = list(range(data.n_a))
    random.shuffle(perm_a)
    perm_b = perm_a if data.design == "paired" else random.sample(range(data.n_b), data.n_b)
    moved = Dataset(data.design, data.response_a[perm_a], data.response_b[perm_b],
                    data.candidates_a[perm_a], data.candidates_b[perm_b], data.names,
                    [data.ids_a[i] for i in perm_a], [data.ids_b[i] for i in perm_b])
    before, after = placements(data), placements(moved)
    for side_before, side_after, perm in zip(before.counts, after.counts, (perm_a, perm_b)):
        assert np.array_equal(side_after, side_before[:, perm])
    assert np.array_equal(after.ties, before.ties)

    report, permuted = screen(data, TestConfig()), screen(moved, TestConfig())
    assert (permuted.u_response, permuted.epsilon_used, permuted.selected) == (
        report.u_response, report.epsilon_used, report.selected)
    for row, other in zip(report.rows, permuted.rows):
        assert (other.name, other.u_candidate, other.delta, other.degenerate) == (
            row.name, row.u_candidate, row.delta, row.degenerate)
        # np.var sums the structural components in subject order, so sigma and
        # what derives from it may move in the last bits, never more
        assert other.sigma == pytest.approx(row.sigma, rel=1e-15, abs=0.0)
        assert (other.ci_lower, other.ci_upper) == pytest.approx((row.ci_lower, row.ci_upper),
                                                                 rel=0.0, abs=1e-15)
        assert (other.raw_p, other.adjusted_p) == pytest.approx((row.raw_p, row.adjusted_p),
                                                                rel=1e-13, abs=0.0)


TINY, HUGE = 5e-324, np.finfo(float).max
EDGE_CASES = {
    "signed zeros": ([-0.0, 0.0, 1.0, -0.0], [0.0, -0.0, -1.0]),
    "one tie run": ([2.0, 2.0, 2.0], [2.0, 2.0, 2.0, 2.0]),
    "one treated observation": ([0.5], [0.1, 0.5, 0.9, 0.5]),
    "one control observation": ([0.1, 0.5, 0.9, 0.5], [0.5]),
    "one observation per arm": ([3.0], [3.0]),
    "near the largest doubles": ([HUGE, -1e308, 1e308, 0.0], [-HUGE, 1e308, HUGE, -1e308]),
    "subnormals": ([TINY, -TINY, 1e-310, 0.0], [0.0, TINY, -0.0, 2.2250738585072014e-308, -TINY]),
}


@pytest.mark.parametrize("treated, control", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_kernel_counts_equal_brute_force_on_edge_cases(treated, control):
    # the case, then its reverse, so the second row's offsets are checked too
    pooled = np.array([treated + control, treated[::-1] + control[::-1]])
    n_a = len(treated)
    result = _Design.named("unpaired").kernel(pooled, n_a, _Workspace(*pooled.shape), 2)
    treated_counts, control_counts = result.counts
    for row in range(2):
        x, y = pooled[row, :n_a], pooled[row, n_a:]
        assert (treated_counts[row] / 2).tolist() == [sum(g_kernel(t, c) for c in y) for t in x]
        assert (control_counts[row] / 2).tolist() == [sum(g_kernel(t, c) for t in x) for c in y]
        assert result.ties[row] == sum(t == c for t in x for c in y)
        assert result.u[row] == brute_force_u("unpaired", x, y)

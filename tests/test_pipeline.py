import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from surrank.errors import (
    AlignmentError,
    ConfigurationError,
    InsufficientDataError,
    InvalidInputError,
    NoSurrogatesSelectedError,
)
from surrank.inference import TestConfig, select_epsilon, surrogate_test
from surrank.pipeline import (
    CombinedSurrogate,
    Dataset,
    ScreeningReport,
    ScreeningRow,
    combine,
    evaluate,
    run_pipeline,
    screen,
    split,
    weight_floor,
    weighted_standardized_sum,
)
from surrank.rankstats import PairedSample, TwoArmSample, u_statistic


def make_unpaired(n1=40, n0=35, n_valid=3, n_noise=4, seed=0, noise_sd=0.8):
    """Response with a strong arm effect plus a few informative candidates."""
    rng = np.random.default_rng(seed)
    y1 = rng.normal(3, 1, n1)
    y0 = rng.normal(0, 1, n0)
    cand1 = np.empty((n1, n_valid + n_noise))
    cand0 = np.empty((n0, n_valid + n_noise))
    for j in range(n_valid):
        cand1[:, j] = y1 + rng.normal(0, noise_sd, n1)
        cand0[:, j] = y0 + rng.normal(0, noise_sd, n0)
    for j in range(n_valid, n_valid + n_noise):
        cand1[:, j] = rng.normal(1, 1, n1)
        cand0[:, j] = rng.normal(1, 1, n0)
    names = [f"good{j}" for j in range(n_valid)] + [f"noise{j}" for j in range(n_noise)]
    return Dataset.unpaired(y1, y0, cand1, cand0, names=names)


def test_dataset_validation():
    with pytest.raises(InvalidInputError):
        Dataset.unpaired([1.0, 2.0], [0.0, 1.0], [[1.0, 1.0], [2.0, 2.0]],
                         [[0.0, 0.0], [1.0, 1.0]], names=["a", "a"])
    with pytest.raises(AlignmentError):
        Dataset.unpaired([1.0, 2.0], [0.0, 1.0], [[1.0], [2.0], [3.0]], [[0.0], [1.0]])
    with pytest.raises(InvalidInputError):
        Dataset.paired([1.0, np.nan], [0.0, 1.0], [[1.0], [2.0]], [[0.0], [1.0]])
    with pytest.raises(AlignmentError):
        Dataset.paired([1.0, 2.0, 3.0], [0.0, 1.0], [[1.0], [2.0], [3.0]], [[0.0], [1.0]])
    with pytest.raises(ConfigurationError, match="'crossover'"):
        Dataset("crossover", [1.0, 2.0], [0.0, 1.0], [[1.0], [2.0]], [[0.0], [1.0]], ["a"],
                ["u1", "u2"], ["u1", "u2"])


def test_dataset_accessors():
    data = make_unpaired(n1=6, n0=5, n_valid=1, n_noise=1)
    assert data.p == 2
    resp = data.response_sample()
    assert isinstance(resp, TwoArmSample)
    assert resp.treated.size == 6 and resp.control.size == 5
    cand = data.candidate_sample("good0")
    assert cand.treated.shape == (6,)
    with pytest.raises(InvalidInputError):
        data.candidate_sample("absent")


def test_split_counts_match_floor_rule():
    rng = np.random.default_rng(3)
    data = Dataset.paired(
        rng.normal(2, 1, 103), rng.normal(0, 1, 103),
        rng.normal(size=(103, 2)), rng.normal(size=(103, 2)),
    )
    screening, evaluation = split(data, ratio=0.75, seed=11)
    assert screening.n_a == 77
    assert evaluation.n_a == 26
    assert sorted(screening.ids_a + evaluation.ids_a) == sorted(data.ids_a)


def test_split_is_deterministic_and_disjoint():
    data = make_unpaired(n1=31, n0=24)
    first = split(data, ratio=0.6, seed=5)
    second = split(data, ratio=0.6, seed=5)
    assert first[0].ids_a == second[0].ids_a
    assert first[1].ids_b == second[1].ids_b
    assert not set(first[0].ids_a) & set(first[1].ids_a)
    different = split(data, ratio=0.6, seed=6)
    assert first[0].ids_a != different[0].ids_a


def test_split_stratifies_by_arm():
    data = make_unpaired(n1=40, n0=20)
    screening, evaluation = split(data, ratio=0.75, seed=1)
    assert screening.n_a == 30 and screening.n_b == 15
    assert evaluation.n_a == 10 and evaluation.n_b == 5


def test_split_rejects_infeasible_ratio():
    data = make_unpaired(n1=10, n0=10)
    with pytest.raises(ConfigurationError):
        split(data, ratio=0.95, seed=0)
    with pytest.raises(ConfigurationError):
        split(data, ratio=1.5, seed=0)


def test_screen_selects_perfect_surrogate_only():
    rng = np.random.default_rng(8)
    y1 = rng.normal(3, 1, 30)
    y0 = rng.normal(0, 1, 30)
    data = Dataset.unpaired(
        y1, y0,
        np.column_stack([y1, rng.normal(1, 1, 30)]),
        np.column_stack([y0, rng.normal(1, 1, 30)]),
        names=["copy", "noise"],
    )
    report = screen(data, TestConfig(), method="bonferroni")
    assert report.selected == ("copy",)
    assert report.row("copy").raw_p == 0.0
    assert report.row("copy").degenerate
    assert report.row("noise").adjusted_p >= report.row("noise").raw_p


def test_screen_shares_one_epsilon():
    data = make_unpaired()
    report = screen(data, TestConfig(alpha=0.05, power=0.90))
    expected = select_epsilon(
        u_statistic(data.response_sample()), data.n_a, data.n_b, alpha=0.05, power=0.90,
    )
    assert report.epsilon_used == expected


def test_screen_flags_flat_candidates():
    rng = np.random.default_rng(9)
    y1 = rng.normal(3, 1, 20)
    y0 = rng.normal(0, 1, 20)
    flat1 = np.full(20, 7.0)
    flat0 = np.full(20, 7.0)
    data = Dataset.unpaired(
        y1, y0,
        np.column_stack([flat1, y1]),
        np.column_stack([flat0, y0]),
        names=["flat", "copy"],
    )
    report = screen(data, TestConfig())
    row = report.row("flat")
    assert row.raw_p == 1.0
    assert row.adjusted_p == 1.0
    assert row.degenerate
    assert "flat" not in report.selected


def test_screen_needs_two_observations_per_block():
    unpaired = Dataset.unpaired([1.0], [0.0, 2.0], [[1.0, 3.0]], [[0.0, 1.0], [2.0, 2.0]])
    with pytest.raises(InsufficientDataError):
        screen(unpaired, TestConfig())
    paired = Dataset.paired([1.0], [0.0], [[1.0, 3.0]], [[0.0, 1.0]])
    with pytest.raises(InsufficientDataError):
        screen(paired, TestConfig())


def test_screen_orders_selection():
    rows = screen(make_unpaired(n_valid=3, n_noise=2, seed=4), TestConfig()).selected
    data = make_unpaired(n_valid=3, n_noise=2, seed=4)
    report = screen(data, TestConfig())
    keys = [
        (report.row(name).adjusted_p, abs(report.row(name).delta), name)
        for name in report.selected
    ]
    assert keys == sorted(keys)
    assert rows == report.selected


def test_screen_without_correction_keeps_raw():
    data = make_unpaired(seed=12)
    report = screen(data, TestConfig(), method=None)
    for row in report.rows:
        assert row.adjusted_p == row.raw_p


def test_selection_monotone_in_fixed_epsilon():
    data = make_unpaired(n_valid=3, n_noise=3, seed=21, noise_sd=1.6)
    previous: set[str] = set()
    for eps in (0.05, 0.15, 0.25, 0.35, 0.45):
        selected = set(screen(data, TestConfig(epsilon=eps)).selected)
        assert previous <= selected
        previous = selected


def test_weight_floor_values():
    assert weight_floor("unpaired", 25, 20) == 1.0 / 1000.0
    assert weight_floor("paired", 26, 26) == 1.0 / 104.0


def manual_report(design, names, deltas, n_a, n_b):
    rows = tuple(
        ScreeningRow(name=n, u_candidate=0.8, delta=d, sigma=0.02, ci_lower=d - 0.03,
                     ci_upper=d + 0.03, raw_p=0.001, adjusted_p=0.002, degenerate=False)
        for n, d in zip(names, deltas)
    )
    return ScreeningReport(
        rows=rows, selected=tuple(names), epsilon_used=0.2, method="bh", alpha=0.05,
        mode="noninferiority", design=design, u_response=0.95, n_a=n_a, n_b=n_b,
    )


def test_combine_single_member_weight():
    rng = np.random.default_rng(31)
    data = Dataset.paired(
        rng.normal(2, 1, 26), rng.normal(0, 1, 26),
        rng.normal(size=(26, 1)), rng.normal(size=(26, 1)), names=["only"],
    )
    report = manual_report("paired", ["only"], [-0.1], 26, 26)
    combined, gamma = combine(data, report)
    assert combined.weights == (10.0,)
    pooled = np.concatenate([data.candidates_a[:, 0], data.candidates_b[:, 0]])
    standardized = (data.candidates_a[:, 0] - pooled.mean()) / pooled.std(ddof=1)
    assert np.allclose(gamma.post, 10.0 * standardized)


def test_combine_floors_zero_delta():
    # paired screening split of 26 units: smallest resolvable gap is 1/104
    rng = np.random.default_rng(32)
    data = Dataset.paired(
        rng.normal(2, 1, 10), rng.normal(0, 1, 10),
        rng.normal(size=(10, 1)), rng.normal(size=(10, 1)), names=["zero"],
    )
    report = manual_report("paired", ["zero"], [0.0], 26, 26)
    combined, _ = combine(data, report)
    assert combined.weights == (104.0,)


def test_combine_flags_zero_sd_member():
    rng = np.random.default_rng(33)
    cand_a = np.column_stack([np.full(12, 4.0), rng.normal(size=12)])
    cand_b = np.column_stack([np.full(12, 4.0), rng.normal(size=12)])
    data = Dataset.paired(
        rng.normal(2, 1, 12), rng.normal(0, 1, 12), cand_a, cand_b, names=["flat", "ok"]
    )
    report = manual_report("paired", ["flat", "ok"], [0.1, 0.1], 12, 12)
    combined, gamma = combine(data, report)
    assert combined.degenerate_members == ("flat",)
    only_ok, _, _, _, _ = weighted_standardized_sum(
        cand_a[:, 1:], cand_b[:, 1:], [10.0]
    )
    assert np.allclose(gamma.post, only_ok)


def test_combine_requires_selection():
    data = make_unpaired()
    report = screen(data, TestConfig(epsilon=1e-9), method="bonferroni")
    assert report.selected == ()
    with pytest.raises(NoSurrogatesSelectedError):
        combine(data, report)


def test_combined_surrogate_validation():
    with pytest.raises(InvalidInputError):
        CombinedSurrogate(("a",), (0.0,), ((0.0, 1.0),), ())
    with pytest.raises(AlignmentError):
        CombinedSurrogate(("a", "b"), (1.0,), ((0.0, 1.0),), ())


def test_evaluate_perfect_gamma_rejects():
    data = make_unpaired(seed=17)
    gamma = TwoArmSample(treated=data.response_a, control=data.response_b)
    res = evaluate(data, gamma, TestConfig())
    assert res.delta == 0.0
    assert res.p_value == 0.0
    assert res.reject


def test_evaluate_checks_alignment():
    data = make_unpaired(n1=10, n0=10)
    with pytest.raises(AlignmentError):
        evaluate(data, TwoArmSample(treated=np.ones(9), control=np.zeros(10)), TestConfig())
    with pytest.raises(AlignmentError):
        evaluate(data, PairedSample(post=np.ones(10), pre=np.zeros(10)), TestConfig())


def test_gamma_invariant_to_weight_scaling():
    data = make_unpaired(n1=24, n0=24, seed=41)
    report = screen(*split(data, 0.5, seed=2)[:1], TestConfig())
    _, evaluation_data = split(data, 0.5, seed=2)
    base, gamma_base = combine(evaluation_data, report)
    scaled = CombinedSurrogate(
        base.members,
        tuple(3.0 * w for w in base.weights),
        base.standardization,
        base.degenerate_members,
    )
    cols = [evaluation_data.names.index(m) for m in scaled.members]
    gamma_a, gamma_b, _, _, _ = weighted_standardized_sum(
        evaluation_data.candidates_a[:, cols], evaluation_data.candidates_b[:, cols],
        scaled.weights,
    )
    assert np.allclose(gamma_a, 3.0 * gamma_base.treated)
    res_base = evaluate(evaluation_data, gamma_base, TestConfig())
    res_scaled = evaluate(
        evaluation_data, TwoArmSample(treated=gamma_a, control=gamma_b), TestConfig()
    )
    assert res_scaled.p_value == res_base.p_value
    assert res_scaled.u_candidate == res_base.u_candidate


def test_screening_ignores_evaluation_rows():
    data = make_unpaired(n1=30, n0=30, seed=51)
    screening_data, evaluation_data = split(data, 0.7, seed=9)
    report = screen(screening_data, TestConfig())

    tampered_a = data.candidates_a.copy()
    tampered_b = data.candidates_b.copy()
    eval_rows_a = [data.ids_a.index(i) for i in evaluation_data.ids_a]
    eval_rows_b = [data.ids_b.index(i) for i in evaluation_data.ids_b]
    tampered_a[eval_rows_a] += 50.0
    tampered_b[eval_rows_b] -= 50.0
    tampered = Dataset(
        data.design, data.response_a, data.response_b, tampered_a, tampered_b,
        data.names, data.ids_a, data.ids_b,
    )
    tampered_screening, _ = split(tampered, 0.7, seed=9)
    assert screen(tampered_screening, TestConfig()) == report


def test_run_pipeline_end_to_end_and_deterministic():
    data = make_unpaired(n1=60, n0=60, n_valid=4, n_noise=6, seed=61)
    first = run_pipeline(data, ratio=0.75, seed=3)
    second = run_pipeline(data, ratio=0.75, seed=3)
    assert first.screening == second.screening
    assert first.combined == second.combined
    assert first.evaluation == second.evaluation
    assert np.array_equal(first.gamma.treated, second.gamma.treated)
    assert first.split_ratio == 0.75 and first.split_seed == 3
    assert set(first.combined.members) <= {f"good{j}" for j in range(4)} | {
        f"noise{j}" for j in range(6)
    }
    assert first.evaluation.reject


@pytest.mark.parametrize("design, mode", [("unpaired", "noninferiority"), ("paired", "tost")])
def test_members_are_single_marker_tests_at_the_evaluation_margin(design, mode):
    data = make_unpaired(n1=60, n0=60, n_valid=14, n_noise=3, seed=62)
    if design == "paired":
        data = Dataset.paired(data.response_a, data.response_b, data.candidates_a,
                              data.candidates_b, names=data.names)
    config = TestConfig(mode=mode)
    result = run_pipeline(data, ratio=0.75, seed=3, config=config)
    # more than ten selected, so only the first ten are retested
    assert len(result.screening.selected) > 10
    held_out = result.evaluation_data
    at_margin = replace(config, epsilon=result.evaluation.epsilon)
    assert result.members == tuple(
        (name, surrogate_test(held_out.response_sample(), held_out.candidate_sample(name),
                              at_margin))
        for name in result.screening.selected[:10]
    )


def test_screening_report_row_lookup():
    report = manual_report("paired", ["a", "b"], [0.1, -0.2], 12, 12)
    assert report.row("b") is report.rows[1]
    with pytest.raises(InvalidInputError, match="'c'"):
        report.row("c")


def test_run_pipeline_labels_stage_errors():
    data = make_unpaired(n1=10, n0=10)
    with pytest.raises(ConfigurationError, match="split stage"):
        run_pipeline(data, ratio=0.95, seed=0)
    rng = np.random.default_rng(71)
    flat = Dataset.unpaired(
        rng.normal(3, 1, 12), rng.normal(0, 1, 12),
        np.full((12, 2), 5.0), np.full((12, 2), 5.0), names=["f1", "f2"],
    )
    with pytest.raises(NoSurrogatesSelectedError, match="combination stage"):
        run_pipeline(flat, ratio=0.5, seed=0)


def test_screen_memory_does_not_grow_with_blocks_beyond_its_outputs():
    """One workspace serves every block: 4 000 candidates peak no higher than 1 000 plus outputs.

    At 50 + 50 observations a block holds 81 candidates, so the calls run 13
    and 50 blocks.  Beyond what the returned report holds, the extra
    candidates may add only the p-long arrays of the test assembly.
    """
    def traced(p):
        rng = np.random.default_rng(3)
        data = Dataset.unpaired(rng.normal(1.0, 1.0, 50), rng.normal(size=50),
                                rng.normal(size=(50, p)), rng.normal(size=(50, p)))
        tracemalloc.start()
        try:
            report = screen(data, TestConfig())
            held, peak = tracemalloc.get_traced_memory()
            assert len(report.rows) == p
            return peak, held
        finally:
            tracemalloc.stop()

    traced(1_000)  # warm-up: first-call allocations
    (small_peak, small_held), (large_peak, large_held) = traced(1_000), traced(4_000)
    # sixteen float64 arrays of p entries at once, and a 64 KiB slack
    assert large_peak - small_peak <= large_held - small_held + 3_000 * 16 * 8 + 64 * 1024

"""Tests for synthetic data generation and experiment drivers."""

import tracemalloc
import warnings
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given
from scipy.integrate import dblquad
from scipy.special import ndtr

from surrank import pipeline
from surrank.errors import ConfigurationError
from surrank.inference import TestConfig, surrogate_test
from surrank.pipeline import _standardized_sum, screen, weighted_standardized_sum
from surrank.rankstats import _DESIGNS, TwoArmSample, u_statistic
from surrank.simulate import (
    _INVALID_MEAN_RANGE,
    _INVALID_RATE_RANGE,
    _INVALID_VARIANCE_RANGE,
    DgpConfig,
    _confusion,
    _covariance_root,
    _draw,
    calibrate_sigma_valid,
    estimate_valid_strength,
    generate,
    response_effect,
    run_evaluation_experiment,
    run_screening_experiment,
)


def test_response_effect_reference_value():
    # Phi(3 / sqrt(2)) for arm means 3 and 0 with unit variances
    assert response_effect() == pytest.approx(0.9830525732376554, abs=1e-12)


def test_generate_is_deterministic_per_seed():
    cfg = DgpConfig(scenario="ten_pct_valid", n1=30, n0=25, p_total=20, seed=11)
    first = generate(cfg)
    second = generate(cfg)
    assert np.array_equal(first.dataset.response_a, second.dataset.response_a)
    assert np.array_equal(first.dataset.candidates_a, second.dataset.candidates_a)
    assert np.array_equal(first.dataset.candidates_b, second.dataset.candidates_b)
    assert first.valid == second.valid

    shifted = generate(DgpConfig(scenario="ten_pct_valid", n1=30, n0=25, p_total=20, seed=12))
    assert not np.array_equal(first.dataset.candidates_a, shifted.dataset.candidates_a)


def test_generate_label_bookkeeping():
    cfg = DgpConfig(scenario="ten_pct_valid", n1=20, n0=20, p_total=100, seed=1)
    sim = generate(cfg)
    assert len(sim.valid) == 100
    assert sum(sim.valid) == 10
    assert sim.dataset.candidates_a.shape == (20, 100)
    assert sim.dataset.candidates_b.shape == (20, 100)

    none = generate(DgpConfig(scenario="none_valid", n1=20, n0=20, p_total=15, seed=1))
    assert sum(none.valid) == 0
    assert none.sigma_valid == 0.0


def test_generate_rejects_too_few_candidates_for_valid_share():
    cfg = DgpConfig(scenario="ten_pct_valid", n1=20, n0=20, p_total=4, seed=0)
    with pytest.raises(ConfigurationError):
        generate(cfg)


def test_metrics_counts_partition_the_labels():
    # candidates S1..S5; S1, S3 and S4 selected in the first replicate, none in the second
    valid = np.array([True, True, False, False, False])
    selected = np.array([[True, False, True, True, False], [False] * 5])
    m, empty = _confusion(selected, valid)
    assert (m.tp, m.fp, m.tn, m.fn) == (1, 2, 1, 1)
    assert m.tp + m.fn == sum(valid)
    assert m.fp + m.tn == len(valid) - sum(valid)
    assert m.fpr == pytest.approx(2 / 3)
    assert m.fdp == pytest.approx(2 / 3)
    assert m.power == pytest.approx(1 / 2)

    assert empty.fdp == 0.0 and empty.fpr == 0.0 and empty.power == 0.0


def test_normal_calibration_closed_form_and_monte_carlo_agree():
    sigma = calibrate_sigma_valid("normal", 0.9)
    assert sigma == pytest.approx(1.3190661551642706, abs=1e-12)
    rehearsal = estimate_valid_strength("normal", sigma, n_draws=400_000, seed=123)
    assert abs(rehearsal - 0.9) < 0.005

    assert calibrate_sigma_valid("normal", 1.0) == 0.0
    # targets above the noiseless strength clip to zero noise
    assert calibrate_sigma_valid("normal", 0.999) == 0.0


def test_complex_calibration_hits_target_on_fresh_draws():
    sigma = calibrate_sigma_valid("complex", 0.9)
    assert sigma > 0.0
    rehearsal = estimate_valid_strength("complex", sigma, n_draws=1_000_000, seed=321)
    assert abs(rehearsal - 0.9) < 0.005
    assert calibrate_sigma_valid("complex", 1.0) == 0.0


def test_calibration_rejects_out_of_range_targets():
    for bad in (0.5, 0.2, 1.2):
        with pytest.raises(ConfigurationError):
            calibrate_sigma_valid("normal", bad)


@pytest.fixture
def no_draws(monkeypatch):
    """Fail the test on any random generator being made."""
    def refuse(*args, **kwargs):
        raise AssertionError("a generator was made before the arguments were checked")
    monkeypatch.setattr(np.random, "default_rng", refuse)


def test_calibration_rejects_an_unknown_process_even_at_target_one(no_draws):
    for target in (1.0, 0.9):
        with pytest.raises(ConfigurationError, match="dgp must be 'normal' or 'complex'"):
            calibrate_sigma_valid("bogus", target)


def test_strength_estimate_rejects_an_unknown_process(no_draws):
    with pytest.raises(ConfigurationError, match="dgp must be 'normal' or 'complex'"):
        estimate_valid_strength("bogus", 0.5)


def test_evaluation_driver_rejects_an_unknown_process(no_draws):
    with pytest.raises(ConfigurationError, match="dgp must be 'normal' or 'complex'"):
        run_evaluation_experiment(dgp="bogus", valid_strength=1.0, n_sim=5)


@pytest.mark.parametrize("n_draws", [0, -1])
def test_monte_carlo_strength_needs_a_draw(no_draws, n_draws):
    with pytest.raises(ConfigurationError, match="n_draws must be >= 1"):
        estimate_valid_strength("normal", 0.5, n_draws=n_draws)


def test_complex_calibration_is_deterministic_and_draws_nothing(no_draws):
    assert calibrate_sigma_valid("complex", 0.9) == pytest.approx(8.78301, abs=1e-5)


def test_complex_calibration_agrees_with_an_adaptive_double_integral():
    sigma = calibrate_sigma_valid("complex", 0.9)

    def integrand(y0, y1):
        density = np.exp(-0.5 * ((y1 - 3.0) ** 2 + y0**2)) / (2.0 * np.pi)
        return density * ndtr((y1**3 - y0**3) / (sigma * np.sqrt(2.0)))

    # eight standard deviations each way leave out less than 1e-14 of the mass
    strength, _ = dblquad(integrand, -5.0, 11.0, -8.0, 8.0, epsabs=1e-10, epsrel=1e-10)
    assert abs(strength - 0.9) < 1e-6


def test_complex_calibration_needs_no_noise_near_or_above_the_noiseless_strength():
    # no noise scale brings the grid's strength above 0.98274, short of the noiseless 0.98305
    for target in (0.9828, response_effect(), 0.99, 1.0):
        assert calibrate_sigma_valid("complex", target) == 0.0


def test_complex_calibration_adds_noise_as_the_target_falls():
    sigmas = [calibrate_sigma_valid("complex", target) for target in (0.95, 0.8, 0.6)]
    assert 0.0 < sigmas[0] < sigmas[1] < sigmas[2]


def test_valid_candidates_track_the_response():
    cfg = DgpConfig(scenario="ten_pct_valid", n1=200, n0=200, p_total=10,
                    target_u_s=0.9, seed=5)
    sim = generate(cfg)
    for name, is_valid in zip(sim.dataset.names, sim.valid):
        u = u_statistic(sim.dataset.candidate_sample(name)).value
        if is_valid:
            assert abs(u - 0.9) < 0.06
        else:
            assert abs(u - 0.5) < 0.10


def test_complex_invalid_candidates_are_exponential_noise():
    cfg = DgpConfig(dgp="complex", scenario="none_valid", n1=150, n0=150,
                    p_total=12, seed=9)
    sim = generate(cfg)
    assert (sim.dataset.candidates_a >= 0).all()
    assert (sim.dataset.candidates_b >= 0).all()
    for name in sim.dataset.names:
        u = u_statistic(sim.dataset.candidate_sample(name)).value
        assert abs(u - 0.5) < 0.12


def test_correlation_injection_is_monotone_in_sigma_corr():
    def mean_offdiag_correlation(sigma_corr):
        cfg = DgpConfig(scenario="none_valid", n1=400, n0=400, p_total=10,
                        sigma_corr=sigma_corr, seed=17)
        sim = generate(cfg)
        corr = np.corrcoef(np.vstack([sim.dataset.candidates_a,
                                      sim.dataset.candidates_b]).T)
        off = corr[~np.eye(10, dtype=bool)]
        return float(off.mean())

    levels = [mean_offdiag_correlation(s) for s in (0.1, 0.3, 0.5)]
    assert all(level > 0.0 for level in levels)
    assert levels[0] < levels[1] < levels[2]


def test_non_positive_definite_covariance_reports_eigenvalue():
    cfg = DgpConfig(scenario="none_valid", n1=10, n0=10, p_total=8,
                    sigma_corr=3.0, seed=2)
    with pytest.raises(ConfigurationError, match="eigenvalue"):
        generate(cfg)


def test_response_sampler_matches_theoretical_effect():
    cfg = DgpConfig(scenario="none_valid", n1=20_000, n0=20_000, p_total=1, seed=42)
    sim = generate(cfg)
    u = u_statistic(sim.dataset.response_sample()).value
    assert abs(u - response_effect()) < 0.01


def test_config_validation():
    with pytest.raises(ConfigurationError):
        DgpConfig(dgp="weird")
    with pytest.raises(ConfigurationError):
        DgpConfig(scenario="half_valid")
    with pytest.raises(ConfigurationError):
        DgpConfig(n1=1)
    with pytest.raises(ConfigurationError):
        DgpConfig(p_total=0)
    with pytest.raises(ConfigurationError):
        DgpConfig(target_u_s=0.5)
    with pytest.raises(ConfigurationError):
        DgpConfig(sigma_corr=-0.1)
    with pytest.raises(ConfigurationError):
        estimate_valid_strength("normal", -1.0)


def test_screening_experiment_boundary_false_positive_rate():
    cfg = DgpConfig(scenario="none_valid", n1=50, n0=50, p_total=20, seed=31)
    uncorrected = run_screening_experiment(cfg, method=None, n_sim=100)
    assert uncorrected.raw_pvalues.shape == (100, 20)
    # candidates sit on the test boundary, so rejections should track alpha
    assert 0.02 < uncorrected.mean_fpr < 0.09
    assert uncorrected.mean_power == 0.0

    corrected = run_screening_experiment(cfg, method="bh", n_sim=100)
    assert corrected.mean_fpr <= uncorrected.mean_fpr
    assert corrected.mean_fpr < 0.02


def test_screening_experiment_is_deterministic():
    cfg = DgpConfig(scenario="ten_pct_valid", n1=40, n0=40, p_total=20, seed=8)
    first = run_screening_experiment(cfg, method="bh", n_sim=25)
    second = run_screening_experiment(cfg, method="bh", n_sim=25)
    assert first.metrics == second.metrics
    assert first.mean_power > 0.5


def test_screening_experiment_adaptive_margin_mode():
    cfg = DgpConfig(scenario="ten_pct_valid", n1=60, n0=60, p_total=20, seed=13)
    adaptive = run_screening_experiment(cfg, TestConfig(power=0.90), method="bh",
                                        n_sim=25, boundary_epsilon=False)
    assert adaptive.mean_fdp < 0.2
    assert adaptive.mean_power > 0.3


def test_evaluation_experiment_separates_pure_compositions():
    result = run_evaluation_experiment(n=25, set_size=8, rho_grid=(0.0, 1.0),
                                       n_sim=40, seed=6)
    assert result.pvalues.shape == (2, 40)
    rejects = result.rejection_fraction(0.05)
    assert rejects[0] > 0.9
    assert rejects[1] < 0.1


def test_evaluation_experiment_validation():
    with pytest.raises(ConfigurationError):
        run_evaluation_experiment(set_size=0, n_sim=5)
    with pytest.raises(ConfigurationError):
        run_evaluation_experiment(rho_grid=(0.0, 1.5), n_sim=5)
    with pytest.raises(ConfigurationError):
        run_evaluation_experiment(n_sim=0)
    with pytest.raises(ConfigurationError, match="rho_grid needs one or more values"):
        run_evaluation_experiment(rho_grid=(), n_sim=5)
    # the same settings DgpConfig rejects, before any data is drawn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="sigma_corr must be >= 0"):
            run_evaluation_experiment(sigma_corr=-0.02, n_sim=5)
        for n in (0, 1):
            with pytest.raises(ConfigurationError, match="need at least 2 per arm"):
                run_evaluation_experiment(n=n, n_sim=5)


def test_rejection_fraction_takes_a_test_level():
    experiment = run_evaluation_experiment(n=10, set_size=2, rho_grid=(0.0, 1.0), n_sim=4)
    assert experiment.rejection_fraction(0.05).shape == (2,)
    for alpha in (0.0, 0.5, 0.7, 1.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ConfigurationError, match="alpha must be in"):
            experiment.rejection_fraction(alpha)


def per_cell_pvalues(n=50, valid_strength=0.9, set_size=20, rho_grid=(0.0, 0.5, 1.0),
                     n_sim=10, dgp="normal", sigma_corr=0.0, alpha=0.05, power=0.80, seed=0):
    """Per-cell reference p-values for the evaluation driver, and the degenerate cells.

    Each (replicate, rho) cell draws its data with ``_draw``, combines the
    members with ``weighted_standardized_sum`` and runs ``surrogate_test``.
    """
    sigma_valid = calibrate_sigma_valid(dgp, valid_strength)
    config = TestConfig(alpha=alpha, power=power)
    pvalues = np.empty((len(rho_grid), n_sim))
    degenerate = np.empty((len(rho_grid), n_sim), dtype=bool)
    for i, stream in enumerate(np.random.SeedSequence(seed).spawn(n_sim)):
        rng = np.random.default_rng(stream)
        for g, rho in enumerate(rho_grid):
            k_invalid = int(np.ceil(rho * set_size))
            y1, y0, candidates1, candidates0 = _draw(rng, dgp, n, n, k_invalid,
                                                     set_size - k_invalid, sigma_valid,
                                                     sigma_corr)
            gamma1, gamma0, _, _, _ = weighted_standardized_sum(candidates1, candidates0,
                                                                np.ones(set_size))
            result = surrogate_test(TwoArmSample(treated=y1, control=y0),
                                    TwoArmSample(treated=gamma1, control=gamma0), config)
            pvalues[g, i], degenerate[g, i] = result.p_value, result.degenerate
    return pvalues, degenerate


def cells_per_block(n: int) -> int:
    return pipeline._BLOCK_BYTES // (2 * _DESIGNS["unpaired"].column_bytes(n, n))


EVALUATION_CASES = {
    "normal": {"n": 30, "set_size": 8},
    "complex": {"n": 30, "set_size": 8, "dgp": "complex", "seed": 3},
    "correlated, normal": {"n": 40, "set_size": 10, "sigma_corr": 0.3, "seed": 4},
    "correlated, complex": {"n": 40, "set_size": 10, "sigma_corr": 0.3, "dgp": "complex",
                            "seed": 5},
    "power 0.6": {"n": 25, "set_size": 6, "power": 0.6, "seed": 8},
    "power 0.95, alpha 0.01": {"n": 25, "set_size": 6, "power": 0.95, "alpha": 0.01,
                               "seed": 9},
    "two per arm": {"n": 2, "set_size": 5, "n_sim": 40, "seed": 6},
    # a 40-cell budget at n = 50 would end a block inside replicate 13, so the blocks
    # hold 13 whole replicates and the last one 4
    "block boundary inside a replicate": {"n": 50, "n_sim": 30, "seed": 7},
    "noiseless valid members": {"n": 30, "set_size": 5, "valid_strength": 1.0, "seed": 10},
}


@pytest.mark.parametrize("case", EVALUATION_CASES)
def test_evaluation_driver_equals_surrogate_test_of_each_cell(case):
    settings = {"rho_grid": (0.0, 0.5, 1.0), "n_sim": 10, **EVALUATION_CASES[case]}
    expected, degenerate = per_cell_pvalues(**settings)
    assert run_evaluation_experiment(**settings).pvalues.tobytes() == expected.tobytes()
    if case == "block boundary inside a replicate":
        width = cells_per_block(settings["n"])
        assert expected.size > width and width % len(settings["rho_grid"]) != 0
    if case == "noiseless valid members":
        # gamma ranks the subjects as the response does at rho = 0, so the gap's
        # sigma is 0 and the test takes its degenerate branch
        assert degenerate[0].all()


def test_evaluation_driver_memory_does_not_grow_with_replicates_beyond_its_pvalues():
    def peak(n_sim):
        tracemalloc.start()
        try:
            experiment = run_evaluation_experiment(n=20, set_size=2, rho_grid=(0.0,),
                                                   n_sim=n_sim)
            return tracemalloc.get_traced_memory()[1], experiment.pvalues.nbytes
        finally:
            tracemalloc.stop()

    peak(2)  # warm-up: first-call allocations
    small, _ = peak(200)
    large, pvalues_bytes = peak(2_000)
    # both runs fill at least one block of 102 cells; the slack covers the objects
    # that wait for the cyclic collector between replicates, about 10 KB
    assert large - small <= pvalues_bytes + 32 * 1024


def test_screening_driver_memory_does_not_grow_with_replicates_beyond_its_results():
    cfg = DgpConfig(n1=5, n0=5, p_total=1)

    def overhead(n_sim):
        """Peak traced memory of one call beyond what its returned experiment holds."""
        tracemalloc.start()
        try:
            experiment = run_screening_experiment(cfg, n_sim=n_sim)
            held, peak = tracemalloc.get_traced_memory()
            assert len(experiment.metrics) == n_sim
            return peak - held
        finally:
            tracemalloc.stop()

    overhead(2)  # warm-up: first-call allocations
    small, large = overhead(100), overhead(1_000)
    # the confusion counts pass through two lists of 8-byte references per
    # replicate; a seed sequence spawned up front for each one took about 340 bytes
    assert large - small <= 900 * 2 * 8 + 32 * 1024


def test_screening_driver_peak_grows_only_by_its_pvalue_arrays():
    # p = 100 at 50 + 50 takes two blocks per replicate, each in the call's one workspace
    cfg = DgpConfig(scenario="ten_pct_valid", n1=50, n0=50, p_total=100)

    def peak(n_sim):
        tracemalloc.start()
        try:
            experiment = run_screening_experiment(cfg, n_sim=n_sim)
            assert experiment.raw_pvalues.shape == (n_sim, cfg.p_total)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # warm-up: first-call allocations
    small, large = peak(20), peak(200)
    # the raw and adjusted p-values, (n_sim, p) float64 each, and each replicate's
    # confusion counts, about 200 bytes; the slack covers the cyclic collector's lag
    assert large - small <= 180 * (2 * cfg.p_total * 8 + 200) + 32 * 1024


def per_arm_draw(rng, dgp, n1, n0, p_invalid, p_valid, sigma_valid, sigma_corr):
    """Reference draw of one replicate: each arm's block from its own generator call.

    The response arms, the invalid block and the valid block, in that order,
    the treated arm first in each; returns y1, y0, candidates1 and
    candidates0 as separate arrays.
    """
    y1 = rng.normal(3.0, 1.0, n1)
    y0 = rng.normal(0.0, 1.0, n0)
    blocks = [], []
    if p_invalid and dgp == "complex":
        rates = rng.uniform(*_INVALID_RATE_RANGE, size=p_invalid)
        for arm, size in enumerate((n1, n0)):
            blocks[arm].append(rng.exponential(1.0 / rates, size=(size, p_invalid)))
    elif p_invalid:
        means = rng.uniform(*_INVALID_MEAN_RANGE, size=p_invalid)
        variances = rng.uniform(*_INVALID_VARIANCE_RANGE, size=p_invalid)
        root = _covariance_root(variances, sigma_corr, "invalid-candidate")
        for arm, size in enumerate((n1, n0)):
            if p_invalid == 1 or sigma_corr == 0.0:
                noise = np.sqrt(variances) * rng.standard_normal((size, p_invalid))
            else:
                noise = rng.standard_normal((size, p_invalid)) @ root.T
            blocks[arm].append(means + noise)
    if p_valid:
        variances = np.full(p_valid, sigma_valid**2)
        for arm, y in enumerate((y1, y0)):
            signal = (y if dgp == "normal" else y**3)[:, None]
            if sigma_valid == 0.0:
                blocks[arm].append(np.tile(signal, p_valid))
                continue
            if p_valid == 1 or sigma_corr == 0.0:
                noise = sigma_valid * rng.standard_normal((y.size, p_valid))
            else:
                root = _covariance_root(variances, sigma_corr * sigma_valid**2,
                                        "valid-candidate")
                noise = rng.standard_normal((y.size, p_valid)) @ root.T
            blocks[arm].append(signal + noise)
    return y1, y0, np.hstack(blocks[0]), np.hstack(blocks[1])


def per_cell_combined_marker(candidates1, candidates0, weights):
    """Reference standardization of one cell: numpy's moments, one product per arm."""
    pooled = np.vstack([candidates1, candidates0])
    means, sds = pooled.mean(axis=0), pooled.std(axis=0, ddof=1)
    degenerate = sds == 0.0
    scale, effective = np.where(degenerate, 1.0, sds), np.where(degenerate, 0.0, weights)
    gamma1 = ((candidates1 - means) / scale) @ effective
    gamma0 = ((candidates0 - means) / scale) @ effective
    return gamma1, gamma0, means, sds, degenerate


# n per arm, valid strength, sigma_corr; each for both processes
DRAW_CASES = {
    "independent": (30, 0.9, 0.0),
    "correlated": (30, 0.9, 0.3),
    "noiseless valid members": (30, 1.0, 0.3),
    "two per arm": (2, 0.9, 0.3),
}


@pytest.mark.parametrize("dgp", ["normal", "complex"])
@pytest.mark.parametrize("case", DRAW_CASES)
def test_replicate_buffers_hold_the_per_arm_draws_and_their_combined_markers(dgp, case):
    n, strength, sigma_corr = DRAW_CASES[case]
    sigma_valid = calibrate_sigma_valid(dgp, strength)
    # products over 8 or more members round differently when taken over both arms at once
    set_size, k_invalid = 20, (0, 1, 8, 13, 20)
    # buffers as the evaluation driver holds them, reused by every replicate
    responses = np.empty((len(k_invalid), 2 * n))
    candidates = np.empty((len(k_invalid), 2 * n, set_size))
    scratch = np.empty(2 * n * set_size)
    weights = np.linspace(0.5, 2.0, set_size)
    for seed in range(3):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = []
        for g, k in enumerate(k_invalid):
            drawn = _draw(rng, dgp, n, n, k, set_size - k, sigma_valid, sigma_corr,
                          responses[g], candidates[g], scratch)
            expected.append(per_arm_draw(reference_rng, dgp, n, n, k, set_size - k,
                                         sigma_valid, sigma_corr))
            for got, want in zip(drawn, expected[-1]):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert rng.random() == reference_rng.random()  # both streams stand at the same place

        stacked = weighted_standardized_sum(candidates[:, :n], candidates[:, n:], weights)
        gamma = np.empty((len(k_invalid), 2 * n))
        moments = _standardized_sum(candidates, n, weights, gamma)
        for g, (_, _, candidates1, candidates0) in enumerate(expected):
            gamma1, gamma0, *want = per_cell_combined_marker(candidates1, candidates0, weights)
            assert gamma[g].tobytes() == np.concatenate([gamma1, gamma0]).tobytes()
            single = weighted_standardized_sum(candidates1, candidates0, weights)
            for got, value in zip((*stacked, *moments), (gamma1, gamma0, *want, *want)):
                assert got[g].tobytes() == value.tobytes()
            for got, value in zip(single, (gamma1, gamma0, *want)):
                assert got.tobytes() == value.tobytes()


@pytest.mark.parametrize("dgp", ["normal", "complex"])
def test_generate_draws_the_per_arm_arrays(dgp):
    cfg = DgpConfig(dgp=dgp, scenario="ten_pct_valid", n1=23, n0=17, p_total=30,
                    sigma_corr=0.3, seed=21)
    sim = generate(cfg)
    expected = per_arm_draw(np.random.default_rng(cfg.seed), dgp, 23, 17, 27, 3,
                            sim.sigma_valid, 0.3)
    drawn = (sim.dataset.response_a, sim.dataset.response_b, sim.dataset.candidates_a,
             sim.dataset.candidates_b)
    for got, want in zip(drawn, expected):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_standardized_sum_moments_are_numpy_mean_and_std():
    rng = np.random.default_rng(8)
    for rows in (2, 3, 17, 200):
        values = rng.normal(size=(rows, 9)) * np.logspace(-6, 6, 9) + np.logspace(-3, 8, 9)
        values[:, 0] = 0.25  # no spread: its sd is 0 and it contributes nothing
        gamma_a, gamma_b, means, sds, degenerate = weighted_standardized_sum(
            values[:1], values[1:], np.ones(9))
        assert means.tobytes() == values.mean(axis=0).tobytes()
        assert sds.tobytes() == values.std(axis=0, ddof=1).tobytes()
        assert degenerate.tolist() == [True] + [False] * 8
        centred = (values[:, 1:] - means[1:]) / sds[1:]
        assert np.allclose(np.concatenate([gamma_a, gamma_b]), centred.sum(axis=1),
                           rtol=1e-12, atol=1e-12)


def test_standardized_sum_flags_a_constant_member_whose_sd_rounds_above_zero():
    # the pooled mean of seven 0.1s rounds, so their sd comes out near 1e-17, not 0;
    # the last column's first and last rows agree, but it has spread
    ends = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 1.0]
    values = np.column_stack([np.arange(7.0), np.full(7, 0.1), ends])
    zeros = np.column_stack([np.arange(7.0), np.zeros(7), ends])
    gamma_a, gamma_b, means, sds, degenerate = weighted_standardized_sum(values[:3], values[3:],
                                                                         [1.0, 1.0, 1.0])
    assert np.std(values[:, 1], ddof=1) > 0.0
    assert (means[1], sds[1]) == (0.1, 0.0) and degenerate.tolist() == [False, True, False]
    assert (means[2], sds[2]) == pytest.approx((np.mean(ends), np.std(ends, ddof=1)))
    want_a, want_b, *_ = weighted_standardized_sum(zeros[:3], zeros[3:], [1.0, 1.0, 1.0])
    assert (gamma_a.tobytes(), gamma_b.tobytes()) == (want_a.tobytes(), want_b.tobytes())


@given(rows=st.integers(2, 12), p=st.integers(1, 5), value=st.floats(-1e100, 1e100),
       seed=st.integers(0, 2**32 - 1))
def test_constant_member_adds_what_a_column_of_zeros_adds(rows, p, value, seed):
    rng = np.random.default_rng(seed)
    column, n_a = int(rng.integers(p)), int(rng.integers(1, rows))
    values = rng.normal(size=(rows, p)) * rng.uniform(0.1, 10.0, p)
    weights = rng.uniform(0.5, 2.0, p)
    values[:, column] = value
    zeros = values.copy()
    zeros[:, column] = 0.0
    got = weighted_standardized_sum(values[:n_a], values[n_a:], weights)
    want = weighted_standardized_sum(zeros[:n_a], zeros[n_a:], weights)
    assert got[4][column] and want[4][column] and got[3][column] == 0.0
    assert got[4].tolist() == want[4].tolist()
    assert (got[0].tobytes(), got[1].tobytes()) == (want[0].tobytes(), want[1].tobytes())


# (config, test config, method, boundary margin): every case spans more than one kernel block
DRIVER_CASES = {
    "boundary margin, BH": (
        DgpConfig(scenario="ten_pct_valid", n1=100, n0=100, p_total=100, seed=3),
        TestConfig(), "bh", True),
    "derived margin, BY, complex process, unequal arms": (
        DgpConfig(dgp="complex", scenario="ten_pct_valid", n1=60, n0=45, p_total=170, seed=4),
        TestConfig(power=0.9), "by", False),
    "fixed margin, TOST, unadjusted, correlated nulls": (
        DgpConfig(scenario="none_valid", n1=50, n0=70, p_total=150, sigma_corr=0.3, seed=5),
        TestConfig(epsilon=0.5, mode="tost"), None, False),
    "boundary margin, TOST, Bonferroni, correlated candidates": (
        DgpConfig(scenario="ten_pct_valid", n1=80, n0=80, p_total=120, sigma_corr=0.2,
                  target_u_s=0.95, seed=6),
        TestConfig(mode="tost"), "bonferroni", True),
}


@pytest.mark.parametrize("cfg, test_config, method, boundary", DRIVER_CASES.values(),
                         ids=DRIVER_CASES.keys())
def test_screening_driver_equals_screen_of_each_replicate(cfg, test_config, method, boundary):
    assert cfg.p_total > pipeline._BLOCK_BYTES // (8 * (cfg.n1 + cfg.n0))
    n_sim = 3
    experiment = run_screening_experiment(cfg, test_config, method=method, n_sim=n_sim,
                                          boundary_epsilon=boundary)
    for i, stream in enumerate(np.random.SeedSequence(cfg.seed).spawn(n_sim)):
        sim = generate(cfg, np.random.default_rng(stream))
        config = test_config
        if boundary:
            u_y = u_statistic(sim.dataset.response_sample()).value
            config = replace(test_config, epsilon=max(0.0, u_y - 0.5))
        report = screen(sim.dataset, config, method)
        raw = np.array([row.raw_p for row in report.rows])
        assert experiment.raw_pvalues[i].tobytes() == raw.tobytes()
        chosen = [name in report.selected for name in sim.dataset.names]
        flags = list(zip(chosen, sim.valid))
        m = experiment.metrics[i]
        assert (m.tp, m.fp, m.tn, m.fn) == (
            sum(s and v for s, v in flags), sum(s and not v for s, v in flags),
            sum(not s and not v for s, v in flags), sum(not s and v for s, v in flags))

"""Acceptance criteria for the package, one test per criterion.

Each test prints a single line

    CRITERION <k> [PASS|FAIL] <measured numbers>

directly to the terminal (bypassing capture) before asserting, so a
``pytest -v`` run shows one status line per criterion.  Criterion 10
depends on an external dataset and reports SKIPPED with instructions
when the dataset is not supplied.
"""

import math
import os
import re
from time import perf_counter

import numpy as np
import pytest
from scipy.stats import kstest, kstwobign

from surrank.cli import main
from surrank.dataio import read_table
from surrank.inference import _assemble, surrogate_test
from surrank.multitest import adjust
from surrank.rankstats import PairedSample, TwoArmSample, u_statistic
from surrank.simulate import (
    DgpConfig,
    calibrate_sigma_valid,
    estimate_valid_strength,
    generate,
    response_effect,
    run_evaluation_experiment,
    run_screening_experiment,
)


def _criterion(number: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {number:2d} [{'PASS' if ok else 'FAIL'}] {detail}"
    print("\n" + line)
    assert ok, line


def _pair_kernel(a: float, b: float) -> float:
    if a > b:
        return 1.0
    if a == b:
        return 0.5
    return 0.0


def test_criterion_01_u_statistics_match_brute_force_enumeration():
    start = perf_counter()
    rng = np.random.default_rng(1001)
    mismatches = 0
    for i in range(500):
        n1 = int(rng.integers(2, 51))
        n0 = int(rng.integers(2, 51))
        if i % 2:
            treated = rng.normal(size=n1)
            control = rng.normal(size=n0)
        else:
            treated = rng.integers(0, 6, size=n1).astype(float)
            control = rng.integers(0, 6, size=n0).astype(float)
        value = u_statistic(TwoArmSample(treated=treated, control=control)).value
        brute = sum(
            _pair_kernel(a, b) for a in treated for b in control
        ) / (n1 * n0)
        mismatches += value != brute
    for i in range(500):
        n = int(rng.integers(2, 51))
        if i % 2:
            post = rng.normal(size=n)
            pre = rng.normal(size=n)
        else:
            post = rng.integers(0, 4, size=n).astype(float)
            pre = rng.integers(0, 4, size=n).astype(float)
        value = u_statistic(PairedSample(post=post, pre=pre)).value
        brute = sum(_pair_kernel(a, b) for a, b in zip(post, pre)) / n
        mismatches += value != brute
    elapsed = perf_counter() - start
    _criterion(1, mismatches == 0 and elapsed < 5.0,
               f"1000 seeded instances, {mismatches} mismatches, {elapsed:.2f}s (< 5s)")


def _g_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, None] > b[None, :]) + 0.5 * (a[:, None] == b[None, :])


def _bootstrap_sd_unpaired(rng, response, candidate, n_boot=2000) -> float:
    diff = _g_matrix(response.treated, response.control) \
        - _g_matrix(candidate.treated, candidate.control)
    n1, n0 = diff.shape
    rows = rng.integers(0, n1, size=(n_boot, n1))
    cols = rng.integers(0, n0, size=(n_boot, n0))
    deltas = diff[rows[:, :, None], cols[:, None, :]].mean(axis=(1, 2))
    return float(np.std(deltas, ddof=1))


def _bootstrap_sd_paired(rng, response, candidate, n_boot=2000) -> float:
    diff = np.array([
        _pair_kernel(a, b) for a, b in zip(response.post, response.pre)
    ]) - np.array([
        _pair_kernel(a, b) for a, b in zip(candidate.post, candidate.pre)
    ])
    idx = rng.integers(0, diff.size, size=(n_boot, diff.size))
    return float(np.std(diff[idx].mean(axis=1), ddof=1))


def test_criterion_02_analytic_sigma_tracks_bootstrap_sd():
    start = perf_counter()
    rng = np.random.default_rng(2002)
    within = {"unpaired": 0, "paired": 0}
    worst = 0.0
    for design in ("unpaired", "paired"):
        for i in range(20):
            n1 = int(rng.integers(25, 51))
            n0 = int(rng.integers(25, 51))
            if design == "unpaired":
                y = TwoArmSample(treated=rng.normal(2.0, 1.0, n1),
                                 control=rng.normal(0.0, 1.0, n0))
                s = TwoArmSample(treated=y.treated + rng.normal(0, 0.8, n1),
                                 control=y.control + rng.normal(0, 0.8, n0))
                if i % 3 == 0:
                    s = TwoArmSample(treated=np.round(s.treated),
                                     control=np.round(s.control))
                analytic = surrogate_test(y, s).sigma
                boot = _bootstrap_sd_unpaired(rng, y, s)
            else:
                y = PairedSample(post=rng.normal(1.5, 1.0, n1),
                                 pre=rng.normal(0.0, 1.0, n1))
                s = PairedSample(post=y.post + rng.normal(0, 0.8, n1),
                                 pre=y.pre + rng.normal(0, 0.8, n1))
                if i % 3 == 0:
                    s = PairedSample(post=np.round(s.post), pre=np.round(s.pre))
                analytic = surrogate_test(y, s).sigma
                boot = _bootstrap_sd_paired(rng, y, s)
            relative = abs(analytic - boot) / boot
            worst = max(worst, relative)
            within[design] += relative <= 0.15
    elapsed = perf_counter() - start
    ok = within["unpaired"] >= 18 and within["paired"] >= 18 and elapsed < 120.0
    _criterion(2, ok,
               f"within 15% of 2000-resample bootstrap SD in "
               f"{within['unpaired']}/20 unpaired and {within['paired']}/20 paired "
               f"instances (worst {worst:.3f}), {elapsed:.1f}s (< 120s)")


def test_criterion_03_null_raw_p_values_are_uniform():
    cfg = DgpConfig(scenario="none_valid", n1=50, n0=50, p_total=5, seed=30003)
    experiment = run_screening_experiment(cfg, method=None, n_sim=1000)
    flat = experiment.raw_pvalues.ravel()
    ks = float(kstest(flat, "uniform").statistic)
    critical = float(kstwobign.isf(0.01)) / math.sqrt(flat.size)
    rejection = float(np.mean(flat < 0.05))
    ok = ks < critical and 0.035 <= rejection <= 0.065
    _criterion(3, ok,
               f"boundary nulls at n=50, 1000 replicates: KS {ks:.4f} < {critical:.4f} "
               f"(1% critical), rejection rate {rejection:.4f} in [0.035, 0.065]")


def test_criterion_04_uncorrected_false_positive_rate_stays_near_alpha():
    start = perf_counter()
    rates = {}
    for n in (30, 50, 100):
        cfg = DgpConfig(scenario="none_valid", n1=n, n0=n, p_total=100,
                        seed=40000 + n)
        rates[n] = run_screening_experiment(cfg, method=None, n_sim=200).mean_fpr
    elapsed = perf_counter() - start
    ok = all(0.03 <= rate <= 0.07 for rate in rates.values()) and elapsed < 300.0
    shown = " ".join(f"n={n}:{rate:.4f}" for n, rate in rates.items())
    _criterion(4, ok, f"mean FPR over 200 replicates ({shown}) all in [0.03, 0.07], "
                      f"{elapsed:.1f}s (< 300s)")


def test_criterion_05_power_rises_with_candidate_strength_and_bh_controls_fdp():
    targets = (0.6, 0.7, 0.8, 0.9, 0.95)
    powers = []
    fdp_at_09 = None
    for target in targets:
        cfg = DgpConfig(scenario="ten_pct_valid", n1=100, n0=100, p_total=100,
                        target_u_s=target, seed=50000 + round(100 * target))
        experiment = run_screening_experiment(cfg, method="bh", n_sim=200)
        powers.append(experiment.mean_power)
        if target == 0.9:
            fdp_at_09 = experiment.mean_fdp
    monotone = all(later >= earlier for earlier, later in zip(powers, powers[1:]))
    ok = monotone and powers[-1] >= 0.95 and fdp_at_09 <= 0.05
    shown = " ".join(f"{t:g}:{p:.3f}" for t, p in zip(targets, powers))
    _criterion(5, ok, f"power by strength ({shown}) monotone={monotone}, "
                      f"power(0.95)={powers[-1]:.3f} >= 0.95, "
                      f"BH FDP at 0.9 = {fdp_at_09:.4f} <= 0.05")


def test_criterion_06_combined_marker_rejection_by_invalid_fraction():
    experiment = run_evaluation_experiment(n=50, valid_strength=0.9, set_size=20,
                                           rho_grid=(0.0, 0.2, 0.6, 1.0), n_sim=200,
                                           power=0.80, seed=60006)
    fractions = experiment.rejection_fraction(0.05)
    checks = (fractions[0] >= 0.95, fractions[1] >= 0.95,
              fractions[2] <= 0.05, fractions[3] <= 0.05)
    shown = " ".join(f"rho={r:g}:{f:.3f}"
                     for r, f in zip(experiment.rho_grid, fractions))
    ok = all(checks)
    detail = (f"rejection fractions ({shown}); bounds: >=0.95 at rho<=0.2, "
              f"<=0.05 at rho>=0.6. The rho=0.6 leg cannot hold for an "
              f"equal-weight standardized combination: its 8 calibrated members "
              f"keep the pooled effect near the response's, so the test "
              f"rejects essentially always (see README, acceptance notes).")
    _criterion(6, ok, detail)


def test_criterion_07_equivalence_test_matches_interval_inclusion():
    rng = np.random.default_rng(70007)
    counterexamples = 0
    for _ in range(10_000):
        delta = float(rng.uniform(-0.8, 0.8))
        sigma = float(np.exp(rng.normal(-2.5, 1.0)))
        epsilon = float(rng.uniform(0.0, 0.9))
        alpha = float(rng.uniform(0.01, 0.2))
        # the gap between a response U and a candidate U either side of 1/2
        gap = (0.5 + delta / 2.0) - (0.5 - delta / 2.0)
        res = _assemble(np.array([gap]), np.array([sigma]), np.array([False]), epsilon, alpha,
                        "tost")
        by_p = res["p_value"][0] < alpha
        by_ci = -epsilon < res["ci_lower"][0] and res["ci_upper"][0] < epsilon
        counterexamples += by_p != by_ci
    _criterion(7, counterexamples == 0,
               f"10000 random (delta, sigma, epsilon, alpha) tuples, "
               f"{counterexamples} disagreements between p < alpha and the "
               f"(1-2*alpha) interval lying inside (-epsilon, epsilon)")


def _naive_bonferroni(p):
    m = len(p)
    return [min(1.0, m * x) for x in p]


def _naive_step_up(p, multiplier):
    order = sorted(range(len(p)), key=lambda i: p[i])
    adjusted = [0.0] * len(p)
    for position, index in enumerate(order):
        candidates = [
            min(1.0, multiplier * p[order[j]] / (j + 1))
            for j in range(position, len(p))
        ]
        adjusted[index] = min(candidates)
    return adjusted


def _naive_bh(p):
    return _naive_step_up(p, float(len(p)))


def _naive_by(p):
    harmonic = sum(1.0 / k for k in range(1, len(p) + 1))
    return _naive_step_up(p, len(p) * harmonic)


def test_criterion_08_corrections_match_independent_reference():
    worked = [0.01, 0.02, 0.03, 0.04]
    ok = list(adjust(worked, "bh").adjusted) == [0.04, 0.04, 0.04, 0.04]
    ok = ok and list(adjust(worked, "bonferroni").adjusted) == [0.04, 0.08, 0.12, 0.16]
    ok = ok and list(adjust([0.2], "by").adjusted) == [0.2]

    rng = np.random.default_rng(80008)
    agreements = 0
    total = 0
    for _ in range(100):
        m = int(rng.integers(1, 41))
        raw = rng.uniform(0.0, 1.0, size=m)
        raw[rng.random(m) < 0.2] = rng.choice([0.0, 1.0, 0.5])
        raw = np.round(raw, 3) if rng.random() < 0.5 else raw
        for method, reference in (("bonferroni", _naive_bonferroni),
                                  ("bh", _naive_bh), ("by", _naive_by)):
            ours = adjust(raw, method).adjusted
            total += 1
            agreements += np.allclose(ours, reference(list(raw)), rtol=1e-12, atol=0.0)
    ok = ok and agreements == total
    _criterion(8, ok,
               f"worked 4-value examples exact; {agreements}/{total} "
               f"method-vector matches against naive step-up reference")


def test_criterion_09_data_generation_hits_its_calibration_targets():
    cfg = DgpConfig(scenario="none_valid", n1=500_000, n0=500_000, p_total=1,
                    seed=90009)
    sim = generate(cfg)
    u_response = u_statistic(sim.dataset.response_sample()).value
    gap_response = abs(u_response - response_effect())

    sigma_normal = calibrate_sigma_valid("normal", 0.9)
    gap_normal = abs(estimate_valid_strength("normal", sigma_normal,
                                             n_draws=1_000_000, seed=90010) - 0.9)
    sigma_complex = calibrate_sigma_valid("complex", 0.9)
    gap_complex = abs(estimate_valid_strength("complex", sigma_complex,
                                              n_draws=1_000_000, seed=90011) - 0.9)
    ok = gap_response < 0.005 and gap_normal < 0.005 and gap_complex < 0.005
    _criterion(9, ok,
               f"response effect over 10^6 pooled draws off by {gap_response:.5f}, "
               f"calibrated strengths off by {gap_normal:.5f} (normal) and "
               f"{gap_complex:.5f} (cubed), all < 0.005")


FLU_COMMAND = ("surrank rise --design paired "
               "--response $SURRANK_FLU_RESPONSE --candidates $SURRANK_FLU_CANDIDATES "
               "--correction bonferroni --mode tost --alpha 0.05 "
               "--split-ratio 0.75 --seed 0 --out <outdir>")


def test_criterion_10_external_dataset_regression(tmp_path, capsys):
    response = os.environ.get("SURRANK_FLU_RESPONSE")
    candidates = os.environ.get("SURRANK_FLU_CANDIDATES")
    if not (response and candidates):
        print("\nCRITERION 10 [SKIPPED] external dataset not supplied; set "
              "SURRANK_FLU_RESPONSE and SURRANK_FLU_CANDIDATES and rerun: "
              + FLU_COMMAND)
        pytest.skip("external dataset not supplied (SURRANK_FLU_RESPONSE, "
                    "SURRANK_FLU_CANDIDATES)")

    out = tmp_path / "flu"
    rc = main(["rise", "--design", "paired", "--response", response,
               "--candidates", candidates, "--correction", "bonferroni",
               "--mode", "tost", "--alpha", "0.05", "--split-ratio", "0.75",
               "--seed", "0", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 0, f"rise exited with {rc}"

    _, eval_rows = read_table(str(out / "evaluation.csv"))
    gamma = next(row for row in eval_rows if row["marker"] == "gamma")
    selected_count = len((out / "selected.txt").read_text().split())
    observed = {
        "screening_u_response": float(
            re.search(r"screening: u_response=([\d.eE+-]+)", stdout)[1]
        ),
        "screening_epsilon": float(
            re.search(r"screening: \S+ epsilon=([\d.eE+-]+)", stdout)[1]
        ),
        "selected_count": float(selected_count),
        "evaluation_u_response": float(gamma["u_response"]),
        "evaluation_epsilon": float(gamma["epsilon"]),
        "evaluation_delta": float(gamma["delta"]),
        "evaluation_p_value": float(gamma["p_value"]),
        "spearman_rho": float(re.search(r"spearman_rho ([\d.eE+-]+)", stdout)[1]),
    }

    here = os.path.dirname(__file__)
    _, expectations = read_table(os.path.join(here, "data", "influenza_expected.csv"))
    failures = []
    for row in expectations:
        value = observed[row["quantity"]]
        if row["comparison"] == "max":
            good = value <= float(row["expected"])
        else:
            good = abs(value - float(row["expected"])) <= float(row["tolerance"])
        if not good:
            failures.append(f"{row['quantity']}={value:.4g} (expected "
                            f"{row['expected']} +/- {row['tolerance']})")
    _criterion(10, not failures,
               f"external-dataset regression via `{FLU_COMMAND}`: "
               + ("all expectations met" if not failures else "; ".join(failures)))

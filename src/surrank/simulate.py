"""Synthetic data generation and operating-characteristic experiments.

Two data-generating processes share the same two-arm response, normal
with means 3 and 0 and unit variance, giving a true response effect of
Phi(3/sqrt(2)) on the probability scale.  Valid candidates are the
response (or its cube) plus calibrated noise; invalid candidates are
treatment-free noise.  The experiment drivers replay the screening and
evaluation procedures over many seeded replicates and summarize error
rates against the known labels.  The evaluation driver tests its
(replicate, rho) cells in blocks, a response and a combined-marker column
per cell, with one screening-core call per block.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigurationError, NumericError
from .inference import TestConfig, _assemble, _margin
from .multitest import Method
from .pipeline import _BLOCK_BYTES, Dataset, _screen_gaps, _screen_tests, \
    weighted_standardized_sum
from .rankstats import _DESIGNS, normal_cdf, normal_quantile
from .variance import _gaps

Dgp = Literal["normal", "complex"]
Scenario = Literal["none_valid", "ten_pct_valid"]

RESPONSE_MEAN_TREATED = 3.0
RESPONSE_MEAN_CONTROL = 0.0
RESPONSE_SD = 1.0

_INVALID_MEAN_RANGE = (0.5, 2.5)
_INVALID_VARIANCE_RANGE = (0.5, 2.0)
_INVALID_RATE_RANGE = (0.5, 2.5)


@dataclass(frozen=True)
class DgpConfig:
    """Settings for one synthetic dataset.

    ``n1``/``n0`` are the per-arm sample sizes.  ``target_u_s`` is the
    probability-scale strength the valid candidates are calibrated to;
    ``sigma_corr`` injects a constant into the noise covariances to make
    candidates mutually correlated.
    """

    dgp: Dgp = "normal"
    scenario: Scenario = "none_valid"
    n1: int = 50
    n0: int = 50
    p_total: int = 100
    target_u_s: float = 0.9
    sigma_corr: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.dgp not in ("normal", "complex"):
            raise ConfigurationError(f"dgp must be 'normal' or 'complex', got {self.dgp!r}")
        if self.scenario not in ("none_valid", "ten_pct_valid"):
            raise ConfigurationError(
                f"scenario must be 'none_valid' or 'ten_pct_valid', got {self.scenario!r}"
            )
        if self.n1 < 2 or self.n0 < 2:
            raise ConfigurationError(f"need at least 2 per arm, got n1={self.n1}, n0={self.n0}")
        if self.p_total < 1:
            raise ConfigurationError(f"p_total must be >= 1, got {self.p_total}")
        if not 0.5 < self.target_u_s <= 1.0:
            raise ConfigurationError(f"target_u_s must be in (0.5, 1], got {self.target_u_s}")
        if self.sigma_corr < 0.0:
            raise ConfigurationError(f"sigma_corr must be >= 0, got {self.sigma_corr}")

    @property
    def p_valid(self) -> int:
        if self.scenario == "none_valid":
            return 0
        count = int(round(0.1 * self.p_total))
        if count < 1:
            raise ConfigurationError(
                f"scenario 'ten_pct_valid' needs p_total >= 10, got {self.p_total}"
            )
        return count

    @property
    def p_invalid(self) -> int:
        return self.p_total - self.p_valid


@dataclass(frozen=True)
class SimulatedDataset:
    """A generated dataset with its ground-truth validity labels."""

    dataset: Dataset
    valid: tuple[bool, ...]
    sigma_valid: float


@dataclass(frozen=True)
class SimulationMetrics:
    """Confusion counts of one screening replicate against the labels."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def fpr(self) -> float:
        return self.fp / max(1, self.fp + self.tn)

    @property
    def fdp(self) -> float:
        return self.fp / max(1, self.fp + self.tp)

    @property
    def power(self) -> float:
        return self.tp / max(1, self.tp + self.fn)


def _confusion(selected: np.ndarray, valid: np.ndarray) -> tuple[SimulationMetrics, ...]:
    """Confusion counts of each row of a (replicates, p) selection mask against the labels."""
    tp = np.count_nonzero(selected & valid, axis=1).tolist()
    fp = np.count_nonzero(selected & ~valid, axis=1).tolist()
    n_valid = int(np.count_nonzero(valid))
    n_invalid = valid.size - n_valid
    return tuple(SimulationMetrics(tp=t, fp=f, tn=n_invalid - f, fn=n_valid - t)
                 for t, f in zip(tp, fp))


def response_effect() -> float:
    """True probability-scale treatment effect on the response, Phi(3/sqrt(2))."""
    gap = RESPONSE_MEAN_TREATED - RESPONSE_MEAN_CONTROL
    return normal_cdf(gap / np.sqrt(2.0 * RESPONSE_SD**2))


def estimate_valid_strength(dgp: Dgp, sigma_valid: float, n_draws: int = 1_000_000,
                            seed: int = 0) -> float:
    """Monte-Carlo estimate of a valid candidate's strength at a given noise scale."""
    if sigma_valid < 0.0:
        raise ConfigurationError(f"sigma_valid must be >= 0, got {sigma_valid}")
    rng = np.random.default_rng(seed)
    y1 = rng.normal(RESPONSE_MEAN_TREATED, RESPONSE_SD, n_draws)
    y0 = rng.normal(RESPONSE_MEAN_CONTROL, RESPONSE_SD, n_draws)
    signal1, signal0 = (y1, y0) if dgp == "normal" else (y1**3, y0**3)
    s1 = signal1 + sigma_valid * rng.normal(0.0, 1.0, n_draws)
    s0 = signal0 + sigma_valid * rng.normal(0.0, 1.0, n_draws)
    return float(np.mean(s1 > s0) + 0.5 * np.mean(s1 == s0))


@functools.lru_cache(maxsize=None)
def calibrate_sigma_valid(dgp: Dgp, target_u_s: float, n_draws: int = 1_000_000,
                          tol: float = 0.002, seed: int = 0) -> float:
    """Noise scale at which a valid candidate's strength equals the target.

    The normal process admits the closed form coming from
    U_S = Phi(3 / sqrt(2 + 2 sigma^2)); the cubed process is solved by
    bisection against a common-random-numbers Monte-Carlo estimate until
    the estimate is within ``tol`` of the target.  A target of 1 (or any
    target at or above the noiseless strength) returns 0.
    """
    if not 0.5 < target_u_s <= 1.0:
        raise ConfigurationError(f"target_u_s must be in (0.5, 1], got {target_u_s}")
    if target_u_s == 1.0:
        return 0.0
    if dgp == "normal":
        z = normal_quantile(target_u_s)
        gap = RESPONSE_MEAN_TREATED - RESPONSE_MEAN_CONTROL
        return float(np.sqrt(max(0.0, (gap / z) ** 2 / 2.0 - RESPONSE_SD**2)))
    if dgp != "complex":
        raise ConfigurationError(f"dgp must be 'normal' or 'complex', got {dgp!r}")

    rng = np.random.default_rng(seed)
    y1 = rng.normal(RESPONSE_MEAN_TREATED, RESPONSE_SD, n_draws) ** 3
    y0 = rng.normal(RESPONSE_MEAN_CONTROL, RESPONSE_SD, n_draws) ** 3
    e1 = rng.normal(0.0, 1.0, n_draws)
    e0 = rng.normal(0.0, 1.0, n_draws)

    def estimate(sigma: float) -> float:
        return float(np.mean(y1 + sigma * e1 > y0 + sigma * e0))

    if estimate(0.0) <= target_u_s:
        return 0.0
    lo, hi = 0.0, 1.0
    while estimate(hi) > target_u_s:
        hi *= 2.0
        if hi > 1e6:
            raise NumericError(f"no noise scale below 1e6 reaches strength {target_u_s}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = estimate(mid)
        if abs(value - target_u_s) <= tol:
            return mid
        if value > target_u_s:
            lo = mid
        else:
            hi = mid
    raise NumericError(f"calibration failed to reach strength {target_u_s} within {tol}")


def _covariance_root(diagonal: np.ndarray, off_diagonal: float, label: str) -> np.ndarray:
    """Cholesky factor of diag(diagonal) with a constant injected off the diagonal."""
    cov = np.full((diagonal.size, diagonal.size), off_diagonal)
    np.fill_diagonal(cov, diagonal)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(cov)[0])
        raise ConfigurationError(
            f"{label} covariance is not positive definite after correlation "
            f"injection (smallest eigenvalue {smallest:.6g})"
        ) from None


def _draw_invalid(rng: np.random.Generator, dgp: Dgp, n1: int, n0: int, count: int,
                  sigma_corr: float) -> tuple[np.ndarray, np.ndarray]:
    if dgp == "complex":
        rates = rng.uniform(*_INVALID_RATE_RANGE, size=count)
        block1 = rng.exponential(1.0 / rates, size=(n1, count))
        block0 = rng.exponential(1.0 / rates, size=(n0, count))
        return block1, block0
    means = rng.uniform(*_INVALID_MEAN_RANGE, size=count)
    variances = rng.uniform(*_INVALID_VARIANCE_RANGE, size=count)
    if count == 1 or sigma_corr == 0.0:
        block1 = means + np.sqrt(variances) * rng.standard_normal((n1, count))
        block0 = means + np.sqrt(variances) * rng.standard_normal((n0, count))
        return block1, block0
    root = _covariance_root(variances, sigma_corr, "invalid-candidate")
    block1 = means + rng.standard_normal((n1, count)) @ root.T
    block0 = means + rng.standard_normal((n0, count)) @ root.T
    return block1, block0


def _draw_valid(rng: np.random.Generator, dgp: Dgp, y1: np.ndarray, y0: np.ndarray,
                count: int, sigma_valid: float, sigma_corr: float,
                ) -> tuple[np.ndarray, np.ndarray]:
    signal1, signal0 = (y1, y0) if dgp == "normal" else (y1**3, y0**3)
    if sigma_valid == 0.0:
        return np.tile(signal1[:, None], count), np.tile(signal0[:, None], count)
    if count == 1 or sigma_corr == 0.0:
        noise1 = sigma_valid * rng.standard_normal((y1.size, count))
        noise0 = sigma_valid * rng.standard_normal((y0.size, count))
    else:
        # off-diagonal sigma_corr * sigma_valid^2 makes sigma_corr the
        # correlation between the noise terms of any two valid candidates
        variances = np.full(count, sigma_valid**2)
        root = _covariance_root(variances, sigma_corr * sigma_valid**2, "valid-candidate")
        noise1 = rng.standard_normal((y1.size, count)) @ root.T
        noise0 = rng.standard_normal((y0.size, count)) @ root.T
    return signal1[:, None] + noise1, signal0[:, None] + noise0


def _draw(rng: np.random.Generator, dgp: Dgp, n1: int, n0: int, p_invalid: int,
          p_valid: int, sigma_valid: float, sigma_corr: float):
    """One replicate's response arms and candidate blocks, invalid columns first.

    Draws y1, y0, the invalid block and then the valid block from ``rng``,
    the order every driver relies on to reproduce its streams.
    """
    y1 = rng.normal(RESPONSE_MEAN_TREATED, RESPONSE_SD, n1)
    y0 = rng.normal(RESPONSE_MEAN_CONTROL, RESPONSE_SD, n0)
    blocks1, blocks0 = [], []
    if p_invalid:
        inv1, inv0 = _draw_invalid(rng, dgp, n1, n0, p_invalid, sigma_corr)
        blocks1.append(inv1)
        blocks0.append(inv0)
    if p_valid:
        val1, val0 = _draw_valid(rng, dgp, y1, y0, p_valid, sigma_valid, sigma_corr)
        blocks1.append(val1)
        blocks0.append(val0)
    candidates1, candidates0 = np.hstack(blocks1), np.hstack(blocks0)
    if not (np.isfinite(candidates1).all() and np.isfinite(candidates0).all()):
        raise NumericError(f"{dgp} process drew non-finite candidate values")
    return y1, y0, candidates1, candidates0


def generate(cfg: DgpConfig, rng: np.random.Generator | None = None) -> SimulatedDataset:
    """Draw one labeled dataset from the configured process.

    Candidates are ordered invalid first, then valid; ``valid`` carries
    the label of each column.  Passing ``rng`` overrides the config seed,
    which experiment drivers use to hand each replicate its own stream.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    sigma_valid = calibrate_sigma_valid(cfg.dgp, cfg.target_u_s) if cfg.p_valid else 0.0
    dataset = Dataset.unpaired(*_draw(rng, cfg.dgp, cfg.n1, cfg.n0, cfg.p_invalid, cfg.p_valid,
                                      sigma_valid, cfg.sigma_corr))
    labels = (False,) * cfg.p_invalid + (True,) * cfg.p_valid
    return SimulatedDataset(dataset=dataset, valid=labels, sigma_valid=sigma_valid)


@dataclass(frozen=True)
class ScreeningExperiment:
    """Per-replicate screening error rates, plus raw p-values when kept."""

    metrics: tuple[SimulationMetrics, ...]
    raw_pvalues: np.ndarray | None

    @property
    def mean_fpr(self) -> float:
        return float(np.mean([m.fpr for m in self.metrics]))

    @property
    def mean_fdp(self) -> float:
        return float(np.mean([m.fdp for m in self.metrics]))

    @property
    def mean_power(self) -> float:
        return float(np.mean([m.power for m in self.metrics]))


def run_screening_experiment(cfg: DgpConfig, test_config: TestConfig = TestConfig(),
                             method: Method | None = None, n_sim: int = 500,
                             boundary_epsilon: bool = True,
                             keep_pvalues: bool = False) -> ScreeningExperiment:
    """Replay the screening stage over seeded replicates.

    With ``boundary_epsilon`` the margin of each replicate is fixed at
    that replicate's observed response effect minus one half, placing
    candidates with no effect exactly on the test boundary; otherwise the
    margin follows ``test_config``.  Each replicate draws its data from
    an independent stream derived from ``cfg.seed``, as :func:`generate`
    would, and runs the columnar core of :func:`~surrank.pipeline.screen`
    on the drawn arrays, so its raw p-values and selected set are those
    of ``screen(generate(cfg, rng).dataset, ...)``.  A candidate is
    selected when its adjusted p is below ``test_config.alpha``.
    """
    if n_sim < 1:
        raise ConfigurationError(f"n_sim must be >= 1, got {n_sim}")
    sigma_valid = calibrate_sigma_valid(cfg.dgp, cfg.target_u_s) if cfg.p_valid else 0.0
    streams = np.random.SeedSequence(cfg.seed).spawn(n_sim)
    raw = np.empty((n_sim, cfg.p_total))
    adjusted = np.empty((n_sim, cfg.p_total))
    for i, stream in enumerate(streams):
        drawn = _draw(np.random.default_rng(stream), cfg.dgp, cfg.n1, cfg.n0, cfg.p_invalid,
                      cfg.p_valid, sigma_valid, cfg.sigma_corr)
        u_y, tie_y, u_candidate, sigma, flat = _screen_gaps(_DESIGNS["unpaired"], *drawn)
        epsilon = (max(0.0, u_y - 0.5) if boundary_epsilon
                   else _margin("unpaired", u_y, tie_y, cfg.n1, cfg.n0, test_config))
        _, _, raw[i], adjusted[i] = _screen_tests(u_y, u_candidate, sigma, flat, epsilon,
                                                  test_config, method)
    valid = np.arange(cfg.p_total) >= cfg.p_invalid
    return ScreeningExperiment(metrics=_confusion(adjusted < test_config.alpha, valid),
                               raw_pvalues=raw if keep_pvalues else None)


@dataclass(frozen=True)
class EvaluationExperiment:
    """P-values of the combined-marker test at each invalid-fraction grid point."""

    rho_grid: tuple[float, ...]
    pvalues: np.ndarray  # shape (len(rho_grid), n_sim)

    def rejection_fraction(self, alpha: float = 0.05) -> np.ndarray:
        if not 0.0 < alpha < 0.5:
            raise ConfigurationError(f"alpha must be in (0, 0.5), got {alpha}")
        return (self.pvalues < alpha).mean(axis=1)


def run_evaluation_experiment(n: int = 50, valid_strength: float = 0.9, set_size: int = 20,
                              rho_grid=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0), n_sim: int = 500,
                              dgp: Dgp = "normal", sigma_corr: float = 0.0,
                              alpha: float = 0.05, power: float = 0.80,
                              seed: int = 0) -> EvaluationExperiment:
    """Test equal-weight combined markers of known composition.

    Each replicate draws ``n`` subjects per arm, builds a combination of
    ceil(rho * set_size) invalid members and the rest valid members at
    ``valid_strength``, all standardized on the same data and equally
    weighted, and records the p-value ``surrogate_test`` gives the
    combined marker with the margin derived at the given power.
    """
    rho_grid = tuple(float(r) for r in rho_grid)
    if n < 2:
        raise ConfigurationError(f"need at least 2 per arm, got n={n}")
    if sigma_corr < 0.0:
        raise ConfigurationError(f"sigma_corr must be >= 0, got {sigma_corr}")
    if set_size < 1:
        raise ConfigurationError(f"set_size must be >= 1, got {set_size}")
    if not rho_grid or any(not 0.0 <= rho <= 1.0 for rho in rho_grid):
        raise ConfigurationError(f"rho_grid needs one or more values in [0, 1], got {rho_grid}")
    if n_sim < 1:
        raise ConfigurationError(f"n_sim must be >= 1, got {n_sim}")
    sigma_valid = calibrate_sigma_valid(dgp, valid_strength)
    config = TestConfig(alpha=alpha, power=power)

    def cells():
        # replicate i draws its cells from the i-th stream of SeedSequence(seed).spawn(n_sim),
        # spawned one at a time so that none outlives its replicate
        root = np.random.SeedSequence(seed)
        for _ in range(n_sim):
            rng = np.random.default_rng(root.spawn(1)[0])
            for rho in rho_grid:
                k_invalid = int(np.ceil(rho * set_size))
                y1, y0, candidates1, candidates0 = _draw(rng, dgp, n, n, k_invalid,
                                                         set_size - k_invalid, sigma_valid,
                                                         sigma_corr)
                gamma1, gamma0, _, _, _ = weighted_standardized_sum(candidates1, candidates0,
                                                                    np.ones(set_size))
                yield y1, y0, gamma1, gamma0

    design, drawn = _DESIGNS["unpaired"], cells()
    width = max(1, _BLOCK_BYTES // (2 * design.column_bytes(n, n)))
    # a block of m cells holds cell j's response in row j and its combined marker in row m + j
    a, b = np.empty((2 * width, n)), np.empty((2 * width, n))
    pvalues = np.empty((len(rho_grid), n_sim))
    for start in range(0, pvalues.size, width):
        m = min(width, pvalues.size - start)
        for j, (y1, y0, gamma1, gamma0) in enumerate(itertools.islice(drawn, m)):
            a[j], b[j], a[m + j], b[m + j] = y1, y0, gamma1, gamma0
        u_y, tie_y, u, sigma = _gaps(design, a[:2 * m].T, b[:2 * m].T, m)
        epsilon = _margin(design.name, u_y, tie_y, n, n, config)
        test = _assemble(u_y - u, sigma, epsilon, config.alpha, config.mode)
        pvalues.T.flat[start:start + m] = test["p_value"]  # cell order: replicate, then rho
    return EvaluationExperiment(rho_grid=rho_grid, pvalues=pvalues)

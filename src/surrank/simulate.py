"""Synthetic data generation and operating-characteristic experiments.

Two data-generating processes share the same two-arm response, normal
with means 3 and 0 and unit variance, giving a true response effect of
Phi(3/sqrt(2)) on the probability scale.  Valid candidates are the
response (or its cube) plus calibrated noise; invalid candidates are
treatment-free noise.  The experiment drivers replay the screening and
evaluation procedures over many seeded replicates and summarize error
rates against the known labels.  Each driver makes one screening-core
workspace per call and reuses it for every block of every replicate.  The
evaluation driver tests its (replicate, rho) cells in pooled blocks, a
response row and a combined-marker row per cell, with one screening-core
call per block.  Every driver draws through one function, which writes a
replicate's arrays into buffers its caller can reuse.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigurationError, NumericError
from .inference import TestConfig, _assemble, _margin
from .multitest import Method
from .pipeline import (
    _BLOCK_BYTES,
    Dataset,
    _screen_gaps,
    _screen_tests,
    _screen_workspace,
    _standardized_sum,
)
from .rankstats import _DESIGNS, _Workspace, normal_cdf, normal_quantile
from .variance import _gaps

Dgp = Literal["normal", "complex"]
Scenario = Literal["none_valid", "ten_pct_valid"]

RESPONSE_MEAN_TREATED = 3.0
RESPONSE_MEAN_CONTROL = 0.0
RESPONSE_SD = 1.0

_INVALID_MEAN_RANGE = (0.5, 2.5)
_INVALID_VARIANCE_RANGE = (0.5, 2.0)
_INVALID_RATE_RANGE = (0.5, 2.5)


def _check_dgp(dgp) -> None:
    if dgp not in ("normal", "complex"):
        raise ConfigurationError(f"dgp must be 'normal' or 'complex', got {dgp!r}")


def _check_draws(n_draws: int) -> None:
    if n_draws < 1:
        raise ConfigurationError(f"n_draws must be >= 1, got {n_draws}")


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
        _check_dgp(self.dgp)
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
    _check_dgp(dgp)
    _check_draws(n_draws)
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
    _check_dgp(dgp)
    _check_draws(n_draws)
    if not 0.5 < target_u_s <= 1.0:
        raise ConfigurationError(f"target_u_s must be in (0.5, 1], got {target_u_s}")
    if target_u_s == 1.0:
        return 0.0
    if dgp == "normal":
        z = normal_quantile(target_u_s)
        gap = RESPONSE_MEAN_TREATED - RESPONSE_MEAN_CONTROL
        return float(np.sqrt(max(0.0, (gap / z) ** 2 / 2.0 - RESPONSE_SD**2)))

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


def _draw_invalid(rng: np.random.Generator, dgp: Dgp, n1: int, out: np.ndarray,
                  sigma_corr: float, z: np.ndarray) -> None:
    """Draw the invalid block into ``out`` through ``z``, both of its shape."""
    count = out.shape[1]
    if dgp == "complex":
        rates = rng.uniform(*_INVALID_RATE_RANGE, size=count)
        rng.standard_exponential(out=z)
        np.multiply(z, 1.0 / rates, out=out)
        return
    means = rng.uniform(*_INVALID_MEAN_RANGE, size=count)
    variances = rng.uniform(*_INVALID_VARIANCE_RANGE, size=count)
    rng.standard_normal(out=z)
    if count == 1 or sigma_corr == 0.0:
        z *= np.sqrt(variances)
    else:
        root = _covariance_root(variances, sigma_corr, "invalid-candidate")
        # one product per arm: a product over both arms may round differently
        z[:n1], z[n1:] = z[:n1] @ root.T, z[n1:] @ root.T
    np.add(means, z, out=out)


def _draw_valid(rng: np.random.Generator, dgp: Dgp, n1: int, y: np.ndarray, out: np.ndarray,
                sigma_valid: float, sigma_corr: float, z: np.ndarray) -> None:
    """Draw the valid block, the response signal plus noise, into ``out`` through ``z``."""
    signal = (y if dgp == "normal" else y**3)[:, None]
    if sigma_valid == 0.0:
        out[...] = signal
        return
    count = out.shape[1]
    rng.standard_normal(out=z)
    if count == 1 or sigma_corr == 0.0:
        z *= sigma_valid
    else:
        # off-diagonal sigma_corr * sigma_valid^2 makes sigma_corr the
        # correlation between the noise terms of any two valid candidates
        variances = np.full(count, sigma_valid**2)
        root = _covariance_root(variances, sigma_corr * sigma_valid**2, "valid-candidate")
        z[:n1], z[n1:] = z[:n1] @ root.T, z[n1:] @ root.T
    np.add(signal, z, out=out)


def _draw(rng: np.random.Generator, dgp: Dgp, n1: int, n0: int, p_invalid: int,
          p_valid: int, sigma_valid: float, sigma_corr: float, y: np.ndarray | None = None,
          candidates: np.ndarray | None = None, scratch: np.ndarray | None = None):
    """One replicate's response and candidates, invalid columns first, as arm views.

    Draws the response, the invalid block and then the valid block from
    ``rng``, each pair of arms in one call with the treated rows first: the
    order every driver relies on to reproduce its streams.  Writes into
    ``y`` (n1 + n0 values) and ``candidates`` (n1 + n0 rows, p_invalid +
    p_valid columns) when given, drawing through ``scratch``, a flat array
    of at least n1 + n0 times the wider block's width; allocates what is
    not given.  Returns y1, y0, candidates1 and candidates0.
    """
    rows = n1 + n0
    y = np.empty(rows) if y is None else y
    candidates = np.empty((rows, p_invalid + p_valid)) if candidates is None else candidates
    scratch = np.empty(rows * max(p_invalid, p_valid)) if scratch is None else scratch
    rng.standard_normal(out=y)
    y *= RESPONSE_SD
    y[:n1] += RESPONSE_MEAN_TREATED
    y[n1:] += RESPONSE_MEAN_CONTROL
    if p_invalid:
        _draw_invalid(rng, dgp, n1, candidates[:, :p_invalid], sigma_corr,
                      scratch[:rows * p_invalid].reshape(rows, p_invalid))
    if p_valid:
        _draw_valid(rng, dgp, n1, y, candidates[:, p_invalid:], sigma_valid, sigma_corr,
                    scratch[:rows * p_valid].reshape(rows, p_valid))
    if not np.isfinite(candidates).all():
        raise NumericError(f"{dgp} process drew non-finite candidate values")
    return y[:n1], y[n1:], candidates[:n1], candidates[n1:]


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


def _replicate_streams(seed: int, n_sim: int):
    """The generators of replicates 0..n_sim-1, one at a time.

    Replicate i draws from the i-th child of ``SeedSequence(seed)``, as
    ``spawn(n_sim)`` numbers them; spawning them one by one keeps none
    beyond its replicate.
    """
    root = np.random.SeedSequence(seed)
    for _ in range(n_sim):
        yield np.random.default_rng(root.spawn(1)[0])


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
    would, and runs the core of :func:`~surrank.pipeline.screen` on the
    drawn arrays, in one workspace made for the call and reused by every
    replicate, so its raw p-values and selected set are bit for bit those
    of ``screen(generate(cfg, rng).dataset, ...)``.  A candidate is
    selected when its adjusted p is below ``test_config.alpha``.
    """
    if n_sim < 1:
        raise ConfigurationError(f"n_sim must be >= 1, got {n_sim}")
    sigma_valid = calibrate_sigma_valid(cfg.dgp, cfg.target_u_s) if cfg.p_valid else 0.0
    rows, design = cfg.n1 + cfg.n0, _DESIGNS["unpaired"]
    y, candidates = np.empty(rows), np.empty((rows, cfg.p_total))
    scratch = np.empty(rows * max(cfg.p_invalid, cfg.p_valid))
    work = _screen_workspace(design, cfg.n1, cfg.n0, cfg.p_total)
    raw = np.empty((n_sim, cfg.p_total))
    adjusted = np.empty((n_sim, cfg.p_total))
    for i, rng in enumerate(_replicate_streams(cfg.seed, n_sim)):
        drawn = _draw(rng, cfg.dgp, cfg.n1, cfg.n0, cfg.p_invalid, cfg.p_valid, sigma_valid,
                      cfg.sigma_corr, y, candidates, scratch)
        u_y, tie_y, u_candidate, sigma, flat = _screen_gaps(design, *drawn, work)
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

    Each (replicate, rho) cell draws ``n`` subjects per arm and builds a
    combination of ceil(rho * set_size) invalid members and the rest valid
    members at ``valid_strength``, all standardized on the same data and
    equally weighted.  It records the p-value of the test of the response
    against that combined marker, with the margin derived at the given
    power: bit for bit the p-value ``surrogate_test`` gives the cell.

    A replicate draws its cells in grid order from its own stream into
    buffers allocated once per call, standardizes them together and
    writes each cell's response and combined marker as two rows of the
    pooled block of one screening-core workspace, made once per call;
    each block of cells is tested with one screening-core call in it.
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
    design, k_invalid = _DESIGNS["unpaired"], [int(np.ceil(rho * set_size)) for rho in rho_grid]
    width = max(1, _BLOCK_BYTES // (2 * design.column_bytes(n, n)))
    # a block of m cells holds cell j's response in row j of the workspace's pooled
    # block and its combined marker in row m + j, each row the treated arm and then
    # the control arm
    work = _Workspace(2 * width, 2 * n)
    block = work.pooled
    # one replicate's candidates, a cell each, standardized in place
    candidates, scratch = np.empty((len(rho_grid), 2 * n, set_size)), np.empty(2 * n * set_size)
    weights = np.ones(set_size)
    pvalues = np.empty((len(rho_grid), n_sim))
    start, m, j = 0, min(width, pvalues.size), 0  # the block's first cell, its size, cells drawn
    for rng in _replicate_streams(seed, n_sim):
        first = 0  # the replicate's first cell whose marker the block lacks
        for g, k in enumerate(k_invalid, 1):
            _draw(rng, dgp, n, n, k, set_size - k, sigma_valid, sigma_corr, block[j],
                  candidates[g - 1], scratch)
            j += 1
            if j == m or g == len(k_invalid):
                # cells first..g-1 hold rows j - (g - first)..j - 1 of the block
                _standardized_sum(candidates[first:g], n, weights,
                                  block[m + j - (g - first):m + j])
                first = g
            if j == m:
                u_y, tie_y, u, sigma = _gaps(design, block[:2 * m], n, m, work)
                epsilon = _margin(design.name, u_y, tie_y, n, n, config)
                test = _assemble(u_y - u, sigma, epsilon, config.alpha, config.mode)
                pvalues.T.flat[start:start + m] = test["p_value"]  # cell order: replicate, rho
                start, j = start + m, 0
                m = min(width, pvalues.size - start)
    return EvaluationExperiment(rho_grid=rho_grid, pvalues=pvalues)

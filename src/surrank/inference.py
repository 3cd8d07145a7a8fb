"""Non-inferiority and equivalence testing of a candidate surrogate.

A candidate is useful when the treatment effect it captures, on the
probability scale, falls short of the effect on the response by less
than a margin epsilon.  The one-sided test rejects H0: delta >= epsilon
for small delta; the equivalence (two one-sided tests) variant also
rejects H0: delta <= -epsilon, guarding against candidates that overstate
the effect.  The margin can be fixed by the caller or derived from the
response effect and the study size so that the test retains a target
power against a completely uninformative candidate.

Every test of markers against one response runs the same way: the
screening core (:func:`~surrank.variance._gaps`) gives U, the standard
error of each gap and which markers are flat, :func:`_margin` gives the
margin and :func:`_assemble` forms the p-values.  ``_assemble`` is the
one place p-values are formed, and it gives a flat marker, one value over
both blocks, p = 1.  :func:`_tests` is that path over a pooled block led
by one response row; :func:`surrogate_test` is its one-column case, so a
screening row equals the single test of its column bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigurationError
from .rankstats import UEstimate, _Design, _stack, _Workspace, normal_cdf, normal_quantile
from .variance import _gaps, null_u_variance

Mode = Literal["noninferiority", "tost"]


@dataclass(frozen=True)
class TestConfig:
    """Settings for a single surrogate test.

    ``epsilon=None`` derives the margin from the response effect via
    :func:`select_epsilon` using ``power``; a fixed ``epsilon`` ignores
    ``power``.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    alpha: float = 0.05
    power: float = 0.90
    epsilon: float | None = None
    mode: Mode = "noninferiority"

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise ConfigurationError(f"alpha must be in (0, 0.5), got {self.alpha}")
        if not 0.0 < self.power < 1.0:
            raise ConfigurationError(f"power must be in (0, 1), got {self.power}")
        if self.epsilon is not None:
            if not np.isfinite(self.epsilon) or self.epsilon < 0.0:
                raise ConfigurationError(f"epsilon must be >= 0, got {self.epsilon}")
            object.__setattr__(self, "epsilon", float(self.epsilon))
        if self.mode not in ("noninferiority", "tost"):
            raise ConfigurationError(f"mode must be 'noninferiority' or 'tost', got {self.mode!r}")


@dataclass(frozen=True)
class SurrogateTestResult:
    """Outcome of testing one candidate against the response."""

    u_response: float
    u_candidate: float
    delta: float
    sigma: float
    epsilon: float
    alpha: float
    mode: Mode
    p_value: float
    p_upper: float
    p_lower: float | None
    ci_lower: float
    ci_upper: float
    degenerate: bool

    @property
    def reject(self) -> bool:
        """True when the candidate passes at level alpha."""
        return self.p_value < self.alpha


def select_epsilon(u_response: UEstimate, n_a: int, n_b: int, *, alpha: float = 0.05,
                   power: float = 0.90) -> float:
    """Margin that keeps the stated power against an uninformative candidate.

    A candidate with no treatment effect has U near 1/2 with null variance
    determined by the design and the sizes of blocks a and b (the two arms,
    or the same units twice).  The margin is the response
    effect minus the largest candidate effect

        u_star = 1/2 + sqrt(null_var) * (z_power + z_{1-alpha})

    that the one-sided test would still flag with probability ``power``,
    floored at zero.
    """
    return float(_margin(u_response.design, u_response.value, u_response.tie_fraction,
                         n_a, n_b, TestConfig(alpha=alpha, power=power)))


def _margin(design: str, u_response, tie_fraction, n_a: int, n_b: int, config: TestConfig):
    """The fixed margin, or :func:`select_epsilon`'s rule per response effect and tie fraction."""
    if config.epsilon is not None:
        return config.epsilon
    var0 = null_u_variance(design, n_a, n_b, tie_fraction)
    z = normal_quantile(config.power) + normal_quantile(1.0 - config.alpha)
    return np.maximum(0.0, u_response - (0.5 + np.sqrt(var0) * z))


def _one_sided_p(delta: np.ndarray, sigma: np.ndarray, flat: np.ndarray, boundary: float,
                 upper: bool) -> np.ndarray:
    """P-values for H0: delta >= boundary (``upper``) or delta <= boundary.

    Where sigma is zero the estimate is treated as exact, and a value
    sitting on the boundary cannot count as evidence against H0.  A flat
    marker carries no evidence either way and gets p = 1.
    """
    spread = sigma > 0.0
    z = (delta - boundary) / np.where(spread, sigma, 1.0)
    beyond = delta < boundary if upper else delta > boundary
    p = np.where(spread, normal_cdf(z if upper else -z), np.where(beyond, 0.0, 1.0))
    return np.where(flat, 1.0, p)


def _assemble(delta: np.ndarray, sigma: np.ndarray, flat: np.ndarray, epsilon, alpha: float,
              mode: Mode) -> dict:
    """The test for arrays of gaps, standard errors and flat flags, at one margin or one per gap.

    The confidence interval has level 1 - 2*alpha, matching the decision
    rule: the non-inferiority test rejects exactly when the upper limit
    is below epsilon, and the equivalence test rejects exactly when the
    whole interval lies strictly inside (-epsilon, epsilon), up to the
    degenerate cases.  Those are flat markers (see :func:`_gaps`), which
    get p = 1 in both one-sided p-values, and gaps with zero standard error.
    """
    p_upper = _one_sided_p(delta, sigma, flat, epsilon, upper=True)
    p_lower = _one_sided_p(delta, sigma, flat, -epsilon, upper=False) if mode == "tost" else None
    half_width = normal_quantile(1.0 - alpha) * sigma
    return {
        "p_value": p_upper if p_lower is None else np.maximum(p_upper, p_lower),
        "p_upper": p_upper,
        "p_lower": p_lower,
        "ci_lower": delta - half_width,
        "ci_upper": delta + half_width,
        "degenerate": flat | (sigma == 0.0),
    }


def _tests(design: _Design, pooled: np.ndarray, n_a: int,
           config: TestConfig) -> tuple[SurrogateTestResult, ...]:
    """The test of each candidate row of a pooled block against its response row 0.

    ``pooled`` holds one variable per row, block a's n_a observations
    first.  All candidates share one margin: ``config.epsilon``, or the one
    derived from the response effect and the block sizes.
    """
    (u_y,), (tie_y,), u, sigma, flat = _gaps(design, pooled, n_a, 1, _Workspace(*pooled.shape))
    epsilon = _margin(design.name, u_y, tie_y, n_a, pooled.shape[1] - n_a, config)
    delta = u_y - u
    test = _assemble(delta, sigma, flat, epsilon, config.alpha, config.mode)
    p_lower = [None] * delta.size if test["p_lower"] is None else test["p_lower"].tolist()
    u_y, epsilon = u_y.item(), float(epsilon)
    return tuple(
        SurrogateTestResult(u_y, u_s, d, s, epsilon, config.alpha, config.mode,
                            p, upper, lower, low, high, degenerate)
        for u_s, d, s, p, upper, lower, low, high, degenerate in zip(
            u.tolist(), delta.tolist(), sigma.tolist(), test["p_value"].tolist(),
            test["p_upper"].tolist(), p_lower, test["ci_lower"].tolist(),
            test["ci_upper"].tolist(), test["degenerate"].tolist())
    )


def surrogate_test(response, candidate, config: TestConfig = TestConfig()) -> SurrogateTestResult:
    """Test one candidate surrogate against the response on the same units.

    Both arguments must be :class:`TwoArmSample` or both
    :class:`PairedSample`.  With ``config.epsilon=None`` the margin is
    derived from the response effect at the configured power.  A candidate
    with one value over both blocks is flat: it gets p = 1 and the
    degenerate flag, as its row in :func:`~surrank.pipeline.screen` does.
    """
    return _tests(*_stack(response, candidate), config)[0]

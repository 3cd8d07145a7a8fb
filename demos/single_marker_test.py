# single_marker_test.py
# Walk through the rank-based non-inferiority test for one candidate marker.
#
# The question: does ranking subjects by the candidate marker recover the
# treatment effect seen when ranking them by the primary response?  We
# compare the two Mann-Whitney effect estimates and test whether the gap
# stays below a margin.
#
# Run with:  python3 demos/single_marker_test.py

import numpy as np

from surrank import (
    TestConfig,
    TwoArmSample,
    select_epsilon,
    surrogate_test,
    u_statistic,
)

rng = np.random.default_rng(11)

# -----------------------------
# A small two-arm trial
# -----------------------------
# 40 treated and 40 control subjects.  The response shows a strong
# treatment effect; the marker is the response plus measurement noise,
# so it carries most of the same ordering information.
n1, n0 = 40, 40
response_treated = rng.normal(2.0, 1.0, size=n1)
response_control = rng.normal(0.0, 1.0, size=n0)
response = TwoArmSample(treated=response_treated, control=response_control)
marker = TwoArmSample(
    treated=response_treated + rng.normal(0.0, 0.8, size=n1),
    control=response_control + rng.normal(0.0, 0.8, size=n0),
)

u_response = u_statistic(response)
u_marker = u_statistic(marker)

print("Mann-Whitney effect estimates")
print(f"  response  u = {u_response.value:.4f}")
print(f"  marker    u = {u_marker.value:.4f}")
print(f"  gap delta = {u_response.value - u_marker.value:+.4f}")
print()

# -----------------------------
# Fixed-margin test
# -----------------------------
# With a hand-picked margin of 0.10 we ask: is the marker's effect within
# 0.10 of the response's effect?  The one-sided p-value is small when the
# observed gap sits comfortably below the margin.
fixed = surrogate_test(response, marker, TestConfig(alpha=0.05, epsilon=0.10))
print("Fixed margin 0.10, one-sided")
print(f"  delta = {fixed.delta:+.4f}  sigma = {fixed.sigma:.4f}")
print(f"  p = {fixed.p_value:.4g}  reject = {fixed.reject}")
print()

# -----------------------------
# Adaptive margin
# -----------------------------
# Instead of picking the margin by hand, derive it from the response's own
# effect: the margin is the room between the observed response effect and
# the weakest effect a test at the stated power could still detect.  A
# strong response leaves a generous margin; a marginal response leaves
# almost none.
adaptive = surrogate_test(response, marker, TestConfig(alpha=0.05, power=0.90))
print("Adaptive margin from the response effect")
print(f"  epsilon = {adaptive.epsilon:.4f}")
print(f"  p = {adaptive.p_value:.4g}  reject = {adaptive.reject}")
print()

# The margin can be reproduced directly from the response estimate and the
# sizes of the two blocks (here the two arms).
epsilon = select_epsilon(u_response, n1, n0, alpha=0.05, power=0.90)
print(f"  select_epsilon agrees: {epsilon:.4f}")
print()

# -----------------------------
# Two-sided (equivalence) mode
# -----------------------------
# The two one-sided tests mode also rules out the marker *overshooting*
# the response effect by more than the margin.  Its p-value is the worse
# of the two one-sided tests, and the reported confidence interval has the
# matching coverage: the test rejects exactly when the interval falls
# strictly inside (-epsilon, +epsilon).
tost = surrogate_test(response, marker, TestConfig(alpha=0.05, power=0.90, mode="tost"))
print("Two one-sided tests (equivalence) mode")
print(f"  epsilon = {tost.epsilon:.4f}")
print(f"  CI = [{tost.ci_lower:+.4f}, {tost.ci_upper:+.4f}]")
print(f"  p = {tost.p_value:.4g}  reject = {tost.reject}")
inside = -tost.epsilon < tost.ci_lower and tost.ci_upper < tost.epsilon
print(f"  CI strictly inside (-eps, +eps): {inside}  (matches reject)")
print()

# -----------------------------
# A marker that should fail
# -----------------------------
# Pure noise carries no ordering information, so its effect estimate sits
# near 0.5 and the gap to the response effect dwarfs any sensible margin.
noise = TwoArmSample(
    treated=rng.normal(0.0, 1.0, size=n1),
    control=rng.normal(0.0, 1.0, size=n0),
)
bad = surrogate_test(response, noise, TestConfig(alpha=0.05, power=0.90))
print("Noise marker, same adaptive margin")
print(f"  delta = {bad.delta:+.4f}  p = {bad.p_value:.4g}  reject = {bad.reject}")

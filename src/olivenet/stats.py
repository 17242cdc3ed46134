"""Two-sample comparison of hyperparameter configurations via a t-test.

Given the per-fold MAE lists of two cross-validation runs over the same
oils, the pooled deviation

    S_P = sqrt( ((N-1) Var_1 + (N-1) Var_2) / (2N - 2) )

and the statistic

    T = (mean_1 - mean_2) / (S_P * sqrt(2 / N))

decide whether the two mean MAE values differ: the equal-means hypothesis
is rejected when T exceeds the upper-tail quantile t_alpha(2N - 2).  The
rejection rule is one-sided by default; a two-sided variant is available
behind a flag.

The t quantile is computed here from first principles (continued-fraction
regularized incomplete beta plus bisection) rather than taken from a
library, so it can be validated independently against table values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class TTestReport:
    mean1: float
    mean2: float
    var1: float
    var2: float
    n_oil: int
    s_p: float
    t_value: float
    dof: int
    alpha: float
    t_critical: float
    reject_equal_means: bool
    two_sided: bool = False

    def __post_init__(self):
        if self.s_p < 0 or self.dof < 1:
            raise ValueError("inconsistent report fields")


def pooled_sd(var1: float, var2: float, n_oil: int) -> float:
    """Pooled deviation of two equal-size samples of n_oil values each.

    With equal sizes the weights collapse and S_P = sqrt((var1 + var2)/2).
    """
    if n_oil < 2:
        raise ValueError("pooled deviation needs n_oil >= 2")
    if var1 < 0 or var2 < 0:
        raise ValueError("variances must be nonnegative")
    dof = 2 * n_oil - 2
    return math.sqrt((n_oil - 1) * var1 / dof + (n_oil - 1) * var2 / dof)


def t_statistic(mean1: float, mean2: float, s_p: float, n_oil: int) -> float:
    """Signed statistic (mean1 - mean2) / (S_P * sqrt(2/n_oil))."""
    if n_oil < 2:
        raise ValueError("t statistic needs n_oil >= 2")
    if s_p < 0:
        raise ValueError("pooled deviation must be nonnegative")
    if s_p == 0.0:
        if mean1 == mean2:
            return 0.0
        raise ValueError("zero dispersion but unequal means")
    return (mean1 - mean2) / (s_p * math.sqrt(2.0 / n_oil))


# -- regularized incomplete beta (continued fraction, Lentz's method) -------

_CF_EPS = 3e-16
_CF_FPMIN = 1e-300
_CF_MAXIT = 500


def _betacf(a: float, b: float, x: float) -> float:
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
          + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_upper_tail(t: float, dof: int) -> float:
    """P(T >= t) for Student's t with ``dof`` degrees of freedom, t >= 0."""
    if t < 0:
        raise ValueError("upper tail defined here for t >= 0")
    if t == 0.0:
        return 0.5
    return 0.5 * reg_inc_beta(dof / (dof + t * t), dof / 2.0, 0.5)


def t_critical(alpha: float, dof: int) -> float:
    """Upper-tail quantile: the t with P(T >= t) = alpha, for alpha < 0.5.

    Solved by bisection on the tail probability; the bracket is grown by
    doubling.  Accuracy is well below the 1e-6 the callers need.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 0.5)")
    if dof < 1:
        raise ValueError("dof must be at least 1")
    lo, hi = 0.0, 1.0
    while t_upper_tail(hi, dof) > alpha:
        lo = hi
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("quantile bracket failed")
    while hi - lo > 1e-9 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if t_upper_tail(mid, dof) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def compare_configs(
    mae_list_1,
    mae_list_2,
    alpha: float = 0.05,
    *,
    two_sided: bool = False,
) -> TTestReport:
    """Decide whether two runs' per-fold MAE values have different means.

    One-sided by default, exactly as stated alongside the formulas above:
    reject when T > t_alpha(2N-2).  With ``two_sided`` the threshold becomes
    t_{alpha/2} and |T| is compared.
    """
    a1 = np.asarray(mae_list_1, dtype=float)
    a2 = np.asarray(mae_list_2, dtype=float)
    if a1.shape != a2.shape or a1.ndim != 1:
        raise ValueError(f"MAE lists disagree: {a1.shape} vs {a2.shape}")
    n = a1.size
    if n < 2:
        raise ValueError("need at least 2 folds per run")
    mean1, mean2 = float(a1.mean()), float(a2.mean())
    var1, var2 = float(a1.var(ddof=1)), float(a2.var(ddof=1))
    s_p = pooled_sd(var1, var2, n)
    t = t_statistic(mean1, mean2, s_p, n)
    dof = 2 * n - 2
    crit = t_critical(alpha / 2.0 if two_sided else alpha, dof)
    reject = (abs(t) if two_sided else t) > crit
    return TTestReport(
        mean1=mean1, mean2=mean2, var1=var1, var2=var2, n_oil=n,
        s_p=s_p, t_value=t, dof=dof, alpha=alpha, t_critical=crit,
        reject_equal_means=reject, two_sided=two_sided,
    )


def report_text(report: TTestReport) -> str:
    """Human/machine-readable rendering of a comparison verdict."""
    mode = "two-sided" if report.two_sided else "one-sided"
    lines = [
        "t-test: equality of mean MAE",
        f"n_oil = {report.n_oil}",
        f"mean_1 = {report.mean1!r}",
        f"mean_2 = {report.mean2!r}",
        f"var_1 = {report.var1!r}",
        f"var_2 = {report.var2!r}",
        f"pooled_sd = {report.s_p!r}",
        f"t_value = {report.t_value!r}",
        f"dof = {report.dof}",
        f"alpha = {report.alpha!r} ({mode})",
        f"t_critical = {report.t_critical!r}",
        f"reject_equal_means = {str(report.reject_equal_means).lower()}",
    ]
    return "\n".join(lines) + "\n"

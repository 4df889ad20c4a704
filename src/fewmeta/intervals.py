"""Confidence interval constructions and Student-t quantile machinery.

Six methods are provided: a plug-in normal approximation, the
Hartung-Knapp-Sidik-Jonkman t-interval and its truncated modification,
a leverage-penalized robust-variance t-interval, and two t-intervals
around the common-effect estimate using a Henmi-Copas-type variance with
hybrid heterogeneity estimates and flexible degrees of freedom.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import MetaDataset, ValidationError
from .estimators import (
    SUBGROUP_SIDE,
    mu_ce,
    mu_re,
    study_arrays,
    subgroup_arrays,
    tau2_dl,
    tau2_max,
)

NORMAL = "NORMAL"
HKSJ = "HKSJ"
MKH = "MKH"
ZH = "ZH"
HCS_MAX1 = "HCS_MAX1"
HCS_MAX2 = "HCS_MAX2"

CI_METHODS = (NORMAL, HKSJ, MKH, ZH, HCS_MAX1, HCS_MAX2)


@dataclass(frozen=True)
class CIMethodConfig:
    level: float = 0.95
    zh_penalty_c: int = 2

    def __post_init__(self):
        if not (0.0 < self.level < 1.0):
            raise ValidationError("confidence level must be in (0, 1)")
        if self.zh_penalty_c < 0:
            raise ValidationError("ZH penalty exponent must be >= 0")


@dataclass(frozen=True)
class IntervalResult:
    method: str
    point: float
    variance: float
    df: Optional[int]
    lower: float
    upper: float
    level: float
    tau2: float = 0.0
    fallback: bool = False

    @property
    def width(self) -> float:
        return self.upper - self.lower


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

_TINY = 1e-300
_QUANTILE_TOL = 1e-10
# Distinct (df, p) pairs kept by the quantile caches. A report or a
# simulation scenario needs at most two; the bound keeps memory fixed
# whatever levels a long-running process is asked for.
_QUANTILE_CACHE_SIZE = 256


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified
    Lentz's method)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), computed via the continued fraction representation."""
    if not (a > 0 and b > 0):
        raise ValidationError("incomplete beta: a, b must be > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """Central Student-t distribution function."""
    if df <= 0:
        raise ValidationError("student_t_cdf: df must be positive")
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return 1.0 - tail if t >= 0 else tail


def t_quantile(df: int, p: float) -> float:
    """Quantile of the central Student-t distribution.

    Inverts the regularized incomplete beta representation of the CDF by
    bisection to an absolute tolerance of 1e-10. Each distinct (df, p)
    with p > 0.5 is computed once per process and then served from a
    bounded cache.
    """
    if df < 1:
        raise ValidationError("t_quantile: df must be >= 1")
    if not (0.0 < p < 1.0):
        raise ValidationError("t_quantile: p must be in (0, 1)")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(df, 1.0 - p)
    return _t_upper_quantile(df, p)


@functools.lru_cache(maxsize=_QUANTILE_CACHE_SIZE)
def _t_upper_quantile(df, p):
    """Bracket-and-bisection for the t quantile at p > 0.5 (arguments
    already checked by t_quantile)."""
    lo, hi = 0.0, 2.0
    while student_t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e100:
            raise ArithmeticError("t_quantile: bracket expansion failed")
    while hi - lo > _QUANTILE_TOL:
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def normal_quantile(p: float) -> float:
    """Standard normal quantile, by bisection on the erf-based CDF; each
    distinct p > 0.5 is computed once per process."""
    if not (0.0 < p < 1.0):
        raise ValidationError("normal_quantile: p must be in (0, 1)")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -normal_quantile(1.0 - p)
    return _normal_upper_quantile(p)


@functools.lru_cache(maxsize=_QUANTILE_CACHE_SIZE)
def _normal_upper_quantile(p):
    """Bracket-and-bisection for the normal quantile at p > 0.5."""
    lo, hi = 0.0, 2.0
    cdf = lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    while cdf(hi) < p:
        hi *= 2.0
    while hi - lo > _QUANTILE_TOL:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# variance cores (broadcastable; last axis runs over studies)
# ---------------------------------------------------------------------------

def hksj_scale(y, se, tau2):
    """Random-effects mean, model variance and the HKSJ scale factor q.

    q is the weighted residual mean square under random-effects weights,
    q = sum w_i (y_i - mu_RE)^2 / (k - 1).
    """
    y = np.asarray(y, dtype=float)
    se = np.asarray(se, dtype=float)
    k = y.shape[-1]
    if k < 2:
        raise ValidationError("hksj_scale: at least 2 studies required")
    mu, var = mu_re(y, se, tau2)
    t2 = np.asarray(tau2, dtype=float)
    t2 = t2[..., None] if t2.ndim else t2
    w = 1.0 / (se ** 2 + t2)
    q = np.sum(w * (y - mu[..., None]) ** 2, axis=-1) / (k - 1)
    return mu, var, q


def zh_variance(y, se, tau2, c=2):
    """Leverage-penalized robust variance of the random-effects mean."""
    y = np.asarray(y, dtype=float)
    se = np.asarray(se, dtype=float)
    mu, _ = mu_re(y, se, tau2)
    t2 = np.asarray(tau2, dtype=float)
    t2 = t2[..., None] if t2.ndim else t2
    w = 1.0 / (se ** 2 + t2)
    sw = np.sum(w, axis=-1)
    leverage = w / sw[..., None]
    terms = w ** 2 * (y - mu[..., None]) ** 2 * (1.0 - leverage) ** (-c)
    return mu, np.sum(terms, axis=-1) / sw ** 2


def variance_hcs(tau2, w):
    """Henmi-Copas-type variance of the common-effect estimator:
    (tau2 * sum w^2 + sum w) / (sum w)^2, with common-effect weights w."""
    tau2 = np.asarray(tau2, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.any(tau2 < 0):
        raise ValidationError("variance_hcs: tau2 must be >= 0")
    if np.any(w <= 0):
        raise ValidationError("variance_hcs: weights must be positive")
    sw = np.sum(w, axis=-1)
    sw2 = np.sum(w ** 2, axis=-1)
    return (tau2 * sw2 + sw) / sw ** 2


# ---------------------------------------------------------------------------
# interval constructions
# ---------------------------------------------------------------------------

def _interval(method, point, variance, df, quantile, level, tau2, fallback=False):
    half = quantile * math.sqrt(variance)
    return IntervalResult(
        method=method,
        point=float(point),
        variance=float(variance),
        df=df,
        lower=float(point - half),
        upper=float(point + half),
        level=level,
        tau2=float(tau2),
        fallback=fallback,
    )


def ci_normal(y, se, level=0.95) -> IntervalResult:
    """Normal-approximation interval with plug-in DL heterogeneity."""
    est = tau2_dl(y, se)
    mu, var = mu_re(y, se, est.tau2)
    z = normal_quantile(0.5 + level / 2.0)
    return _interval(NORMAL, mu, var, None, z, level, est.tau2)


def ci_hksj(y, se, level=0.95) -> IntervalResult:
    """HKSJ t-interval: variance scaled by q, k-1 degrees of freedom."""
    est = tau2_dl(y, se)
    mu, var, q = hksj_scale(y, se, est.tau2)
    k = np.asarray(y).shape[-1]
    t = t_quantile(k - 1, 0.5 + level / 2.0)
    return _interval(HKSJ, mu, q * var, k - 1, t, level, est.tau2)


def ci_mkh(y, se, level=0.95) -> IntervalResult:
    """Modified Knapp-Hartung: the scale factor is truncated at one."""
    est = tau2_dl(y, se)
    mu, var, q = hksj_scale(y, se, est.tau2)
    k = np.asarray(y).shape[-1]
    t = t_quantile(k - 1, 0.5 + level / 2.0)
    return _interval(MKH, mu, max(1.0, float(q)) * var, k - 1, t, level, est.tau2)


def ci_zh(y, se, level=0.95, c=2) -> IntervalResult:
    """Robust-variance t-interval with leverage penalty exponent c."""
    est = tau2_dl(y, se)
    mu, var = zh_variance(y, se, est.tau2, c)
    k = np.asarray(y).shape[-1]
    t = t_quantile(k - 1, 0.5 + level / 2.0)
    return _interval(ZH, mu, var, k - 1, t, level, est.tau2)


def ci_hcs(dataset: MetaDataset, variant: int, level=0.95) -> IntervalResult:
    """Common-effect t-interval with Henmi-Copas-type variance.

    Uses the hybrid heterogeneity estimate (variant 1 or 2). Degrees of
    freedom are k-1 when the study-level estimate wins the maximum and
    2k-1 when the subgroup-level estimate wins. Datasets without a full
    subgroup selection fall back to study-level data with the DL estimate
    and k-1 degrees of freedom.
    """
    dataset.require_k2()
    k = dataset.k
    method = HCS_MAX1 if variant == 1 else HCS_MAX2
    y_stu, se_stu = study_arrays(dataset)
    if not dataset.fully_selected:
        est = tau2_dl(y_stu, se_stu)
        w = se_stu ** -2.0
        mu = mu_ce(y_stu, w)
        var = variance_hcs(est.tau2, w)
        t = t_quantile(k - 1, 0.5 + level / 2.0)
        return _interval(method, mu, var, k - 1, t, level, est.tau2, fallback=True)

    est = tau2_max(dataset, variant)
    y_sub, se_sub, _ = subgroup_arrays(dataset)
    w_arm = se_sub ** -2.0
    w = np.sum(w_arm, axis=-1)  # per-study common-effect weights
    mu = np.sum(w_arm * y_sub) / np.sum(w_arm)
    var = variance_hcs(est.tau2, w)
    df = 2 * k - 1 if est.winner == SUBGROUP_SIDE else k - 1
    t = t_quantile(df, 0.5 + level / 2.0)
    return _interval(method, mu, var, df, t, level, est.tau2)


def run_all_methods(dataset: MetaDataset, config: CIMethodConfig = CIMethodConfig()):
    """Run every interval method on a dataset.

    Returns (results, errors): results in a fixed deterministic order,
    errors keyed by method tag for any method that raised.
    """
    dataset.require_k2()
    y, se = study_arrays(dataset)
    results, errors = [], {}
    runners = [
        (NORMAL, lambda: ci_normal(y, se, config.level)),
        (HKSJ, lambda: ci_hksj(y, se, config.level)),
        (MKH, lambda: ci_mkh(y, se, config.level)),
        (ZH, lambda: ci_zh(y, se, config.level, config.zh_penalty_c)),
        (HCS_MAX1, lambda: ci_hcs(dataset, 1, config.level)),
        (HCS_MAX2, lambda: ci_hcs(dataset, 2, config.level)),
    ]
    for tag, fn in runners:
        try:
            results.append(fn())
        except (ValidationError, ArithmeticError) as exc:
            errors[tag] = str(exc)
    return results, errors

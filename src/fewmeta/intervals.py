"""Confidence interval constructions and Student-t quantile machinery.

Six methods are provided: a plug-in normal approximation, the
Hartung-Knapp-Sidik-Jonkman t-interval and its truncated modification,
a leverage-penalized robust-variance t-interval, and two t-intervals
around the common-effect estimate using a Henmi-Copas-type variance with
hybrid heterogeneity estimates and flexible degrees of freedom.

One kernel, meta_kernel, computes the five tau^2 estimates and all six
intervals for a batch of R datasets; the Monte Carlo harness calls it on a
scenario's replicates. A single dataset runs the same code without the
replicate axis (dataset_kernel), and run_all_methods, all_tau2 and the
report build their records from its 0-d results. Studies, random effects
and arms are each pooled once per batch; hksj_scale, zh_variance and
variance_hcs call the same pieces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .data import MetaDataset, ValidationError
from .estimators import (
    DL,
    DLS,
    DLS_ADJ,
    MAX1,
    MAX2,
    STUDY_SIDE,
    SUBGROUP_SIDE,
    HeterogeneityEstimate,
    _arm_weights,
    _check_ce_weights,
    _dl,
    _dls,
    _pool,
    _re_pool,
    _require_k2,
    _shrinkage_a,
    _sum,
    study_arrays,
    subgroup_arrays,
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

    Inverts the regularized incomplete beta representation of the upper
    tail, P(T > t) = student_t_cdf(-t), by bisection to an absolute
    tolerance of 1e-10. Each distinct (df, p) with p > 0.5 is computed once
    per process and then served from a bounded cache.
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
    """The t quantile at p > 0.5 (arguments already checked by t_quantile)."""
    return _upper_quantile(lambda t: -student_t_cdf(-t, df), p - 1.0)


def normal_quantile(p: float) -> float:
    """Standard normal quantile, by bisection on the erfc-based upper tail;
    each distinct p > 0.5 is computed once per process."""
    if not (0.0 < p < 1.0):
        raise ValidationError("normal_quantile: p must be in (0, 1)")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -normal_quantile(1.0 - p)
    return _normal_upper_quantile(p)


@functools.lru_cache(maxsize=_QUANTILE_CACHE_SIZE)
def _normal_upper_quantile(p):
    """The normal quantile at p > 0.5."""
    return _upper_quantile(lambda z: -0.5 * math.erfc(z / math.sqrt(2.0)), p - 1.0)


def _upper_quantile(f, target):
    """Bracket-and-bisection on t >= 0 for where the increasing f reaches
    target, to an absolute tolerance of _QUANTILE_TOL, or to adjacent doubles
    where the point is too large for that tolerance. The quantiles pass minus
    the upper tail and p - 1 (exact for p >= 0.5): unlike the CDF against p,
    the tails keep their relative precision as p approaches 1."""
    lo, hi = 0.0, 2.0
    while f(hi) < target:
        hi *= 2.0
        if hi > 1e100:
            raise ArithmeticError("quantile: bracket expansion failed")
    while hi - lo > _QUANTILE_TOL:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) < target:
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
    k = np.shape(y)[-1]
    _require_k2(k, "hksj_scale")
    re = _re_pool(y, se, tau2)
    return re.mu, 1.0 / re.sw, re.q() / (k - 1)


def zh_variance(y, se, tau2, c=2):
    """Leverage-penalized robust variance of the random-effects mean."""
    re = _re_pool(y, se, tau2)
    return re.mu, _zh_variance(re, c)


def _zh_variance(re, c):
    leverage = re.w / re.sw[..., None]
    terms = re.w ** 2 * re.dev2 * (1.0 - leverage) ** (-c)
    return _sum(terms) / np.square(re.sw)


def variance_hcs(tau2, w):
    """Henmi-Copas-type variance of the common-effect estimator:
    (tau2 * sum w^2 + sum w) / (sum w)^2, with common-effect weights w."""
    w, tau2 = np.asarray(w, dtype=float), np.asarray(tau2, dtype=float)
    return _variance_hcs(tau2, w, _sum(w), _sum(w ** 2))


def _variance_hcs(tau2, w, sw, sw2):
    """variance_hcs, given sum w (sw) and sum w^2 (sw2)."""
    if np.any(tau2 < 0):
        raise ValidationError("variance_hcs: tau2 must be >= 0")
    if np.any(w <= 0):
        raise ValidationError("variance_hcs: weights must be positive")
    return (tau2 * sw2 + sw) / np.square(sw)


# ---------------------------------------------------------------------------
# the kernel: tau^2 and all six intervals over a batch of R datasets
# ---------------------------------------------------------------------------

class BatchInterval(NamedTuple):
    """One interval method over a batch, as (R,) arrays. df is None for the
    normal interval; tau2 is the heterogeneity estimate plugged in."""

    point: np.ndarray
    variance: np.ndarray
    df: Optional[np.ndarray]
    lower: np.ndarray
    upper: np.ndarray
    tau2: np.ndarray


@dataclass(frozen=True)
class KernelResult:
    """Everything meta_kernel computes for a batch of R datasets.

    tau2 and tau2_raw map each estimator (only DL without arms) to its
    truncated and untruncated (R,) values; for MAX1 and MAX2 the raw value
    is the winning side's. subgroup_wins maps MAX1 and MAX2 to (R,) masks.
    intervals maps each CI method, in CI_METHODS order, to a BatchInterval.
    errors maps every estimator or method that could not be computed to the
    message of the first quantity it needs that failed; its arrays hold NaN.
    For one dataset (no replicate axis, 0-d values), `estimates` and
    `interval_results` give the records.
    """

    tau2: dict
    tau2_raw: dict
    subgroup_wins: dict
    intervals: dict
    errors: dict
    level: float
    fallback: bool

    def estimates(self) -> dict:
        """The HeterogeneityEstimates of a one-dataset result, keyed by method
        tag. Raises ValidationError for the first estimate that could not
        be computed."""
        estimates = {}
        for tag in self.tau2:
            if tag in self.errors:
                raise ValidationError(self.errors[tag])
            tau2 = float(self.tau2[tag])
            wins = self.subgroup_wins.get(tag)
            winner = None if wins is None else SUBGROUP_SIDE if wins else STUDY_SIDE
            estimates[tag] = HeterogeneityEstimate(
                tag, tau2, float(self.tau2_raw[tag]), tau2 == 0.0, winner
            )
        return estimates

    def interval_results(self):
        """(results, errors) of a one-dataset result: IntervalResults in
        CI_METHODS order for the methods that succeeded, and the error
        messages of the others keyed by method tag."""
        results, errors = [], {}
        for method, ci in self.intervals.items():
            if method in self.errors:
                errors[method] = self.errors[method]
                continue
            results.append(IntervalResult(
                method, float(ci.point), float(ci.variance),
                None if ci.df is None else int(ci.df),
                float(ci.lower), float(ci.upper), self.level, float(ci.tau2),
                fallback=self.fallback and method in (HCS_MAX1, HCS_MAX2),
            ))
        return results, errors


def meta_kernel(y, se, y_sub=None, se_sub=None, level=0.95, c=2, *,
                arm_weights=None) -> KernelResult:
    """All five tau^2 estimates and all six intervals for R datasets at once.

    y, se: (R, k) study rows; y_sub, se_sub: (R, k, 2) arms of the selected
    splits (one dataset: (k,) and (k, 2)); c: the ZH leverage exponent. DL feeds NORMAL, HKSJ, MKH and ZH.
    MAX1 (MAX2) is the larger of DL and DLS (DLS_ADJ); it feeds the
    Henmi-Copas-type variance around the common-effect mean, and the side
    that wins sets the HCS degrees of freedom: k-1 for the study side, which
    also takes exact ties, 2k-1 for the subgroup side. Without arms
    (y_sub=None) only DL is estimated and both HCS intervals fall back to the
    study-level common effect with DL and k-1 degrees of freedom. Weights,
    sums and means are pooled once per batch at each level: studies, random
    effects and arms. arm_weights is estimators._arm_weights(se_sub), for a
    caller that already holds it (the simulation aggregates its study rows
    from the same weights).
    """
    k = y.shape[-1]
    _require_k2(k, "meta_kernel")
    failed = {}

    def attempt(name, fn, *args):
        try:
            return fn(*args)
        except ValidationError as exc:
            failed[name] = str(exc)
            return np.full(y.shape[:-1], np.nan)

    study = _pool(y, se ** -2.0)
    sw2 = _sum(study.w ** 2)
    raw = {DL: attempt(DL, _dl, y, study, sw2)}
    tau2 = {DL: np.maximum(0.0, raw[DL])}
    needs = dict.fromkeys((DL,) + CI_METHODS, (DL,))
    wins = {}
    p_upper = 0.5 + level / 2.0
    t_lo = t_quantile(k - 1, p_upper)
    df_lo = np.full(y.shape[:-1], k - 1)
    re = _re_pool(y, se, tau2[DL])
    var = 1.0 / re.sw  # the model variance of the random-effects mean
    q = re.q() / (k - 1)

    def interval(point, variance, df, quantile, t2):
        half = quantile * np.sqrt(variance)
        return BatchInterval(point, variance, df, point - half, point + half, t2)

    intervals = {
        NORMAL: interval(re.mu, var, None, normal_quantile(p_upper), tau2[DL]),
        HKSJ: interval(re.mu, q * var, df_lo, t_lo, tau2[DL]),
        MKH: interval(re.mu, np.maximum(1.0, q) * var, df_lo, t_lo, tau2[DL]),
        ZH: interval(re.mu, _zh_variance(re, c), df_lo, t_lo, tau2[DL]),
    }
    if y_sub is None:
        _check_ce_weights(y, study.w)
        intervals[HCS_MAX1] = intervals[HCS_MAX2] = interval(
            study.mu, _variance_hcs(tau2[DL], study.w, study.sw, sw2), df_lo, t_lo, tau2[DL]
        )
    else:
        w_sub, w = _arm_weights(se_sub) if arm_weights is None else arm_weights
        arms = _pool(y_sub, w_sub, (-2, -1))
        arms_sw2 = _sum(arms.w ** 2, (-2, -1))
        raw[DLS] = attempt(DLS, _dls, arms, arms_sw2)
        a = attempt("A", lambda: _shrinkage_a(arms.w, arms.sw, arms_sw2)[0])
        tau2[DLS] = np.maximum(0.0, raw[DLS])
        tau2[DLS_ADJ] = raw[DLS_ADJ] = tau2[DLS] / a
        needs.update({DLS: (DLS,), DLS_ADJ: ("A", DLS)})
        t_hi = t_quantile(2 * k - 1, p_upper)
        w_sums = (w, _sum(w), _sum(w ** 2))  # per-study common-effect weights
        for tag, side, method in ((MAX1, DLS, HCS_MAX1), (MAX2, DLS_ADJ, HCS_MAX2)):
            wins[tag] = tau2[side] > tau2[DL]
            tau2[tag] = np.maximum(tau2[DL], tau2[side])
            raw[tag] = np.where(wins[tag], raw[side], raw[DL])
            needs[tag] = needs[method] = (DL,) + needs[side]
            df = np.where(wins[tag], 2 * k - 1, k - 1)
            t = np.where(wins[tag], t_hi, t_lo)
            variance = _variance_hcs(tau2[tag], *w_sums)
            intervals[method] = interval(arms.mu, variance, df, t, tau2[tag])
    errors = {
        tag: next(failed[d] for d in deps if d in failed)
        for tag, deps in needs.items()
        if any(d in failed for d in deps)
    }
    return KernelResult(tau2, raw, wins, intervals, errors, level, y_sub is None)


# ---------------------------------------------------------------------------
# one dataset: the kernel without a replicate axis
# ---------------------------------------------------------------------------

def dataset_kernel(dataset: MetaDataset, config: CIMethodConfig = CIMethodConfig()) -> KernelResult:
    """The kernel on one dataset: its (k,) study rows, plus its (k, 2)
    selected arms when every study has a selection (otherwise the HCS
    fallback). With no replicate axis the kernel's study and arm sums are
    numpy scalars, which cost less to add than one-element arrays; the
    values are those of the same rows in a batch, bit for bit."""
    dataset.require_k2()
    y, se = study_arrays(dataset)
    arms = subgroup_arrays(dataset)[:2] if dataset.fully_selected else ()
    return meta_kernel(y, se, *arms, level=config.level, c=config.zh_penalty_c)


def all_tau2(dataset: MetaDataset) -> dict:
    """All five heterogeneity estimates, keyed by method tag.

    Subgroup-based entries are omitted when the dataset carries no
    selected splits.
    """
    return dataset_kernel(dataset).estimates()


def run_all_methods(dataset: MetaDataset, config: CIMethodConfig = CIMethodConfig()):
    """Run every interval method on a dataset.

    Returns (results, errors): results in a fixed deterministic order,
    errors keyed by method tag for any method that could not be computed.
    """
    return dataset_kernel(dataset, config).interval_results()

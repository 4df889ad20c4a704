"""Confidence interval constructions and Student-t quantile machinery.

Six methods are provided: a plug-in normal approximation, the
Hartung-Knapp-Sidik-Jonkman t-interval and its truncated modification,
a leverage-penalized robust-variance t-interval, and two t-intervals
around the common-effect estimate using a Henmi-Copas-type variance with
hybrid heterogeneity estimates and flexible degrees of freedom.

One kernel, meta_kernel, computes the five tau^2 estimates and all six
intervals for a batch of R datasets, in float64, laying a batch out once, at
entry (estimators._laid_out); the Monte Carlo harness calls it on a
scenario's replicates, passing their arms alone: the kernel aggregates the
study rows from the arm weights it pools the arms with. A single dataset
runs the same code without the replicate axis (dataset_kernel, which
reads the study rows and the selected splits' arms from the dataset's
table), whose 0-d results run_all_methods and the report read.
Studies, random effects and arms are each pooled once per batch;
hksj_scale and variance_hcs call the same pieces. hksj_scale rejects a zero
weight (se = inf); in the kernel, DL rejects it. Both HCS variants share one
weight check and one sum w, sum w^2 and (sum w)^2 (_hcs_sums); their tau2,
a maximum with 0, needs no check.

t_quantile and normal_quantile share one front end, _quantile: the p check,
0 at p = 0.5 and the symmetry below it. Each caches only its upper quantile.
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
    _check_ce_weights,
    _dl,
    _dls,
    _laid_out,
    _least,
    _pool,
    _re_weights,
    _require_two_studies,
    _shrinkage_a,
    _sum,
    _weights,
)

NORMAL = "NORMAL"
HKSJ = "HKSJ"
MKH = "MKH"
ZH = "ZH"
HCS_MAX1 = "HCS_MAX1"
HCS_MAX2 = "HCS_MAX2"

CI_METHODS = (NORMAL, HKSJ, MKH, ZH, HCS_MAX1, HCS_MAX2)


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


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

_TINY = 1e-300
_QUANTILE_TOL = 1e-10
# Distinct (df, p) pairs kept by the quantile caches. A report or a
# simulation scenario needs at most two; the bound keeps memory fixed
# whatever levels a long-running process is asked for.
_QUANTILE_CACHE_SIZE = 256
# The largest df of the t functions: within 1e-8 of scipy up to it, 3.5e-6
# off at 1e9 and 0.21 at 1e15. No command exceeds it (2k - 1 < 5e6).
_MAX_DF = 10 ** 7
# Most terms of the incomplete beta continued fraction. It needs about
# 2 sqrt(max(a, b)) of them near x = a / (a + b), 1091 at a = b = 1e7; the
# cap grows so, from 300, and inputs that converge within 300 terms stop
# where they always did.
_BETACF_MAX_TERMS = 10_000


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified
    Lentz's method)."""
    terms = int(min(_BETACF_MAX_TERMS, 300 + 2.0 * math.sqrt(max(a, b))))
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, terms):
        m2 = 2 * m
        # the step's even partial numerator, then its odd one
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
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
    """I_x(a, b), computed via the continued fraction representation.

    The lgamma front factor loses relative precision as a and b grow: with
    b = 0.5, the worst error against scipy.special.betainc over 2000 random
    (a, x) was 3e-14 for a <= 10, 2e-9 for a <= 1e5 and 3e-7 for a <= 1e7.
    With a and b both large it loses more: I_0.5(a, a) reads 0.5 + 1.5e-8 at
    a = 5e6. fewmeta calls it only with b = 0.5.
    """
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
    """Central Student-t distribution function, for 0 < df <= 1e7."""
    if df <= 0:
        raise ValidationError("student_t_cdf: df must be positive")
    if df > _MAX_DF:
        raise ValidationError(f"student_t_cdf: df must be <= {_MAX_DF}")
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return 1.0 - tail if t >= 0 else tail


def _quantile(name, p, upper, *args):
    """The quantile at p of a distribution symmetric about 0, from upper(*args,
    q), its quantile at q > 0.5; `name` is the caller, named in the p check."""
    if not (0.0 < p < 1.0):
        raise ValidationError(f"{name}: p must be in (0, 1)")
    if p == 0.5:
        return 0.0
    return upper(*args, p) if p > 0.5 else -upper(*args, 1.0 - p)


def t_quantile(df: int, p: float) -> float:
    """Quantile of the central Student-t distribution.

    Inverts the regularized incomplete beta representation of the upper
    tail, P(T > t) = student_t_cdf(-t), by bisection to an absolute
    tolerance of 1e-10, for 1 <= df <= 1e7. Each distinct (df, p) with
    p > 0.5 is computed once per process and then served from a bounded cache.
    """
    if df < 1:
        raise ValidationError("t_quantile: df must be >= 1")
    if df > _MAX_DF:
        raise ValidationError(f"t_quantile: df must be <= {_MAX_DF}")
    return _quantile("t_quantile", p, _t_upper_quantile, df)


@functools.lru_cache(maxsize=_QUANTILE_CACHE_SIZE)
def _t_upper_quantile(df, p):
    """The t quantile at p > 0.5 (arguments already checked by t_quantile)."""
    return _upper_quantile(lambda t: -student_t_cdf(-t, df), p - 1.0)


def normal_quantile(p: float) -> float:
    """Standard normal quantile, by bisection on the erfc-based upper tail;
    each distinct p > 0.5 is computed once per process."""
    return _quantile("normal_quantile", p, _normal_upper_quantile)


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
    _require_two_studies(k, "hksj_scale")
    w = _re_weights(se, tau2)
    if _least(w) <= 0:  # a zero weight (se = inf)
        raise ValidationError("hksj_scale: weights must be positive")
    re = _pool(np.asarray(y, dtype=float), w)
    return re.mu, 1.0 / re.sw, re.q() / (k - 1)


def _zh_variance(re):
    """Robust variance of the random-effects mean of the pool re: each squared
    residual term carries the fixed penalty (1 - h_i)^-2 of its leverage h_i."""
    leverage = re.w / re.sw[..., None]
    terms = re.w ** 2 * re.dev2 * (1.0 / np.square(1.0 - leverage))
    return _sum(terms) / np.square(re.sw)


def variance_hcs(tau2, w):
    """Henmi-Copas-type variance of the common-effect estimator:
    (tau2 * sum w^2 + sum w) / (sum w)^2, with common-effect weights w."""
    w, tau2 = np.asarray(w, dtype=float), np.asarray(tau2, dtype=float)
    if _least(tau2) < 0:
        raise ValidationError("variance_hcs: tau2 must be >= 0")
    return _variance_hcs(tau2, *_hcs_sums(w))


def _hcs_sums(w):
    """sum w, sum w^2 and (sum w)^2 of positive common-effect weights w."""
    if _least(w) <= 0:
        raise ValidationError("variance_hcs: weights must be positive")
    sw = _sum(w)
    return sw, _sum(w ** 2), np.square(sw)


def _variance_hcs(tau2, sw, sw2, sw_sq):
    """variance_hcs from tau2 >= 0 and the _hcs_sums of positive weights."""
    return (tau2 * sw2 + sw) / sw_sq


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
    For one dataset (no replicate axis, 0-d values), `interval_results`
    gives the interval records.
    """

    tau2: dict
    tau2_raw: dict
    subgroup_wins: dict
    intervals: dict
    errors: dict
    level: float
    fallback: bool

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


def meta_kernel(y, se, y_sub=None, se_sub=None, level=0.95) -> KernelResult:
    """All five tau^2 estimates and all six intervals for R datasets at once.

    y, se: (R, k) study rows; y_sub, se_sub: (R, k, 2) arms of the selected
    splits (one dataset: (k,) and (k, 2)); level: the confidence level, in
    (0, 1) with 0.5 + level / 2 below 1, checked here for every analysis
    path after the study count. DL feeds NORMAL, HKSJ, MKH and ZH.
    MAX1 (MAX2) is the larger of DL and DLS (DLS_ADJ); it feeds the
    Henmi-Copas-type variance around the common-effect mean, and the side
    that wins sets the HCS degrees of freedom: k-1 for the study side, which
    also takes exact ties, 2k-1 for the subgroup side. Without arms
    (y_sub=None) only DL is estimated and both HCS intervals fall back to the
    study-level common effect with DL and k-1 degrees of freedom. With arms
    alone (y = se = None, a simulated batch) the study rows are the arms'
    inverse-variance aggregates, from the arm weights the arm pool uses.
    Weights, sums and means are pooled once per batch at each level:
    studies, random effects and arms.
    """
    if y is not None:  # float64, and a batch copied once, replicates fastest
        y, se = _laid_out(y, 1), _laid_out(se, 1)
    if y_sub is not None:
        y_sub, se_sub = _laid_out(y_sub, 2), _laid_out(se_sub, 2)
        w_sub = _weights(se_sub)
        w = _sum(w_sub)  # each study's sum of arm weights: its common-effect weight
        if y is None:
            y, se = _sum(w_sub * y_sub) / w, 1.0 / np.sqrt(w)
    k = y.shape[-1]
    _require_two_studies(k, "meta_kernel")
    p_upper = 0.5 + level / 2.0
    if not (level > 0.0 and p_upper < 1.0):  # false on NaN too
        raise ValidationError("confidence level must be in (0, 1)")
    failed = {}

    def attempt(name, fn, *args):
        try:
            return fn(*args)
        except ValidationError as exc:
            failed[name] = str(exc)
            return np.full(y.shape[:-1], np.nan)

    study = _pool(y, _weights(se))
    sw2 = _sum(study.w ** 2)
    raw = {DL: attempt(DL, _dl, y, study, sw2)}
    tau2 = {DL: np.maximum(0.0, raw[DL])}
    needs = dict.fromkeys((DL,) + CI_METHODS, (DL,))
    wins = {}
    t_lo = t_quantile(k - 1, p_upper)
    df_lo = np.full(y.shape[:-1], k - 1)
    re = _pool(y, _re_weights(se, tau2[DL]))
    var = 1.0 / re.sw  # the model variance of the random-effects mean
    q = re.q() / (k - 1)

    def interval(point, variance, df, quantile, t2):
        half = quantile * np.sqrt(variance)
        return BatchInterval(point, variance, df, point - half, point + half, t2)

    intervals = {
        NORMAL: interval(re.mu, var, None, normal_quantile(p_upper), tau2[DL]),
        HKSJ: interval(re.mu, q * var, df_lo, t_lo, tau2[DL]),
        MKH: interval(re.mu, np.maximum(1.0, q) * var, df_lo, t_lo, tau2[DL]),
        ZH: interval(re.mu, _zh_variance(re), df_lo, t_lo, tau2[DL]),
    }
    if y_sub is None:
        if DL in failed:  # _dl checks the weights only past its denominator
            _check_ce_weights(y, study.w)
        hcs = _variance_hcs(tau2[DL], study.sw, sw2, np.square(study.sw))
        intervals[HCS_MAX1] = intervals[HCS_MAX2] = interval(study.mu, hcs, df_lo, t_lo, tau2[DL])
    else:
        arms = _pool(y_sub, w_sub, (-2, -1))
        arms_sw2 = _sum(arms.w ** 2, (-2, -1))
        raw[DLS] = attempt(DLS, _dls, arms, arms_sw2)
        a = attempt("A", lambda: _shrinkage_a(arms.w, arms.sw, arms_sw2)[0])
        tau2[DLS] = np.maximum(0.0, raw[DLS])
        tau2[DLS_ADJ] = raw[DLS_ADJ] = tau2[DLS] / a
        needs.update({DLS: (DLS,), DLS_ADJ: ("A", DLS)})
        t_hi = t_quantile(2 * k - 1, p_upper)
        hcs_sums = _hcs_sums(w)  # of the per-study common-effect weights
        for tag, side, method in ((MAX1, DLS, HCS_MAX1), (MAX2, DLS_ADJ, HCS_MAX2)):
            wins[tag] = tau2[side] > tau2[DL]
            tau2[tag] = np.maximum(tau2[DL], tau2[side])
            raw[tag] = np.where(wins[tag], raw[side], raw[DL])
            needs[tag] = needs[method] = (DL,) + needs[side]
            df = np.where(wins[tag], 2 * k - 1, k - 1)
            t = np.where(wins[tag], t_hi, t_lo)
            variance = _variance_hcs(tau2[tag], *hcs_sums)
            intervals[method] = interval(arms.mu, variance, df, t, tau2[tag])
    errors = {
        tag: next(failed[d] for d in deps if d in failed)
        for tag, deps in needs.items()
        if any(d in failed for d in deps)
    } if failed else {}
    return KernelResult(tau2, raw, wins, intervals, errors, level, y_sub is None)


# ---------------------------------------------------------------------------
# one dataset: the kernel without a replicate axis
# ---------------------------------------------------------------------------

def dataset_kernel(dataset: MetaDataset, level: float = 0.95) -> KernelResult:
    """The kernel on one dataset at confidence level `level` (checked by
    meta_kernel): its (k,) study rows from the dataset's table, plus the
    (k, 2) arms of its selected splits when it has a selection (otherwise
    the HCS fallback). With no replicate axis the kernel's study and arm
    sums are numpy scalars, which cost less to add than one-element arrays;
    the values are those of the same rows in a batch, bit for bit."""
    arms = ()
    if dataset.selected is not None:
        rows = np.add(dataset.split_start, dataset.selected)  # each selected split's table row
        arms = dataset.arm_y[rows], dataset.arm_se[rows]
    return meta_kernel(dataset.y, dataset.se, *arms, level=level)


def run_all_methods(dataset: MetaDataset, level: float = 0.95):
    """Run every interval method on a dataset.

    Returns (results, errors): results in a fixed deterministic order,
    errors keyed by method tag for any method that could not be computed.
    """
    return dataset_kernel(dataset, level).interval_results()

"""A frozen copy of the batched kernel and the per-method aggregation loop
as they stood before the kernel shared its weights, sums and means.

Tests compare the current code against it bit for bit; keep it unchanged.
Quantiles and the result records come from the package.
"""

import numpy as np

from fewmeta.data import ValidationError
from fewmeta.estimators import DL, DLS, DLS_ADJ, MAX1, MAX2, TAU2_METHODS
from fewmeta.intervals import (
    CI_METHODS,
    HCS_MAX1,
    HCS_MAX2,
    HKSJ,
    MKH,
    NORMAL,
    ZH,
    BatchInterval,
    KernelResult,
    normal_quantile,
    t_quantile,
)


def mu_ce(y, w):
    """Inverse-variance weighted (common-effect) mean."""
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if y.shape[-1] == 0:
        raise ValidationError("mu_ce: empty input")
    if np.any(w <= 0):
        raise ValidationError("mu_ce: weights must be positive")
    return np.sum(w * y, axis=-1) / np.sum(w, axis=-1)


def mu_re(y, se, tau2):
    """Random-effects mean and its model variance.

    Weights are (se^2 + tau2)^-1; with tau2 = 0 this reduces to the
    common-effect estimate and variance.
    """
    y = np.asarray(y, dtype=float)
    se = np.asarray(se, dtype=float)
    tau2 = np.asarray(tau2, dtype=float)
    t2 = tau2[..., None] if tau2.ndim else tau2
    w = 1.0 / (se ** 2 + t2)
    mu = np.sum(w * y, axis=-1) / np.sum(w, axis=-1)
    var = 1.0 / np.sum(w, axis=-1)
    return mu, var


def cochran_q(y, se):
    """Cochran's Q homogeneity statistic about the common-effect mean."""
    y = np.asarray(y, dtype=float)
    se = np.asarray(se, dtype=float)
    w = se ** -2.0
    mu = mu_ce(y, w)
    return np.sum(w * (y - mu[..., None]) ** 2, axis=-1)


def dl_raw(y, se):
    """Untruncated study-level moment estimate of tau^2."""
    y = np.asarray(y, dtype=float)
    se = np.asarray(se, dtype=float)
    k = y.shape[-1]
    if k < 2:
        raise ValidationError("tau2_dl: at least 2 studies required")
    w = se ** -2.0
    sw = np.sum(w, axis=-1)
    denom = sw - np.sum(w ** 2, axis=-1) / sw
    if np.any(denom <= 0):
        raise ValidationError("tau2_dl: degenerate weight configuration")
    return (cochran_q(y, se) - (k - 1)) / denom


# ---------------------------------------------------------------------------
# subgroup-level statistics


def mu_ce_subgroup(y_sub, se_sub):
    """Common-effect mean pooled over all 2k subgroup arms."""
    y = np.asarray(y_sub, dtype=float)
    w = np.asarray(se_sub, dtype=float) ** -2.0
    return np.sum(w * y, axis=(-2, -1)) / np.sum(w, axis=(-2, -1))


def qs_raw(y_sub, se_sub):
    """Subgroup-level Q statistic over the 2k arm estimates."""
    y = np.asarray(y_sub, dtype=float)
    w = np.asarray(se_sub, dtype=float) ** -2.0
    mu = mu_ce_subgroup(y_sub, se_sub)
    return np.sum(w * (y - mu[..., None, None]) ** 2, axis=(-2, -1))



def dls_raw(y_sub, se_sub):
    """Untruncated moment estimate of tau^2 from subgroup-level data."""
    y = np.asarray(y_sub, dtype=float)
    k = y.shape[-2]
    if k < 2:
        raise ValidationError("tau2_dls: at least 2 studies required")
    w = np.asarray(se_sub, dtype=float) ** -2.0
    sw = np.sum(w, axis=(-2, -1))
    denom = sw - np.sum(w ** 2, axis=(-2, -1)) / sw
    if np.any(denom <= 0):
        raise ValidationError("tau2_dls: degenerate weight configuration")
    return (qs_raw(y_sub, se_sub) - (2 * k - 1)) / denom


def shrinkage_coefficients(se_sub, p):
    """A and B_coefficient from arm standard errors and prevalences.

    A = 1 - 2 sum_i w_i1 w_i2 / ((sum w)^2 - sum w^2);
    B_coefficient = sum_ij w_ij p_i (1 - p_i) * sum w / ((sum w)^2 - sum w^2).
    """
    w = np.asarray(se_sub, dtype=float) ** -2.0
    p = np.asarray(p, dtype=float)
    sw = np.sum(w, axis=(-2, -1))
    sw2 = np.sum(w ** 2, axis=(-2, -1))
    denom = sw ** 2 - sw2
    if np.any(denom <= 0):
        raise ValidationError("shrinkage terms: degenerate weight configuration")
    cross = np.sum(w[..., 0] * w[..., 1], axis=-1)
    a = 1.0 - 2.0 * cross / denom
    pq = (p * (1.0 - p))[..., None]
    b = np.sum(w * pq, axis=(-2, -1)) * sw / denom
    return a, b



def dls_adj_raw(y_sub, se_sub, p):
    """Shrinkage-corrected subgroup-level estimate: truncated DLS over A.

    Truncation happens before the division, so a zero estimate stays zero.
    """
    a, _ = shrinkage_coefficients(se_sub, p)
    return np.maximum(0.0, dls_raw(y_sub, se_sub)) / a



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


def meta_kernel(y, se, y_sub=None, se_sub=None, p=None, level=0.95, c=2) -> KernelResult:
    """All five tau^2 estimates and all six intervals for R datasets at once.

    y, se: (R, k) study rows; y_sub, se_sub: (R, k, 2) arms of the selected
    splits; p: (R, k) prevalences of arm 1; c: the ZH leverage exponent.
    DL feeds NORMAL, HKSJ, MKH and ZH. MAX1 (MAX2) is the larger of DL and
    DLS (DLS_ADJ); it feeds the Henmi-Copas-type variance around the
    common-effect mean, and the side that wins sets the HCS degrees of
    freedom: k-1 for the study side, which also takes exact ties, 2k-1 for
    the subgroup side. Without arms (y_sub=None) only DL is estimated and
    both HCS intervals fall back to the study-level common effect with DL
    and k-1 degrees of freedom.
    """
    k = y.shape[-1]
    failed = {}

    def attempt(name, fn, *args):
        try:
            return fn(*args)
        except ValidationError as exc:
            failed[name] = str(exc)
            return np.full(y.shape[:-1], np.nan)

    raw = {DL: attempt(DL, dl_raw, y, se)}
    tau2 = {DL: np.maximum(0.0, raw[DL])}
    needs = dict.fromkeys((DL,) + CI_METHODS, (DL,))
    wins = {}
    p_upper = 0.5 + level / 2.0
    t_lo = t_quantile(k - 1, p_upper)
    df_lo = np.full(y.shape[:-1], k - 1)
    # mu and var are the random-effects mean and its model variance
    mu, var, q = hksj_scale(y, se, tau2[DL])
    mu_zh, var_zh = zh_variance(y, se, tau2[DL], c)

    def interval(point, variance, df, quantile, t2):
        half = quantile * np.sqrt(variance)
        return BatchInterval(point, variance, df, point - half, point + half, t2)

    intervals = {
        NORMAL: interval(mu, var, None, normal_quantile(p_upper), tau2[DL]),
        HKSJ: interval(mu, q * var, df_lo, t_lo, tau2[DL]),
        MKH: interval(mu, np.maximum(1.0, q) * var, df_lo, t_lo, tau2[DL]),
        ZH: interval(mu_zh, var_zh, df_lo, t_lo, tau2[DL]),
    }
    if y_sub is None:
        w = se ** -2.0
        intervals[HCS_MAX1] = intervals[HCS_MAX2] = interval(
            mu_ce(y, w), variance_hcs(tau2[DL], w), df_lo, t_lo, tau2[DL]
        )
    else:
        raw[DLS] = attempt(DLS, dls_raw, y_sub, se_sub)
        a = attempt("A", lambda: shrinkage_coefficients(se_sub, p)[0])
        tau2[DLS] = np.maximum(0.0, raw[DLS])
        tau2[DLS_ADJ] = raw[DLS_ADJ] = tau2[DLS] / a
        needs.update({DLS: (DLS,), DLS_ADJ: ("A", DLS)})
        t_hi = t_quantile(2 * k - 1, p_upper)
        w = np.sum(se_sub ** -2.0, axis=-1)  # per-study common-effect weights
        mu_sub = mu_ce_subgroup(y_sub, se_sub)
        for tag, side, method in ((MAX1, DLS, HCS_MAX1), (MAX2, DLS_ADJ, HCS_MAX2)):
            wins[tag] = tau2[side] > tau2[DL]
            tau2[tag] = np.maximum(tau2[DL], tau2[side])
            raw[tag] = np.where(wins[tag], raw[side], raw[DL])
            needs[tag] = needs[method] = (DL,) + needs[side]
            df = np.where(wins[tag], 2 * k - 1, k - 1)
            t = np.where(wins[tag], t_hi, t_lo)
            intervals[method] = interval(mu_sub, variance_hcs(tau2[tag], w), df, t, tau2[tag])
    errors = {
        tag: next(failed[d] for d in deps if d in failed)
        for tag, deps in needs.items()
        if any(d in failed for d in deps)
    }
    return KernelResult(tau2, raw, wins, intervals, errors, level, y_sub is None)



def aggregate(result, scenario, n_reps):
    """The per-method aggregation loop of run_scenario: (tau_metrics,
    ci_metrics) of one scenario's kernel result."""
    tau_metrics = {}
    for method in TAU2_METHODS:
        t2 = result.tau2[method]
        bias = np.sqrt(t2) - scenario.tau
        zero_count = int(np.count_nonzero(t2 == 0.0))
        tau_metrics[method] = {
            "bias": float(np.mean(bias)),
            "bias_mc_se": float(np.std(bias, ddof=1) / np.sqrt(n_reps))
            if n_reps > 1
            else 0.0,
            "zero_proportion": zero_count / n_reps,
            "zero_count": zero_count,
        }

    ci_metrics = {}
    for method in CI_METHODS:
        lower, upper = result.intervals[method].lower, result.intervals[method].upper
        ok = np.isfinite(lower) & np.isfinite(upper)
        failures = int(n_reps - np.count_nonzero(ok))
        covered = ok & (lower <= scenario.mu) & (scenario.mu <= upper)
        coverage = float(np.count_nonzero(covered)) / n_reps
        lengths = (upper - lower)[ok]
        ci_metrics[method] = {
            "coverage": coverage,
            "coverage_mc_se": float(np.sqrt(coverage * (1.0 - coverage) / n_reps)),
            "median_length": float(np.median(lengths)) if lengths.size else float("nan"),
            "failures": failures,
        }
    return tau_metrics, ci_metrics

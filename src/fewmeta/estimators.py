"""Point estimation, homogeneity statistics and heterogeneity estimators.

Numeric functions accept arrays whose *last* axis runs over studies (or,
for subgroup quantities, last two axes run over studies x arms); leading
axes broadcast over replicates. The module holds array math alone and
reads no dataset: intervals.dataset_kernel hands it a dataset's table.
The five tau^2 estimates are combined in one place, the kernel
`intervals.meta_kernel`, which serves both a Monte Carlo batch and a single
dataset (the same code without the replicate axis); the report reads a
dataset's estimates straight from its result.
Every weighted sum goes through one pooling step (_Pool), which the kernel
runs once per level and batch and the public helpers here call too.

Every weight is correctly rounded, 1 / se^2 as 1.0 / np.square(se)
(_weights), so it has the same bits on every CPU and in Python floats
(data.SubgroupSplit). Every sum over studies or arms goes through _sum, one
order in any memory layout: from +0.0, in study order, then arm order (one
np.add.reduce over a batch, laid out replicates fastest by _laid_out, which
the kernel applies to its inputs once, at entry).
Without a replicate axis the sums are numpy scalars, squared with np.square:
a scalar's ** 2 calls the C library's pow, which differs from x * x in the
last bit for about one value in a thousand.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .data import ValidationError

DL = "DL"
DLS = "DLS"
DLS_ADJ = "DLS_ADJ"
MAX1 = "MAX1"
MAX2 = "MAX2"

TAU2_METHODS = (DL, DLS, DLS_ADJ, MAX1, MAX2)

STUDY_SIDE = "study"
SUBGROUP_SIDE = "subgroup"


def _sum(x, axes=(-1,)):
    """The sum of x over its trailing study axis, axes=(-1,), or study and
    arm axes, axes=(-2, -1): from +0.0, in study order, then arm order, so
    that -0.0 terms alone sum to +0.0, and the same bits in any memory
    layout and for one dataset as for its row of a batch.

    Without a replicate axis (axis 0, ahead of the summed axes) it adds
    Python floats, and a batch of fewer than two replicates adds each
    replicate so. Every other batch is one np.add.reduce from +0.0, laid
    out replicates fastest first (_laid_out) unless it is so already: its
    replicate axis runs over contiguous terms, every summed axis steps over
    at least a whole run of them, and a study axis has a larger stride than
    its arms. numpy then runs its inner loop along the replicate axis,
    adding one term to every replicate's total, and steps the summed axes
    outside it, the larger stride outermost, so each total takes its terms
    one at a time in study order, then arm order; over a contiguous summed
    axis it would add pairwise."""
    lead = x.ndim - len(axes)
    if not lead:
        total = 0.0
        for term in x.ravel().tolist():
            total += term
        return np.float64(total)
    if len(x) < 2:
        return np.array([_sum(row, axes) for row in x]).reshape(x.shape[:lead])
    step, summed = x.strides[0], x.strides[lead:]
    if not (step == x.itemsize and min(summed) >= len(x) * step
            and (len(axes) == 1 or summed[0] > summed[1])):
        x = _laid_out(x, len(axes))
    return np.add.reduce(x, axis=axes, initial=0.0)


def _laid_out(x, n_summed):
    """x as float64: one dataset (no axis ahead of its n_summed trailing
    ones) as it is, a batch copied with the same shape and values into
    replicate-fastest order, then the other axes in C order (a no-op if it
    is so already): strides (8, 8R) for (R, k) study rows, (8, 16R, 8R) for
    (R, k, 2) arms. Each study or arm column is then a contiguous run of R
    values, and the study axis the outer one (_sum says why)."""
    x = np.asarray(x, dtype=float)
    if x.ndim <= n_summed:
        return x
    last = x.ndim - 1  # the replicate axis is moved last for the copy, then back
    return np.ascontiguousarray(x.transpose((*range(1, x.ndim), 0))).transpose((last, *range(last)))


# The least non-NaN value of an array, +inf if it has none: guards test
# _least(x) <= 0, which is (x <= 0).any() in one ufunc call.
_least = functools.partial(np.fmin.reduce, axis=None, initial=np.inf)

# A difference of positive terms that keeps no more than this share of the
# larger term has cancelled to rounding error: the weight configuration it
# comes from is degenerate (one study outweighs the rest beyond what double
# precision resolves), whichever side of zero the rounding left it.
_DEGENERATE_SHARE = 64 * np.finfo(float).eps


def _reject_cancelled(difference, larger, name):
    """Raise if difference <= _DEGENERATE_SHARE * larger, exactly: the share
    is a power of two, and a - b rounds to <= 0 only if a <= b."""
    if _least(difference - _DEGENERATE_SHARE * larger) <= 0:
        raise ValidationError(f"{name}: degenerate weight configuration")


def _weights(se):
    """Inverse-variance weights 1 / se^2, each correctly rounded."""
    return 1.0 / np.square(se)


class _Pool(NamedTuple):
    """Inverse-variance pooling of y over its trailing `axes`: weights w, their
    sum sw, the weighted mean mu and the squared deviations dev2 from it."""

    w: np.ndarray
    sw: np.ndarray
    mu: np.ndarray
    dev2: np.ndarray
    axes: tuple

    def q(self):
        """sum w (y - mu)^2: Cochran's Q, Q_S over arms, or the HKSJ sum."""
        return _sum(self.w * self.dev2, self.axes)

    def moment_tau2(self, sw2, df, name):
        """Untruncated moment estimate (Q - df) / (sw - sw2 / sw), sw2 = sum w^2."""
        denom = self.sw - sw2 / self.sw
        _reject_cancelled(denom, self.sw, name)
        return (self.q() - df) / denom


def _pool(y, w, axes=(-1,)):
    sw = _sum(w, axes)
    mu = _sum(w * y, axes) / sw
    return _Pool(w, sw, mu, (y - mu[(...,) + (None,) * len(axes)]) ** 2, axes)


def _re_weights(se, tau2):
    """Random-effects weights (se^2 + tau2)^-1."""
    se, tau2 = np.asarray(se, dtype=float), np.asarray(tau2, dtype=float)
    return 1.0 / (se ** 2 + (tau2[..., None] if tau2.ndim else tau2))


def _require_two_studies(k, name):
    if k < 2:
        raise ValidationError(f"{name}: at least 2 studies required")


def _check_ce_weights(y, w):
    if y.shape[-1] == 0:
        raise ValidationError("mu_ce: empty input")
    if _least(w) <= 0:
        raise ValidationError("mu_ce: weights must be positive")


def _dl(y, study, sw2):
    """Untruncated DL from the study pool; checks as dl_raw, in its order."""
    raw = study.moment_tau2(sw2, y.shape[-1] - 1, "tau2_dl")
    _check_ce_weights(y, study.w)
    return raw


def _dls(arms, sw2):
    """Untruncated DLS from the arm pool: 2k arms, 2k - 1 degrees of freedom."""
    return arms.moment_tau2(sw2, 2 * arms.w.shape[-2] - 1, "tau2_dls")


def _shrinkage_a(w, sw, sw2):
    """The shrinkage factor A of arm weights, and (sum w)^2 - sum w^2.

    A is positive in theory; it cancels to rounding error when one study's
    arms outweigh all others by more than double precision resolves, and is
    then rejected like a cancelled denominator, as DLS_ADJ divides by it."""
    sw_sq = np.square(sw)
    denom = sw_sq - sw2
    _reject_cancelled(denom, sw_sq, "shrinkage terms")
    a = 1.0 - 2.0 * _sum(w[..., 0] * w[..., 1]) / denom
    _reject_cancelled(a, 1.0, "shrinkage terms")
    return a, denom


# ---------------------------------------------------------------------------
# study-level statistics
# ---------------------------------------------------------------------------

def mu_ce(y, w):
    """Inverse-variance weighted (common-effect) mean."""
    y, w = np.asarray(y, dtype=float), np.asarray(w, dtype=float)
    _check_ce_weights(y, w)
    return _pool(y, w).mu


def cochran_q(y, se):
    """Cochran's Q homogeneity statistic about the common-effect mean."""
    y = np.asarray(y, dtype=float)
    w = _weights(se)
    _check_ce_weights(y, w)
    return _pool(y, w).q()


def dl_raw(y, se):
    """Untruncated study-level moment estimate of tau^2."""
    y, se = np.asarray(y, dtype=float), np.asarray(se, dtype=float)
    _require_two_studies(y.shape[-1], "tau2_dl")
    study = _pool(y, _weights(se))
    return _dl(y, study, _sum(study.w ** 2))


# ---------------------------------------------------------------------------
# subgroup-level statistics
# ---------------------------------------------------------------------------

def _arm_pool(y_sub, se_sub):
    return _pool(np.asarray(y_sub, dtype=float), _weights(se_sub), (-2, -1))


def mu_ce_subgroup(y_sub, se_sub):
    """Common-effect mean pooled over all 2k subgroup arms."""
    return _arm_pool(y_sub, se_sub).mu


def qs_raw(y_sub, se_sub):
    """Subgroup-level Q statistic over the 2k arm estimates."""
    return _arm_pool(y_sub, se_sub).q()


def dls_raw(y_sub, se_sub):
    """Untruncated moment estimate of tau^2 from subgroup-level data."""
    _require_two_studies(np.shape(y_sub)[-2], "tau2_dls")
    arms = _arm_pool(y_sub, se_sub)
    return _dls(arms, _sum(arms.w ** 2, (-2, -1)))


def shrinkage_coefficients(se_sub, p):
    """A and B_coefficient from arm standard errors and prevalences.

    A = 1 - 2 sum_i w_i1 w_i2 / ((sum w)^2 - sum w^2);
    B_coefficient = sum_ij w_ij p_i (1 - p_i) * sum w / ((sum w)^2 - sum w^2).
    """
    w = _weights(se_sub)
    p = np.asarray(p, dtype=float)
    sw = _sum(w, (-2, -1))
    a, denom = _shrinkage_a(w, sw, _sum(w ** 2, (-2, -1)))
    pq = (p * (1.0 - p))[..., None]
    b = _sum(w * pq, (-2, -1)) * sw / denom
    return a, b


def dls_adj_raw(y_sub, se_sub, p):
    """Shrinkage-corrected subgroup-level estimate: truncated DLS over A.

    Truncation happens before the division, so a zero estimate stays zero.
    """
    a, _ = shrinkage_coefficients(se_sub, p)
    return np.maximum(0.0, dls_raw(y_sub, se_sub)) / a


def expected_tau2_dls(se_sub, p, tau, delta, sigma_delta):
    """Analytic mean of the *raw* subgroup-level tau^2 estimator.

    Serves as the Monte Carlo oracle: A * tau^2 + (Delta^2 + sigma_Delta^2)
    * B_coefficient at fixed weights.
    """
    if tau < 0 or sigma_delta < 0:
        raise ValidationError("expected_tau2_dls: tau and sigma_delta must be >= 0")
    a, b = shrinkage_coefficients(se_sub, p)
    return a * (tau * tau) + (delta * delta + sigma_delta * sigma_delta) * b

"""Point estimation, homogeneity statistics and heterogeneity estimators.

Numeric functions accept arrays whose *last* axis runs over studies (or,
for subgroup quantities, last two axes run over studies x arms); leading
axes broadcast over replicates. The five tau^2 estimates are combined in
one place, the kernel `intervals.meta_kernel`, which serves both a Monte
Carlo batch and a single dataset (the same code without the replicate
axis); the HeterogeneityEstimate records of a dataset are built from it.
Every weighted sum goes through one pooling step (_Pool), which the kernel
runs once per level and batch and the public helpers here call too.

Every sum over studies or arms goes through _sum, which adds column slices
in the order numpy's add.reduce uses on a contiguous trailing axis: the
+0.0 identity plus numpy's pairwise_sum of the n terms (sequential below 8
terms; from 8, eight accumulators stepping by 8, combined as
((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remaining terms in order).
Its results are therefore bit-identical to np.sum, while one vectorised add
per column costs far less than np.sum's inner loop over 2 to 2k terms per
replicate. Without a replicate axis the sums are numpy scalars, so they are
squared with np.square (x * x, as for arrays): a scalar's ** 2 calls the C
library's pow, which differs from x * x in the last bit for about one value
in a thousand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .data import MetaDataset, ValidationError, prevalence_of

DL = "DL"
DLS = "DLS"
DLS_ADJ = "DLS_ADJ"
MAX1 = "MAX1"
MAX2 = "MAX2"

TAU2_METHODS = (DL, DLS, DLS_ADJ, MAX1, MAX2)

STUDY_SIDE = "study"
SUBGROUP_SIDE = "subgroup"


@dataclass(frozen=True)
class HeterogeneityEstimate:
    """A tau^2 estimate with its untruncated raw value."""

    method: str
    tau2: float
    tau2_raw: float
    is_zero: bool
    winner: Optional[str] = None

    @property
    def tau(self) -> float:
        return float(np.sqrt(self.tau2))


@dataclass(frozen=True)
class ShrinkageTerms:
    """Coefficients of the analytic mean of the raw subgroup-level estimator.

    The raw (untruncated) subgroup-level tau^2 estimator has expectation
    A * tau^2 + (Delta^2 + sigma_Delta^2) * B_coefficient, where A <= 1
    shrinks the heterogeneity and the second term is a positive bias driven
    by subgroup interaction effects.
    """

    A: float
    B_coefficient: float


# numpy's pairwise_sum splits runs longer than this in two, recursively
_PAIRWISE_BLOCK = 128


def _pairwise(terms):
    """numpy's pairwise_sum of a list of equal-shape terms. Below 8 terms it
    adds into terms[0] in place, so the caller must own that one."""
    n = len(terms)
    if n < 8:
        acc = terms[0]
        for t in terms[1:]:
            acc += t
        return acc
    if n > _PAIRWISE_BLOCK:
        half = n // 2 - (n // 2) % 8
        return _pairwise(terms[:half]) + _pairwise(terms[half:])
    r = terms[:8]
    stop = n - n % 8
    for i in range(8, stop, 8):
        r = [a + b for a, b in zip(r, terms[i:i + 8])]
    acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for t in terms[stop:]:
        acc += t
    return acc


def _sum(x, axes=(-1,)):
    """The sum of x over its trailing study axis, axes=(-1,), or study and
    arm axes, axes=(-2, -1), as explicit adds of column slices in numpy's
    order: the +0.0 identity plus pairwise_sum of the terms in C order, so
    that -0.0 terms alone sum to +0.0. The result is np.sum's bit for bit on
    a C-ordered array, where numpy sums in that order, and is the same on
    the same values in any memory layout."""
    lead = x.ndim - len(axes)
    summed_first = x.transpose(tuple(range(lead, x.ndim)) + tuple(range(lead)))
    if len(axes) == 1:
        terms = list(summed_first)
    else:
        k, m = summed_first.shape[:2]
        terms = [summed_first[i, j] for i in range(k) for j in range(m)]
    if not terms:
        return np.zeros(x.shape[:lead])[()]
    # The identity goes into the first term rather than the total: the bits
    # are the same, as a sum is -0.0 only when all its terms are.
    terms[0] = terms[0] + 0.0
    return _pairwise(terms)


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
        if np.any(denom <= 0):
            raise ValidationError(f"{name}: degenerate weight configuration")
        return (self.q() - df) / denom


def _pool(y, w, axes=(-1,)):
    sw = _sum(w, axes)
    mu = _sum(w * y, axes) / sw
    return _Pool(w, sw, mu, (y - mu[(...,) + (None,) * len(axes)]) ** 2, axes)


def _re_pool(y, se, tau2):
    """Pooling under random-effects weights (se^2 + tau2)^-1."""
    y, se, tau2 = (np.asarray(a, dtype=float) for a in (y, se, tau2))
    return _pool(y, 1.0 / (se ** 2 + (tau2[..., None] if tau2.ndim else tau2)))


def _require_k2(k, name):
    if k < 2:
        raise ValidationError(f"{name}: at least 2 studies required")


def _check_ce_weights(y, w):
    if y.shape[-1] == 0:
        raise ValidationError("mu_ce: empty input")
    if np.any(w <= 0):
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

    A is positive in theory; it rounds to zero when one study's arms
    outweigh all others by more than double precision resolves, and is then
    rejected like a nonpositive denominator, as DLS_ADJ divides by it."""
    denom = np.square(sw) - sw2
    if np.any(denom <= 0):
        raise ValidationError("shrinkage terms: degenerate weight configuration")
    a = 1.0 - 2.0 * _sum(w[..., 0] * w[..., 1]) / denom
    if np.any(a <= 0):
        raise ValidationError("shrinkage terms: degenerate weight configuration")
    return a, denom


# ---------------------------------------------------------------------------
# study-level statistics
# ---------------------------------------------------------------------------

def mu_ce(y, w):
    """Inverse-variance weighted (common-effect) mean."""
    y, w = np.asarray(y, dtype=float), np.asarray(w, dtype=float)
    _check_ce_weights(y, w)
    return _pool(y, w).mu


def mu_re(y, se, tau2):
    """Random-effects mean and its model variance.

    Weights are (se^2 + tau2)^-1; with tau2 = 0 this reduces to the
    common-effect estimate and variance.
    """
    re = _re_pool(y, se, tau2)
    return re.mu, 1.0 / re.sw


def cochran_q(y, se):
    """Cochran's Q homogeneity statistic about the common-effect mean."""
    y = np.asarray(y, dtype=float)
    w = np.asarray(se, dtype=float) ** -2.0
    _check_ce_weights(y, w)
    return _pool(y, w).q()


def dl_raw(y, se):
    """Untruncated study-level moment estimate of tau^2."""
    y, se = np.asarray(y, dtype=float), np.asarray(se, dtype=float)
    _require_k2(y.shape[-1], "tau2_dl")
    study = _pool(y, se ** -2.0)
    return _dl(y, study, _sum(study.w ** 2))


# ---------------------------------------------------------------------------
# subgroup-level statistics
# ---------------------------------------------------------------------------

def subgroup_arrays(dataset: MetaDataset):
    """Extract (y, se, p) arrays of shape (k, 2), (k, 2), (k,) for the
    selected split of every study. Raises if any study lacks a selection."""
    y, se, p = [], [], []
    for study in dataset.studies:
        split = study.selected_split
        if split is None:
            raise ValidationError(
                f"study {study.study_id!r}: no selected subgroup split"
            )
        y.append([split.arms[0].y, split.arms[1].y])
        se.append([split.arms[0].se, split.arms[1].se])
        p.append(prevalence_of(split))
    return np.array(y), np.array(se), np.array(p)


def study_arrays(dataset: MetaDataset):
    """Study-level (y, se) arrays of shape (k,)."""
    y = np.array([s.estimate.y for s in dataset.studies])
    se = np.array([s.estimate.se for s in dataset.studies])
    return y, se


def _arm_weights(se_sub):
    """Arm weights se_sub ** -2.0, and each study's sum of its two: the
    weights of the study rows aggregated from the arms."""
    w = np.asarray(se_sub, dtype=float) ** -2.0
    return w, _sum(w)


def _arm_pool(y_sub, se_sub):
    return _pool(np.asarray(y_sub, dtype=float), np.asarray(se_sub, dtype=float) ** -2.0, (-2, -1))


def mu_ce_subgroup(y_sub, se_sub):
    """Common-effect mean pooled over all 2k subgroup arms."""
    return _arm_pool(y_sub, se_sub).mu


def qs_raw(y_sub, se_sub):
    """Subgroup-level Q statistic over the 2k arm estimates."""
    return _arm_pool(y_sub, se_sub).q()


def q_subgroup(dataset: MetaDataset) -> float:
    """Q statistic from the selected subgroup splits of a dataset."""
    dataset.require_k2()
    y, se, _ = subgroup_arrays(dataset)
    return float(qs_raw(y, se))


def dls_raw(y_sub, se_sub):
    """Untruncated moment estimate of tau^2 from subgroup-level data."""
    _require_k2(np.shape(y_sub)[-2], "tau2_dls")
    arms = _arm_pool(y_sub, se_sub)
    return _dls(arms, _sum(arms.w ** 2, (-2, -1)))


def shrinkage_coefficients(se_sub, p):
    """A and B_coefficient from arm standard errors and prevalences.

    A = 1 - 2 sum_i w_i1 w_i2 / ((sum w)^2 - sum w^2);
    B_coefficient = sum_ij w_ij p_i (1 - p_i) * sum w / ((sum w)^2 - sum w^2).
    """
    w = np.asarray(se_sub, dtype=float) ** -2.0
    p = np.asarray(p, dtype=float)
    sw = _sum(w, (-2, -1))
    a, denom = _shrinkage_a(w, sw, _sum(w ** 2, (-2, -1)))
    pq = (p * (1.0 - p))[..., None]
    b = _sum(w * pq, (-2, -1)) * sw / denom
    return a, b


def shrinkage_terms(dataset: MetaDataset) -> ShrinkageTerms:
    dataset.require_k2()
    _, se, p = subgroup_arrays(dataset)
    a, b = shrinkage_coefficients(se, p)
    return ShrinkageTerms(A=float(a), B_coefficient=float(b))


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
    return a * tau ** 2 + (delta ** 2 + sigma_delta ** 2) * b

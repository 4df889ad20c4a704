"""Point estimation, homogeneity statistics and heterogeneity estimators.

Numeric functions accept arrays whose *last* axis runs over studies (or,
for subgroup quantities, last two axes run over studies x arms); leading
axes broadcast over replicates. The raw estimators (dl_raw, dls_raw,
shrinkage_coefficients) are combined into the five tau^2 estimates in one
place, the kernel `intervals.meta_kernel`, which serves both a Monte Carlo
batch and a single dataset (its R = 1 slice); the HeterogeneityEstimate
records of a dataset are built from that slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


# ---------------------------------------------------------------------------
# study-level statistics
# ---------------------------------------------------------------------------

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


def q_subgroup(dataset: MetaDataset) -> float:
    """Q statistic from the selected subgroup splits of a dataset."""
    dataset.require_k2()
    y, se, _ = subgroup_arrays(dataset)
    return float(qs_raw(y, se))


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

"""Randomized structural properties over many small instances.

These are the exact (non-statistical) invariants: the degenerate-
heterogeneity variance ordering, estimator monotonicity, agreement of the
two common-effect forms, scale/translation equivariance, the
global-vs-local selection inequality, and the symmetry of every statistic
in a split's two arms. The bulk runs vectorized over
10 000 instances; the selection functions are exercised on a smaller
randomized batch since they operate on dataset records.
"""

import math

import numpy as np
import pytest

from fewmeta.data import aggregate_study, load_csv
from fewmeta.estimators import (
    cochran_q,
    dl_raw,
    dls_adj_raw,
    dls_raw,
    mu_ce,
    mu_ce_subgroup,
    qs_raw,
    shrinkage_coefficients,
)
from fewmeta.intervals import ZH, hksj_scale, meta_kernel, variance_hcs
from fewmeta.report import build_report
from fewmeta.selection import select_global, select_local

from conftest import dataset_path, load_rows, make_dataset, make_split, selected_arms, table_rows

N_INSTANCES = 10000


@pytest.fixture(scope="module")
def instances():
    """10 000 random subgroup-level instances with exact unit-information
    standard errors (se = sigma_u / sqrt(n))."""
    rng = np.random.default_rng(2024)
    k = 3
    n = rng.integers(1, 30, (N_INSTANCES, k, 2)) * 12
    se = 4.0 / np.sqrt(n)
    y = rng.normal(0.0, 1.0, (N_INSTANCES, k, 2)) * rng.uniform(
        0.1, 2.0, (N_INSTANCES, 1, 1)
    )
    p = n[..., 0] / n.sum(axis=-1)
    w = se ** -2.0
    y_stu = (w * y).sum(axis=-1) / w.sum(axis=-1)
    se_stu = w.sum(axis=-1) ** -0.5
    return y, se, p, y_stu, se_stu


def test_variance_chain_when_q_small(instances):
    y, se, p, y_stu, se_stu = instances
    k = y.shape[1]
    q = cochran_q(y_stu, se_stu)
    mask = q < k - 1
    assert mask.sum() > 100  # the branch is actually exercised

    # tau2_DL truncates to zero on this branch
    dl_t = np.maximum(0.0, dl_raw(y_stu, se_stu))[mask]
    assert np.all(dl_t == 0.0)

    _, v_re, scale = hksj_scale(y_stu[mask], se_stu[mask], dl_t)
    assert np.all(scale < 1.0)
    v_hksj = scale * v_re
    v_mkh = np.maximum(1.0, scale) * v_re  # equals v_re here

    w_arm = se[mask] ** -2.0
    w_stu = w_arm.sum(axis=-1)
    dls_t = np.maximum(0.0, dls_raw(y[mask], se[mask]))
    adj_t = dls_adj_raw(y[mask], se[mask], p[mask])
    v_hcs1 = variance_hcs(np.maximum(dl_t, dls_t), w_stu)
    v_hcs2 = variance_hcs(np.maximum(dl_t, adj_t), w_stu)

    assert np.all(v_hksj <= v_mkh)
    assert np.all(v_mkh == v_re)
    # the two weight sets agree exactly by construction (Eq.-6 errors),
    # so the chain holds with at most float-roundoff slack
    assert np.all(v_mkh <= v_hcs1 * (1 + 1e-12))
    assert np.all(v_hcs1 <= v_hcs2 * (1 + 1e-12))


def test_adjustment_and_max_monotonicity(instances):
    y, se, p, y_stu, se_stu = instances
    dl_t = np.maximum(0.0, dl_raw(y_stu, se_stu))
    dls_t = np.maximum(0.0, dls_raw(y, se))
    adj_t = dls_adj_raw(y, se, p)
    max1 = np.maximum(dl_t, dls_t)
    max2 = np.maximum(dl_t, adj_t)
    assert np.all(adj_t >= dls_t)
    assert np.all(max2 >= max1)
    assert np.all(max1 >= dl_t)
    assert np.array_equal(max1 == 0.0, (dl_t == 0.0) & (dls_t == 0.0))


def test_common_effect_forms_agree(instances):
    y, se, p, y_stu, se_stu = instances
    mu_sub = mu_ce_subgroup(y, se)
    mu_stu = mu_ce(y_stu, se_stu ** -2.0)
    scale = np.maximum(np.abs(mu_sub), 1.0)
    assert np.all(np.abs(mu_sub - mu_stu) <= 1e-12 * scale)


def test_scale_and_translation_equivariance(instances):
    y, se, p, y_stu, se_stu = instances
    c, shift = 2.5, -0.7

    assert np.allclose(qs_raw(c * y, c * se), qs_raw(y, se), rtol=1e-12)
    assert np.allclose(
        dls_raw(c * y, c * se), c ** 2 * dls_raw(y, se), rtol=1e-11, atol=1e-13
    )
    assert np.allclose(
        dl_raw(c * y_stu, c * se_stu), c ** 2 * dl_raw(y_stu, se_stu),
        rtol=1e-11, atol=1e-13,
    )
    # translation leaves heterogeneity untouched and shifts centers
    assert np.allclose(dls_raw(y + shift, se), dls_raw(y, se), rtol=1e-9, atol=1e-12)
    assert np.allclose(
        mu_ce_subgroup(y + shift, se), mu_ce_subgroup(y, se) + shift, rtol=1e-12
    )
    v0 = meta_kernel(y_stu, se_stu).intervals[ZH].variance
    v1 = meta_kernel(y_stu + shift, se_stu).intervals[ZH].variance
    assert np.allclose(v0, v1, rtol=1e-9, atol=1e-15)


def test_global_at_least_local_randomized():
    rng = np.random.default_rng(31)
    for _ in range(300):
        k = int(rng.integers(2, 4))
        specs = []
        for i in range(k):
            splits = [
                make_split(f"s{j}", rng.normal(0, 1, 2), rng.uniform(0.2, 1.5, 2))
                for j in range(int(rng.integers(1, 4)))
            ]
            agg = aggregate_study(splits[0])
            specs.append((agg.y, agg.se, splits))
        ds = make_dataset(specs)
        loc = select_local(ds)
        glo = select_global(ds)
        assert glo.q_s >= loc.q_s - 1e-12


def _arms_reversed(dataset):
    """The dataset, its splits in name order, with the two arms of every
    split in reverse order."""
    return load_rows(table_rows(dataset, arm_y=dataset.arm_y[:, ::-1],
                                arm_se=dataset.arm_se[:, ::-1],
                                arm_n=dataset.arm_n[:, ::-1]))


def _assert_close(a, b, where):
    """Equal report subtrees, but for floats, which agree within 1e-12
    relative: study and arm sums add in order, so bit-identity is not owed."""
    if isinstance(a, dict):
        assert sorted(a) == sorted(b), where
        for key in a:
            _assert_close(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_close(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert a == b or math.isclose(a, b, rel_tol=1e-12), (where, a, b)
    else:
        assert a == b, where


def _arm_order_datasets():
    """The bundled datasets and 50 random ones of 2-6 studies with 1-4
    splits each, arm sizes unequal."""
    for name in ("respire14", "respire28", "sglt2"):
        yield name, load_csv(dataset_path(name))
    rng = np.random.default_rng(77)
    for case in range(50):
        specs = []
        for i in range(rng.integers(2, 7)):
            splits = [
                make_split(f"s{j}", rng.normal(0, 1, 2), rng.uniform(0.2, 1.5, 2),
                           n=rng.integers(1, 60, 2))
                for j in range(rng.integers(1, 5))
            ]
            specs.append((rng.normal(), rng.uniform(0.2, 1.0), splits))
        yield f"random {case}", make_dataset(specs)


def test_arm_order_changes_no_statistic():
    """The paper's estimators treat a split's two arms alike: reversing
    every split's arms leaves selection exact and the report's estimates
    within rounding, and A and B are unchanged with p read as 1 - p."""
    for name, dataset in _arm_order_datasets():
        reversed_ = _arms_reversed(dataset)
        for select in (select_local, select_global):
            sel, sel_r = select(dataset), select(reversed_)
            assert (sel.choices, sel.q_s) == (sel_r.choices, sel_r.q_s), name
            chosen = dataset.with_selection(sel.choices)
            report = build_report(chosen, sel)
            report_r = build_report(reversed_.with_selection(sel.choices), sel_r)
            for part in ("heterogeneity", "intervals"):
                _assert_close(report[part], report_r[part], f"{name} {sel.strategy} {part}")

            _, se, p = selected_arms(chosen)
            a, b = shrinkage_coefficients(se, p)
            a_r, b_r = shrinkage_coefficients(se[:, ::-1], 1.0 - p)
            assert a_r == pytest.approx(a, rel=1e-12) and b_r == pytest.approx(b, rel=1e-12)

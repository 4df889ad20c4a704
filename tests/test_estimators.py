import math

import numpy as np
import pytest

from fewmeta.data import ValidationError
from fewmeta.estimators import (
    DL,
    DLS,
    DLS_ADJ,
    MAX1,
    MAX2,
    STUDY_SIDE,
    SUBGROUP_SIDE,
    cochran_q,
    dl_raw,
    dls_adj_raw,
    dls_raw,
    expected_tau2_dls,
    mu_ce,
    mu_ce_subgroup,
    qs_raw,
    shrinkage_coefficients,
    subgroup_arrays,
)
from fewmeta.intervals import all_tau2, hksj_scale

from conftest import make_dataset, make_split


def _subgroup_dataset(ys, ses, selected=True):
    """Dataset whose study rows aggregate the single split per study."""
    from fewmeta.data import aggregate_study

    specs = []
    for i, (y, se) in enumerate(zip(ys, ses)):
        split = make_split("g", y, se)
        agg = aggregate_study(split)
        specs.append((agg.y, agg.se, [split]))
    sel = [0] * len(ys) if selected else None
    return make_dataset(specs, selected=sel)


def test_mu_ce_examples():
    assert mu_ce([0.5], [4.0]) == pytest.approx(0.5)
    assert mu_ce([0.0, 1.0], [4.0, 4.0]) == pytest.approx(0.5)
    assert mu_ce([0.0, 3.0], [4.0, 1.0]) == pytest.approx(0.6)
    assert mu_ce([0.0, 3.0], [4.0, 1.0]) == pytest.approx(
        np.average([0.0, 3.0], weights=[4.0, 1.0])
    )


def test_mu_ce_errors():
    with pytest.raises(ValidationError):
        mu_ce([], [])
    with pytest.raises(ValidationError):
        mu_ce([1.0], [0.0])


def test_mu_re_examples():
    # the random-effects mean and its model variance lead hksj_scale's outputs
    mu, var, _ = hksj_scale([0.0, 1.0], [0.5, 0.5], 0.0)
    assert mu == pytest.approx(0.5)
    assert var == pytest.approx(0.125)
    mu, var, _ = hksj_scale([0.0, 1.0], [0.5, 0.5], 0.25)
    assert mu == pytest.approx(0.5)
    assert var == pytest.approx(0.25)
    mu, _, _ = hksj_scale([0.7, 0.7, 0.7], [0.2, 1.1, 0.4], 0.9)
    assert mu == pytest.approx(0.7)


def test_cochran_q_examples():
    assert cochran_q([1.0, 1.0], [1.0, 2.0]) == pytest.approx(0.0)
    assert cochran_q([0.0, 1.0], [0.5, 0.5]) == pytest.approx(2.0)
    assert cochran_q([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]) == pytest.approx(2.0)


def _study_rows(ys, ses):
    """Dataset of study rows only."""
    return make_dataset([(y, se, []) for y, se in zip(ys, ses)])


def test_tau2_dl_examples():
    est = all_tau2(_study_rows([1.0, 1.0], [0.5, 0.5]))[DL]
    assert est.tau2 == 0.0
    assert est.tau2_raw == pytest.approx(-0.25)
    assert est.is_zero
    est = all_tau2(_study_rows([0.0, 1.0], [0.5, 0.5]))[DL]
    assert est.tau2 == pytest.approx(0.25)
    assert not est.is_zero


def test_tau2_dl_respire14(respire14):
    assert all_tau2(respire14)[DL].tau == pytest.approx(0.3, abs=0.005)


def _q_subgroup(ds):
    """Q_S over the arms of each study's selected split."""
    return qs_raw(*subgroup_arrays(ds)[:2])


def test_q_subgroup_examples():
    ds = _subgroup_dataset([(0.3, 0.3), (0.3, 0.3)], [(1, 1), (1, 1)])
    assert _q_subgroup(ds) == pytest.approx(0.0)
    ds = _subgroup_dataset([(0.0, 0.0), (1.0, 1.0)], [(1, 1), (1, 1)])
    assert _q_subgroup(ds) == pytest.approx(1.0)


def test_q_subgroup_requires_selection():
    ds = _subgroup_dataset([(0.0, 0.0), (1.0, 1.0)], [(1, 1), (1, 1)], selected=False)
    with pytest.raises(ValidationError, match="no selected subgroup split"):
        subgroup_arrays(ds)


def test_tau2_dls_example():
    ds = _subgroup_dataset([(-1.0, 1.0), (-1.0, 1.0)], [(1, 1), (1, 1)])
    assert _q_subgroup(ds) == pytest.approx(4.0)
    est = all_tau2(ds)[DLS]
    assert est.tau2 == pytest.approx(1.0 / 3.0)


def test_shrinkage_symbolic_cases():
    # k=2, all four subgroup weights equal: A = 1 - 1/(2k-1) = 2/3
    ds = _subgroup_dataset([(-1.0, 1.0), (-1.0, 1.0)], [(1, 1), (1, 1)])
    a, b = shrinkage_coefficients(*subgroup_arrays(ds)[1:])
    assert a == pytest.approx(2.0 / 3.0)
    # plus p = 1/2: B = k / (2(2k-1)) = 1/3
    assert b == pytest.approx(1.0 / 3.0)


def test_shrinkage_a_tends_to_one():
    for k in (2, 5, 50):
        se = np.ones((k, 2))
        p = np.full(k, 0.5)
        a, _ = shrinkage_coefficients(se, p)
        assert a == pytest.approx(1.0 - 1.0 / (2 * k - 1))
    se = np.ones((5000, 2))
    a, _ = shrinkage_coefficients(se, np.full(5000, 0.5))
    assert a > 0.999


def test_tau2_dls_adj_examples():
    ds = _subgroup_dataset([(0.3, 0.3), (0.3, 0.3)], [(1, 1), (1, 1)])
    assert all_tau2(ds)[DLS_ADJ].tau2 == 0.0
    ds = _subgroup_dataset([(-1.0, 1.0), (-1.0, 1.0)], [(1, 1), (1, 1)])
    assert all_tau2(ds)[DLS_ADJ].tau2 == pytest.approx(0.5)


def test_tau2_max_semantics():
    # homogeneous subgroups but heterogeneous studies: study side wins
    split_lo = make_split("g", (0.0, 0.0), (1.0, 1.0))
    split_hi = make_split("g", (1.0, 1.0), (1.0, 1.0))
    ds = make_dataset(
        [(0.0, 0.5, [split_lo]), (1.0, 0.5, [split_hi])], selected=[0, 0]
    )
    est = all_tau2(ds)[MAX1]
    assert est.tau2 == pytest.approx(0.25)
    assert est.winner == STUDY_SIDE


def test_tau2_max_tie_prefers_study_side():
    # all-zero data: both sides are exactly 0 -> study side by convention
    split = make_split("g", (0.0, 0.0), (1.0, 1.0))
    ds = make_dataset(
        [(0.0, 0.7, [split]), (0.0, 0.7, [split])], selected=[0, 0]
    )
    for variant in (MAX1, MAX2):
        est = all_tau2(ds)[variant]
        assert est.tau2 == 0.0
        assert est.winner == STUDY_SIDE


def test_tau2_max_respire14(respire14):
    from fewmeta.selection import select_local

    ds = respire14.with_selection(select_local(respire14).choices)
    est = all_tau2(ds)[MAX1]
    assert est.tau == pytest.approx(0.396, abs=0.005)
    assert est.winner == SUBGROUP_SIDE


def test_tau2_max_respire28(respire28):
    from fewmeta.selection import select_local

    ds = respire28.with_selection(select_local(respire28).choices)
    assert all_tau2(ds)[MAX1].tau2 == 0.0
    assert all_tau2(ds)[MAX2].tau2 == 0.0


def test_expected_tau2_dls_symbolic():
    se = np.ones((2, 2))
    p = np.array([0.5, 0.5])
    assert expected_tau2_dls(se, p, 0.0, 0.0, 0.0) == pytest.approx(0.0)
    assert expected_tau2_dls(se, p, 1.0, 0.0, 0.0) == pytest.approx(2.0 / 3.0)
    assert expected_tau2_dls(se, p, 0.0, 1.0, 0.0) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValidationError):
        expected_tau2_dls(se, p, -1.0, 0.0, 0.0)


def test_monotonicity_and_zero_set():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        y = rng.normal(0, 1, (k, 2))
        se = rng.uniform(0.2, 2.0, (k, 2))
        p = rng.uniform(0.2, 0.8, k)
        dls_t = max(0.0, float(dls_raw(y, se)))
        adj_t = float(dls_adj_raw(y, se, p))
        assert adj_t >= dls_t - 1e-15
        # zero-set identity via the study-level aggregation
        w = se ** -2
        y_stu = (w * y).sum(axis=1) / w.sum(axis=1)
        se_stu = w.sum(axis=1) ** -0.5
        dl_t = max(0.0, float(dl_raw(y_stu, se_stu)))
        max1 = max(dl_t, dls_t)
        max2 = max(dl_t, adj_t)
        assert max2 >= max1 >= dl_t
        assert (max1 == 0.0) == (dl_t == 0.0 and dls_t == 0.0)
        assert (max2 == 0.0) == (dl_t == 0.0 and adj_t == 0.0)


def test_scale_equivariance():
    rng = np.random.default_rng(11)
    y = rng.normal(0, 1, (3, 2))
    se = rng.uniform(0.2, 2.0, (3, 2))
    c = 3.7
    assert qs_raw(c * y, c * se) == pytest.approx(qs_raw(y, se), rel=1e-12)
    assert dls_raw(c * y, c * se) == pytest.approx(c ** 2 * dls_raw(y, se), rel=1e-12)
    w = se ** -2
    y_stu = (w * y).sum(axis=1) / w.sum(axis=1)
    se_stu = w.sum(axis=1) ** -0.5
    assert cochran_q(c * y_stu, c * se_stu) == pytest.approx(
        cochran_q(y_stu, se_stu), rel=1e-12
    )
    assert dl_raw(c * y_stu, c * se_stu) == pytest.approx(
        c ** 2 * dl_raw(y_stu, se_stu), rel=1e-12
    )


def test_mu_ce_two_forms_agree():
    rng = np.random.default_rng(13)
    y = rng.normal(0, 1, (4, 2))
    se = 4.0 / np.sqrt(rng.integers(10, 200, (4, 2)))
    w = se ** -2
    y_stu = (w * y).sum(axis=1) / w.sum(axis=1)
    se_stu = w.sum(axis=1) ** -0.5
    mu_sub = mu_ce_subgroup(y, se)
    mu_stu = mu_ce(y_stu, se_stu ** -2)
    assert mu_stu == pytest.approx(mu_sub, rel=1e-12)


def test_all_tau2_keys(respire14):
    from fewmeta.selection import select_local

    out = all_tau2(respire14)
    assert set(out) == {DL}
    ds = respire14.with_selection(select_local(respire14).choices)
    out = all_tau2(ds)
    assert set(out) == {DL, DLS, DLS_ADJ, MAX1, MAX2}

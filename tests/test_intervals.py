import math

import numpy as np
import pytest
import scipy.stats

from fewmeta import intervals
from fewmeta.data import ValidationError
from fewmeta.intervals import (
    CIMethodConfig,
    HCS_MAX1,
    HCS_MAX2,
    HKSJ,
    MKH,
    NORMAL,
    ZH,
    hksj_scale,
    normal_quantile,
    regularized_incomplete_beta,
    run_all_methods,
    student_t_cdf,
    t_quantile,
    variance_hcs,
    zh_variance,
)

from conftest import make_dataset, make_split


# ---------------------------------------------------------------------------
# special functions (scipy as an independent oracle)
# ---------------------------------------------------------------------------

def test_incomplete_beta_against_scipy():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = rng.uniform(0.3, 30.0, 2)
        x = rng.uniform(0.0, 1.0)
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            scipy.stats.beta.cdf(x, a, b), abs=1e-12
        )


def test_t_cdf_against_scipy():
    for df in (1, 2, 5, 30, 200):
        for t in (-4.0, -1.0, 0.0, 0.5, 2.5):
            assert student_t_cdf(t, df) == pytest.approx(
                scipy.stats.t.cdf(t, df), abs=1e-12
            )


def test_t_quantile_examples():
    assert t_quantile(5, 0.5) == 0.0
    assert t_quantile(1, 0.975) == pytest.approx(12.706, abs=1e-3)
    assert t_quantile(10 ** 6, 0.975) == pytest.approx(1.960, abs=2e-3)


def test_t_quantile_against_scipy():
    for df in (1, 2, 3, 11, 60, 500):
        for p in (0.6, 0.9, 0.975, 0.995, 0.12):
            assert t_quantile(df, p) == pytest.approx(
                scipy.stats.t.ppf(p, df), abs=1e-8
            )


def _old_upper_quantile(cdf, p):
    """The bisection as it stood before it could stop at adjacent doubles."""
    lo, hi = 0.0, 2.0
    while cdf(hi) < p:
        hi *= 2.0
    while hi - lo > intervals._QUANTILE_TOL:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_t_quantile_far_tail_ends():
    # The quantile is ~6.4e9, where doubles are too coarse for the absolute
    # tolerance; the bisection must still end, at adjacent doubles.
    p = 0.99999999995
    assert t_quantile(1, p) == pytest.approx(scipy.stats.t.ppf(p, 1), rel=1e-5)
    for df in (1, 2, 5, 30):
        for p in (0.6, 0.975, 0.995, 0.9999):
            cdf = lambda t: student_t_cdf(t, df)
            assert intervals._upper_quantile(cdf, p) == _old_upper_quantile(cdf, p)


def test_t_quantile_monotonicity():
    qs = [t_quantile(df, 0.975) for df in range(1, 30)]
    assert all(a > b for a, b in zip(qs, qs[1:]))
    ps = [0.55, 0.7, 0.9, 0.99]
    vals = [t_quantile(7, p) for p in ps]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_t_quantile_errors():
    with pytest.raises(ValidationError):
        t_quantile(0, 0.975)
    with pytest.raises(ValidationError):
        t_quantile(3, 1.0)


def test_t_quantile_cache_is_bit_identical():
    uncached = intervals._t_upper_quantile.__wrapped__
    for df in range(1, 61):
        for p in (0.95, 0.975, 0.995, 0.025):
            expected = uncached(df, p) if p > 0.5 else -uncached(df, 1.0 - p)
            assert t_quantile(df, p) == expected
            assert t_quantile(df, p) == expected  # served from the cache


def test_quantile_caches_skip_repeat_work(monkeypatch):
    calls = []
    cdf = intervals.student_t_cdf
    monkeypatch.setattr(
        intervals, "student_t_cdf", lambda t, df: calls.append(df) or cdf(t, df)
    )
    first = t_quantile(37, 0.9123)
    n_first = len(calls)
    assert n_first > 0
    assert t_quantile(37, 0.9123) == first
    assert -t_quantile(37, 1.0 - 0.9123) == first
    assert len(calls) == n_first
    assert normal_quantile(0.9123) == normal_quantile(0.9123)
    assert normal_quantile(0.9123) == intervals._normal_upper_quantile.__wrapped__(0.9123)


def test_quantile_caches_are_bounded():
    for cached in (intervals._t_upper_quantile, intervals._normal_upper_quantile):
        assert cached.cache_info().maxsize is not None


def test_quantile_errors_raise_on_every_call():
    for _ in range(3):
        for df, p in ((0, 0.975), (-2, 0.975), (3, 0.0), (3, 1.0), (3, 1.5), (3, math.nan)):
            with pytest.raises(ValidationError):
                t_quantile(df, p)
        for p in (0.0, 1.0, -0.5, math.nan):
            with pytest.raises(ValidationError):
                normal_quantile(p)


def test_normal_quantile_against_scipy():
    for p in (0.5, 0.7, 0.975, 0.995, 0.2):
        assert normal_quantile(p) == pytest.approx(
            scipy.stats.norm.ppf(p), abs=1e-8
        )


# ---------------------------------------------------------------------------
# interval constructions
# ---------------------------------------------------------------------------

def _method(method, dataset):
    """The interval `method` computes on a dataset."""
    results, _ = run_all_methods(dataset)
    return {r.method: r for r in results}[method]


def _study_rows(method, ys, ses):
    """The interval `method` computes on a dataset of study rows only."""
    return _method(method, make_dataset([(y, se, []) for y, se in zip(ys, ses)]))


def test_ci_normal_examples():
    res = _study_rows(NORMAL, [0.7, 0.7], [0.4, 1.0])
    assert res.point == pytest.approx(0.7)
    assert res.lower < 0.7 < res.upper
    res = _study_rows(NORMAL, [0.0, 1.0], [0.5, 0.5])
    assert res.tau2 == pytest.approx(0.25)
    assert res.lower == pytest.approx(-0.48, abs=0.01)
    assert res.upper == pytest.approx(1.48, abs=0.01)
    assert res.df is None


def test_ci_hksj_hand_case():
    # tau2 = 0.25 -> RE weights 2 each -> q = 1 exactly for k = 2
    res = _study_rows(HKSJ, [0.0, 1.0], [0.5, 0.5])
    _, _, q = hksj_scale([0.0, 1.0], [0.5, 0.5], 0.25)
    assert q == pytest.approx(1.0, abs=1e-12)
    assert res.df == 1
    assert res.variance == pytest.approx(0.25)
    assert res.upper == pytest.approx(0.5 + 12.7062047362 * 0.5, abs=1e-4)


def test_ci_mkh_matches_hksj_when_q_large():
    y, se = [0.0, 2.0, -1.0], [0.2, 0.5, 0.3]
    h = _study_rows(HKSJ, y, se)
    m = _study_rows(MKH, y, se)
    _, _, q = hksj_scale(y, se, h.tau2)
    assert q > 1.0
    assert m.lower == pytest.approx(h.lower)
    assert m.upper == pytest.approx(h.upper)


def test_zh_variance_hand_cases():
    _, v0 = zh_variance([0.0, 1.0], [0.5, 0.5], 0.25, c=0)
    assert v0 == pytest.approx(0.125)
    _, v2 = zh_variance([0.0, 1.0], [0.5, 0.5], 0.25, c=2)
    assert v2 == pytest.approx(0.5)


def test_variance_hcs_examples():
    assert variance_hcs(0.0, [4.0, 4.0]) == pytest.approx(0.125)
    assert variance_hcs(1.0, [1.0, 1.0]) == pytest.approx(1.0)
    assert variance_hcs(0.25, [4.0, 4.0]) == pytest.approx(0.25)
    with pytest.raises(ValidationError):
        variance_hcs(-0.1, [1.0, 1.0])


def test_variance_hcs_affine_increasing():
    w = np.array([2.0, 5.0, 1.0])
    v0 = variance_hcs(0.0, w)
    v1 = variance_hcs(1.0, w)
    v2 = variance_hcs(2.0, w)
    assert v1 > v0
    assert v2 - v1 == pytest.approx(v1 - v0, rel=1e-12)
    assert v0 == pytest.approx(1.0 / w.sum())


def test_ci_hcs_fallback_without_splits():
    ds = make_dataset([(0.0, 0.5, []), (1.0, 0.5, [])])
    res = _method(HCS_MAX1, ds)
    assert res.fallback
    assert res.df == 1
    assert res.method == HCS_MAX1


def test_ci_hcs_df_rule():
    # heterogeneous studies, homogeneous subgroups: study side -> df = k-1
    split_lo = make_split("g", (0.0, 0.0), (1.0, 1.0))
    split_hi = make_split("g", (1.0, 1.0), (1.0, 1.0))
    ds = make_dataset(
        [(0.0, 0.5, [split_lo]), (1.0, 0.5, [split_hi])], selected=[0, 0]
    )
    res = _method(HCS_MAX1, ds)
    assert res.df == 1
    assert not res.fallback


def test_interval_contains_point_and_width():
    res = _study_rows(NORMAL, [0.0, 1.0], [0.5, 0.5])
    assert res.lower <= res.point <= res.upper
    assert res.width == pytest.approx(res.upper - res.lower)
    assert res.point - res.lower == pytest.approx(res.upper - res.point, rel=1e-12)


def test_translation_equivariance():
    y = np.array([0.1, -0.7, 0.4])
    se = np.array([0.3, 0.6, 0.5])
    c = 2.5
    for method in (NORMAL, HKSJ, MKH, ZH):
        a = _study_rows(method, y, se)
        b = _study_rows(method, y + c, se)
        assert b.lower == pytest.approx(a.lower + c, rel=1e-10, abs=1e-10)
        assert b.upper == pytest.approx(a.upper + c, rel=1e-10, abs=1e-10)


def test_run_all_methods_order_and_errors(respire14):
    from fewmeta.selection import select_local

    ds = respire14.with_selection(select_local(respire14).choices)
    results, errors = run_all_methods(ds)
    assert [r.method for r in results] == [
        "NORMAL", "HKSJ", "MKH", "ZH", HCS_MAX1, HCS_MAX2
    ]
    assert errors == {}


def test_run_all_methods_fallback_flags():
    ds = make_dataset([(0.0, 0.5, []), (1.0, 0.5, [])])
    results, errors = run_all_methods(ds)
    flagged = {r.method for r in results if r.fallback}
    assert flagged == {HCS_MAX1, HCS_MAX2}
    assert errors == {}


def test_respire28_inclusive_except_normal_hksj(respire28):
    from fewmeta.selection import select_local

    ds = respire28.with_selection(select_local(respire28).choices)
    results, _ = run_all_methods(ds)
    for r in results:
        includes_null = r.lower <= 0.0 <= r.upper
        if r.method in ("NORMAL", "HKSJ"):
            assert not includes_null
        else:
            assert includes_null


def test_config_validation():
    with pytest.raises(ValidationError):
        CIMethodConfig(level=1.2)
    with pytest.raises(ValidationError):
        CIMethodConfig(zh_penalty_c=-1)

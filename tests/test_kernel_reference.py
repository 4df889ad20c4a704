"""The kernel, its public helpers and run_scenario's aggregation against the
frozen reference in reference_kernel.py: every array, error message and
metric must be bit-identical."""

import dataclasses
from typing import NamedTuple

import numpy as np
import pytest

import reference_kernel as ref
from fewmeta import estimators, intervals, simulation
from fewmeta.data import ValidationError
from fewmeta.intervals import CI_METHODS, meta_kernel


class Raised(NamedTuple):
    message: str


def _outcome(fn, *args, **kwargs):
    """fn's result, or the message of the ValidationError it raised."""
    try:
        return fn(*args, **kwargs)
    except ValidationError as exc:
        return Raised(str(exc))


def _assert_same(a, b):
    """Equal values of the same type and shape, bit for bit."""
    if isinstance(a, Raised) or isinstance(b, Raised):
        assert a == b
    elif isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            _assert_same(a[key], b[key])
    elif a is None or isinstance(a, (str, bool, float, int)):
        assert type(a) is type(b) and repr(a) == repr(b)
    else:
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _assert_same_kernel(new, old):
    if isinstance(old, Raised) or isinstance(new, Raised):
        assert new == old
        return
    for field in dataclasses.fields(old):
        _assert_same(getattr(new, field.name), getattr(old, field.name))


def _draws(k, n_reps, seed):
    """Simulated study rows and arms: (y, se, y_sub, se_sub, p)."""
    sc = simulation.Scenario(
        k=k, tau=0.5 * (k % 2), delta=0.5, sigma_delta=0.2, p=1 / 3, seed=seed
    )
    y_sub, se_sub, n_arm = simulation._draw_replicates(sc, simulation.scenario_rng(sc), n_reps)
    y, se = simulation._study_rows(y_sub, se_sub)
    return y, se, y_sub, se_sub, n_arm[..., 0] / np.sum(n_arm, axis=-1)


def _compare(y, se, y_sub, se_sub, p, level=0.95, c=2):
    """Kernel (with and without arms) and every public helper."""
    _assert_same_kernel(
        _outcome(meta_kernel, y, se, y_sub, se_sub, level=level, c=c),
        _outcome(ref.meta_kernel, y, se, y_sub, se_sub, p, level, c),
    )
    _assert_same_kernel(
        _outcome(meta_kernel, y, se, level=level, c=c),
        _outcome(ref.meta_kernel, y, se, level=level, c=c),
    )
    tau2 = np.abs(y[..., 0]) * 0.3
    w = se ** -2.0
    for new, old, args in (
        (estimators.mu_ce, ref.mu_ce, (y, w)),
        (estimators.cochran_q, ref.cochran_q, (y, se)),
        (estimators.dl_raw, ref.dl_raw, (y, se)),
        (estimators.mu_ce_subgroup, ref.mu_ce_subgroup, (y_sub, se_sub)),
        (estimators.qs_raw, ref.qs_raw, (y_sub, se_sub)),
        (estimators.dls_raw, ref.dls_raw, (y_sub, se_sub)),
        (estimators.shrinkage_coefficients, ref.shrinkage_coefficients, (se_sub, p)),
        (estimators.dls_adj_raw, ref.dls_adj_raw, (y_sub, se_sub, p)),
        (intervals.hksj_scale, ref.hksj_scale, (y, se, tau2)),
        (intervals.zh_variance, ref.zh_variance, (y, se, tau2, c)),
        (intervals.variance_hcs, ref.variance_hcs, (tau2, w)),
    ):
        with np.errstate(divide="ignore", invalid="ignore"):  # ZH at a zero weight
            _assert_same(_outcome(new, *args), _outcome(old, *args))


@pytest.mark.parametrize("n_reps", [1, 3, 1000])
@pytest.mark.parametrize("k", range(2, 10))
def test_kernel_matches_reference(k, n_reps):
    # 2k >= 8 arms from k = 4 on, where numpy sums pairwise
    _compare(*_draws(k, n_reps, seed=k * n_reps))


def test_kernel_matches_reference_other_levels_and_exponents():
    rng = np.random.default_rng(11)
    for level, c in ((0.9, 0), (0.99, 3), (0.5, 1)):
        k = int(rng.integers(2, 8))
        y = rng.normal(0.0, 2.0, (40, k))
        se = rng.uniform(0.05, 1.5, (40, k))
        y_sub = y[..., None] + rng.normal(0.0, 1.0, (40, k, 2))
        se_sub = rng.uniform(0.05, 2.0, (40, k, 2))
        _compare(y, se, y_sub, se_sub, rng.uniform(0.2, 0.8, (40, k)), level, c)


def _degenerate(k, row, study_se=None, arm_se=None):
    """Simulated data with one row's study or arm standard errors replaced."""
    y, se, y_sub, se_sub, p = _draws(k, 6, seed=5)
    if study_se is not None:
        se[row] = study_se
    if arm_se is not None:
        se_sub[row] = arm_se
    return y, se, y_sub, se_sub, p


@pytest.mark.parametrize(
    "k, study_se, arm_se",
    [
        # one weight dominates: the DL denominator rounds to zero
        (2, [1e-10, 1.0], None),
        (5, [1e-10, 1.0, 1.0, 1.0, 1.0], None),
        # one arm dominates: the DLS and A denominators round to zero
        (3, None, [[1e-10, 1.0], [1.0, 1.0], [1.0, 1.0]]),
        (6, None, [[1.0, 1.0]] * 5 + [[1.0, 1e-10]]),
        # a zero study weight: DL's positive-weight check (no arms: the kernel raises)
        (3, [np.inf, 1.0, 1.0], None),
        # a zero study weight with k = 2 fails the denominator first
        (2, [np.inf, 1.0], None),
        # a study whose arms both weigh zero: the HCS variance rejects it
        (3, None, [[np.inf, np.inf], [1.0, 1.0], [1.0, 1.0]]),
        # both levels degenerate at once
        (4, [1e-10, 1.0, 1.0, 1.0], [[1e-10, 1.0]] + [[1.0, 1.0]] * 3),
    ],
)
def test_kernel_matches_reference_on_degenerate_inputs(k, study_se, arm_se):
    data = _degenerate(k, 2, study_se, arm_se)
    result = _outcome(meta_kernel, *data[:4])
    assert isinstance(result, Raised) or result.errors  # something did fail
    _compare(*data)


def test_kernel_failures_are_attributed_as_before():
    y, se, y_sub, se_sub, _ = _degenerate(3, 0, study_se=[1e-10, 1.0, 1.0])
    errors = meta_kernel(y, se, y_sub, se_sub).errors
    assert set(errors) == {"DL", "MAX1", "MAX2"} | set(CI_METHODS)
    y, se, y_sub, se_sub, _ = _degenerate(3, 0, arm_se=[[1e-10, 1.0], [1.0, 1.0], [1.0, 1.0]])
    errors = meta_kernel(y, se, y_sub, se_sub).errors
    assert set(errors) == {"DLS", "DLS_ADJ", "MAX1", "MAX2", "HCS_MAX1", "HCS_MAX2"}
    assert errors["DLS_ADJ"] == "shrinkage terms: degenerate weight configuration"
    assert errors["DLS"] == "tau2_dls: degenerate weight configuration"
    with pytest.raises(ValidationError, match="meta_kernel: at least 2 studies required"):
        meta_kernel(y[:, :1], se[:, :1])


def _reference_metrics(scenario, level=0.95, kernel=ref.meta_kernel):
    rng = simulation.scenario_rng(scenario)
    y_sub, se_sub, n_arm = simulation._draw_replicates(scenario, rng, scenario.n_reps)
    y, se = simulation._study_rows(y_sub, se_sub)
    p = n_arm[..., 0] / np.sum(n_arm, axis=-1)
    return ref.aggregate(kernel(y, se, y_sub, se_sub, p, level), scenario, scenario.n_reps)


def _assert_metrics_match(scenario, reference, level=0.95):
    got = simulation.run_scenario(scenario, level)
    _assert_same((got.tau_metrics, got.ci_metrics), reference)


@pytest.mark.parametrize("n_reps", [1, 2, 7, 1000])
def test_run_scenario_matches_reference(n_reps):
    for k, tau, delta in ((2, 0.0, 0.0), (3, 0.5, 1.0), (5, 1.0, 0.2)):
        sc = simulation.Scenario(k=k, tau=tau, delta=delta, sigma_delta=0.1, p=0.25,
                                 n_reps=n_reps, seed=n_reps)
        _assert_metrics_match(sc, _reference_metrics(sc))
    sc = simulation.Scenario(k=4, tau=0.2, delta=0.5, sigma_delta=0.5, p=0.5, n_reps=n_reps)
    _assert_metrics_match(sc, _reference_metrics(sc, level=0.8), level=0.8)


def _with_broken_limits(kernel):
    """kernel, with some replicates' limits of each method made non-finite
    and every replicate of ZH's lower limit NaN."""

    def broken(*args, **kwargs):
        result = kernel(*args, **kwargs)
        cis = dict(result.intervals)
        for i, method in enumerate(CI_METHODS):
            lower, upper = cis[method].lower.copy(), cis[method].upper.copy()
            lower[i::7] = np.nan
            upper[(2 * i)::11] = np.inf
            if method == "ZH":
                lower[:] = np.nan
            cis[method] = cis[method]._replace(lower=lower, upper=upper)
        return dataclasses.replace(result, intervals=cis)

    return broken


@pytest.mark.parametrize("n_reps", [1, 50])
def test_run_scenario_median_fallback_matches_reference(monkeypatch, n_reps):
    sc = simulation.Scenario(k=3, tau=0.5, delta=0.5, sigma_delta=0.2, p=1 / 3, n_reps=n_reps)
    reference = _reference_metrics(sc, kernel=_with_broken_limits(ref.meta_kernel))
    assert reference[1]["ZH"]["failures"] == n_reps
    monkeypatch.setattr(simulation, "meta_kernel", _with_broken_limits(meta_kernel))
    _assert_metrics_match(sc, reference)

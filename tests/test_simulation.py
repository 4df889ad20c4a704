import csv
import math
import os

import numpy as np
import pytest

from fewmeta import report, simulation
from fewmeta.data import ValidationError
from fewmeta.estimators import MAX1, MAX2, mu_ce, mu_ce_subgroup
from fewmeta.intervals import meta_kernel, run_all_methods
from fewmeta.simulation import (
    MAX_REPLICATE_STUDIES,
    Scenario,
    draw_study_sizes,
    generate_meta_analysis,
    metrics_to_json,
    run_scenario,
    run_scenarios,
    scenario_grid,
    scenario_rng,
    validate_expectation,
    write_metrics_csv,
)


def _scenario(**kw):
    base = dict(k=2, tau=0.0, delta=0.0, sigma_delta=0.0, p=0.5, seed=123)
    base.update(kw)
    return Scenario(**base)


def test_scenario_validation():
    with pytest.raises(ValidationError):
        _scenario(k=1)
    with pytest.raises(ValidationError):
        _scenario(tau=-0.1)
    with pytest.raises(ValidationError):
        _scenario(p=0.0)
    with pytest.raises(ValidationError):
        _scenario(n_reps=0)


def test_scenario_replicates_are_capped():
    for k in (2, 5):
        _scenario(k=k, n_reps=MAX_REPLICATE_STUDIES // k)
        with pytest.raises(ValidationError, match="replicate-studies"):
            _scenario(k=k, n_reps=MAX_REPLICATE_STUDIES // k + 1)
    with pytest.raises(ValidationError, match="replicate-studies"):
        _scenario(n_reps=10 ** 15)
    with pytest.raises(ValidationError, match="replicate-studies"):
        validate_expectation(_scenario(k=2), n_reps=MAX_REPLICATE_STUDIES)


def test_draw_study_sizes_rules():
    rng = np.random.default_rng(0)
    n = draw_study_sizes(5, rng, size=(2000,))
    assert n.shape == (2000, 5)
    assert np.all(n >= 12)
    assert np.all(n % 12 == 0)
    for p in (0.5, 1 / 3, 0.25):
        arm = n * p
        assert np.allclose(arm, np.round(arm))
    # a draw far below 12 floors to 12
    tiny = draw_study_sizes(1, np.random.default_rng(1), meanlog=0.0, sdlog=0.01)
    assert tiny[0] == 12


@pytest.mark.parametrize("n_reps", [1, 2, 7, 1000, 1001])
def test_finite_median_is_np_median(n_reps):
    rng = np.random.default_rng(n_reps)
    rows = np.concatenate([
        rng.lognormal(0.0, 1.0, (4, n_reps)),
        rng.integers(0, 3, (2, n_reps)).astype(float),  # ties at the middle
    ])
    got = simulation._finite_median(rows)
    assert got.tobytes() == np.median(rows, axis=-1).tobytes()


def test_arm_sizes_clip_both_arms_to_one():
    n = np.array([[1, 2, 3, 12, 13], [24, 36, 100, 7, 2]])
    for p in (0.01, 0.25, 1 / 3, 0.5, 0.99):
        n1, n2 = simulation._arm_sizes(n, p)
        expected = np.clip(np.round(p * n).astype(int), 1, n - 1)
        assert n1.dtype == expected.dtype and np.array_equal(n1, expected)
        assert np.array_equal(n2, n - expected)


def test_draw_study_sizes_median():
    rng = np.random.default_rng(2)
    n = draw_study_sizes(1, rng, size=(100000,)).ravel()
    assert np.median(n) == pytest.approx(math.exp(5.0), rel=0.05)


def test_generate_degenerate_scenario():
    sc = _scenario(k=3)
    rng = scenario_rng(sc)
    ds = generate_meta_analysis(sc, rng)
    assert ds.k == 3
    assert ds.fully_selected
    # tau = Delta = sigma_Delta = 0: subgroup means all equal mu; only
    # sampling noise remains, so |y| stays within a few se
    for study in ds.studies:
        for arm in study.selected_split.arms:
            assert abs(arm.y - sc.mu) < 6 * arm.se


def test_generated_identities():
    # the weighted average of arm effects equals the study row exactly,
    # and se = sigma_u / sqrt(n) exactly
    sc = _scenario(k=4, tau=0.7, delta=0.5, sigma_delta=0.3, p=1 / 3)
    rng = scenario_rng(sc)
    ds = generate_meta_analysis(sc, rng)
    for study in ds.studies:
        split = study.selected_split
        w = np.array([a.se ** -2 for a in split.arms])
        y = np.array([a.y for a in split.arms])
        assert study.estimate.y == pytest.approx(float((w * y).sum() / w.sum()), rel=1e-12)
        for arm in split.arms:
            assert arm.se == pytest.approx(sc.sigma_u / math.sqrt(arm.n), rel=1e-12)
        # the two common-effect forms agree to 1e-12
        mu_stu = mu_ce(
            np.array([study.estimate.y]), np.array([study.estimate.se ** -2.0])
        )
        mu_sub = mu_ce_subgroup(y[None, :], np.array([a.se for a in split.arms])[None, :])
        assert mu_stu == pytest.approx(float(mu_sub), rel=1e-12)


def test_sigma_u_arithmetic():
    # n = 16 per arm and sigma_u = 4 -> se = 1
    sc = _scenario(k=2)
    rng = scenario_rng(sc)
    from fewmeta.simulation import _draw_replicates

    y, se, n_arm = _draw_replicates(sc, rng, 10, sizes=[32, 32])
    assert np.all(n_arm == 16)
    assert np.allclose(se, 1.0)


def test_scenario_grid_counts():
    assert len(scenario_grid()) == 1125
    assert len(scenario_grid(k=2, p=1 / 3)) == 125
    assert len(scenario_grid(k=2, tau=0.5, delta=0, sigma_delta=0, p=0.5)) == 1
    with pytest.raises(ValidationError):
        scenario_grid(k=[])


def test_run_scenario_deterministic():
    sc = _scenario(k=2, tau=0.2, delta=0.1, sigma_delta=0.1, n_reps=500)
    a = run_scenario(sc)
    b = run_scenario(sc)
    assert a.tau_metrics == b.tau_metrics
    assert a.ci_metrics == b.ci_metrics


def test_run_scenarios_schedule_independent():
    scenarios = scenario_grid(
        k=2, tau=[0.0, 1.0], delta=0.0, sigma_delta=0.0, p=0.5, n_reps=300, seed=5
    )
    serial = run_scenarios(scenarios, jobs=1)
    parallel = run_scenarios(scenarios, jobs=2)
    for a, b in zip(serial, parallel):
        assert a.tau_metrics == b.tau_metrics
        assert a.ci_metrics == b.ci_metrics


def test_run_scenarios_caps_workers(monkeypatch):
    pools = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records the worker count and
        runs the work in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", RecordingPool)
    scenarios = scenario_grid(
        k=2, tau=[0.0, 0.5, 1.0], delta=0.0, sigma_delta=0.0, p=0.5, n_reps=20, seed=5
    )
    serial = run_scenarios(scenarios, jobs=1)
    for cpus, jobs, expected in ((2, 10 ** 6, 2), (64, 10 ** 6, 3), (64, 2, 2)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        capped = run_scenarios(scenarios, jobs=jobs)
        assert pools[-1] == expected
        assert [m.ci_metrics for m in capped] == [m.ci_metrics for m in serial]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_scenarios(scenarios, jobs=10 ** 6)
    run_scenarios(scenarios, jobs=0)
    assert len(pools) == 3


def test_zero_count_identity():
    sc = _scenario(k=2, n_reps=1000)
    m = run_scenario(sc)
    dl = m.tau_metrics["DL"]["zero_count"]
    dls = m.tau_metrics["DLS"]["zero_count"]
    max1 = m.tau_metrics["MAX1"]["zero_count"]
    assert max1 <= min(dl, dls)
    # degenerate scenario: subgroup-level estimators produce strictly
    # fewer zero estimates
    assert max1 < dl


def test_metric_ranges():
    sc = _scenario(k=3, tau=0.5, delta=0.2, sigma_delta=0.2, p=1 / 3, n_reps=400)
    m = run_scenario(sc)
    for vals in m.ci_metrics.values():
        assert 0.0 <= vals["coverage"] <= 1.0
        assert vals["median_length"] >= 0.0
        assert vals["failures"] == 0
    for vals in m.tau_metrics.values():
        assert 0.0 <= vals["zero_proportion"] <= 1.0


def test_validate_expectation_fixed_weights():
    for params, expected in [
        (dict(tau=0.0, delta=0.0, sigma_delta=0.0), 0.0),
        (dict(tau=1.0, delta=0.0, sigma_delta=0.0), 2.0 / 3.0),
        (dict(tau=0.0, delta=1.0, sigma_delta=0.0), 1.0 / 3.0),
    ]:
        sc = _scenario(n_reps=20000, **params)
        rep = validate_expectation(sc, sizes=[32, 32])
        assert rep["expected"] == pytest.approx(expected, abs=1e-12)
        assert rep["passed"], rep


def test_metrics_output(tmp_path):
    sc = _scenario(n_reps=100)
    results = [run_scenario(sc)]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(results, path)
    header = b"k,tau,delta,sigma_delta,p,n_reps,seed,kind,method,metric,value\r\n"
    assert path.read_bytes().startswith(header)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    # 5 tau estimators x 4 metrics + 6 CI methods x 4 metrics
    assert len(rows) == 5 * 4 + 6 * 4
    assert all(len(row) == 11 for row in rows)
    base = [str(sc.k), repr(sc.tau), repr(sc.delta), repr(sc.sigma_delta), repr(sc.p)]
    for row in rows:
        assert row[:7] == base + [str(sc.n_reps), str(sc.seed)]
        metrics = results[0].tau_metrics if row[7] == "tau2" else results[0].ci_metrics
        assert row[10] == repr(metrics[row[8]][row[9]])
    payload = metrics_to_json(results)
    import json

    parsed = json.loads(payload)
    assert parsed[0]["scenario"]["k"] == 2


def test_write_metrics_csv_keeps_target_on_failure(tmp_path, monkeypatch):
    path = tmp_path / "metrics.csv"
    path.write_text("previous run\n")
    good = run_scenario(_scenario(n_reps=20))
    with pytest.raises(AttributeError):
        write_metrics_csv([good, None], path)  # fails after the first rows

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(report.os, "replace", failing_replace)
    with pytest.raises(OSError):
        write_metrics_csv([good], path)
    assert path.read_text() == "previous run\n"
    assert os.listdir(tmp_path) == ["metrics.csv"]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_dataset_path_equals_batch_path():
    """run_all_methods on each replicate, rebuilt as a MetaDataset, gives the
    batch's limits and df exactly, and the kernel on a stacked batch equals
    one R = 1 call per row, bit for bit."""
    sides = {MAX1: set(), MAX2: set()}
    for k, tau, delta in ((2, 0.0, 0.0), (3, 0.5, 0.0), (5, 0.0, 1.0), (3, 0.5, 1.0)):
        sc = _scenario(k=k, tau=tau, delta=delta, sigma_delta=0.2, p=1 / 3)
        y_sub, se_sub, n_arm = simulation._draw_replicates(sc, scenario_rng(sc), 150)
        y_stu, se_stu = simulation._study_rows(y_sub, se_sub)
        batch = meta_kernel(y_stu, se_stu, y_sub, se_sub)
        assert batch.errors == {}
        for tag, side in sides.items():
            side.update(batch.subgroup_wins[tag].tolist())
        for r in range(len(y_sub)):
            ds = simulation._replicate_dataset(y_sub[r], se_sub[r], n_arm[r])
            results, errors = run_all_methods(ds)
            assert errors == {}
            for res in results:
                ci = batch.intervals[res.method]
                assert res.lower == ci.lower[r] and res.upper == ci.upper[r]
                assert res.df == (None if ci.df is None else ci.df[r])

            rows = slice(r, r + 1)
            row = meta_kernel(y_stu[rows], se_stu[rows], y_sub[rows], se_sub[rows])
            for field_name in ("tau2", "tau2_raw", "subgroup_wins"):
                whole, single = getattr(batch, field_name), getattr(row, field_name)
                assert whole.keys() == single.keys()
                for tag in whole:
                    assert _same_bits(whole[tag][rows], single[tag])
            for method, ci in batch.intervals.items():
                for whole, single in zip(ci, row.intervals[method]):
                    if whole is None:
                        assert single is None
                    else:
                        assert _same_bits(whole[rows], single)
    assert sides == {MAX1: {False, True}, MAX2: {False, True}}

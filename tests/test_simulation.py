import concurrent.futures
import csv
import dataclasses
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from fewmeta import report, simulation
from fewmeta.data import ValidationError, canonical_json
from fewmeta.estimators import MAX1, MAX2, TAU2_METHODS, cochran_q, mu_ce, mu_ce_subgroup
from fewmeta.intervals import CI_METHODS, meta_kernel, run_all_methods
from fewmeta.simulation import (
    MAX_REPLICATE_STUDIES,
    Scenario,
    draw_study_sizes,
    metrics_to_json,
    run_scenario,
    run_scenarios,
    scenario_grid,
    scenario_rng,
    validate_expectation,
    variance_ordering,
    write_metrics_csv,
)

from conftest import make_dataset, make_split, study_rows


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
    # a real number beyond any double is out of range, not an OverflowError
    with pytest.raises(ValidationError, match="^scenario: delta must be finite"):
        _scenario(delta=-10 ** 400)
    with pytest.raises(ValidationError, match=r"^scenario: p must be in \(0, 1\)$"):
        _scenario(p=Fraction(10 ** 400))
    with pytest.raises(ValidationError):
        _scenario(n_reps=0)
    # a seed is one word of the stream's entropy: refused outside [0, 2^64)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValidationError, match=r"^scenario: seed must be in \[0, 2\^64\)$"):
            _scenario(seed=seed)
    assert scenario_rng(_scenario(seed=2 ** 64 - 1)).random() != scenario_rng(_scenario(seed=0)).random()
    # the rest of the model is fixed: a scenario has no other setting
    assert [f.name for f in dataclasses.fields(Scenario)] == [
        "k", "tau", "delta", "sigma_delta", "p", "n_reps", "seed"]
    for name in ("mu", "sigma_u", "sizes_meanlog", "sizes_sdlog"):
        with pytest.raises(TypeError):
            _scenario(**{name: 1.0})
    assert _scenario().mu == simulation.MU == 0.0


@pytest.mark.parametrize("name, value", [
    ("k", 2.5), ("k", math.nan), ("k", "3"), ("k", 3.0), ("n_reps", 10.0), ("seed", "1"),
    ("tau", "0.5"), ("delta", b"0"), ("p", 0.5j),
])
def test_scenario_refuses_a_field_that_is_not_its_kind_of_number(name, value):
    kind = "an integer" if name in ("k", "n_reps", "seed") else "a real number"
    with pytest.raises(ValidationError, match=f"^scenario: {name} must be {kind}$"):
        _scenario(**{name: value})
    with pytest.raises(ValidationError, match=f"^scenario: {name} must be {kind}$"):
        scenario_grid(**{"k": 2, "tau": 0, "delta": 0, "sigma_delta": 0, "p": 0.5, name: value})


def test_a_scenario_of_numpy_scalars_is_the_same_scenario():
    """Each field is kept as an int or a float, so numpy scalars (and a
    Fraction) give the scenario, the stream and the output bytes that
    Python numbers give."""
    plain = _scenario(k=3, tau=0.5, sigma_delta=0.0, p=0.5, n_reps=40)
    made = _scenario(k=np.int64(3), tau=np.float64(0.5), delta=np.float32(0.0),
                     sigma_delta=np.int8(0), p=Fraction(1, 2), n_reps=np.int32(40),
                     seed=np.uint64(123))
    assert made == plain and hash(made) == hash(plain)
    assert [type(getattr(made, f.name)) for f in dataclasses.fields(Scenario)] == [
        int, float, float, float, float, int, int]
    assert made.key() == plain.key()
    ours, theirs = run_scenario(made), run_scenario(plain)
    assert metrics_to_json([ours]) == metrics_to_json([theirs])
    assert "".join(simulation.metrics_to_csv([ours])) == "".join(simulation.metrics_to_csv([theirs]))


def test_scenario_key_is_pinned():
    # the RNG stream of a scenario hashes this string: the fixed model's
    # values (mu, then sigma_u, sizes_meanlog, sizes_sdlog) keep their places
    assert Scenario(2, 0.0, 0.0, 0.0, 0.5).key() == "2|0.0|0.0|0.0|0.0|0.5|4.0|5.0|1.0"
    assert (Scenario(5, 0.5, 1.0, 0.2, 1 / 3, n_reps=7, seed=9).key()
            == "5|0.0|0.5|1.0|0.2|0.3333333333333333|4.0|5.0|1.0")


def test_scenario_replicates_are_capped():
    for k in (2, 5):
        _scenario(k=k, n_reps=MAX_REPLICATE_STUDIES // k)
        with pytest.raises(ValidationError, match="replicate-studies"):
            _scenario(k=k, n_reps=MAX_REPLICATE_STUDIES // k + 1)
    with pytest.raises(ValidationError, match="replicate-studies"):
        _scenario(n_reps=10 ** 15)


def test_draw_study_sizes_rules():
    rng = np.random.default_rng(0)
    n = draw_study_sizes(5, rng, size=(2000,))
    assert n.shape == (2000, 5)
    assert np.all(n >= 12)
    assert np.all(n % 12 == 0)
    for p in (0.5, 1 / 3, 0.25):
        arm = n * p
        assert np.allclose(arm, np.round(arm))
    # the sizes are lognormal(5, 1) draws rounded to multiples of 12; the
    # few draws below 6 round to 0 and floor to 12
    raw = np.random.default_rng(0).lognormal(5.0, 1.0, (2000, 5))
    assert np.array_equal(n, np.maximum(12, 12 * np.round(raw / 12)))
    small = raw < 6.0
    assert small.any() and np.all(n[small] == 12)


def test_arm_sizes_clip_both_arms_to_one():
    # _arm_sizes rounds p * n with np.rint: np.round's bits, a tie at .5
    # going to the even neighbour (13 / 2 -> 6, 15 / 2 -> 8)
    small = np.array([[1, 2, 3, 12, 13], [24, 36, 100, 7, 2]])
    for n in (small, np.arange(2, 400)):
        for p in (0.01, 0.1, 0.25, 0.3, 1 / 3, 0.5, 0.75, 0.99):
            n1, n2 = simulation._arm_sizes(n, p)
            expected = np.clip(np.round(p * n).astype(int), 1, n - 1)
            assert n1.dtype == expected.dtype and np.array_equal(n1, expected)
            assert np.array_equal(n2, n - expected)
    assert simulation._arm_sizes(np.array([13, 15]), 1 / 2)[0].tolist() == [6, 8]


def test_numpy_round_with_0_decimals_is_rint():
    """The draw calls np.rint for np.round's bits; numpy's round with 0
    decimals is its rint (pinned with numpy, see the workflow)."""
    rng = np.random.default_rng(4)
    x = np.concatenate([
        np.arange(-40, 40) + 0.5,  # ties
        rng.lognormal(5.0, 1.0, 5000) / 12.0,
        np.outer(simulation.P_GRID, np.arange(1, 500)).ravel(),
        [-0.0, 0.0, -0.5, 0.49999999999999994, 2.0 ** 52 + 1, np.inf, -np.inf, np.nan],
    ])
    assert np.round(x).tobytes() == np.rint(x).tobytes()


def test_numpy_mean_is_add_reduce_over_the_count():
    """_finite_median and the mean bias take np.mean's steps: np.add.reduce
    over the axis, divided by the count (pinned with numpy, see the
    workflow)."""
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.standard_normal((6, 1001)), rng.lognormal(0.0, 3.0, (6, 1001))])
    for part in (x, x[:, 499:500], x[:, 499:501], x[:, ::7], x.T):
        n = part.shape[-1]
        assert np.mean(part, axis=-1).tobytes() == (np.add.reduce(part, axis=-1) / n).tobytes()


@pytest.mark.parametrize("n_reps", [1, 2, 3, 7, 1000, 1001])
def test_finite_median_is_np_median(n_reps):
    rng = np.random.default_rng(n_reps)
    rows = np.concatenate([
        rng.lognormal(0.0, 1.0, (4, n_reps)),
        rng.integers(0, 3, (2, n_reps)).astype(float),  # ties at the middle
        np.full((1, n_reps), 2.5),  # all equal
        np.full((1, n_reps), -0.0),
        rng.choice([-0.0, 0.0], (2, n_reps)),  # equal as values, not as bits
        rng.choice([-1.0, -0.0, 0.0, 1.0], (2, n_reps)),
        # many ties: in a few of these rows, a one-rank partition at n // 2
        # leaves a value below the lower middle one in slot n // 2 - 1
        rng.integers(0, 10, (500, n_reps)).astype(float),
    ])
    untouched = rows.copy()
    got = simulation._finite_median(rows)
    assert got.tobytes() == np.median(untouched, axis=-1).tobytes()
    # the argument is partitioned in place at n // 2
    hi = n_reps // 2
    assert np.array_equal(rows[:, hi], np.sort(untouched, axis=-1)[:, hi])  # -0.0 == 0.0
    assert (rows[:, :hi] <= rows[:, hi:hi + 1]).all() and (rows[:, hi:] >= rows[:, hi:hi + 1]).all()
    assert n_reps < 3 or not np.array_equal(rows, untouched)


@pytest.mark.parametrize("k", [0, -1])
def test_draw_study_sizes_rejects_k_below_one(k):
    with pytest.raises(ValidationError, match="^draw_study_sizes: k must be >= 1$"):
        draw_study_sizes(k, np.random.default_rng(0))


def test_draw_study_sizes_median():
    rng = np.random.default_rng(2)
    n = draw_study_sizes(1, rng, size=(100000,)).ravel()
    assert np.median(n) == pytest.approx(math.exp(5.0), rel=0.05)


def test_generate_degenerate_scenario():
    sc = _scenario(k=3)
    y_sub, se_sub, n_arm = simulation._draw_replicates(sc, scenario_rng(sc), 50)
    assert y_sub.shape == se_sub.shape == n_arm.shape == (50, 3, 2)
    # tau = Delta = sigma_Delta = 0: subgroup means all equal mu; only
    # sampling noise remains, so |y| stays within a few se
    assert np.all(np.abs(y_sub - sc.mu) < 6 * se_sub)


def test_generated_identities():
    # the study rows are the inverse-variance aggregates of their arms,
    # and se = sigma_u / sqrt(n) exactly
    sc = _scenario(k=4, tau=0.7, delta=0.5, sigma_delta=0.3, p=1 / 3)
    y_sub, se_sub, n_arm = simulation._draw_replicates(sc, scenario_rng(sc), 20)
    y_stu, se_stu = study_rows(y_sub, se_sub)
    w = se_sub ** -2
    assert y_stu == pytest.approx((w * y_sub).sum(-1) / w.sum(-1), rel=1e-12)
    assert se_stu == pytest.approx(w.sum(-1) ** -0.5, rel=1e-12)
    assert se_sub == pytest.approx(simulation.SIGMA_U / np.sqrt(n_arm), rel=1e-12)
    # the two common-effect forms agree to 1e-12
    mu_stu = mu_ce(y_stu, se_stu ** -2.0)
    assert mu_stu == pytest.approx(mu_ce_subgroup(y_sub, se_sub), rel=1e-12)


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


def test_scenario_grid_is_bounded_before_any_scenario_is_built(monkeypatch):
    """A grid above MAX_SCENARIOS is refused from its axis lengths alone; one
    at the ceiling is built."""
    made = []
    monkeypatch.setattr(simulation, "Scenario", lambda *args, **settings: made.append(args))
    values = [i / 1000 for i in range(1000)]
    with pytest.raises(ValidationError, match="^scenario_grid: 45000000 scenarios exceed 160000$"):
        scenario_grid(tau=values, delta=values)
    with pytest.raises(ValidationError, match="^scenario_grid: 160001 scenarios exceed 160000$"):
        scenario_grid(k=2, tau=[0.0] * 160_001, delta=0, sigma_delta=0, p=0.5)
    assert made == []
    scenario_grid(k=2, tau=[0.0] * simulation.MAX_SCENARIOS, delta=0, sigma_delta=0, p=0.5)
    assert len(made) == simulation.MAX_SCENARIOS


def test_scenario_grid_order_and_shared_settings():
    grid = scenario_grid(k=[3, 2], tau=0.5, delta=[0, 1], sigma_delta=0, p=[1 / 2, 1 / 4],
                         n_reps=7, seed=9)
    assert [(s.k, s.delta, s.p) for s in grid] == [
        (k, d, p) for k in (3, 2) for d in (0.0, 1.0) for p in (0.5, 0.25)
    ]
    assert {(s.tau, s.sigma_delta, s.n_reps, s.seed) for s in grid} == {(0.5, 0.0, 7, 9)}
    assert all(type(s.k) is int and type(s.delta) is float for s in grid)
    full = scenario_grid()
    assert [(s.k, s.tau, s.delta, s.sigma_delta, s.p) for s in full] == [
        (k, t, d, sd, p) for k in simulation.K_GRID for t in simulation.TAU_GRID
        for d in simulation.DELTA_GRID for sd in simulation.SIGMA_DELTA_GRID
        for p in simulation.P_GRID
    ]
    assert {(s.n_reps, s.seed) for s in full} == {(simulation.DEFAULT_N_REPS, 0)}


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
        the batch size and runs the work in this process."""

        def __init__(self, max_workers):
            pools.append([max_workers])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            pools[-1].append(chunksize)
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    scenarios = scenario_grid(
        k=2, tau=[0.0, 0.5, 1.0], delta=0.0, sigma_delta=0.0, p=0.5, n_reps=20, seed=5
    )
    serial = run_scenarios(scenarios, jobs=1)
    for cpus, jobs, expected in ((2, 10 ** 6, 2), (64, 10 ** 6, 3), (64, 2, 2)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        capped = run_scenarios(scenarios, jobs=jobs)
        assert pools[-1] == [expected, 1]
        assert [m.ci_metrics for m in capped] == [m.ci_metrics for m in serial]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_scenarios(scenarios, jobs=10 ** 6)
    run_scenarios(scenarios, jobs=0)
    assert len(pools) == 3
    grid = scenario_grid(n_reps=1, seed=5)  # the full grid: 1125 scenarios
    monkeypatch.setattr(simulation, "run_scenario", lambda s: s)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert run_scenarios(grid, jobs=2) == grid
    assert pools[-1] == [2, 17]


def test_importing_the_package_loads_no_process_pool():
    code = (
        "import sys, fewmeta, fewmeta.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    src = os.path.dirname(os.path.dirname(simulation.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


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
    # the scenario's fields, and the fixed model's values
    assert parsed[0]["scenario"] == {
        "k": 2, "tau": 0.0, "delta": 0.0, "sigma_delta": 0.0, "p": 0.5, "n_reps": 100,
        "seed": 123, "mu": 0.0, "sigma_u": 4.0, "sizes_meanlog": 5.0, "sizes_sdlog": 1.0,
    }
    assert results[0].n_reps == sc.n_reps == 100


def _per_row_metrics_csv(results):
    """metrics_to_csv as it was before its row templates, the reference: one
    f-string per row, each method's metrics in sorted order."""
    yield "k,tau,delta,sigma_delta,p,n_reps,seed,kind,method,metric,value\r\n"
    for res in results:
        s = res.scenario
        base = f"{s.k},{s.tau!r},{s.delta!r},{s.sigma_delta!r},{s.p!r},{s.n_reps},{s.seed}"
        yield "".join(
            f"{base},{kind},{method},{metric},{value!r}\r\n"
            for kind, methods, metrics in (("tau2", TAU2_METHODS, res.tau_metrics),
                                           ("ci", CI_METHODS, res.ci_metrics))
            for method in methods
            for metric, value in sorted(metrics[method].items())
        )


def test_metrics_csv_templates_write_the_per_row_bytes(monkeypatch):
    results = [run_scenario(sc) for sc in (
        _scenario(k=3, tau=0.5, delta=0.2, sigma_delta=0.1, p=1 / 3, n_reps=50),
        _scenario(k=5, tau=1e-300, delta=-1.0, p=0.25, n_reps=1, seed=2 ** 64 - 1),
    )]

    def failing_bounds(*args, **kwargs):
        """HKSJ fails in every replicate, MKH in every third."""
        result = meta_kernel(*args, **kwargs)
        hksj, mkh = result.intervals["HKSJ"], result.intervals["MKH"]
        upper = mkh.upper.copy()
        upper[::3] = np.nan
        intervals = {**result.intervals, "HKSJ": hksj._replace(lower=np.full_like(hksj.lower, -np.inf)),
                     "MKH": mkh._replace(upper=upper)}
        return dataclasses.replace(result, intervals=intervals)

    monkeypatch.setattr(simulation, "meta_kernel", failing_bounds)
    failed = run_scenario(_scenario(k=2, tau=0.1, n_reps=30))
    assert failed.ci_metrics["HKSJ"]["failures"] == 30
    assert math.isnan(failed.ci_metrics["HKSJ"]["median_length"])
    assert failed.ci_metrics["MKH"]["failures"] == 10
    assert math.isfinite(failed.ci_metrics["MKH"]["median_length"])
    results.append(failed)
    assert list(simulation.metrics_to_csv(results)) == list(_per_row_metrics_csv(results))


def _canonical_summary(results):
    """metrics_to_json as it was before its entry template, the reference:
    canonical_json of the whole payload, each scenario's fields with the
    fixed model's values and its metric dicts."""
    fixed = dict(mu=simulation.MU, sigma_u=simulation.SIGMA_U,
                 sizes_meanlog=simulation.SIZES_MEANLOG, sizes_sdlog=simulation.SIZES_SDLOG)
    return canonical_json([
        {"scenario": {**fixed, **{f.name: getattr(r.scenario, f.name)
                                  for f in dataclasses.fields(Scenario)}},
         "tau_metrics": r.tau_metrics, "ci_metrics": r.ci_metrics}
        for r in results
    ])


def _with_values(res, **changes):
    """res with some metric values replaced, in new dicts; each change is
    named method__metric."""
    tau = {method: dict(m) for method, m in res.tau_metrics.items()}
    ci = {method: dict(m) for method, m in res.ci_metrics.items()}
    for name, value in changes.items():
        method, metric = name.split("__")
        (tau if method in tau else ci)[method][metric] = value
    return dataclasses.replace(res, tau_metrics=tau, ci_metrics=ci)


def test_summary_and_csv_writers_equal_their_references():
    """metrics_to_json equals canonical_json of the payload, and
    metrics_to_csv the per-row CSV, on results whose metrics hold NaN,
    +-inf and -0.0, a numpy float (whose repr is no JSON number) and a
    numpy scenario field, next to ordinary rows."""
    ordinary = [run_scenario(sc) for sc in (
        _scenario(k=3, tau=0.5, delta=0.2, sigma_delta=0.1, p=1 / 3, n_reps=50),
        _scenario(k=5, tau=1e-300, delta=-1.0, p=0.25, n_reps=1, seed=2 ** 64 - 1),
    )]
    results = [
        ordinary[0],
        _with_values(ordinary[0], HKSJ__median_length=math.nan, DL__bias=-math.inf),
        _with_values(ordinary[1], MAX1__bias=math.inf, ZH__coverage=-0.0, DLS__bias_mc_se=-0.0),
        ordinary[1],
        _with_values(ordinary[0], MKH__median_length=np.float64(0.25)),
        run_scenario(_scenario(tau=np.float64(0.5), n_reps=10)),
    ]
    assert metrics_to_json(results) == _canonical_summary(results)
    assert list(simulation.metrics_to_csv(results)) == list(_per_row_metrics_csv(results))
    for res in results:  # one entry alone, with a token row kept
        assert metrics_to_json([res]) == _canonical_summary([res])
    assert metrics_to_json([]) == canonical_json([]) == "[]\n"


def test_summary_refuses_what_canonical_json_refuses():
    res = _with_values(run_scenario(_scenario(n_reps=10)), HCS_MAX1__coverage=object())
    with pytest.raises(TypeError):
        _canonical_summary([res])
    with pytest.raises(TypeError):
        metrics_to_json([res])


def test_token_row_is_made_once_and_leaves_the_fields_alone():
    res = run_scenario(_scenario(k=3, tau=0.2, n_reps=30))
    assert "token_row" not in vars(res)
    row, numbers = res.token_row
    assert res.token_row is res.token_row and numbers
    assert row.split("\n") == [line.rsplit(",", 1)[1] for line in
                                "".join(simulation.metrics_to_csv([res])).splitlines()[1:]]
    copy = dataclasses.replace(res)
    assert copy == res and repr(copy) == repr(res) and "token_row" not in vars(copy)
    assert pickle.loads(pickle.dumps(res)) == res
    nan = _with_values(res, ZH__median_length=math.nan)
    assert nan.token_row[1] is False and nan.token_row[0] != row


def test_run_scenario_raises_the_kernel_error(monkeypatch):
    def failing_kernel(*args, **kwargs):
        result = meta_kernel(*args, **kwargs)
        return dataclasses.replace(result, errors={"ZH": "zh_variance: failed",
                                                   "HKSJ": "hksj_scale: failed"})

    monkeypatch.setattr(simulation, "meta_kernel", failing_kernel)
    with pytest.raises(ValidationError, match="^zh_variance: failed$"):  # the first error
        run_scenario(_scenario(n_reps=20))


def test_write_metrics_csv_keeps_target_on_failure(tmp_path, monkeypatch):
    path = tmp_path / "metrics.csv"
    path.write_text("previous run\n")
    good = run_scenario(_scenario(n_reps=20))
    with pytest.raises(AttributeError):
        write_metrics_csv([good, None], path)  # fails after the first rows

    def interrupted():
        yield good
        raise RuntimeError("worker lost")

    with pytest.raises(RuntimeError):
        write_metrics_csv(interrupted(), path)
    assert path.read_text() == "previous run\n"

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(report.os, "replace", failing_replace)
    with pytest.raises(OSError):
        write_metrics_csv([good], path)
    assert path.read_text() == "previous run\n"
    assert os.listdir(tmp_path) == ["metrics.csv"]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _replicate_dataset(y_stu, se_stu, y_sub, se_sub):
    """One replicate's rows as a dataset, the one split of each study selected."""
    specs = [(y, se, [make_split("g", arm_y, arm_se)])
             for y, se, arm_y, arm_se in zip(y_stu, se_stu, y_sub, se_sub)]
    return make_dataset(specs, selected=[0] * len(specs))


def test_dataset_path_equals_batch_path():
    """run_all_methods on each replicate, built as a MetaDataset, gives the
    batch's limits and df exactly, and the kernel on a stacked batch equals
    one R = 1 call per row, bit for bit."""
    sides = {MAX1: set(), MAX2: set()}
    for k, tau, delta in ((2, 0.0, 0.0), (3, 0.5, 0.0), (5, 0.0, 1.0), (3, 0.5, 1.0)):
        sc = _scenario(k=k, tau=tau, delta=delta, sigma_delta=0.2, p=1 / 3)
        y_sub, se_sub, _ = simulation._draw_replicates(sc, scenario_rng(sc), 150)
        y_stu, se_stu = study_rows(y_sub, se_sub)
        batch = meta_kernel(y_stu, se_stu, y_sub, se_sub)
        assert batch.errors == {}
        for tag, side in sides.items():
            side.update(batch.subgroup_wins[tag].tolist())
        for r in range(len(y_sub)):
            ds = _replicate_dataset(y_stu[r], se_stu[r], y_sub[r], se_sub[r])
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


_ORDERED = ("HKSJ", "MKH", "HCS_MAX1", "HCS_MAX2")


def _ordering_scenario(seed=123):
    return _scenario(k=3, delta=0.2, sigma_delta=0.2, n_reps=150, seed=seed)


def test_variance_ordering_equals_the_one_dataset_loop():
    """The batch gives the counts of drawing each replicate alone, from the
    same stream, and running the one-dataset path on it."""
    for seed in (0, 5):
        sc = _ordering_scenario(seed=seed)
        rng = scenario_rng(sc)
        hits = violations = 0
        for _ in range(sc.n_reps):
            y_sub, se_sub, _ = simulation._draw_replicates(sc, rng, 1)
            y, se = study_rows(y_sub[0], se_sub[0])
            if cochran_q(y, se) >= sc.k - 1:
                continue
            hits += 1
            results, errors = run_all_methods(_replicate_dataset(y, se, y_sub[0], se_sub[0]))
            assert errors == {}
            var = [{r.method: r.variance for r in results}[m] for m in _ORDERED]
            violations += not all(lo <= hi * (1 + 1e-12) for lo, hi in zip(var, var[1:]))
        assert violations == 0 and 0 < hits < sc.n_reps
        assert variance_ordering(sc) == (hits, 0)


def _edited_kernel(edit, seen):
    """meta_kernel, with edit(variances, rows) applied to the variances of
    every fourth replicate; seen collects the kernel's inputs and its own
    variances."""

    def kernel(y, se, *args, **kwargs):
        result = meta_kernel(y, se, *args, **kwargs)
        if y is None:
            y, se = study_rows(*args[:2])
        var = {m: result.intervals[m].variance for m in _ORDERED}
        rows = np.arange(len(y)) % 4 == 0
        seen.append((cochran_q(y, se) < y.shape[-1] - 1, rows, var))
        cis = dict(result.intervals)
        for m, v in edit(dict(var), rows).items():
            cis[m] = cis[m]._replace(variance=v)
        return dataclasses.replace(result, intervals=cis)

    return kernel


def test_variance_ordering_counts_swapped_variances(monkeypatch):
    sc = _ordering_scenario()
    seen = []

    def swap(var, rows):
        mkh, hcs1 = var["MKH"], var["HCS_MAX1"]
        return {"MKH": np.where(rows, hcs1, mkh), "HCS_MAX1": np.where(rows, mkh, hcs1)}

    monkeypatch.setattr(simulation, "meta_kernel", _edited_kernel(swap, seen))
    qualifying, violations = variance_ordering(sc)
    [(q_low, rows, var)] = seen
    # swapped, MKH's old variance is out of order iff HCS_MAX1's exceeded it
    expected = np.count_nonzero(q_low & rows & (var["HCS_MAX1"] > var["MKH"] * (1 + 1e-12)))
    assert qualifying == np.count_nonzero(q_low)
    assert violations == expected > 0


def test_variance_ordering_counts_nan_variances(monkeypatch):
    sc = _ordering_scenario()
    seen = []

    def fail(var, rows):
        return {"HCS_MAX2": np.where(rows, np.nan, var["HCS_MAX2"])}

    monkeypatch.setattr(simulation, "meta_kernel", _edited_kernel(fail, seen))
    qualifying, violations = variance_ordering(sc)
    [(q_low, rows, _)] = seen
    assert qualifying == np.count_nonzero(q_low)
    assert violations == np.count_nonzero(q_low & rows) > 0


@pytest.mark.parametrize("sizes", [[1, 12], [0, 12], [-5, 12], [12], [12.5, 12], [12, 10 ** 30]],
                         ids=["one", "zero", "negative", "too-few", "fractional", "beyond-int64"])
def test_validate_expectation_refuses_bad_fixed_sizes(sizes):
    """Each study needs n >= 2, so that both arms hold a subject, as a whole
    number that numpy's int64 holds; a short list is not broadcast. These
    used to give NaN means, a broadcast, a truncated 12 or an
    OverflowError."""
    with pytest.raises(ValidationError) as exc:
        validate_expectation(_scenario(n_reps=50), sizes)
    assert str(exc.value) == f"validate_expectation: sizes must be 2 integers in [2, 2**63), got {sizes!r}"


def test_validate_expectation_reports_the_kernels_error():
    """Sizes the check takes can still give weights too far apart for the
    kernel: its message is raised."""
    with pytest.raises(ValidationError, match="^tau2_dl: degenerate weight configuration$"):
        validate_expectation(_scenario(n_reps=50), [12, 10 ** 16])

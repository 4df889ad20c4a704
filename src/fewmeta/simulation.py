"""Monte Carlo evaluation of the heterogeneity estimators and CI methods.

Data follow the three-level hierarchical model: study effects theta_i ~
N(mu, tau^2), within-study interaction effects delta_i ~ N(Delta,
sigma_Delta^2), subgroup means theta_{i,1} = theta_i - (1 - p) delta_i and
theta_{i,2} = theta_i + p delta_i (so the prevalence-weighted average is
theta_i exactly), and observations y_{i,j} ~ N(theta_{i,j}, s_{i,j}^2).
A scenario sets k, tau, Delta, sigma_Delta and p (and n_reps and seed);
the rest of the model is fixed: mu = 0, s_{i,j} = 4 / sqrt(n_{i,j}), and
study sizes n_i drawn from lognormal(5, 1), rounded to a multiple of 12
with a floor of 12, then split into two arms in proportion p.

All replicate-level computation is vectorized, on arrays: no dataset
records are built from simulated data. One call of the kernel
`intervals.meta_kernel` evaluates every tau^2 estimator and CI method over
a scenario's replicates, the same code that analyses one dataset, and each
metric is aggregated for all methods in one call. The kernel is handed the
arms alone (meta_kernel(None, None, y_sub, se_sub)), lays them out itself
and aggregates the study rows from the arm weights it pools.
A scenario takes numpy's direct paths with the bits of its wrappers. The
draw rounds with np.rint, which np.round with 0 decimals calls. Median
lengths come from one partition rank, made in place on a temporary
(_finite_median): ndarray.partition, the lower middle by np.maximum.reduce
and the mean as np.add.reduce over the middle slots divided by their count,
np.mean's own steps. The mean bias and its Monte Carlo SE come from one
np.add.reduce, then np.mean's and np.std's own steps (divide by n;
subtract, square, sum, divide by n - 1, square root); counts are
np.add.reduce over booleans, np.count_nonzero's int64 values.
Each metric value is formatted once: a ScenarioMetrics keeps its token row,
the repr of its 44 values in metrics.csv's row order, made the first time a
writer needs it. metrics.csv fills one template per scenario with it, its
common start joined with the rows' suffixes (_ROW_SUFFIXES). The summary
fills one entry template per scenario, which canonical_json writes once from
a skeleton with placeholder leaves (_summary_template), and joins the
entries; a leaf that is not a finite float or an int (a NaN median length,
say) takes canonical_json's spelling instead.
`fewmeta validate`'s Monte Carlo checks live here too: the expectation
oracle and the variance ordering, the latter in one kernel call.
Scenarios are embarrassingly parallel and each derives its own RNG stream
from a content hash, making results independent of the execution schedule.
With jobs > 1 they go to a process pool in batches (see run_scenarios);
the pool machinery is imported only then. metrics.csv is streamed into its
atomic write one scenario at a time.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import numbers
import operator
import os
import re
from dataclasses import dataclass, fields
from functools import cached_property
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .data import MAX_ABS_EFFECT, ValidationError, canonical_json
from .estimators import DL, DLS, TAU2_METHODS, expected_tau2_dls
from .intervals import CI_METHODS, HCS_MAX1, HCS_MAX2, HKSJ, MKH, meta_kernel
from .report import write_atomic

K_GRID = (2, 3, 5)
TAU_GRID = (0.0, 0.1, 0.2, 0.5, 1.0)
DELTA_GRID = (0.0, 0.1, 0.2, 0.5, 1.0)
SIGMA_DELTA_GRID = (0.0, 0.1, 0.2, 0.5, 1.0)
P_GRID = (1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0)

# the fixed model: the true mean, s = SIGMA_U / sqrt(n), and the log-scale
# mean and SD of the study sizes
MU, SIGMA_U, SIZES_MEANLOG, SIZES_SDLOG = 0.0, 4.0, 5.0, 1.0
DEFAULT_N_REPS = 1000

# Upper bound on n_reps x k per scenario. A scenario draws every replicate at
# once: at its peak, _draw_replicates' (R, k, 2) arrays and the kernel's
# weights, pools and per-replicate results hold at most about 400 bytes per
# replicate-study (measured with tracemalloc at R = 200 000: 360 B at k = 2,
# 207 B at k = 5, 185 B at k = 9), so the cap keeps one scenario, and so each
# worker process, below about 1 GB.
MAX_REPLICATE_STUDIES = 2_500_000

# Upper bound on a grid's scenario count. It bounds what simulate holds until
# the write, about 6.0 KB per scenario (tracemalloc over 3000 scenarios: 151 B
# for the Scenario, 3.7 KB for its metrics, 0.7 KB for its token row, 1.4 KB
# for its summary entry), about 1 GB at the cap. It does not bound the peak:
# while the summary is joined, its entries and the joined text coexist, about
# 7.4 KB per scenario in all, so a grid at the cap peaks near 1.2 GB.
MAX_SCENARIOS = 160_000


_INTEGER_FIELDS, _REAL_FIELDS = ("k", "n_reps", "seed"), ("tau", "delta", "sigma_delta", "p")


@dataclass(frozen=True)
class Scenario:
    """One point of the simulation design; mu is the fixed true mean MU."""

    k: int
    tau: float
    delta: float
    sigma_delta: float
    p: float
    n_reps: int = DEFAULT_N_REPS
    seed: int = 0
    mu: ClassVar[float] = MU

    def __post_init__(self):
        # each field is kept as an int or a float, whatever number type it
        # came as, so that equal scenarios have one key() and so one stream
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if type(value) is not int:
                try:
                    object.__setattr__(self, name, operator.index(value))
                except TypeError:
                    raise ValidationError(f"scenario: {name} must be an integer") from None
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if type(value) is not float:
                if not isinstance(value, numbers.Real):
                    raise ValidationError(f"scenario: {name} must be a real number")
                try:
                    value = float(value)
                except OverflowError:  # an int or a Fraction beyond any double: out of range
                    value = math.inf if value > 0 else -math.inf
                object.__setattr__(self, name, value)
        if self.k < 2:
            raise ValidationError("scenario: k must be >= 2")
        for name in ("tau", "delta", "sigma_delta"):
            if not abs(getattr(self, name)) <= MAX_ABS_EFFECT:
                raise ValidationError(
                    f"scenario: {name} must be finite with |{name}| <= {MAX_ABS_EFFECT:g}"
                )
        if self.tau < 0 or self.sigma_delta < 0:
            raise ValidationError("scenario: tau and sigma_delta must be >= 0")
        if not (0.0 < self.p < 1.0):
            raise ValidationError("scenario: p must be in (0, 1)")
        if self.n_reps < 1:
            raise ValidationError("scenario: n_reps must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValidationError("scenario: seed must be in [0, 2^64)")
        if self.n_reps * self.k > MAX_REPLICATE_STUDIES:
            raise ValidationError(
                f"scenario: n_reps x k = {self.n_reps} x {self.k} exceeds "
                f"{MAX_REPLICATE_STUDIES} replicate-studies (about 1 GB)"
            )

    def key(self) -> str:
        """Canonical content string; drives per-scenario RNG derivation. Its
        order, the fixed model's values included, fixes every stream."""
        return "|".join(
            repr(v)
            for v in (
                self.k, MU, self.tau, self.delta, self.sigma_delta, self.p,
                SIGMA_U, SIZES_MEANLOG, SIZES_SDLOG,
            )
        )


# each method's metric names, in the order of its metrics dict
_TAU_METRICS = ("bias", "bias_mc_se", "zero_proportion", "zero_count")
_CI_METRICS = ("coverage", "coverage_mc_se", "median_length", "failures")


@dataclass(frozen=True)
class ScenarioMetrics:
    """Aggregated Monte Carlo metrics of one scenario.

    tau_metrics maps each heterogeneity estimator to mean bias of tau-hat
    (on the standard deviation scale, against the true tau), its Monte
    Carlo SE, and the proportion/count of zero estimates. ci_metrics maps
    each interval method to empirical coverage of the true mean, its
    binomial SE, the median interval length, and the failure count. Each
    method's metrics are named by _TAU_METRICS and _CI_METRICS.

    The metric dicts are not changed after a ScenarioMetrics is made: both
    writers read its token row, which is formatted from them once and kept.
    """

    scenario: Scenario
    tau_metrics: dict
    ci_metrics: dict

    @property
    def n_reps(self) -> int:
        return self.scenario.n_reps

    @cached_property
    def token_row(self) -> tuple[str, bool]:
        """(row, numbers): the repr of the 44 metric values in metrics.csv's
        row order, one a line, and whether each of them is also the JSON
        encoder's spelling of its value: a finite float or an int. Made the
        first time a writer needs it and then kept in the instance's
        __dict__ (a frozen dataclass allows that), as one string of about
        0.6 KB; eq, repr, dataclasses.replace and pickling see only the
        fields."""
        values = _metric_values(self)
        row = "\n".join(map(repr, values))
        return row, _json_numbers(values, row)


def scenario_rng(scenario: Scenario) -> np.random.Generator:
    """Independent, schedule-free RNG stream for one scenario.

    The stream depends only on the scenario content and seed, never on
    worker assignment or execution order.
    """
    digest = hashlib.sha256(scenario.key().encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    ss = np.random.SeedSequence(entropy=[scenario.seed, *words])
    return np.random.default_rng(ss)


def draw_study_sizes(k, rng, size=None):
    """Study sizes: lognormal(SIZES_MEANLOG, SIZES_SDLOG) draws rounded to
    the nearest multiple of 12, floored at 12 so that prevalences 1/2, 1/3
    and 1/4 give integer arms.

    `size` may extend the shape with leading replicate axes; the last axis
    always has length k.
    """
    if k < 1:
        raise ValidationError("draw_study_sizes: k must be >= 1")
    shape = (k,) if size is None else tuple(size) + (k,)
    draws = rng.lognormal(mean=SIZES_MEANLOG, sigma=SIZES_SDLOG, size=shape)
    return np.maximum(12, 12 * np.rint(draws / 12.0)).astype(int)


def _arm_sizes(n, p):
    """Split study sizes into two arm sizes, keeping both >= 1."""
    n = np.asarray(n)
    n1 = np.rint(p * n).astype(int)
    n1 = np.minimum(np.maximum(n1, 1), n - 1)
    return n1, n - n1


def _draw_replicates(scenario: Scenario, rng, n_reps: int, sizes=None):
    """Generate subgroup-level arrays for a batch of replicates.

    Returns (y_sub, se_sub, n_arm) with shapes (R, k, 2), (R, k, 2),
    (R, k, 2). When `sizes` is given it is held fixed across replicates
    (fixed-weights mode).
    """
    k = scenario.k
    if sizes is None:
        n = draw_study_sizes(k, rng, size=(n_reps,))
    else:
        n = np.broadcast_to(np.asarray(sizes, dtype=int), (n_reps, k))
    n_arm = np.empty((n_reps, k, 2), dtype=int)
    n_arm[..., 0], n_arm[..., 1] = _arm_sizes(n, scenario.p)
    se = SIGMA_U / np.sqrt(n_arm)

    theta = MU + scenario.tau * rng.standard_normal((n_reps, k))
    delta_i = scenario.delta + scenario.sigma_delta * rng.standard_normal((n_reps, k))
    y_sub = np.empty((n_reps, k, 2))  # theta_sub, then the sampling noise added in place
    np.subtract(theta, (1.0 - scenario.p) * delta_i, out=y_sub[..., 0])
    np.add(theta, scenario.p * delta_i, out=y_sub[..., 1])
    y_sub += se * rng.standard_normal((n_reps, k, 2))
    return y_sub, se, n_arm


def scenario_grid(k=None, tau=None, delta=None, sigma_delta=None, p=None, **settings):
    """Cartesian grid of scenarios over the five design axes, k slowest and
    p fastest; each axis is None (its full grid), a scalar, or a sequence of
    values. `settings` are the remaining Scenario fields, n_reps and seed,
    shared by every point. The full grid has 1125 points; a grid of more
    than MAX_SCENARIOS is refused before any scenario is built."""

    def axis(value, default):
        if value is None:
            return default
        return [value] if np.isscalar(value) else list(value)

    axes = [axis(k, K_GRID), axis(tau, TAU_GRID), axis(delta, DELTA_GRID),
            axis(sigma_delta, SIGMA_DELTA_GRID), axis(p, P_GRID)]
    count = math.prod(map(len, axes))
    if count > MAX_SCENARIOS:
        raise ValidationError(f"scenario_grid: {count} scenarios exceed {MAX_SCENARIOS}")
    scenarios = [Scenario(*point, **settings) for point in itertools.product(*axes)]
    if not scenarios:
        raise ValidationError("scenario_grid: empty grid")
    return scenarios


def _finite_median(x):
    """np.median(x, axis=-1) of an all-finite x, bit for bit, from one
    partition rank instead of np.median's two (and its NaN rank and pass).
    x is a temporary: it is partitioned and overwritten in place.

    x is partitioned at hi = n // 2 only (ndarray.partition). For even n,
    the lower middle value, rank lo = hi - 1, is the largest of the values
    below rank hi (np.maximum.reduce, ndarray.max's own call), and is
    written into slot lo; np.median's partition at [lo, hi] puts the same
    two values in the same two slots, and its np.mean of slots lo..hi is
    np.add.reduce over them divided by their count, as here. Equal values
    have equal bits, except +0.0 and -0.0, and a mean of zeros is +0.0
    either way (the sum starts from +0.0)."""
    n = x.shape[-1]
    lo, hi = (n - 1) // 2, n // 2
    x.partition(hi, axis=-1)
    if lo < hi:
        x[..., lo] = np.maximum.reduce(x[..., :hi], axis=-1)
    return np.add.reduce(x[..., lo:hi + 1], axis=-1) / (hi - lo + 1)


def run_scenario(scenario: Scenario) -> ScenarioMetrics:
    """Simulate n_reps meta-analyses and aggregate estimator and interval
    metrics. Deterministic given the scenario (including its seed)."""
    rng = scenario_rng(scenario)
    n_reps = scenario.n_reps
    y_sub, se_sub, _ = _draw_replicates(scenario, rng, n_reps)
    result = meta_kernel(None, None, y_sub, se_sub)
    if result.errors:
        raise ValidationError(next(iter(result.errors.values())))

    t2 = np.array([result.tau2[method] for method in TAU2_METHODS])
    bias = np.sqrt(t2) - scenario.tau
    mean = np.add.reduce(bias, axis=-1, keepdims=True) / n_reps  # np.mean's steps
    if n_reps > 1:  # np.std(bias, axis=-1, ddof=1)'s steps, from the same sum
        dev = bias - mean
        dev *= dev
        bias_se = np.sqrt(np.add.reduce(dev, axis=-1) / (n_reps - 1)) / np.sqrt(n_reps)
    else:
        bias_se = np.zeros(len(t2))
    zeros = np.add.reduce(t2 == 0.0, axis=-1)
    tau_metrics = {
        method: dict(zip(_TAU_METRICS, (b, se, z / n_reps, z)))
        for method, b, se, z in zip(
            TAU2_METHODS, mean[:, 0].tolist(), bias_se.tolist(), zeros.tolist()
        )
    }

    lower = np.array([result.intervals[method].lower for method in CI_METHODS])
    upper = np.array([result.intervals[method].upper for method in CI_METHODS])
    ok = np.isfinite(lower) & np.isfinite(upper)
    covered = ok & (lower <= MU) & (MU <= upper)
    coverage = np.add.reduce(covered, axis=-1) / n_reps
    coverage_se = np.sqrt(coverage * (1.0 - coverage) / n_reps)
    failures = n_reps - np.add.reduce(ok, axis=-1)
    lengths = upper - lower
    if ok.all():  # one median call serves every method
        median_length = _finite_median(lengths).tolist()
    else:  # each method's median over its finite intervals
        median_length = [
            float(np.median(row[keep])) if keep.any() else float("nan")
            for row, keep in zip(lengths, ok)
        ]
    ci_metrics = {
        method: dict(zip(_CI_METRICS, (c, se, m, f)))
        for method, c, se, m, f in zip(
            CI_METHODS, coverage.tolist(), coverage_se.tolist(), median_length, failures.tolist()
        )
    }

    return ScenarioMetrics(scenario=scenario, tau_metrics=tau_metrics, ci_metrics=ci_metrics)


def run_scenarios(scenarios: Sequence[Scenario], jobs: int = 1):
    """Run many scenarios, optionally across processes. Output order and
    values are independent of the worker count, which is capped at the
    CPU count and the number of scenarios. Each worker is handed batches
    of about 1/32 of its share, few enough to keep the pool's per-task
    round trips small and many enough to balance the costlier k = 5 tail of
    the grid."""
    workers = min(jobs, os.cpu_count() or 1, len(scenarios))
    if workers <= 1:
        return [run_scenario(s) for s in scenarios]
    from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

    chunksize = max(1, len(scenarios) // (32 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_scenario, scenarios, chunksize=chunksize))


def validate_expectation(scenario: Scenario, sizes):
    """Check the raw subgroup-level tau^2 estimator against its analytic
    mean at fixed weights.

    The k study `sizes`, integers in [2, 2**63) so that both arms hold a
    subject, are given and held fixed; only the effects are resampled.
    Passes iff the Monte Carlo mean of the raw estimator, as the kernel the
    commands run computes it, is within 3 Monte Carlo SEs of
    A * tau^2 + (Delta^2 + sigma_Delta^2) * B_coefficient.
    """
    try:
        fixed = [operator.index(n) for n in sizes]
    except TypeError:
        fixed = []
    if len(fixed) != scenario.k or not all(2 <= n < 2 ** 63 for n in fixed):
        raise ValidationError(f"validate_expectation: sizes must be {scenario.k} integers "
                              f"in [2, 2**63), got {sizes!r}")
    rng = scenario_rng(scenario)
    y_sub, se_sub, n_arm = _draw_replicates(scenario, rng, scenario.n_reps, sizes=fixed)
    result = meta_kernel(None, None, y_sub, se_sub)
    if result.errors:
        raise ValidationError(next(iter(result.errors.values())))
    raw = result.tau2_raw[DLS]
    p_arr = n_arm[0, :, 0] / np.sum(n_arm[0], axis=-1)
    expected = float(
        expected_tau2_dls(
            se_sub[0], p_arr, scenario.tau, scenario.delta, scenario.sigma_delta
        )
    )
    mean_raw = float(np.mean(raw))
    mc_se = float(np.std(raw, ddof=1) / np.sqrt(scenario.n_reps))
    return {
        "mean_raw": mean_raw,
        "expected": expected,
        "mc_se": mc_se,
        "passed": bool(abs(mean_raw - expected) <= 3.0 * mc_se),
    }


def variance_ordering(scenario: Scenario):
    """(qualifying, violations): the number of the scenario's n_reps
    replicates whose Cochran Q is below k - 1 (DL's zero branch: its raw
    value (Q - (k - 1)) / denom, denom > 0, is negative), and of those not
    ordered HKSJ <= mKH <= HCS(MAX1) <= HCS(MAX2) within a relative
    slack of 1e-12; a NaN variance (a failed method) is out of order. The
    replicates are drawn one at a time from the scenario's stream, stacked
    and run through one kernel call."""
    rng = scenario_rng(scenario)
    draws = [_draw_replicates(scenario, rng, 1)[:2] for _ in range(scenario.n_reps)]
    result = meta_kernel(None, None, *map(np.concatenate, zip(*draws)))
    qualifying = result.tau2_raw[DL] < 0
    var = [result.intervals[method].variance for method in (HKSJ, MKH, HCS_MAX1, HCS_MAX2)]
    ordered = np.logical_and.reduce([lo <= hi * (1.0 + 1e-12) for lo, hi in zip(var, var[1:])])
    return int(np.count_nonzero(qualifying)), int(np.count_nonzero(qualifying & ~ordered))


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

_CSV_HEADER = "k,tau,delta,sigma_delta,p,n_reps,seed,kind,method,metric,value\r\n"
# a method's rows take its metrics in sorted order
_TAU_ROWS, _CI_ROWS = sorted(_TAU_METRICS), sorted(_CI_METRICS)
_TAU_ROW, _CI_ROW = operator.itemgetter(*_TAU_ROWS), operator.itemgetter(*_CI_ROWS)
# a scenario's rows after their common start, in order, each with its value's token
_ROW_SUFFIXES = tuple(
    f",{kind},{method},{metric},%s\r\n"
    for kind, methods, metrics in (("tau2", TAU2_METHODS, _TAU_ROWS),
                                   ("ci", CI_METHODS, _CI_ROWS))
    for method in methods
    for metric in metrics
)


def _json_numbers(values, text: str) -> bool:
    """Whether `text`, the reprs of `values`, spells each value as the JSON
    encoder does: every value is a float or an int, and none is nan, inf or
    -inf, the only such reprs with an "n"."""
    return {float, int}.issuperset(map(type, values)) and "n" not in text


def _metric_values(res: ScenarioMetrics) -> list:
    """A scenario's 44 metric values in metrics.csv's row order."""
    tau, ci = res.tau_metrics, res.ci_metrics
    return [*[v for method in TAU2_METHODS for v in _TAU_ROW(tau[method])],
            *[v for method in CI_METHODS for v in _CI_ROW(ci[method])]]


def metrics_to_csv(results: Iterable[ScenarioMetrics]):
    """Tidy CSV, one row per scenario x method x metric, as chunks produced
    as they are written: the header, then one chunk per scenario, formatted
    by one `%` over its rows' template from the scenario's token row, so
    each row costs its value's repr, made once for both writers."""
    yield _CSV_HEADER
    for res in results:
        s = res.scenario
        base = f"{s.k},{s.tau!r},{s.delta!r},{s.sigma_delta!r},{s.p!r},{s.n_reps},{s.seed}"
        yield (base + base.join(_ROW_SUFFIXES)) % tuple(res.token_row[0].split("\n"))


def write_metrics_csv(results: Iterable[ScenarioMetrics], path):
    """metrics_to_csv(results), streamed atomically into `path`."""
    write_atomic(path, metrics_to_csv(results))


_SCENARIO_FIELDS = tuple(f.name for f in fields(Scenario))  # all scalars
_SCENARIO_VALUES = operator.attrgetter(*_SCENARIO_FIELDS)
_FIXED_MODEL = dict(mu=MU, sigma_u=SIGMA_U, sizes_meanlog=SIZES_MEANLOG, sizes_sdlog=SIZES_SDLOG)


def _summary_template():
    """(template, order): one summary entry as canonical_json writes it,
    with a `%s` for each of its 51 leaves, and the itemgetter that puts
    the leaves, the scenario's fields and then its token row, in the
    template's order. canonical_json writes the entry once, from a
    skeleton whose leaves are numbered placeholders, so its key order and
    separators are the one writer's."""
    leaf = map("@{}".format, itertools.count())
    skeleton = {
        "scenario": {**_FIXED_MODEL, **{name: next(leaf) for name in _SCENARIO_FIELDS}},
        "tau_metrics": {method: {metric: next(leaf) for metric in _TAU_ROWS}
                        for method in TAU2_METHODS},
        "ci_metrics": {method: {metric: next(leaf) for metric in _CI_ROWS}
                       for method in CI_METHODS},
    }
    parts = re.split(r'"@(\d+)"', canonical_json(skeleton)[:-1])
    template = "%s".join(part.replace("%", "%%") for part in parts[::2])
    return template, operator.itemgetter(*map(int, parts[1::2]))


_SUMMARY_ENTRY, _SUMMARY_ORDER = _summary_template()


def _summary_entry(res: ScenarioMetrics) -> str:
    """canonical_json of one scenario's summary entry, without its newline.
    Where every leaf is a finite float or an int, its token is its repr,
    the encoder's own spelling; otherwise (a NaN median length, say) each
    leaf is spelled by canonical_json."""
    scenario = _SCENARIO_VALUES(res.scenario)
    tokens = [*map(repr, scenario)]
    row, numbers = res.token_row
    if numbers and _json_numbers(scenario, "".join(tokens)):
        leaves = (*tokens, *row.split("\n"))
    else:
        leaves = [canonical_json(v)[:-1] for v in (*scenario, *_metric_values(res))]
    return _SUMMARY_ENTRY % _SUMMARY_ORDER(leaves)


def metrics_to_json(results: Sequence[ScenarioMetrics]) -> str:
    """The simulate summary: canonical_json of the list of every scenario's
    fields, the fixed model's values and its metrics, written as
    "[" + ",".join(entries) + "]\n" from one template per entry."""
    return "[" + ",".join([_summary_entry(r) for r in results]) + "]\n"

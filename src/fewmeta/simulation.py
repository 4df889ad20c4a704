"""Monte Carlo evaluation of the heterogeneity estimators and CI methods.

Data follow the three-level hierarchical model: study effects theta_i ~
N(mu, tau^2), within-study interaction effects delta_i ~ N(Delta,
sigma_Delta^2), subgroup means theta_{i,1} = theta_i - (1 - p) delta_i and
theta_{i,2} = theta_i + p delta_i (so the prevalence-weighted average is
theta_i exactly), and observations y_{i,j} ~ N(theta_{i,j}, s_{i,j}^2)
with s_{i,j} = sigma_u / sqrt(n_{i,j}).

All replicate-level computation is vectorized: one call of the kernel
`intervals.meta_kernel` evaluates every tau^2 estimator and CI method over
a scenario's replicates, the same code that analyses one dataset, and each
metric is aggregated for all methods in one call. The arm weights are
computed once per scenario and shared by the study rows and the kernel.
Scenarios are embarrassingly parallel and each derives its own RNG stream
from a content hash, making results independent of the execution schedule.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence

import numpy as np

from .data import (
    MetaDataset,
    Study,
    StudyEstimate,
    SubgroupArm,
    SubgroupSplit,
    ValidationError,
    canonical_json,
)
from .estimators import TAU2_METHODS, _arm_weights, _sum, dls_raw, expected_tau2_dls
from .intervals import CI_METHODS, meta_kernel
from .report import write_atomic

K_GRID = (2, 3, 5)
TAU_GRID = (0.0, 0.1, 0.2, 0.5, 1.0)
DELTA_GRID = (0.0, 0.1, 0.2, 0.5, 1.0)
SIGMA_DELTA_GRID = (0.0, 0.1, 0.2, 0.5, 1.0)
P_GRID = (1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0)

DEFAULT_SIGMA_U = 4.0
DEFAULT_SIZES_MEANLOG = 5.0
DEFAULT_SIZES_SDLOG = 1.0
DEFAULT_N_REPS = 1000

# Upper bound on n_reps x k per scenario. A scenario draws every replicate at
# once: at its peak, _draw_replicates' (R, k, 2) arrays and the kernel's
# weights, pools and per-replicate results hold at most about 400 bytes per
# replicate-study (measured with tracemalloc at R = 200 000: 360 B at k = 2,
# 207 B at k = 5, 185 B at k = 9), so the cap keeps one scenario, and so each
# worker process, below about 1 GB.
MAX_REPLICATE_STUDIES = 2_500_000


@dataclass(frozen=True)
class Scenario:
    """One point of the simulation design."""

    k: int
    tau: float
    delta: float
    sigma_delta: float
    p: float
    mu: float = 0.0
    sigma_u: float = DEFAULT_SIGMA_U
    n_reps: int = DEFAULT_N_REPS
    seed: int = 0
    sizes_meanlog: float = DEFAULT_SIZES_MEANLOG
    sizes_sdlog: float = DEFAULT_SIZES_SDLOG

    def __post_init__(self):
        if self.k < 2:
            raise ValidationError("scenario: k must be >= 2")
        if self.tau < 0 or self.sigma_delta < 0:
            raise ValidationError("scenario: tau and sigma_delta must be >= 0")
        if not (0.0 < self.p < 1.0):
            raise ValidationError("scenario: p must be in (0, 1)")
        if self.sigma_u <= 0:
            raise ValidationError("scenario: sigma_u must be > 0")
        if self.n_reps < 1:
            raise ValidationError("scenario: n_reps must be >= 1")
        if self.n_reps * self.k > MAX_REPLICATE_STUDIES:
            raise ValidationError(
                f"scenario: n_reps x k = {self.n_reps} x {self.k} exceeds "
                f"{MAX_REPLICATE_STUDIES} replicate-studies (about 1 GB)"
            )
        if self.sizes_sdlog < 0:
            raise ValidationError("scenario: sizes_sdlog must be >= 0")

    def key(self) -> str:
        """Canonical content string; drives per-scenario RNG derivation."""
        return "|".join(
            repr(v)
            for v in (
                self.k,
                self.mu,
                self.tau,
                self.delta,
                self.sigma_delta,
                self.p,
                self.sigma_u,
                self.sizes_meanlog,
                self.sizes_sdlog,
            )
        )


@dataclass(frozen=True)
class ScenarioMetrics:
    """Aggregated Monte Carlo metrics of one scenario.

    tau_metrics maps each heterogeneity estimator to mean bias of tau-hat
    (on the standard deviation scale, against the true tau), its Monte
    Carlo SE, and the proportion/count of zero estimates. ci_metrics maps
    each interval method to empirical coverage of the true mean, its
    binomial SE, the median interval length, and the failure count.
    """

    scenario: Scenario
    n_reps: int
    tau_metrics: dict = field(default_factory=dict)
    ci_metrics: dict = field(default_factory=dict)


def scenario_rng(scenario: Scenario) -> np.random.Generator:
    """Independent, schedule-free RNG stream for one scenario.

    The stream depends only on the scenario content and seed, never on
    worker assignment or execution order.
    """
    digest = hashlib.sha256(scenario.key().encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    ss = np.random.SeedSequence(entropy=[scenario.seed & (2 ** 64 - 1), *words])
    return np.random.default_rng(ss)


def draw_study_sizes(k, rng, meanlog=DEFAULT_SIZES_MEANLOG, sdlog=DEFAULT_SIZES_SDLOG, size=None):
    """Study sizes: lognormal draws rounded to the nearest multiple of 12,
    floored at 12 so that prevalences 1/2, 1/3 and 1/4 give integer arms.

    `size` may extend the shape with leading replicate axes; the last axis
    always has length k.
    """
    if k < 1:
        raise ValidationError("draw_study_sizes: k must be >= 1")
    shape = (k,) if size is None else tuple(size) + (k,)
    draws = rng.lognormal(mean=meanlog, sigma=sdlog, size=shape)
    n = 12 * np.round(draws / 12.0)
    return np.maximum(12, n).astype(int)


def _arm_sizes(n, p):
    """Split study sizes into two arm sizes, keeping both >= 1."""
    n = np.asarray(n)
    n1 = np.round(p * n).astype(int)
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
        n = draw_study_sizes(
            k, rng, scenario.sizes_meanlog, scenario.sizes_sdlog, size=(n_reps,)
        )
    else:
        n = np.broadcast_to(np.asarray(sizes, dtype=int), (n_reps, k))
    n_arm = np.empty((n_reps, k, 2), dtype=int)
    n_arm[..., 0], n_arm[..., 1] = _arm_sizes(n, scenario.p)
    se = scenario.sigma_u / np.sqrt(n_arm)

    theta = scenario.mu + scenario.tau * rng.standard_normal((n_reps, k))
    delta_i = scenario.delta + scenario.sigma_delta * rng.standard_normal((n_reps, k))
    y_sub = np.empty((n_reps, k, 2))  # theta_sub, then the sampling noise added in place
    np.subtract(theta, (1.0 - scenario.p) * delta_i, out=y_sub[..., 0])
    np.add(theta, scenario.p * delta_i, out=y_sub[..., 1])
    y_sub += se * rng.standard_normal((n_reps, k, 2))
    return y_sub, se, n_arm


def _study_rows(y_sub, se_sub, arm_weights=None):
    """Aggregate arm estimates into study-level rows (inverse-variance);
    arm_weights is _arm_weights(se_sub), for a caller that already holds it."""
    w_sub, sw = _arm_weights(se_sub) if arm_weights is None else arm_weights
    return _sum(w_sub * y_sub) / sw, sw ** -0.5


def generate_meta_analysis(scenario: Scenario, rng) -> MetaDataset:
    """One simulated dataset as a MetaDataset, with the single generated
    split per study pre-selected."""
    y_sub, se_sub, n_arm = _draw_replicates(scenario, rng, 1)
    return _replicate_dataset(y_sub[0], se_sub[0], n_arm[0])


def _replicate_dataset(y_sub, se_sub, n_arm) -> MetaDataset:
    """One replicate's (k, 2) arm arrays as a MetaDataset: study rows
    aggregated from the arms, the single split per study selected."""
    y_stu, se_stu = _study_rows(y_sub, se_sub)
    studies = []
    for i in range(len(y_sub)):
        sid = f"study-{i + 1}"
        arms = tuple(
            SubgroupArm(
                j=j + 1,
                y=float(y_sub[i, j]),
                se=float(se_sub[i, j]),
                n=int(n_arm[i, j]),
            )
            for j in (0, 1)
        )
        split = SubgroupSplit("subgroup", arms)
        est = StudyEstimate(sid, float(y_stu[i]), float(se_stu[i]), n=int(n_arm[i].sum()))
        studies.append(Study(est, (split,), selected=0))
    return MetaDataset(tuple(studies))


def scenario_grid(
    k=None,
    tau=None,
    delta=None,
    sigma_delta=None,
    p=None,
    n_reps=DEFAULT_N_REPS,
    seed=0,
    sigma_u=DEFAULT_SIGMA_U,
    sizes_meanlog=DEFAULT_SIZES_MEANLOG,
    sizes_sdlog=DEFAULT_SIZES_SDLOG,
):
    """Cartesian grid of scenarios; each filter is None (full axis), a
    scalar, or a sequence of values. The full grid has 1125 points."""

    def axis(value, default):
        if value is None:
            return list(default)
        if np.isscalar(value):
            return [value]
        return list(value)

    scenarios = [
        Scenario(
            k=int(kv),
            tau=float(tv),
            delta=float(dv),
            sigma_delta=float(sv),
            p=float(pv),
            sigma_u=sigma_u,
            n_reps=n_reps,
            seed=seed,
            sizes_meanlog=sizes_meanlog,
            sizes_sdlog=sizes_sdlog,
        )
        for kv in axis(k, K_GRID)
        for tv in axis(tau, TAU_GRID)
        for dv in axis(delta, DELTA_GRID)
        for sv in axis(sigma_delta, SIGMA_DELTA_GRID)
        for pv in axis(p, P_GRID)
    ]
    if not scenarios:
        raise ValidationError("scenario_grid: empty grid")
    return scenarios


def _finite_median(x):
    """np.median(x, axis=-1) of an all-finite x, bit for bit: its partition
    at the middle ranks and its mean of them, without its NaN pass."""
    n = x.shape[-1]
    mid = [(n - 1) // 2, n // 2]
    return np.mean(np.partition(x, mid, axis=-1)[..., mid[0]:mid[1] + 1], axis=-1)


def run_scenario(scenario: Scenario, level=0.95) -> ScenarioMetrics:
    """Simulate n_reps meta-analyses and aggregate estimator and interval
    metrics. Deterministic given the scenario (including its seed)."""
    rng = scenario_rng(scenario)
    n_reps = scenario.n_reps
    y_sub, se_sub, _ = _draw_replicates(scenario, rng, n_reps)
    # Replicate-minor memory, same shape and values: each study or arm column
    # the kernel adds is then a contiguous run of n_reps values.
    y_sub, se_sub = np.asfortranarray(y_sub), np.asfortranarray(se_sub)
    weights = _arm_weights(se_sub)  # shared by the study rows and the arm pool
    y_stu, se_stu = _study_rows(y_sub, se_sub, weights)

    result = meta_kernel(y_stu, se_stu, y_sub, se_sub, level=level, arm_weights=weights)
    if result.errors:
        raise ValidationError(next(iter(result.errors.values())))

    t2 = np.array([result.tau2[method] for method in TAU2_METHODS])
    bias = np.sqrt(t2) - scenario.tau
    bias_se = np.std(bias, axis=-1, ddof=1) / np.sqrt(n_reps) if n_reps > 1 else np.zeros(len(t2))
    means, zeros = np.mean(bias, axis=-1), np.count_nonzero(t2 == 0.0, axis=-1)
    tau_metrics = {
        method: {"bias": b, "bias_mc_se": se, "zero_proportion": z / n_reps, "zero_count": z}
        for method, b, se, z in zip(TAU2_METHODS, means.tolist(), bias_se.tolist(), zeros.tolist())
    }

    lower = np.array([result.intervals[method].lower for method in CI_METHODS])
    upper = np.array([result.intervals[method].upper for method in CI_METHODS])
    ok = np.isfinite(lower) & np.isfinite(upper)
    covered = ok & (lower <= scenario.mu) & (scenario.mu <= upper)
    coverage = np.count_nonzero(covered, axis=-1) / n_reps
    coverage_se = np.sqrt(coverage * (1.0 - coverage) / n_reps)
    failures = n_reps - np.count_nonzero(ok, axis=-1)
    lengths = upper - lower
    if ok.all():  # one median call serves every method
        median_length = _finite_median(lengths).tolist()
    else:  # each method's median over its finite intervals
        median_length = [
            float(np.median(row[keep])) if keep.any() else float("nan")
            for row, keep in zip(lengths, ok)
        ]
    ci_metrics = {
        method: {"coverage": c, "coverage_mc_se": se, "median_length": m, "failures": f}
        for method, c, se, m, f in zip(
            CI_METHODS, coverage.tolist(), coverage_se.tolist(), median_length, failures.tolist()
        )
    }

    return ScenarioMetrics(
        scenario=scenario, n_reps=n_reps, tau_metrics=tau_metrics, ci_metrics=ci_metrics
    )


def run_scenarios(scenarios: Sequence[Scenario], jobs: int = 1, level=0.95):
    """Run many scenarios, optionally across processes. Output order and
    values are independent of the worker count, which is capped at the
    CPU count and the number of scenarios."""
    workers = min(jobs, os.cpu_count() or 1, len(scenarios))
    if workers <= 1:
        return [run_scenario(s, level) for s in scenarios]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_scenario, scenarios, [level] * len(scenarios)))


def validate_expectation(scenario: Scenario, n_reps: Optional[int] = None, sizes=None):
    """Check the raw subgroup-level tau^2 estimator against its analytic
    mean at fixed weights.

    Study sizes are drawn once (or supplied) and held fixed; only the
    effects are resampled. Passes iff the Monte Carlo mean of the raw
    estimator is within 3 Monte Carlo SEs of
    A * tau^2 + (Delta^2 + sigma_Delta^2) * B_coefficient.
    """
    if n_reps is not None:
        scenario = replace(scenario, n_reps=int(n_reps))
    rng = scenario_rng(scenario)
    if sizes is None:
        sizes = draw_study_sizes(
            scenario.k, rng, scenario.sizes_meanlog, scenario.sizes_sdlog
        )
    y_sub, se_sub, n_arm = _draw_replicates(scenario, rng, scenario.n_reps, sizes=sizes)
    raw = dls_raw(y_sub, se_sub)
    p_arr = n_arm[0, :, 0] / np.sum(n_arm[0], axis=-1)
    expected = float(
        expected_tau2_dls(
            se_sub[0], p_arr, scenario.tau, scenario.delta, scenario.sigma_delta
        )
    )
    mean_raw = float(np.mean(raw))
    mc_se = float(np.std(raw, ddof=1) / np.sqrt(scenario.n_reps))
    diff = abs(mean_raw - expected)
    return {
        "n_reps": scenario.n_reps,
        "sizes": [int(v) for v in np.asarray(sizes).ravel()],
        "mean_raw": mean_raw,
        "expected": expected,
        "mc_se": mc_se,
        "abs_diff": diff,
        "passed": bool(diff <= 3.0 * mc_se),
    }


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

_CSV_HEADER = "k,tau,delta,sigma_delta,p,n_reps,seed,kind,method,metric,value\r\n"


def write_metrics_csv(results: Sequence[ScenarioMetrics], path):
    """Tidy CSV, one row per scenario x method x metric, written atomically."""
    rows = [_CSV_HEADER]
    for res in results:
        s = res.scenario
        base = f"{s.k},{s.tau!r},{s.delta!r},{s.sigma_delta!r},{s.p!r},{s.n_reps},{s.seed}"
        for kind, methods, metrics in (("tau2", TAU2_METHODS, res.tau_metrics),
                                       ("ci", CI_METHODS, res.ci_metrics)):
            for method in methods:
                for metric, value in sorted(metrics[method].items()):
                    rows.append(f"{base},{kind},{method},{metric},{value!r}\r\n")
    write_atomic(path, "".join(rows))


_SCENARIO_FIELDS = tuple(f.name for f in fields(Scenario))  # all scalars


def metrics_to_json(results: Sequence[ScenarioMetrics]) -> str:
    payload = [
        {
            "scenario": {name: getattr(r.scenario, name) for name in _SCENARIO_FIELDS},
            "tau_metrics": r.tau_metrics,
            "ci_metrics": r.ci_metrics,
        }
        for r in results
    ]
    return canonical_json(payload)

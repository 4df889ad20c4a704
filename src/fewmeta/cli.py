"""Command-line front end: analyze, select, simulate, validate.

Exit codes are a stable contract: 0 success, 2 input/validation error,
3 combination budget exceeded, 4 internal self-check failure. Validation
failures additionally emit a machine-readable JSON error object on
stderr. The environment variable FEWMETA_SEED provides a fallback seed
for the simulation subcommand.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import click
import numpy as np

from .data import ValidationError, load_csv
from .estimators import cochran_q, study_arrays
from .intervals import CIMethodConfig, run_all_methods, t_quantile
from .report import build_report, render_text, report_to_json, write_atomic
from .selection import (
    DEFAULT_MAX_COMBINATIONS,
    STRATEGIES,
    CombinationBudgetError,
    qs_histogram,
    select as select_splits,
    write_histogram_csv,
)
from .simulation import (
    DEFAULT_N_REPS,
    Scenario,
    generate_meta_analysis,
    metrics_to_json,
    run_scenarios,
    scenario_grid,
    scenario_rng,
    validate_expectation,
    write_metrics_csv,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_CHECK_FAILED = 4


def _fail(code: int, kind: str, message: str):
    click.echo(json.dumps({"error": kind, "message": message}), err=True)
    sys.exit(code)


def _parse_values(text, convert):
    """Comma-separated flag values; fractions like 1/3 are accepted."""
    if text is None:
        return None
    return [convert(part.strip()) for part in text.split(",") if part.strip()]


def _as_float(token: str) -> float:
    try:
        return float(Fraction(token)) if "/" in token else float(token)
    except ZeroDivisionError:
        raise ValidationError(f"cannot parse number {token!r}: zero denominator") from None


def _read_config(path) -> dict:
    """Flat key=value configuration file; blank lines and # comments
    are ignored."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


@click.group()
def main():
    """Random-effects meta-analysis of few studies, informed by
    within-study subgroup estimates."""


@main.command()
@click.argument("data_path", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--select",
    "strategy",
    type=click.Choice(list(STRATEGIES) + ["none"]),
    default="local",
    show_default=True,
    help="Subgroup split selection strategy.",
)
@click.option("--level", default=0.95, show_default=True, help="Confidence level.")
@click.option("--exp", is_flag=True, help="Present results on the ratio scale.")
@click.option("--zh-c", default=2, show_default=True, help="Leverage penalty exponent.")
@click.option("--max-combos", default=DEFAULT_MAX_COMBINATIONS, show_default=True)
@click.option("--json", "json_out", type=click.Path(dir_okay=False), help="Write the JSON report here.")
def analyze(data_path, strategy, level, exp, zh_c, max_combos, json_out):
    """Run all heterogeneity estimators and CI methods on a dataset."""
    try:
        config = CIMethodConfig(level=level, zh_penalty_c=zh_c)
        dataset = load_csv(data_path)
        sel = None
        if strategy != "none" and dataset.has_splits:
            sel = select_splits(dataset, strategy, max_combos)
            dataset = dataset.with_selection(sel.choices)
        report = build_report(dataset, sel, config)
    except CombinationBudgetError as exc:
        _fail(EXIT_BUDGET, "budget", str(exc))
    except ValidationError as exc:
        _fail(EXIT_VALIDATION, "validation", str(exc))
    if json_out:
        write_atomic(json_out, report_to_json(report))
    click.echo(render_text(report, exp=exp), nl=False)


@main.command()
@click.argument("data_path", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--strategy",
    type=click.Choice(list(STRATEGIES)),
    default="global",
    show_default=True,
)
@click.option("--histogram", type=click.Path(dir_okay=False), help="Write all (combination, Q_S) pairs here.")
@click.option("--max-combos", default=DEFAULT_MAX_COMBINATIONS, show_default=True)
def select(data_path, strategy, histogram, max_combos):
    """Pick one subgroup split per study maximizing the subgroup Q."""
    try:
        dataset = load_csv(data_path)
        result = select_splits(dataset, strategy, max_combos)
        if histogram:
            values, threshold = qs_histogram(dataset, max_combos)
            write_histogram_csv(values, histogram)
            click.echo(f"histogram: {len(values)} combinations -> {histogram}")
            click.echo(f"threshold (positive subgroup-level tau2): Q_S > {threshold}")
    except CombinationBudgetError as exc:
        _fail(EXIT_BUDGET, "budget", str(exc))
    except ValidationError as exc:
        _fail(EXIT_VALIDATION, "validation", str(exc))
    chosen = ", ".join(
        f"{study.study_id}={study.splits[c].split_name}"
        for study, c in zip(dataset.studies, result.choices)
    )
    click.echo(f"strategy: {result.strategy}")
    click.echo(f"choices: {chosen}")
    click.echo(f"Q_S: {result.q_s:.6g}")
    click.echo(f"combinations evaluated: {result.combinations_evaluated}")


@main.command()
@click.option("--reps", type=int, default=None, help="Replicates per scenario.")
@click.option("--k", "k_values", default=None, help="Comma list of study counts.")
@click.option("--tau", default=None, help="Comma list of tau values.")
@click.option("--delta", default=None, help="Comma list of Delta values.")
@click.option("--sigma-delta", default=None, help="Comma list of sigma_Delta values.")
@click.option("--prev", default=None, help="Comma list of prevalences (fractions allowed).")
@click.option("--seed", type=int, default=None, help="Base seed (fallback: FEWMETA_SEED).")
@click.option("--jobs", type=int, default=1, show_default=True, help="Worker processes (capped at the CPU and scenario counts).")
@click.option("--sizes-meanlog", type=float, default=None)
@click.option("--sizes-sdlog", type=float, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), help="Flat key=value config file (flags override).")
@click.option("--out", type=click.Path(dir_okay=False), default="metrics.csv", show_default=True)
@click.option("--summary", type=click.Path(dir_okay=False), help="Write a JSON summary here.")
def simulate(reps, k_values, tau, delta, sigma_delta, prev, seed, jobs,
             sizes_meanlog, sizes_sdlog, config_path, out, summary):
    """Run the Monte Carlo study over a (filtered) scenario grid."""
    try:
        cfg = _read_config(config_path) if config_path else {}

        def setting(flag, key, parse):
            if flag is not None:
                return flag
            if key in cfg:
                return parse(cfg[key])
            return None

        reps = setting(reps, "reps", int)
        k_values = setting(k_values, "k", str)
        tau = setting(tau, "tau", str)
        delta = setting(delta, "delta", str)
        sigma_delta = setting(sigma_delta, "sigma_delta", str)
        prev = setting(prev, "prev", str)
        seed = setting(seed, "seed", int)
        sizes_meanlog = setting(sizes_meanlog, "sizes_meanlog", float)
        sizes_sdlog = setting(sizes_sdlog, "sizes_sdlog", float)

        if seed is None:
            env_seed = os.environ.get("FEWMETA_SEED")
            if env_seed is None:
                raise ValidationError(
                    "a seed is required: pass --seed, set it in the config "
                    "file, or set FEWMETA_SEED"
                )
            seed = int(env_seed)
        if jobs < 1:
            raise ValidationError("--jobs must be >= 1")

        kwargs = {}
        if sizes_meanlog is not None:
            kwargs["sizes_meanlog"] = sizes_meanlog
        if sizes_sdlog is not None:
            kwargs["sizes_sdlog"] = sizes_sdlog
        scenarios = scenario_grid(
            k=_parse_values(k_values, int),
            tau=_parse_values(tau, _as_float),
            delta=_parse_values(delta, _as_float),
            sigma_delta=_parse_values(sigma_delta, _as_float),
            p=_parse_values(prev, _as_float),
            n_reps=reps if reps is not None else DEFAULT_N_REPS,
            seed=seed,
            **kwargs,
        )
    except (ValueError, OSError) as exc:
        _fail(EXIT_VALIDATION, "validation", str(exc))
    try:
        results = run_scenarios(scenarios, jobs=jobs)
    except ValidationError as exc:  # e.g. drawn study sizes beyond the int range
        _fail(EXIT_VALIDATION, "validation", str(exc))

    write_metrics_csv(results, out)
    click.echo(f"{len(results)} scenario(s) -> {out}")
    if summary:
        write_atomic(summary, metrics_to_json(results))
        click.echo(f"summary -> {summary}")


def run_self_checks(seed: int = 0):
    """The validate subcommand's checks; returns a list of
    (name, passed, detail) triples."""
    checks = []

    # Student-t quantiles against published reference values.
    t_refs = [(1, 0.975, 12.7062047362), (2, 0.975, 4.30265272991),
              (10, 0.975, 2.22813885196), (60, 0.975, 2.00029782106)]
    for df, p, ref in t_refs:
        got = t_quantile(df, p)
        checks.append(
            (f"t_quantile({df}, {p})", abs(got - ref) <= 1e-3,
             f"got {got:.6f}, reference {ref:.6f}")
        )

    # Expectation oracle at the symbolic fixed-weight cases.
    cases = [
        ("tau=0, Delta=0", dict(tau=0.0, delta=0.0, sigma_delta=0.0), 0.0),
        ("tau=1", dict(tau=1.0, delta=0.0, sigma_delta=0.0), 2.0 / 3.0),
        ("Delta=1", dict(tau=0.0, delta=1.0, sigma_delta=0.0), 1.0 / 3.0),
    ]
    for name, params, symbolic in cases:
        sc = Scenario(k=2, p=0.5, n_reps=20000, seed=seed, **params)
        rep = validate_expectation(sc, sizes=[32, 32])
        ok = rep["passed"] and abs(rep["expected"] - symbolic) <= 1e-12
        checks.append(
            (f"expectation oracle ({name})", ok,
             f"mean {rep['mean_raw']:.4f}, expected {rep['expected']:.4f}, "
             f"3*SE {3 * rep['mc_se']:.4f}")
        )

    # Variance ordering whenever Q < k - 1 (zero heterogeneity branch):
    # HKSJ <= CE = mKH <= HCS(max1) <= HCS(max2).
    sc = Scenario(k=3, tau=0.0, delta=0.2, sigma_delta=0.2, p=0.5, n_reps=1, seed=seed)
    rng = scenario_rng(sc)
    hits, violations = 0, 0
    for _ in range(400):
        dataset = generate_meta_analysis(sc, rng)
        y, se = study_arrays(dataset)
        if cochran_q(y, se) >= sc.k - 1:
            continue
        hits += 1
        results, errors = run_all_methods(dataset)
        if errors:
            violations += 1
            continue
        var = {r.method: r.variance for r in results}
        rel = 1.0 + 1e-12
        ordered = (
            var["HKSJ"] <= var["MKH"] * rel
            and var["MKH"] <= var["HCS_MAX1"] * rel
            and var["HCS_MAX1"] <= var["HCS_MAX2"] * rel
        )
        if not ordered:
            violations += 1
    checks.append(
        ("variance ordering when Q < k-1", hits > 0 and violations == 0,
         f"{hits} qualifying datasets, {violations} violations")
    )
    return checks


@main.command()
@click.option("--seed", type=int, default=0, show_default=True)
def validate(seed):
    """Run internal self-checks (quantiles, expectation oracle, variance
    ordering); nonzero exit if any fails."""
    checks = run_self_checks(seed)
    failed = 0
    for name, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        if not passed:
            failed += 1
        click.echo(f"[{status}] {name}: {detail}")
    if failed:
        _fail(EXIT_CHECK_FAILED, "self-check", f"{failed} check(s) failed")
    click.echo(f"all {len(checks)} checks passed")


if __name__ == "__main__":
    main()

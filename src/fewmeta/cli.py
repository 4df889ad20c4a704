"""Command-line front end: analyze, select, simulate, validate.

Exit codes are a stable contract: 0 success, 2 input/validation error or
an output file that cannot be written, 3 combination budget exceeded,
4 internal self-check failure. Validation and output failures additionally
emit a machine-readable JSON error object on stderr. Exits 2 and 3 are
enforced in one place for every command, the `main` group
(`_Commands.invoke`); a file is written inside `_output`, which turns an
OSError into exit 2 with an "output" error; `_distinct` exits 2 before a
command would write over its own input or another of its outputs;
`validate` exits 4 itself. Its Monte Carlo checks are computed in
`simulation` and only formatted here.
`simulate` reads its settings from one table, `_SETTINGS`, with precedence
flag > config file > FEWMETA_SEED (a fallback seed).
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile
from fractions import Fraction

import click

from .data import ValidationError, load_csv
from .intervals import t_quantile
from .report import build_report, render_text, report_to_json, write_atomic, write_files
from .selection import (
    DEFAULT_MAX_COMBINATIONS,
    STRATEGIES,
    CombinationBudgetError,
    qs_histogram,
    select as select_splits,
    write_histogram_csv,
)
from .simulation import (
    Scenario,
    metrics_to_csv,
    metrics_to_json,
    run_scenarios,
    scenario_grid,
    validate_expectation,
    variance_ordering,
)

EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_CHECK_FAILED = 4


def _write(text: str, err: bool = False):
    """Every byte a command writes to stdout (or stderr) goes through here.

    click.echo without `file=` wraps the default stream through a cache keyed
    by the stream, whose value for a stream that needs no wrapping is that
    stream itself, so every stream an in-process caller redirects to stays
    alive: over the benchmark's report_stream op, thousands of in-process
    `analyze` runs, peak RSS read 50 MB that way instead of 41. get_text_stream
    does the same wrapping (UTF-8 on an ASCII-configured stream included)
    without the cache, so each command writes its stdout in one call.
    `--help` and a bare `fewmeta` keep click's echo, about 1 KB a call."""
    stream = click.get_text_stream("stderr" if err else "stdout", errors=None)
    click.echo(text, file=stream, nl=False)


def _fail(code: int, kind: str, message: str):
    _write(json.dumps({"error": kind, "message": message}) + "\n", err=True)
    sys.exit(code)


class _Commands(click.Group):
    """The exit-code boundary of every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except CombinationBudgetError as exc:
            _fail(EXIT_BUDGET, "budget", str(exc))
        except ValidationError as exc:
            _fail(EXIT_VALIDATION, "validation", str(exc))


@contextlib.contextmanager
def _output(path=None):
    """Exit 2 for an output file that cannot be written, named `path` or else
    as the error names it (write_files names the target it failed at);
    write_files has left the old files, if any, as they were."""
    try:
        yield
    except OSError as exc:
        _fail(EXIT_VALIDATION, "output", f"cannot write {path or exc.filename}: {exc.strerror or exc}")


def _distinct(*files):
    """Raise unless the (name, path) pairs of `files` with a path name
    different files once symlinks are resolved: a command that wrote over
    its own input or its other output would lose it."""
    seen = {}
    for name, path in files:
        if path:
            real = os.path.realpath(path)
            if real in seen:
                first, given = seen[real]
                raise ValidationError(f"{first} and {name} name the same file, {given!r}")
            seen[real] = (name, path)


def _number(token: str) -> float:
    """A float; fractions like 1/3 are accepted."""
    try:
        return float(Fraction(token)) if "/" in token else float(token)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


def _values(convert):
    """Parser of a comma-separated list."""
    return lambda text: [convert(part.strip()) for part in text.split(",") if part.strip()]


# simulate's settings: name (its flag without the dashes, its config-file
# key) -> (scenario_grid argument, parser of the text value, flag help)
_SETTINGS = {
    "reps": ("n_reps", int, "Replicates per scenario."),
    "k": ("k", _values(int), "Comma list of study counts."),
    "tau": ("tau", _values(_number), "Comma list of tau values."),
    "delta": ("delta", _values(_number), "Comma list of Delta values."),
    "sigma_delta": ("sigma_delta", _values(_number), "Comma list of sigma_Delta values."),
    "prev": ("p", _values(_number), "Comma list of prevalences (fractions allowed)."),
    "seed": ("seed", int, "Base seed (fallback: FEWMETA_SEED)."),
}


def _read_config(path) -> dict:
    """Flat key=value configuration file of settings (UTF-8; a leading
    byte-order mark is skipped); blank lines and # comments are ignored."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = list(fh)
    except (OSError, UnicodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    values = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not eq or key not in _SETTINGS:
            raise ValidationError(f"{path}:{lineno}: expected setting=value with a setting "
                                  f"among {', '.join(_SETTINGS)}, got {line!r}")
        values[key] = value.strip()
    return values


def _grid_settings(flags: dict, config_path) -> dict:
    """scenario_grid's arguments: each setting's text from its flag, else
    the config file, else (the seed only) FEWMETA_SEED, parsed by its row
    of _SETTINGS."""
    texts = {"seed": os.environ["FEWMETA_SEED"]} if "FEWMETA_SEED" in os.environ else {}
    texts.update(_read_config(config_path) if config_path else {})
    texts.update((name, text) for name, text in flags.items() if text is not None)
    if "seed" not in texts:
        raise ValidationError("a seed is required: pass --seed, set it in the config file, "
                              "or set FEWMETA_SEED")
    grid = {}
    for name, text in texts.items():
        argument, parse, _ = _SETTINGS[name]
        try:
            grid[argument] = parse(text)
        except (ValueError, ArithmeticError) as exc:
            raise ValidationError(f"{name}: cannot parse {text!r}: {exc}") from None
    return grid


_max_combos = click.option("--max-combos", default=DEFAULT_MAX_COMBINATIONS, show_default=True,
                           help="Most split combinations the global search or a histogram may enumerate; more exits 3.")


@click.group(cls=_Commands)
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
@click.option("--level", default=0.95, show_default=True, help="Confidence level, in (0, 1).")
@click.option("--exp", is_flag=True, help="Present results on the ratio scale.")
@_max_combos
@click.option("--json", "json_out", type=click.Path(dir_okay=False), help="Write the JSON report here.")
def analyze(data_path, strategy, level, exp, max_combos, json_out):
    """Run all heterogeneity estimators and CI methods on a dataset."""
    _distinct(("DATA_PATH", data_path), ("--json", json_out))
    dataset = load_csv(data_path)
    sel = None
    if strategy != "none" and dataset.has_splits:
        sel = select_splits(dataset, strategy, max_combos)
        dataset = dataset.with_selection(sel.choices)
    report = build_report(dataset, sel, level)
    if json_out:
        with _output(json_out):
            write_atomic(json_out, report_to_json(report))
    _write(render_text(report, exp=exp))


@main.command()
@click.argument("data_path", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--strategy",
    type=click.Choice(list(STRATEGIES)),
    default="global",
    show_default=True,
    help="Subgroup split selection strategy.",
)
@click.option("--histogram", type=click.Path(dir_okay=False), help="Write all (combination, Q_S) pairs here.")
@_max_combos
def select(data_path, strategy, histogram, max_combos):
    """Pick one subgroup split per study maximizing the subgroup Q."""
    _distinct(("DATA_PATH", data_path), ("--histogram", histogram))
    dataset = load_csv(data_path)
    result = select_splits(dataset, strategy, max_combos)
    lines = []
    if histogram:
        values, threshold = qs_histogram(dataset, max_combos)
        with _output(histogram):
            write_histogram_csv(values, histogram)
        lines += [f"histogram: {len(values)} combinations -> {histogram}",
                  f"threshold (positive subgroup-level tau2): Q_S > {threshold}"]
    chosen = ", ".join(
        f"{study.study_id}={study.splits[c].split_name}"
        for study, c in zip(dataset.studies, result.choices)
    )
    lines += [f"strategy: {result.strategy}",
              f"choices: {chosen}",
              f"Q_S: {result.q_s:.6g}",
              f"combinations evaluated: {result.combinations_evaluated}"]
    _write("".join(line + "\n" for line in lines))


def _setting_options(command):
    """One option per row of _SETTINGS, each taking the setting's text."""
    for name, (_, parse, help_text) in reversed(_SETTINGS.items()):
        metavar = "INTEGER" if parse is int else "TEXT"
        command = click.option(f"--{name.replace('_', '-')}", name, metavar=metavar, help=help_text)(command)
    return command


@main.command()
@_setting_options
@click.option("--jobs", type=int, default=1, show_default=True, help="Worker processes (capped at the CPU and scenario counts).")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), help="Flat key=value config file (flags override).")
@click.option("--out", type=click.Path(dir_okay=False), default="metrics.csv", show_default=True, help="Write the per-scenario metrics CSV here.")
@click.option("--summary", type=click.Path(dir_okay=False), help="Write a JSON summary here.")
def simulate(jobs, config_path, out, summary, **flags):
    """Run the Monte Carlo study over a (filtered) scenario grid."""
    if jobs < 1:
        raise ValidationError("--jobs must be >= 1")
    scenarios = scenario_grid(**_grid_settings(flags, config_path))
    _distinct(("--config", config_path), ("--out", out), ("--summary", summary))
    for path in filter(None, (out, summary)):  # fail before the run, not after it
        with _output(path), tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))):
            pass
    results = run_scenarios(scenarios, jobs=jobs)
    outputs = [(summary, metrics_to_json(results))] if summary else []
    with _output():
        write_files(outputs + [(out, metrics_to_csv(results))])
    lines = [f"{len(results)} scenario(s) -> {out}"] + ([f"summary -> {summary}"] if summary else [])
    _write("".join(line + "\n" for line in lines))


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
    sc = Scenario(k=3, tau=0.0, delta=0.2, sigma_delta=0.2, p=0.5, n_reps=400, seed=seed)
    hits, violations = variance_ordering(sc)
    checks.append(
        ("variance ordering when Q < k-1", hits > 0 and violations == 0,
         f"{hits} qualifying datasets, {violations} violations")
    )
    return checks


@main.command()
@click.option("--seed", type=int, default=0, show_default=True, help="Seed of the Monte Carlo checks.")
def validate(seed):
    """Run internal self-checks (quantiles, expectation oracle, variance
    ordering); nonzero exit if any fails."""
    checks = run_self_checks(seed)
    lines = [f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}\n" for name, passed, detail in checks]
    failed = sum(not passed for _, passed, _ in checks)
    if not failed:
        lines.append(f"all {len(checks)} checks passed\n")
    _write("".join(lines))
    if failed:
        _fail(EXIT_CHECK_FAILED, "self-check", f"{failed} check(s) failed")


if __name__ == "__main__":
    main()

"""Analysis report assembly, JSON serialization and text rendering.

All analysis happens on the linear-predictor scale; the report carries
exact exponentiated values alongside (computed before any rounding) and
the text renderer decides which scale to present. JSON serialization is
canonical (sorted keys, fixed indentation) so that parsing a written
report and re-serializing it is byte-identical. Every JSON file fewmeta
writes (report, simulation summary, dataset) goes through the one writer
data.canonical_json, byte-identical to json.dumps(sort_keys=True, indent=2)
but built on the stdlib's C encoder.
"""

from __future__ import annotations

import math
import os
import tempfile
from decimal import ROUND_HALF_UP, Context, Decimal

from .data import MetaDataset, canonical_json, consistency_gaps
from .intervals import CIMethodConfig, dataset_kernel

REPORT_SCHEMA_VERSION = 1

# decimal half-up, with enough digits to quantize any finite double
_HALF_UP = Context(prec=400, rounding=ROUND_HALF_UP)


def round_half_up(value: float, digits: int = 3) -> float:
    """Presentation rounding: decimal half-up (so 0.6395 -> 0.640)."""
    if not math.isfinite(value):
        return value
    quantum = Decimal(1).scaleb(-digits)
    return float(_HALF_UP.quantize(Decimal(repr(value)), quantum))


def _exp(value: float) -> float:
    """exp on the ratio scale; a ratio too large for a double reads inf."""
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def _interval_entry(result) -> dict:
    return {
        "method": result.method,
        "point": result.point,
        "lower": result.lower,
        "upper": result.upper,
        "variance": result.variance,
        "df": result.df,
        "level": result.level,
        "tau2": result.tau2,
        "tau": math.sqrt(result.tau2),
        "fallback": result.fallback,
        "exp": {
            "point": _exp(result.point),
            "lower": _exp(result.lower),
            "upper": _exp(result.upper),
        },
    }


def build_report(dataset: MetaDataset, selection=None, config=CIMethodConfig()) -> dict:
    """Assemble the full analysis report for a dataset.

    `selection` is an optional SelectionResult; when given, its choices
    must already be applied to the dataset (see MetaDataset.with_selection).
    """
    result = dataset_kernel(dataset, config)
    results, errors = result.interval_results()
    tau2 = result.estimates()
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "dataset": {
            "k": dataset.k,
            "studies": [
                {
                    "study_id": s.study_id,
                    "n_splits": len(s.splits),
                    "selected_split": (
                        s.selected_split.split_name if s.selected_split else None
                    ),
                }
                for s in dataset.studies
            ],
        },
        "selection": None,
        "heterogeneity": {
            tag: {
                "tau2": est.tau2,
                "tau": est.tau,
                "tau2_raw": est.tau2_raw,
                "is_zero": est.is_zero,
                "winner": est.winner,
            }
            for tag, est in tau2.items()
        },
        "intervals": [_interval_entry(r) for r in results],
        "errors": errors,
        "diagnostics": {
            "consistency_gaps": [
                g for g in consistency_gaps(dataset) if g["inconsistent"]
            ],
            "fallback": any(r.fallback for r in results),
        },
    }
    if selection is not None:
        report["selection"] = {
            "strategy": selection.strategy,
            "choices": [
                dataset.studies[i].splits[c].split_name
                for i, c in enumerate(selection.choices)
            ],
            "q_s": selection.q_s,
            "combinations_evaluated": selection.combinations_evaluated,
        }
    return report


def report_to_json(report: dict) -> str:
    return canonical_json(report)


def render_text(report: dict, exp: bool = False) -> str:
    """Forest-plot-style text table of the report."""
    lines = []
    ds = report["dataset"]
    lines.append(f"studies: {ds['k']}")
    sel = report["selection"]
    if sel is not None:
        chosen = ", ".join(
            f"{s['study_id']}={name}"
            for s, name in zip(ds["studies"], sel["choices"])
        )
        lines.append(
            f"selection ({sel['strategy']}): {chosen}  "
            f"Q_S={round_half_up(sel['q_s'])}"
        )
    scale = "ratio" if exp else "linear"
    lines.append("")
    lines.append(f"{'method':<10} {'estimate':>9} {'lower':>9} {'upper':>9} "
                 f"{'df':>4} {'tau':>7}  ({scale} scale, level "
                 f"{report['intervals'][0]['level'] if report['intervals'] else '-'})")
    for entry in report["intervals"]:
        vals = entry["exp"] if exp else entry
        df = entry["df"] if entry["df"] is not None else "-"
        flag = " (fallback)" if entry["fallback"] else ""
        lines.append(
            f"{entry['method']:<10} "
            f"{round_half_up(vals['point']):>9.3f} "
            f"{round_half_up(vals['lower']):>9.3f} "
            f"{round_half_up(vals['upper']):>9.3f} "
            f"{df!s:>4} "
            f"{round_half_up(entry['tau']):>7.3f}{flag}"
        )
    for tag, msg in sorted(report["errors"].items()):
        lines.append(f"{tag:<10} failed: {msg}")
    het = report["heterogeneity"]
    lines.append("")
    lines.append(
        "heterogeneity tau: "
        + "  ".join(f"{tag}={round_half_up(het[tag]['tau'])}" for tag in sorted(het))
    )
    gaps = report["diagnostics"]["consistency_gaps"]
    if gaps:
        lines.append(f"warning: {len(gaps)} split(s) disagree with study rows")
    return "\n".join(lines) + "\n"


def write_atomic(path, text: str):
    """Write a file atomically (temp file in the same directory + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

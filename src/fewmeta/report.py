"""Analysis report assembly, JSON serialization and text rendering.

All analysis happens on the linear-predictor scale; the report carries
exact exponentiated values alongside (computed before any rounding) and
the text renderer decides which scale to present. Every JSON file fewmeta
writes (report, simulation summary) goes through the one writer
data.canonical_json: one line of sorted keys with "," and ":" separators
and a trailing newline, so that parsing a written report and
re-serializing it is byte-identical.

The text table rounds each number to three digits, half-up on its repr
(round_half_up), from the double itself unless 1000 times it lies within
1e-6 of a half or it is 1e6 or more, where Decimal rounds its repr.

Every output file (report, histogram, metrics.csv, summary) is written by
write_files, alone or, for simulate's pair, together: its chunks, each
encoded as UTF-8 once, go straight to the file descriptor of a temp file
beside the target as they are produced, and the temp file is renamed over
the target once every file is complete, so an interrupted write leaves the
old files intact. The file gets the mode open(path, "w") would give it: a
new file 0o666 less the umask, a replaced file its old mode.
"""

from __future__ import annotations

import math
import os
import stat
from contextlib import contextmanager
from decimal import ROUND_HALF_UP, Context, Decimal

from .data import MetaDataset, ValidationError, canonical_json, consistency_gaps
from .estimators import STUDY_SIDE, SUBGROUP_SIDE
from .intervals import dataset_kernel

REPORT_SCHEMA_VERSION = 1

# decimal half-up, with enough digits to quantize any finite double
_HALF_UP = Context(prec=400, rounding=ROUND_HALF_UP)
_MILLI = Decimal(1).scaleb(-3)  # reports show three digits


def round_half_up(value: float) -> float:
    """Presentation rounding: three digits, decimal half-up on repr(value)
    (0.6395 -> 0.640), which is
    Decimal(repr(value)).quantize(Decimal("0.001"), ROUND_HALF_UP).

    Below 1e6 in magnitude the double and its repr differ by less than 2.5e-7
    in thousandths (half an ulp of the value, times 1000, plus the rounding
    of that product), so where 1000 * |value| lies more than 1e-6 from a
    half the nearest thousandth is the same for both and the double alone
    decides it, away from zero on a half and with value's sign on a zero
    result; the thousandth's float is then one correctly rounded division.
    Any other value (near a half, 1e6 or more, inf or nan) takes the
    Decimal path, which returns inf and nan as they are."""
    thousandths = abs(value) * 1000.0
    if thousandths < 1e9:
        whole = math.floor(thousandths)
        part = thousandths - whole  # exact
        if abs(part - 0.5) > 1e-6:
            return math.copysign((whole + (part > 0.5)) / 1000.0, value)
    if not math.isfinite(value):
        return value
    return float(_HALF_UP.quantize(Decimal(repr(value)), _MILLI))


def _exp(value: float) -> float:
    """exp on the ratio scale; a ratio too large for a double reads inf."""
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def _interval_entry(result) -> dict:
    return {
        **vars(result),
        "tau": math.sqrt(result.tau2),
        "exp": {"point": _exp(result.point), "lower": _exp(result.lower), "upper": _exp(result.upper)},
    }


def build_report(dataset: MetaDataset, selection=None, level: float = 0.95) -> dict:
    """Assemble the full analysis report for a dataset at confidence level
    `level` (meta_kernel checks it).

    `selection` is an optional SelectionResult; when given, its choices
    must already be applied to the dataset (see MetaDataset.with_selection).
    """
    result = dataset_kernel(dataset, level)
    if result.errors:  # the first quantity that could not be computed
        raise ValidationError(next(iter(result.errors.values())))
    results, _ = result.interval_results()
    tau2 = {tag: float(value) for tag, value in result.tau2.items()}
    wins = result.subgroup_wins
    studies = [
        {"study_id": sid, "n_splits": count, "selected_split": name}
        for sid, count, name in zip(dataset.study_ids, dataset.split_count, dataset.selected_names)
    ]
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "dataset": {"k": dataset.k, "studies": studies},
        "selection": None,
        "heterogeneity": {
            tag: {
                "tau2": value,
                "tau": math.sqrt(value),
                "tau2_raw": float(result.tau2_raw[tag]),
                "is_zero": value == 0.0,
                "winner": (SUBGROUP_SIDE if wins[tag] else STUDY_SIDE) if tag in wins else None,
            }
            for tag, value in tau2.items()
        },
        "intervals": [_interval_entry(r) for r in results],
        "errors": {},  # empty: a report with a failed quantity is never built
        "diagnostics": {
            "consistency_gaps": [
                g for g in consistency_gaps(dataset) if g["inconsistent"]
            ],
            "fallback": result.fallback,
        },
    }
    if selection is not None:
        report["selection"] = {
            "strategy": selection.strategy,
            "choices": [s["selected_split"] for s in studies],
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


def write_atomic(path, content):
    """Write a file atomically: `content` (one string, or an iterable of
    string chunks written as they are produced) goes into a temp file in the
    same directory, which is renamed over `path` once complete. On any error
    the temp file is removed and `path` is left as it was.

    write_files does the same for several files at once; only its renames,
    one per file, leave a window in which some targets are new and the
    others old."""
    write_files(((path, content),))


def write_files(outputs):
    """Write several files as one: each (path, content) pair of `outputs`
    goes into a temp file as write_atomic's does, and only when every temp
    file is complete are they renamed over their targets, in order. An error
    before the first rename removes every temp file and leaves every target as
    it was. The renames are not one atomic step: if a later rename fails, or
    the process dies between two renames, the earlier targets are already
    replaced and the later ones are not. An OSError names as its `filename`
    the target it happened at."""
    staged = []  # (temp file, target), in the order of the renames
    try:
        for path, content in outputs:
            with _naming(path):
                staged.append((_written_temp(path, content), path))
        while staged:
            tmp, path = staged[0]
            with _naming(path):
                os.replace(tmp, path)
            del staged[0]
    finally:
        for tmp, _ in staged:
            os.unlink(tmp)


@contextmanager
def _naming(path):
    try:
        yield
    except OSError as exc:
        exc.filename, exc.filename2 = os.fspath(path), None
        raise


def _written_temp(path, content) -> str:
    """A new temp file beside `path` holding `content`, with the mode
    open(path, "w") would give it; removed again if writing fails."""
    chunks = (content,) if isinstance(content, str) else content
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    # created as open(path, "w") creates a file: the kernel applies the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            for chunk in chunks:
                data = chunk.encode()
                while data:  # os.write may write less than it is given
                    data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        if mode is not None:
            os.chmod(tmp, mode)
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp

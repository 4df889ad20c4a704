"""Domain records and dataset construction for subgroup-informed meta-analysis.

All effects live on the linear-predictor scale (e.g. log hazard ratios);
exponentiation to ratio scales is presentation-only and happens in the
reporting layer.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Iterable, Optional, Sequence

CSV_COLUMNS = ["study_id", "label", "level", "split", "arm", "y", "se", "n"]


class ValidationError(ValueError):
    """Raised when input data violate the dataset contract."""


# Effects and standard errors are squared (weights 1/se^2, squared
# deviations) and summed in double precision; within these bounds every
# such intermediate stays finite and nonzero. The bounds also hold for the
# aggregate of every split, which SubgroupSplit checks.
MAX_ABS_EFFECT = 1e40
SE_RANGE = (1e-40, 1e40)


def _check_effect(y, se, who):
    if not abs(y) <= MAX_ABS_EFFECT:
        raise ValidationError(f"{who}: effect must be finite with |y| <= {MAX_ABS_EFFECT:g}")
    if not SE_RANGE[0] <= se <= SE_RANGE[1]:
        raise ValidationError(f"{who}: se must be in [{SE_RANGE[0]:g}, {SE_RANGE[1]:g}]")


@dataclass(frozen=True)
class StudyEstimate:
    """One study's effect estimate on the linear-predictor scale."""

    study_id: str
    y: float
    se: float
    n: Optional[int] = None

    def __post_init__(self):
        _check_effect(self.y, self.se, f"study {self.study_id!r}")
        if self.n is not None and self.n < 1:
            raise ValidationError(f"study {self.study_id!r}: n must be >= 1")


@dataclass(frozen=True)
class SubgroupArm:
    """One of the two arms of a subgroup split (j in {1, 2})."""

    j: int
    y: float
    se: float
    n: int

    def __post_init__(self):
        if self.j not in (1, 2):
            raise ValidationError(f"arm index must be 1 or 2, got {self.j}")
        _check_effect(self.y, self.se, "arm")
        if self.n < 1:
            raise ValidationError("arm: n must be >= 1")


@dataclass(frozen=True)
class SubgroupSplit:
    """A named candidate two-way partition of one study.

    The arm weights w = se^-2, their sum and the aggregate of the arms (see
    aggregate_study) are computed once, as plain floats, when the split is
    made; selection, the consistency diagnostics and the derived study rows
    all read them from here.
    """

    split_name: str
    arms: tuple
    p_interaction: Optional[float] = None
    weights: tuple = field(init=False, repr=False, compare=False)
    agg_y: float = field(init=False, repr=False, compare=False)
    agg_se: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.arms) != 2:
            raise ValidationError(
                f"split {self.split_name!r}: exactly two arms required"
            )
        if self.arms[0].j == self.arms[1].j:
            raise ValidationError(
                f"split {self.split_name!r}: arm indices must be distinct"
            )
        if self.arms[0].j == 2:
            # normalize storage order to (arm 1, arm 2)
            object.__setattr__(self, "arms", (self.arms[1], self.arms[0]))
        a1, a2 = self.arms
        w1, w2 = a1.se ** -2, a2.se ** -2
        sw = w1 + w2
        se = sw ** -0.5
        # The aggregate effect lies between the arms' and its se below both,
        # so only the se floor can be crossed: two arms at 1e-40 give 7.1e-41.
        if se < SE_RANGE[0]:
            raise ValidationError(
                f"split {self.split_name!r}: the arms aggregate to se {se:.3g}, "
                f"below the floor {SE_RANGE[0]:g}"
            )
        object.__setattr__(self, "weights", (w1, w2))
        object.__setattr__(self, "agg_y", (w1 * a1.y + w2 * a2.y) / sw)
        object.__setattr__(self, "agg_se", se)


@dataclass(frozen=True)
class Study:
    """A study-level estimate together with its candidate subgroup splits."""

    estimate: StudyEstimate
    splits: tuple = ()
    selected: Optional[int] = None

    def __post_init__(self):
        names = [s.split_name for s in self.splits]
        if len(set(names)) != len(names):
            raise ValidationError(
                f"study {self.estimate.study_id!r}: duplicate split names"
            )
        if self.selected is not None and not (0 <= self.selected < len(self.splits)):
            raise ValidationError(
                f"study {self.estimate.study_id!r}: selected split out of range"
            )

    @property
    def study_id(self) -> str:
        return self.estimate.study_id

    @property
    def selected_split(self) -> Optional[SubgroupSplit]:
        if self.selected is None:
            return None
        return self.splits[self.selected]


@dataclass(frozen=True)
class MetaDataset:
    """k studies, each with an estimate and zero or more candidate splits."""

    studies: tuple

    def __post_init__(self):
        ids = [s.study_id for s in self.studies]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate study_id")

    @property
    def k(self) -> int:
        return len(self.studies)

    def require_k2(self):
        if self.k < 2:
            raise ValidationError("analysis requires at least 2 studies")

    @property
    def has_splits(self) -> bool:
        return any(s.splits for s in self.studies)

    @property
    def fully_selected(self) -> bool:
        return all(s.selected is not None for s in self.studies)

    def with_selection(self, choices: Sequence[int]) -> "MetaDataset":
        """Return a copy with one split selected per study."""
        if len(choices) != self.k:
            raise ValidationError("selection length must equal k")
        studies = tuple(
            Study(s.estimate, s.splits, int(c))
            for s, c in zip(self.studies, choices)
        )
        return MetaDataset(studies)


def prevalence_of(split: SubgroupSplit) -> float:
    """Fraction of units in arm 1, derived from arm sizes.

    Arm sizes may be subject counts or event counts (for endpoints whose
    standard errors scale with events); either way the prevalence is
    n1 / (n1 + n2) and lies strictly inside (0, 1).
    """
    n1, n2 = split.arms[0].n, split.arms[1].n
    return n1 / (n1 + n2)


def aggregate_study(split: SubgroupSplit, study_id: str = "aggregate") -> StudyEstimate:
    """Combine the two arms of a split into a study-level estimate.

    The combined effect is the inverse-variance weighted mean of the arms
    and the combined weight is the sum of the arm weights, so that
    se = (s1^-2 + s2^-2)^-1/2.
    """
    n = split.arms[0].n + split.arms[1].n
    return StudyEstimate(study_id=study_id, y=split.agg_y, se=split.agg_se, n=n)


# relative disagreement between a reported study estimate and the value
# aggregated from a split, above which a diagnostic is emitted
CONSISTENCY_TOL = 1e-6


def consistency_gaps(dataset: MetaDataset) -> list:
    """Per-split diagnostics comparing reported and aggregated study values.

    Real extracted data rarely satisfy the aggregation identity exactly;
    gaps are reported, never treated as errors, and the supplied
    study-level values always win.
    """
    gaps = []
    for study in dataset.studies:
        est = study.estimate
        for split in study.splits:
            gap_y = abs(split.agg_y - est.y) / max(abs(est.y), 1.0)
            gap_se = abs(split.agg_se - est.se) / est.se
            gaps.append(
                {
                    "study_id": est.study_id,
                    "split": split.split_name,
                    "gap_y": gap_y,
                    "gap_se": gap_se,
                    "inconsistent": max(gap_y, gap_se) > CONSISTENCY_TOL,
                }
            )
    return gaps


def _parse_float(value, where):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{where}: cannot parse number {value!r}") from None


def _parse_effect(y, se, where):
    """An effect and its standard error, parsed and checked against the
    bounds of StudyEstimate/SubgroupArm so that an error names its row."""
    y, se = _parse_float(y, where), _parse_float(se, where)
    _check_effect(y, se, where)
    return y, se


def _parse_count(value, where):
    """A count such as n: a whole number >= 1 ("12" and "12.0" both give 12)."""
    n = _parse_float(value, where)
    if not (math.isfinite(n) and n >= 1 and n == int(n)):
        raise ValidationError(f"{where}: n must be a whole number >= 1, got {value!r}")
    return int(n)


def validate_dataset(rows: Iterable[dict]) -> MetaDataset:
    """Build a MetaDataset from tabular rows.

    Rows follow the CSV schema: study_id, label, level, split, arm, y, se, n
    with level in {study, subgroup}. Study rows may omit y/se when every
    split is present, in which case the study estimate is derived by
    aggregating the first listed split.
    """
    study_rows = {}
    order = []
    subgroup_rows = {}  # study_id -> split name -> arm -> row

    for row in rows:
        sid = (row.get("study_id") or "").strip()
        if not sid:
            raise ValidationError("row with empty study_id")
        level = (row.get("level") or "").strip()
        if level == "study":
            if sid in study_rows:
                raise ValidationError(f"duplicate study row for {sid!r}")
            study_rows[sid] = row
            order.append(sid)
        elif level == "subgroup":
            split = (row.get("split") or "").strip()
            if not split:
                raise ValidationError(f"subgroup row for {sid!r} without split name")
            arm = (row.get("arm") or "").strip()
            if arm not in ("1", "2"):
                raise ValidationError(
                    f"subgroup row {sid!r}/{split!r}: arm must be 1 or 2"
                )
            key = (sid, split, int(arm))
            arm_rows = subgroup_rows.setdefault(sid, {}).setdefault(split, {})
            if key[2] in arm_rows:
                raise ValidationError(f"duplicate (study, split, arm) row {key}")
            arm_rows[key[2]] = row
        else:
            raise ValidationError(f"unknown level {level!r} for study {sid!r}")

    for sid in subgroup_rows:  # in the order of each study's first subgroup row
        if sid not in study_rows:
            raise ValidationError(f"orphan subgroup row: unknown study_id {sid!r}")

    studies = []
    for sid in order:
        row = study_rows[sid]
        splits = []
        for name, arm_rows in sorted(subgroup_rows.get(sid, {}).items()):
            arms = []
            for j in (1, 2):
                if j not in arm_rows:
                    raise ValidationError(
                        f"split {sid!r}/{name!r}: missing arm {j}"
                    )
                r = arm_rows[j]
                nval = r.get("n")
                if isinstance(nval, str):
                    nval = nval.strip()
                if nval in (None, ""):
                    raise ValidationError(
                        f"split {sid!r}/{name!r} arm {j}: n is required on subgroup rows"
                    )
                where = f"{sid}/{name}/arm{j}"
                y, se = _parse_effect(r.get("y"), r.get("se"), where)
                arms.append(SubgroupArm(j=j, y=y, se=se, n=_parse_count(nval, where)))
            row_p = arm_rows[1].get("p_interaction")
            p_int = _parse_float(row_p, f"{sid}/{name}") if row_p not in (None, "") else None
            try:
                splits.append(SubgroupSplit(name, tuple(arms), p_interaction=p_int))
            except ValidationError as exc:  # arms in range, their aggregate not
                raise ValidationError(f"study {sid!r} {exc}") from None

        y_raw, se_raw = row.get("y"), row.get("se")
        missing = (y_raw in (None, "")) or (se_raw in (None, ""))
        if missing:
            if not splits:
                raise ValidationError(
                    f"study {sid!r}: no estimate supplied and no splits to derive one"
                )
            est = aggregate_study(splits[0], sid)
        else:
            nval = row.get("n")
            n = _parse_count(nval, sid) if nval not in (None, "") else None
            y, se = _parse_effect(y_raw, se_raw, sid)
            est = StudyEstimate(study_id=sid, y=y, se=se, n=n)
        studies.append(Study(est, tuple(splits)))

    dataset = MetaDataset(tuple(studies))
    dataset.require_k2()
    return dataset


def load_csv(path) -> MetaDataset:
    """Read a dataset from a CSV file (UTF-8, header row)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ValidationError(f"{path}: empty file")
            missing = set(CSV_COLUMNS) - set(reader.fieldnames)
            if missing:
                raise ValidationError(f"{path}: missing columns {sorted(missing)}")
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 ({exc.reason})") from None
    return validate_dataset(rows)


_CONTAINERS = (dict, list, tuple)
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


@cache
def _level(depth):
    """What writes a container `depth` levels deep: the stdlib's C encoder,
    which json.dumps uses when indent is None, set to the separator of the
    container's items; the line break before its first item; that
    separator; and the line break before its closing bracket. On a
    container of scalars the encoder writes what indent=2 does but for
    those two line breaks."""
    close = "\n" + "  " * depth
    newline = close + "  "
    encoder = c_make_encoder(  # positional only, in json.encoder's order:
        None,  # markers: no circular check (a container of scalars holds none)
        json.JSONEncoder().default,  # raises TypeError, as json.dumps does
        encode_basestring_ascii,
        None,  # indent
        ": ",
        "," + newline,
        True,  # sort_keys
        False,  # skipkeys
        True,  # allow_nan
    )
    return encoder, newline, "," + newline, close


def _encode(o, depth, markers):
    """o, `depth` levels deep, as json.dumps(indent=2) writes it."""
    encoder, newline, sep, close = _level(depth)
    if not isinstance(o, _CONTAINERS):
        return encoder(o, depth)[0]
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    is_dict = isinstance(o, dict)
    if _SCALAR_TYPES.issuperset(map(type, o.values() if is_dict else o)):
        text = encoder(o, depth)[0]
        return f"{text[0]}{newline}{text[1:-1]}{close}{text[-1]}"
    if id(o) in markers:
        raise ValueError("Circular reference detected")
    markers.add(id(o))
    # One C call writes the container with None in place of each value that
    # is not a plain scalar; split at its item separator (its only line
    # breaks, as strings are written escaped), those items are replaced.
    nested = [k for k, v in (o.items() if is_dict else enumerate(o))
              if type(v) not in _SCALAR_TYPES]
    flat = dict(o) if is_dict else list(o)
    for k in nested:
        flat[k] = None
    items = encoder(flat, depth)[0][1:-1].split(sep)
    keys = sorted(o) if is_dict else None
    for k in nested:
        item = _encode(o[k], depth + 1, markers)
        if is_dict:
            items[bisect_left(keys, k)] = f"{encode_basestring_ascii(k)}: {item}"
        else:
            items[k] = item
    markers.discard(id(o))
    bracket = "{}" if is_dict else "[]"
    return f"{bracket[0]}{newline}{sep.join(items)}{close}{bracket[1]}"


def canonical_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte: the one
    writer of every JSON file fewmeta writes. Containers of scalars go
    through the stdlib's C encoder in one call each; Python walks only the
    containers that hold containers. Keys must be str; a value that is not
    JSON raises TypeError and a container that holds itself ValueError, as
    in json.dumps."""
    return _encode(obj, 0, set())

"""Domain records and dataset construction for subgroup-informed meta-analysis.

A study is one record, Study(study_id, y, se, splits, selected), and each of
its candidate splits a SubgroupSplit of two SubgroupArm(y, se, n). A
MetaDataset holds at least two studies, the precondition of every analysis:
it refuses fewer when built, so no analysis checks k again.

All effects live on the linear-predictor scale (e.g. log hazard ratios);
exponentiation to ratio scales is presentation-only and happens in the
reporting layer.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
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
class SubgroupArm:
    """One arm of a subgroup split: arm 1 or arm 2 by its place in SubgroupSplit.arms."""

    y: float
    se: float
    n: int

    def __post_init__(self):
        _check_effect(self.y, self.se, "arm")
        if self.n < 1:
            raise ValidationError("arm: n must be >= 1")


@dataclass(frozen=True)
class SubgroupSplit:
    """A named candidate two-way partition of one study.

    The arm weights w = 1 / se^2, their sum and the aggregate of the arms (see
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
        if self.p_interaction is not None and not 0.0 <= self.p_interaction <= 1.0:  # NaN too
            raise ValidationError(f"split {self.split_name!r}: p_interaction must be a number "
                                  f"in [0, 1], got {self.p_interaction!r}")
        a1, a2 = self.arms
        w1, w2 = 1.0 / (a1.se * a1.se), 1.0 / (a2.se * a2.se)
        sw = w1 + w2
        se = 1.0 / math.sqrt(sw)
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
    """One study's effect estimate (y, se) with its candidate subgroup splits."""

    study_id: str
    y: float
    se: float
    splits: tuple = ()
    selected: Optional[int] = None

    def __post_init__(self):
        _check_effect(self.y, self.se, f"study {self.study_id!r}")
        names = [s.split_name for s in self.splits]
        if len(set(names)) != len(names):
            raise ValidationError(
                f"study {self.study_id!r}: duplicate split names"
            )
        if self.selected is not None and not (0 <= self.selected < len(self.splits)):
            raise ValidationError(
                f"study {self.study_id!r}: selected split out of range"
            )

    @property
    def selected_split(self) -> Optional[SubgroupSplit]:
        if self.selected is None:
            return None
        return self.splits[self.selected]


@dataclass(frozen=True)
class MetaDataset:
    """k >= 2 studies, each with an estimate and zero or more candidate splits."""

    studies: tuple

    def __post_init__(self):
        ids = [s.study_id for s in self.studies]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate study_id")
        if len(ids) < 2:
            raise ValidationError("analysis requires at least 2 studies")

    @property
    def k(self) -> int:
        return len(self.studies)

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
            Study(s.study_id, s.y, s.se, s.splits, int(c))
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


def aggregate_study(split: SubgroupSplit) -> Study:
    """Combine the two arms of a split into a study-level estimate, without splits.

    The combined effect is the inverse-variance weighted mean of the arms
    and the combined weight is the sum of the arm weights, so that
    se = (s1^-2 + s2^-2)^-1/2.
    """
    return Study("aggregate", split.agg_y, split.agg_se)


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
        for split in study.splits:
            gap_y = abs(split.agg_y - study.y) / max(abs(study.y), 1.0)
            gap_se = abs(split.agg_se - study.se) / study.se
            gaps.append(
                {
                    "study_id": study.study_id,
                    "split": split.split_name,
                    "gap_y": gap_y,
                    "gap_se": gap_se,
                    "inconsistent": max(gap_y, gap_se) > CONSISTENCY_TOL,
                }
            )
    return gaps


# The parsers and record checks below raise without naming the row; the
# loader prefixes where it was, formatting that prefix only on failure.

def _parse_float(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"cannot parse number {value!r}") from None


def _parse_probability(value):
    """A probability such as p_interaction: a number in [0, 1]."""
    p = _parse_float(value)
    if not 0.0 <= p <= 1.0:  # false on NaN too
        raise ValidationError(f"p_interaction must be a number in [0, 1], got {value!r}")
    return p


def _parse_count(value):
    """A count such as n: a whole number >= 1 ("12" and "12.0" both give 12)."""
    n = _parse_float(value)
    if not (1.0 <= n < math.inf and n.is_integer()):  # false on NaN too
        raise ValidationError(f"n must be a whole number >= 1, got {value!r}")
    return int(n)


def validate_dataset(rows: Iterable[dict]) -> MetaDataset:
    """Build a MetaDataset from tabular rows.

    Rows follow the CSV schema: study_id, label, level, split, arm, y, se, n
    with level in {study, subgroup}, and an optional p_interaction on a
    split's arm-1 row. A study row with splits may leave both y and se
    blank, in which case the study estimate is derived by aggregating the
    first listed split; one of the two without the other is an error.
    """
    study_rows = {}  # study_id -> row, in file order
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
    for sid, row in study_rows.items():
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
                try:
                    arms.append(SubgroupArm(_parse_float(r.get("y")), _parse_float(r.get("se")),
                                            _parse_count(nval)))
                except ValidationError as exc:
                    raise ValidationError(f"{sid}/{name}/arm{j}: {exc}") from None
            row_p = arm_rows[1].get("p_interaction")
            try:
                p_int = _parse_probability(row_p) if row_p not in (None, "") else None
            except ValidationError as exc:
                raise ValidationError(f"{sid}/{name}: {exc}") from None
            try:  # arms in range, their aggregate possibly not
                splits.append(SubgroupSplit(name, tuple(arms), p_int))
            except ValidationError as exc:
                raise ValidationError(f"study {sid!r} {exc}") from None

        y_raw, se_raw = row.get("y"), row.get("se")
        blank = (y_raw in (None, ""), se_raw in (None, ""))
        if blank[0] != blank[1]:
            raise ValidationError(f"{sid}: y and se must be given together, or both left "
                                  f"blank to derive the study row (got y={y_raw!r}, se={se_raw!r})")
        try:
            if row.get("n") not in (None, ""):
                _parse_count(row["n"])  # checked, not kept: nothing reads a study's n
        except ValidationError as exc:
            raise ValidationError(f"{sid}: {exc}") from None
        if blank[0] and not splits:
            raise ValidationError(
                f"study {sid!r}: no estimate supplied and no splits to derive one"
            )
        try:
            if blank[0]:
                y, se = splits[0].agg_y, splits[0].agg_se
            else:
                y, se = _parse_float(y_raw), _parse_float(se_raw)
            studies.append(Study(sid, y, se, tuple(splits)))
        except ValidationError as exc:
            raise ValidationError(f"{sid}: {exc}") from None

    return MetaDataset(tuple(studies))


def load_csv(path) -> MetaDataset:
    """Read a dataset from a CSV file (UTF-8, header row; a leading byte-order
    mark, as Excel's "CSV UTF-8" writes, is skipped)."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path}: empty file")
            missing = set(CSV_COLUMNS) - set(header)
            if missing:
                raise ValidationError(f"{path}: missing columns {sorted(missing)}")
            # the rows csv.DictReader gives, as validate_dataset reads them:
            # blank lines skipped, missing fields None (overriding an earlier
            # column of the same name), extra fields dropped
            pad = [None] * len(header)
            rows = [dict(zip(header, row + pad[len(row):])) for row in reader if row]
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 ({exc.reason})") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None
    return validate_dataset(rows)


def canonical_json(obj) -> str:
    """The one writer of every JSON file fewmeta writes: one line, keys
    sorted, "," and ":" separators, non-ASCII escaped, a trailing newline,
    all from one call of the stdlib's C encoder. Parsing the file and
    writing it again gives the same bytes. Keys must be str; a value that
    is not JSON raises TypeError and a container that holds itself
    ValueError. Non-finite floats are written as Infinity and NaN, as
    json.dumps writes them."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

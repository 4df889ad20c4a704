"""Domain records and dataset construction for subgroup-informed meta-analysis.

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

SCHEMA_VERSION = 1

CSV_COLUMNS = ["study_id", "label", "level", "split", "arm", "y", "se", "n"]


class ValidationError(ValueError):
    """Raised when input data violate the dataset contract."""


@dataclass(frozen=True)
class StudyEstimate:
    """One study's effect estimate on the linear-predictor scale."""

    study_id: str
    y: float
    se: float
    n: Optional[int] = None

    def __post_init__(self):
        if not math.isfinite(self.y):
            raise ValidationError(f"study {self.study_id!r}: non-finite effect")
        if not (self.se > 0) or not math.isfinite(self.se):
            raise ValidationError(f"study {self.study_id!r}: se must be > 0")
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
        if not math.isfinite(self.y):
            raise ValidationError("arm: non-finite effect")
        if not (self.se > 0) or not math.isfinite(self.se):
            raise ValidationError("arm: se must be > 0")
        if self.n < 1:
            raise ValidationError("arm: n must be >= 1")


@dataclass(frozen=True)
class SubgroupSplit:
    """A named candidate two-way partition of one study."""

    split_name: str
    arms: tuple
    p_interaction: Optional[float] = None

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
    a1, a2 = split.arms
    w1, w2 = a1.se ** -2, a2.se ** -2
    y = (w1 * a1.y + w2 * a2.y) / (w1 + w2)
    se = (w1 + w2) ** -0.5
    return StudyEstimate(study_id=study_id, y=y, se=se, n=a1.n + a2.n)


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
            agg = aggregate_study(split, est.study_id)
            gap_y = abs(agg.y - est.y) / max(abs(est.y), 1.0)
            gap_se = abs(agg.se - est.se) / est.se
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


def validate_dataset(rows: Iterable[dict]) -> MetaDataset:
    """Build a MetaDataset from tabular rows.

    Rows follow the CSV schema: study_id, label, level, split, arm, y, se, n
    with level in {study, subgroup}. Study rows may omit y/se when every
    split is present, in which case the study estimate is derived by
    aggregating the first listed split.
    """
    study_rows = {}
    order = []
    subgroup_rows = {}

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
            if key in subgroup_rows:
                raise ValidationError(f"duplicate (study, split, arm) row {key}")
            subgroup_rows[key] = row
        else:
            raise ValidationError(f"unknown level {level!r} for study {sid!r}")

    for (sid, split, arm) in subgroup_rows:
        if sid not in study_rows:
            raise ValidationError(f"orphan subgroup row: unknown study_id {sid!r}")

    studies = []
    for sid in order:
        row = study_rows[sid]
        split_names = sorted({s for (s2, s, _a) in subgroup_rows if s2 == sid})
        splits = []
        for name in split_names:
            arms = []
            for j in (1, 2):
                key = (sid, name, j)
                if key not in subgroup_rows:
                    raise ValidationError(
                        f"split {sid!r}/{name!r}: missing arm {j}"
                    )
                r = subgroup_rows[key]
                nval = (r.get("n") or "").strip() if isinstance(r.get("n"), str) else r.get("n")
                if nval in (None, ""):
                    raise ValidationError(
                        f"split {sid!r}/{name!r} arm {j}: n is required on subgroup rows"
                    )
                arms.append(
                    SubgroupArm(
                        j=j,
                        y=_parse_float(r.get("y"), f"{sid}/{name}/arm{j}"),
                        se=_parse_float(r.get("se"), f"{sid}/{name}/arm{j}"),
                        n=int(float(nval)),
                    )
                )
            row_p = subgroup_rows[(sid, name, 1)].get("p_interaction")
            p_int = float(row_p) if row_p not in (None, "") else None
            splits.append(SubgroupSplit(name, tuple(arms), p_interaction=p_int))

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
            n = int(float(nval)) if nval not in (None, "") else None
            est = StudyEstimate(
                study_id=sid,
                y=_parse_float(y_raw, sid),
                se=_parse_float(se_raw, sid),
                n=n,
            )
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


def dataset_to_dict(dataset: MetaDataset) -> dict:
    """JSON-ready representation (the canonical machine interchange format)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "studies": [
            {
                "study_id": s.study_id,
                "y": s.estimate.y,
                "se": s.estimate.se,
                "n": s.estimate.n,
                "selected": s.selected,
                "splits": [
                    {
                        "split_name": sp.split_name,
                        "p_interaction": sp.p_interaction,
                        "arms": [
                            {"j": a.j, "y": a.y, "se": a.se, "n": a.n}
                            for a in sp.arms
                        ],
                    }
                    for sp in s.splits
                ],
            }
            for s in dataset.studies
        ],
    }


def dataset_from_dict(payload: dict) -> MetaDataset:
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {payload.get('schema_version')!r}"
        )
    studies = []
    for s in payload["studies"]:
        splits = tuple(
            SubgroupSplit(
                sp["split_name"],
                tuple(SubgroupArm(**a) for a in sp["arms"]),
                p_interaction=sp.get("p_interaction"),
            )
            for sp in s["splits"]
        )
        est = StudyEstimate(s["study_id"], s["y"], s["se"], s.get("n"))
        studies.append(Study(est, splits, s.get("selected")))
    dataset = MetaDataset(tuple(studies))
    dataset.require_k2()
    return dataset


def dataset_to_json(dataset: MetaDataset) -> str:
    return json.dumps(dataset_to_dict(dataset), sort_keys=True, indent=2)


def dataset_from_json(text: str) -> MetaDataset:
    return dataset_from_dict(json.loads(text))

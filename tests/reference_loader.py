"""A frozen copy of fewmeta's CSV loader as it was before the column table:
load_csv, validate_dataset and their parsers, verbatim, building the
dataset through the package's records (SubgroupArm, SubgroupSplit, Study,
MetaDataset). tests/test_data.py holds the live loader to it: the same
dataset, value for value, or the same ValidationError text.

Do not edit the functions below to follow the package: they are the
reference the loader is checked against.
"""

import csv
import math
from typing import Iterable

from fewmeta.data import MetaDataset, Study, SubgroupArm, SubgroupSplit, ValidationError

CSV_COLUMNS = ["study_id", "label", "level", "split", "arm", "y", "se", "n"]


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

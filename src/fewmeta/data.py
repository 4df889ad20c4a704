"""The dataset: one column table, its two front doors and CSV ingestion.

A MetaDataset is one column table of k >= 2 studies and their S candidate
subgroup splits, built once (see MetaDataset). Every analysis reads the
table. It has two front doors:

- load_csv builds the table straight from the file's columns and builds
  no record;
- MetaDataset(studies) builds the same table from records:
  Study(study_id, y, se, splits), each split a SubgroupSplit of two
  SubgroupArm(y, se, n).

Neither door selects a split (only with_selection does, in every study at
once). The table keeps no record, and nothing turns it back into records.
Both doors apply one set of value rules (_within a closed range per kind
of number, _whole, _floor_ok) to scalars or to whole columns, and one
aggregate (_aggregate). The CSV door fills a derived study estimate in
before it checks, and walks the rows for the first failure
(_first_failure) only when a check has failed. A MetaDataset refuses
fewer than two studies when built, so no analysis checks k again.

All effects live on the linear-predictor scale (e.g. log hazard ratios);
exponentiation to ratio scales is presentation-only and happens in the
reporting layer.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

CSV_COLUMNS = ["study_id", "label", "level", "split", "arm", "y", "se", "n"]


class ValidationError(ValueError):
    """Raised when input data violate the dataset contract."""


# Effects and standard errors are squared (weights 1/se^2, squared
# deviations) and summed in double precision; within these bounds every
# such intermediate stays finite and nonzero. The bounds also hold for the
# aggregate of every split, which _floor_ok checks.
MAX_ABS_EFFECT = 1e40
SE_RANGE = (1e-40, 1e40)

# The value rules: a number passes when it lies in its closed range, which
# NaN never does, and a count must also be whole. Each rule takes a float or
# an array of them; the loader checks a file's effects, ses and ns as the
# rows of one array against the columns _LOWER and _UPPER.
_EFFECT_RANGE = (-MAX_ABS_EFFECT, MAX_ABS_EFFECT)
_COUNT_RANGE = (1.0, sys.float_info.max)
_PROBABILITY_RANGE = (0.0, 1.0)
_LOWER, _UPPER = np.array([_EFFECT_RANGE, SE_RANGE, _COUNT_RANGE]).T[..., None]


def _all(mask):  # whether every element is true: half the cost of a logical_and reduce
    return np.count_nonzero(mask) == mask.size


def _within(x, bounds):
    return (bounds[0] <= x) & (x <= bounds[1])


def _whole(n):
    return np.trunc(n) == n


def _floor_ok(agg_se):
    """A split's aggregate lies between its arms' effects and its se below
    both, so only the se floor can be crossed: two arms at 1e-40 give 7.1e-41."""
    return agg_se >= SE_RANGE[0]


@np.errstate(all="ignore")  # the loader aggregates before it checks: an arm may hold any value
def _aggregate(y, se):
    """Arm weights w = 1 / se^2, each correctly rounded, and the arms'
    inverse-variance aggregate (agg_y, agg_se = sw^-1/2, sw the weights'
    sum), over the last axis of (..., 2) arrays, arm 1 first."""
    w = 1.0 / np.square(se)
    sw = w[..., 0] + w[..., 1]
    wy = w * y
    return w, (wy[..., 0] + wy[..., 1]) / sw, 1.0 / np.sqrt(sw)


_EFFECT_RULE = f"effect must be finite with |y| <= {MAX_ABS_EFFECT:g}"
_SE_RULE = f"se must be in [{SE_RANGE[0]:g}, {SE_RANGE[1]:g}]"
_COUNT_RULE = "n must be a whole number >= 1, got {!r}"
_PROBABILITY_RULE = "p_interaction must be a number in [0, 1], got {!r}"


def _number(x):
    """A record's value as a float, NaN where it is no real number: a text
    (str, bytes, bytearray; see plain_number) or a value float refuses."""
    if isinstance(x, (str, bytes, bytearray)):
        return math.nan
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _check_effect(y, se, who):
    if not _within(_number(y), _EFFECT_RANGE):
        raise ValidationError(f"{who}: {_EFFECT_RULE}")
    if not _within(_number(se), SE_RANGE):
        raise ValidationError(f"{who}: {_SE_RULE}")


@dataclass(frozen=True)
class SubgroupArm:
    """One arm of a subgroup split: arm 1 or arm 2 by its place in SubgroupSplit.arms."""

    y: float
    se: float
    n: int

    def __post_init__(self):
        _check_effect(self.y, self.se, "arm")
        n = _number(self.n)
        if not (_within(n, _COUNT_RANGE) and _whole(n)):
            raise ValidationError("arm: " + _COUNT_RULE.format(self.n))


@dataclass(frozen=True)
class SubgroupSplit:
    """A named candidate two-way partition of one study.

    The aggregate of the arms (see aggregate_study) is computed once, by
    _aggregate, when the split is made; the dataset's table holds the same
    values.
    """

    split_name: str
    arms: tuple
    p_interaction: Optional[float] = None
    agg_y: float = field(init=False, repr=False, compare=False)
    agg_se: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.arms) != 2:
            raise ValidationError(
                f"split {self.split_name!r}: exactly two arms required"
            )
        if self.p_interaction is not None and not _within(_number(self.p_interaction), _PROBABILITY_RANGE):
            raise ValidationError(f"split {self.split_name!r}: "
                                  + _PROBABILITY_RULE.format(self.p_interaction))
        _, agg_y, agg_se = _aggregate(np.array([a.y for a in self.arms]),
                                      np.array([a.se for a in self.arms]))
        if not _floor_ok(agg_se):
            raise ValidationError(f"split {self.split_name!r}: {_floor_message(agg_se)}")
        object.__setattr__(self, "agg_y", float(agg_y))
        object.__setattr__(self, "agg_se", float(agg_se))


def _floor_message(agg_se):
    return f"the arms aggregate to se {float(agg_se):.3g}, below the floor {SE_RANGE[0]:g}"


@dataclass(frozen=True)
class Study:
    """One study's effect estimate (y, se) with its candidate subgroup splits."""

    study_id: str
    y: float
    se: float
    splits: tuple = ()

    def __post_init__(self):
        _check_effect(self.y, self.se, f"study {self.study_id!r}")
        names = [s.split_name for s in self.splits]
        if len(set(names)) != len(names):
            raise ValidationError(
                f"study {self.study_id!r}: duplicate split names"
            )


# the split columns of a dataset without splits
_NO_ARMS = np.zeros((0, 2))
_NO_SPLITS = np.zeros(0)
_NO_ARMS.setflags(write=False)
_NO_SPLITS.setflags(write=False)


class MetaDataset:
    """k >= 2 studies, each with an estimate and zero or more candidate
    splits, as one column table:

    - study_ids (k names), y and se ((k,) arrays), and selected: None, or
      per study the index of its split that with_selection selected;
    - split_start and split_count: per study, the row of its first split
      and its number of splits, its splits being the rows in between;
    - per split row (S of them, study by study): split_names, split_study
      (the owning study's index), arm_y, arm_se and arm_n ((S, 2) arrays,
      arm 1 first), p_interaction ((S,), NaN where absent), and from
      _aggregate the arm weights w (S, 2) and the aggregate agg_y, agg_se
      (S,).

    MetaDataset(studies) builds the table from records and keeps none;
    load_csv builds it from a file's columns. Its arrays are read-only.
    """

    def __init__(self, studies: Sequence[Study]):
        studies = tuple(studies)
        ids = [s.study_id for s in studies]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate study_id")
        splits = [split for s in studies for split in s.splits]
        arms = [arm for split in splits for arm in split.arms]
        self._build(
            tuple(ids), np.array([s.y for s in studies], dtype=float),
            np.array([s.se for s in studies], dtype=float),
            tuple(len(s.splits) for s in studies), tuple(s.split_name for s in splits),
            *(np.array([getattr(a, name) for a in arms], dtype=float).reshape(-1, 2)
              for name in ("y", "se", "n")),
            np.array([np.nan if s.p_interaction is None else s.p_interaction for s in splits],
                     dtype=float),
        )

    def _build(self, study_ids, y, se, split_count, split_names, arm_y, arm_se, arm_n,
               p_interaction, aggregates=None):
        if len(study_ids) < 2:
            raise ValidationError("analysis requires at least 2 studies")
        self.study_ids, self.y, self.se, self.selected = study_ids, y, se, None
        self.split_count = split_count
        self.split_start = tuple(itertools.accumulate(split_count[:-1], initial=0))
        self.split_names, self.arm_y, self.arm_se, self.arm_n = split_names, arm_y, arm_se, arm_n
        self.p_interaction = p_interaction
        self.split_study = tuple(i for i, count in enumerate(split_count) for _ in range(count))
        if aggregates is None:
            aggregates = _aggregate(arm_y, arm_se)
        self.w, self.agg_y, self.agg_se = aggregates
        for column in (y, se, arm_y, arm_se, arm_n, p_interaction, *aggregates) if split_names else (y, se):
            column.setflags(write=False)  # with_selection's copies share the table

    def _key(self):  # the fields that hold no float, all that __hash__ reads
        return self.study_ids, self.selected, self.split_count, self.split_names

    def __eq__(self, other):  # equal tables, value for value
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key() and all(  # NaN in p_interaction means absent
            np.array_equal(getattr(self, name), getattr(other, name), equal_nan=name == "p_interaction")
            for name in ("y", "se", "arm_y", "arm_se", "arm_n", "p_interaction"))

    def __hash__(self):
        return hash(self._key())

    @property
    def k(self) -> int:
        return len(self.study_ids)

    @property
    def has_splits(self) -> bool:
        return bool(self.split_names)

    @property
    def selected_names(self) -> list:
        """Each study's selected split name, all None without a selection."""
        if self.selected is None:
            return [None] * self.k
        return [self.split_names[start + c] for start, c in zip(self.split_start, self.selected)]

    def with_selection(self, choices: Sequence[int]) -> "MetaDataset":
        """Return a copy, sharing the table, with one split selected per study."""
        if len(choices) != self.k:
            raise ValidationError("selection length must equal k")
        selected = tuple(int(c) for c in choices)
        for sid, c, count in zip(self.study_ids, selected, self.split_count):
            if not 0 <= c < count:
                raise ValidationError(f"study {sid!r}: selected split out of range")
        dataset = object.__new__(MetaDataset)
        dataset.__dict__.update(self.__dict__, selected=selected)
        return dataset


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
    ys, ses = dataset.y.tolist(), dataset.se.tolist()
    for i, name, agg_y, agg_se in zip(dataset.split_study, dataset.split_names,
                                      dataset.agg_y.tolist(), dataset.agg_se.tolist()):
        gap_y = abs(agg_y - ys[i]) / max(abs(ys[i]), 1.0)
        gap_se = abs(agg_se - ses[i]) / ses[i]
        gaps.append(
            {
                "study_id": dataset.study_ids[i],
                "split": name,
                "gap_y": gap_y,
                "gap_se": gap_se,
                "inconsistent": max(gap_y, gap_se) > CONSISTENCY_TOL,
            }
        )
    return gaps


# The fields of a row as _build_dataset reads them: those of CSV_COLUMNS it
# uses, then the optional p_interaction.
_FIELDS = ("study_id", "level", "split", "arm", "y", "se", "n", "p_interaction")


_ARMS = {"1": 1, "2": 2}
_BLANK = (None, "")  # a field left blank, as `in` tests it
_MISSING = (None,) * len(_FIELDS)  # a missing arm's row: its numbers fail to parse


def plain_number(text: str) -> bool:
    """Whether a number's text keeps to every input door's grammar: ASCII with
    no `_`. float and int also take 2_89 and -٠.٦١٩٥, so a typo would load."""
    return text.isascii() and "_" not in text


def _floats(values):
    """The values, each a field's text or None where the field is missing,
    as a float array, NaN where one does not parse, and the mask of those
    that did not (None when all parsed). A text parses only in
    plain_number's grammar, checked once over all the texts joined."""
    try:
        if plain_number("".join(values)):
            return np.fromiter(map(float, values), float, len(values)), None
    except (TypeError, ValueError):  # a missing field, or a text float refuses
        pass
    parsed = []
    for value in values:
        try:
            parsed.append(float(value) if value is not None and plain_number(value) else None)
        except ValueError:
            parsed.append(None)
    unparsed = np.array([v is None for v in parsed])
    return (np.array([math.nan if v is None else v for v in parsed], dtype=float),
            unparsed if unparsed.any() else None)


def _build_dataset(rows) -> MetaDataset:
    """The dataset of rows of _FIELDS' values, in three steps. The row checks
    run row by row and group the rows by study, split and arm. Every number
    is then parsed into one column, each split's arms are aggregated, and
    each derived study estimate is filled in from its first split's
    aggregate. Last, the value checks run over whole columns; only if one
    fails does _first_failure walk the rows for the message."""
    study_rows = {}  # study_id -> row, in file order
    subgroup_rows = defaultdict(lambda: defaultdict(dict))  # study_id -> split name -> arm -> row

    for row in rows:
        sid = (row[0] or "").strip()
        if not sid:
            raise ValidationError("row with empty study_id")
        level = (row[1] or "").strip()
        if level == "subgroup":
            split = (row[2] or "").strip()
            if not split:
                raise ValidationError(f"subgroup row for {sid!r} without split name")
            arm = _ARMS.get((row[3] or "").strip())
            if arm is None:
                raise ValidationError(
                    f"subgroup row {sid!r}/{split!r}: arm must be 1 or 2"
                )
            arm_rows = subgroup_rows[sid][split]
            if arm in arm_rows:
                raise ValidationError(f"duplicate (study, split, arm) row {(sid, split, arm)}")
            arm_rows[arm] = row
        elif level == "study":
            if sid in study_rows:
                raise ValidationError(f"duplicate study row for {sid!r}")
            study_rows[sid] = row
        else:
            raise ValidationError(f"unknown level {level!r} for study {sid!r}")

    for sid in subgroup_rows:  # in the order of each study's first subgroup row
        if sid not in study_rows:
            raise ValidationError(f"orphan subgroup row: unknown study_id {sid!r}")

    # the split rows, study by study and each study's splits in name order;
    # then the study rows
    ids = tuple(study_rows)
    counts, names, arms = [], [], []
    for sid in ids:
        splits = subgroup_rows.get(sid, {})
        counts.append(len(splits))
        for name in sorted(splits):
            names.append(name)
            arms += (splits[name].get(1, _MISSING), splits[name].get(2, _MISSING))
    n_texts = [r[6] and r[6].strip() for r in arms]
    p_texts = [r[7] for r in arms[::2]]  # read from arm 1's row
    studies = [study_rows[sid] for sid in ids]
    derived = [r[4] in _BLANK and r[5] in _BLANK for r in studies]

    # Every number a check reads, in one column: the effects (arms, then
    # studies), the ses and the ns in rows of m = 2S + k, then the S
    # p_interactions. A derived study estimate reads "nan" until it is filled
    # in, an absent study n "1" and an absent p_interaction "nan": fillers
    # written as text keep a file's column all text, for _floats' one join.
    size, m = len(names), 2 * len(names) + len(ids)
    texts = [r[4] for r in arms]
    texts += ["nan" if d else r[4] for d, r in zip(derived, studies)]
    texts += [r[5] for r in arms]
    texts += ["nan" if d else r[5] for d, r in zip(derived, studies)]
    texts += n_texts
    texts += ["1" if r[6] in _BLANK else r[6] for r in studies]
    p_given = [t not in _BLANK for t in p_texts]
    texts += [t if given else "nan" for t, given in zip(p_texts, p_given)]
    values, unparsed = _floats(texts)
    numbers, p = values[:3 * m].reshape(3, m), values[3 * m:]

    arm_y = arm_se = arm_n = _NO_ARMS
    aggregates = _NO_ARMS, _NO_SPLITS, _NO_SPLITS
    if size:
        arm_y, arm_se, arm_n = numbers[:, :2 * size].reshape(3, size, 2)
        aggregates = _aggregate(arm_y, arm_se)
        start = 0
        for i, count in enumerate(counts):  # a derived estimate is its first split's aggregate
            if derived[i] and count:
                numbers[:2, 2 * size + i] = aggregates[1][start], aggregates[2][start]
            start += count
    in_range, whole = _within(numbers, (_LOWER, _UPPER)), _whole(numbers[2])
    if (unparsed is not None or not (_all(in_range) and _all(whole))
            or size and not _all(_floor_ok(aggregates[2]))
            or True in p_given and not _all(_within(p[p_given], _PROBABILITY_RANGE))):
        bad = [False] * len(values) if unparsed is None else unparsed.tolist()
        raise ValidationError(_first_failure(ids, counts, names, arms, n_texts, studies,
                                             bad, in_range, whole, p, aggregates[2]))
    dataset = MetaDataset.__new__(MetaDataset)
    dataset._build(ids, *numbers[:2, 2 * size:], tuple(counts), tuple(names),
                   arm_y, arm_se, arm_n, p, aggregates)
    return dataset


def _first_failure(ids, counts, names, arms, n_texts, studies, bad, in_range, whole, p, agg_se):
    """The message of the first failed check, as a walk in file order meets
    it: study by study, each study's splits in name order (arm 1, arm 2,
    p_interaction, then the aggregate), then the study row. It reads the
    masks _build_dataset checked: bad (a number did not parse), in_range
    (of the (3, m) effects, ses and ns) and whole (of the ns)."""
    m = 2 * len(names) + len(ids)
    (y_ok, se_ok, n_ok), whole = in_range.tolist(), whole.tolist()
    start = 0
    for i, (sid, count, study) in enumerate(zip(ids, counts, studies)):
        for s in range(start, start + count):
            name = names[s]
            for j in (0, 1):
                c, row, n = 2 * s + j, arms[2 * s + j], n_texts[2 * s + j]
                if row is _MISSING:
                    return f"split {sid!r}/{name!r}: missing arm {j + 1}"
                if n in _BLANK:
                    return f"split {sid!r}/{name!r} arm {j + 1}: n is required on subgroup rows"
                at = f"{sid}/{name}/arm{j + 1}: "
                for text, failed in ((row[4], bad[c]), (row[5], bad[m + c]), (n, bad[2 * m + c])):
                    if failed:
                        return f"{at}cannot parse number {text!r}"
                if not (n_ok[c] and whole[c]):
                    return at + _COUNT_RULE.format(n)
                if not y_ok[c]:
                    return f"{at}arm: {_EFFECT_RULE}"
                if not se_ok[c]:
                    return f"{at}arm: {_SE_RULE}"
            p_text = arms[2 * s][7]
            if bad[3 * m + s]:
                return f"{sid}/{name}: cannot parse number {p_text!r}"
            if p_text not in _BLANK and not _within(p[s], _PROBABILITY_RANGE):
                return f"{sid}/{name}: " + _PROBABILITY_RULE.format(p_text)
            if not _floor_ok(agg_se[s]):
                return f"study {sid!r} split {name!r}: {_floor_message(agg_se[s])}"
        start += count
        c = 2 * len(names) + i
        if (study[4] in _BLANK) != (study[5] in _BLANK):
            return (f"{sid}: y and se must be given together, or both left blank to derive the "
                    f"study row (got y={study[4]!r}, se={study[5]!r})")
        if bad[2 * m + c]:
            return f"{sid}: cannot parse number {study[6]!r}"
        if not (n_ok[c] and whole[c]):
            return f"{sid}: " + _COUNT_RULE.format(study[6])
        if study[4] in _BLANK and not count:  # both blank: derived
            return f"study {sid!r}: no estimate supplied and no splits to derive one"
        for text, failed in ((study[4], bad[c]), (study[5], bad[m + c])):
            if failed:
                return f"{sid}: cannot parse number {text!r}"
        if not y_ok[c]:
            return f"{sid}: study {sid!r}: {_EFFECT_RULE}"
        if not se_ok[c]:
            return f"{sid}: study {sid!r}: {_SE_RULE}"


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
            # each row's fields as csv.DictReader's row dict would give them:
            # blank lines skipped, a missing field None, extra fields dropped,
            # of two columns with one name the last; an absent p_interaction
            # is read from one place past the header, always None
            width = len(header)
            column = {name: i for i, name in enumerate(header)}
            fields = operator.itemgetter(*(column.get(name, width) for name in _FIELDS))
            rows = []
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    row = row[:width] + [None] * (width - len(row))
                row.append(None)
                rows.append(fields(row))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 ({exc.reason})") from None
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None
    return _build_dataset(rows)


def canonical_json(obj) -> str:
    """The one writer of every JSON file fewmeta writes: one line, keys
    sorted, "," and ":" separators, non-ASCII escaped, a trailing newline,
    all from one call of the stdlib's C encoder. Parsing the file and
    writing it again gives the same bytes. Keys must be str; a value that
    is not JSON raises TypeError and a container that holds itself
    ValueError. Non-finite floats are written as Infinity and NaN, as
    json.dumps writes them."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

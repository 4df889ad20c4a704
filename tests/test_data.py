import csv
import json
import math
import re

import numpy as np
import pytest

from fewmeta import data
from fewmeta.data import (
    MetaDataset,
    Study,
    SubgroupArm,
    SubgroupSplit,
    ValidationError,
    aggregate_study,
    consistency_gaps,
    load_csv,
)

import reference_loader
from conftest import PVALUE_DATASET, dataset_path, load_rows, make_dataset, make_split


def test_arm_validation():
    with pytest.raises(ValidationError):
        SubgroupArm(y=0.0, se=0.0, n=5)
    with pytest.raises(ValidationError):
        SubgroupArm(y=0.0, se=1.0, n=0)
    with pytest.raises(ValidationError, match="study 's': effect must be finite"):
        Study("s", float("nan"), 1.0)


@pytest.mark.parametrize("n", [2.5, math.nan, math.inf, 0, -4, 10 ** 400])
def test_arm_n_must_be_a_whole_number_of_at_least_1(n):
    """The library door keeps the CSV door's rule on n; 2.5, nan and inf
    used to pass and give a prevalence of nan."""
    with pytest.raises(ValidationError, match=r"^arm: n must be a whole number >= 1, got "):
        SubgroupArm(0.0, 1.0, n)


@pytest.mark.parametrize("n", [1, 12, 12.0, np.int64(7), 2 ** 53])
def test_arm_accepts_a_whole_n(n):
    assert SubgroupArm(0.0, 1.0, n).n == n


@pytest.mark.parametrize("n", ["2_89", "\u0662\u0668\u0669", b"289", bytearray(b"289"), "12"],
                         ids=["underscore", "arabic-indic", "bytes", "bytearray", "plain"])
def test_arm_refuses_a_text_n(n):
    """Records take numbers: float would read 2_89, Arabic-Indic digits and
    b'289' as 289, and a plain "12" is refused too."""
    with pytest.raises(ValidationError) as exc:
        SubgroupArm(0.1, 0.2, n)
    assert str(exc.value) == f"arm: n must be a whole number >= 1, got {n!r}"


_TEXTS = pytest.mark.parametrize("text", ["0.5", b"0.5", bytearray(b"0.5")],
                                 ids=["str", "bytes", "bytearray"])
_EFFECT = "effect must be finite with |y| <= 1e+40"
_SE = "se must be in [1e-40, 1e+40]"


@_TEXTS
@pytest.mark.parametrize("make, message", [
    (lambda t: SubgroupArm(t, 0.2, 10), f"arm: {_EFFECT}"),
    (lambda t: SubgroupArm(0.1, t, 10), f"arm: {_SE}"),
    (lambda t: Study("s", t, 0.2), f"study 's': {_EFFECT}"),
    (lambda t: Study("s", 0.5, t), f"study 's': {_SE}"),
], ids=["arm-y", "arm-se", "study-y", "study-se"])
def test_records_refuse_a_text_effect_or_se(make, message, text):
    with pytest.raises(ValidationError) as exc:
        make(text)
    assert str(exc.value) == message


@_TEXTS
def test_split_refuses_a_text_p_interaction(text):
    arms = (SubgroupArm(0.1, 0.2, 10), SubgroupArm(0.3, 0.2, 10))
    with pytest.raises(ValidationError) as exc:
        SubgroupSplit("a", arms, p_interaction=text)
    assert str(exc.value) == f"split 'a': p_interaction must be a number in [0, 1], got {text!r}"


@pytest.mark.parametrize("make, message", [
    (lambda: Study("s", None, 0.2), f"study 's': {_EFFECT}"),
    (lambda: SubgroupArm([0.1], 0.2, 10), f"arm: {_EFFECT}"),
    (lambda: SubgroupSplit("a", (SubgroupArm(0.1, 0.2, 10), SubgroupArm(0.3, 0.2, 10)),
                           p_interaction=[0.5]),
     "split 'a': p_interaction must be a number in [0, 1], got [0.5]"),
], ids=["study", "arm", "split"])
def test_records_refuse_a_value_that_is_no_number(make, message):
    """None, a list: a value that is not a real number fails its rule with
    the rule's message, as a text does, not with a TypeError."""
    with pytest.raises(ValidationError) as exc:
        make()
    assert str(exc.value) == message


def test_aggregate_identical_arms():
    agg = aggregate_study(make_split("a", (1.0, 1.0), (1.0, 1.0)))
    assert agg.study_id == "aggregate"
    assert agg.y == pytest.approx(1.0)
    assert agg.se == pytest.approx(math.sqrt(0.5))


def test_aggregate_symmetric_arms():
    agg = aggregate_study(make_split("a", (0.0, 2.0), (1.0, 1.0)))
    assert agg.y == pytest.approx(1.0)
    assert agg.se == pytest.approx(math.sqrt(0.5))


def test_aggregate_weighted():
    # weights 4 and 1: y = (4*0 + 1*3)/5, se = 1/sqrt(5)
    agg = aggregate_study(make_split("a", (0.0, 3.0), (0.5, 1.0)))
    assert agg.y == pytest.approx(0.6)
    assert agg.se == pytest.approx(1 / math.sqrt(5))
    # independent oracle: plain weighted average
    w = np.array([0.5, 1.0]) ** -2
    assert agg.y == pytest.approx(np.average([0.0, 3.0], weights=w))


def test_aggregate_permutation_invariant():
    a = make_split("a", (0.2, -1.3), (0.4, 0.9), n=(5, 7))
    swapped = SubgroupSplit("a", (a.arms[1], a.arms[0]))
    assert aggregate_study(a).y == aggregate_study(swapped).y
    assert aggregate_study(a).se == aggregate_study(swapped).se


def test_aggregate_unit_information_identity():
    # with se = sigma_u / sqrt(n) on both arms, the aggregate se is
    # sigma_u / sqrt(n1 + n2)
    sigma_u, n1, n2 = 4.0, 24, 48
    split = make_split(
        "a", (0.1, -0.2), (sigma_u / math.sqrt(n1), sigma_u / math.sqrt(n2)), n=(n1, n2)
    )
    agg = aggregate_study(split)
    assert agg.se == pytest.approx(sigma_u / math.sqrt(n1 + n2), rel=1e-12)


def _rows(*tuples):
    keys = ["study_id", "label", "level", "split", "arm", "y", "se", "n"]
    return [dict(zip(keys, t)) for t in tuples]


def test_validate_study_only():
    ds = load_rows(
        _rows(("s1", "", "study", "", "", "0.1", "0.2", ""),
              ("s2", "", "study", "", "", "0.3", "0.4", "")))
    assert ds.k == 2
    assert not ds.has_splits


def test_validate_orphan_subgroup():
    with pytest.raises(ValidationError, match="orphan"):
        load_rows(
            _rows(("s1", "", "study", "", "", "0.1", "0.2", ""),
                  ("s2", "", "study", "", "", "0.3", "0.4", ""),
                  ("zz", "", "subgroup", "sex", "1", "0.0", "1.0", "5"),
                  ("zz", "", "subgroup", "sex", "2", "0.0", "1.0", "5")))


def test_validate_duplicate_arm():
    with pytest.raises(ValidationError, match="duplicate"):
        load_rows(
            _rows(("s1", "", "study", "", "", "0.1", "0.2", ""),
                  ("s2", "", "study", "", "", "0.3", "0.4", ""),
                  ("s1", "", "subgroup", "sex", "1", "0.0", "1.0", "5"),
                  ("s1", "", "subgroup", "sex", "1", "0.0", "1.0", "5")))


def test_validate_missing_arm():
    with pytest.raises(ValidationError, match="missing arm"):
        load_rows(
            _rows(("s1", "", "study", "", "", "0.1", "0.2", ""),
                  ("s2", "", "study", "", "", "0.3", "0.4", ""),
                  ("s1", "", "subgroup", "sex", "1", "0.0", "1.0", "5")))


def test_validate_groups_interleaved_subgroup_rows():
    ds = load_rows(
        _rows(("s2", "", "subgroup", "sex", "2", "0.2", "1.0", "5"),
              ("s1", "", "study", "", "", "0.1", "0.2", ""),
              ("s1", "", "subgroup", "sex", "1", "0.0", "1.0", "5"),
              ("s2", "", "subgroup", "age", "1", "0.1", "1.0", "5"),
              ("s1", "", "subgroup", "age", "2", "0.0", "1.0", "5"),
              ("s2", "", "study", "", "", "0.3", "0.4", ""),
              ("s2", "", "subgroup", "sex", "1", "0.2", "1.0", "5"),
              ("s1", "", "subgroup", "sex", "2", "0.0", "1.0", "5"),
              ("s2", "", "subgroup", "age", "2", "0.1", "1.0", "5"),
              ("s1", "", "subgroup", "age", "1", "0.0", "1.0", "5")))
    assert ds.study_ids == ("s1", "s2")
    assert (ds.split_count, ds.split_names) == ((2, 2), ("age", "sex", "age", "sex"))
    assert ds.arm_y[ds.split_start[1] + 1, 0] == 0.2


def test_validate_error_precedence():
    rows = [("s1", "", "study", "", "", "0.1", "0.2", ""),
            ("s2", "", "study", "", "", "0.3", "0.4", ""),
            ("s1", "", "subgroup", "b", "1", "0.0", "1.0", "5"),
            ("s1", "", "subgroup", "a", "1", "0.0", "1.0", "")]
    # splits are built in name order: a's missing n is found before b's missing arm
    with pytest.raises(ValidationError, match="'s1'/'a' arm 1: n is required"):
        load_rows(_rows(*rows))
    # orphans are found before any split is built
    orphans = [("z2", "", "subgroup", "a", "1", "0.0", "1.0", "5"),
               ("z1", "", "subgroup", "a", "1", "0.0", "1.0", "5")]
    with pytest.raises(ValidationError, match="unknown study_id 'z2'"):
        load_rows(_rows(*rows, *orphans))


_SEX_ROWS = (("s1", "", "study", "", "", "0.1", "0.2", ""),
             ("s2", "", "study", "", "", "0.3", "0.4", ""),
             ("s1", "", "subgroup", "sex", "1", "0.0", "1.0", "5"),
             ("s1", "", "subgroup", "sex", "2", "0.0", "1.0", "5"))


def test_validate_dataset_reads_no_split_or_arm_on_a_study_row():
    """A study row's split and arm are not read, so they may hold anything,
    such as nan and 1.0."""
    rows = _rows(*_SEX_ROWS)
    rows[0].update(split="nan", arm="1.0")
    assert load_rows(rows).split_names == ("sex",)


@pytest.mark.parametrize("n_arms", [0, 1, 3])
def test_split_requires_exactly_two_arms(n_arms):
    arms = tuple(SubgroupArm(0.1 * j, 1.0, 5) for j in range(n_arms))
    with pytest.raises(ValidationError, match="^split 'g': exactly two arms required$"):
        SubgroupSplit("g", arms)


def test_split_aggregate_below_the_se_floor_is_rejected():
    arms = (SubgroupArm(0.0, 1e-40, 5), SubgroupArm(0.0, 1e-40, 5))
    floor = "split 'g': the arms aggregate to se 7.07e-41, below the floor 1e-40"
    with pytest.raises(ValidationError, match=floor):
        SubgroupSplit("g", arms)
    split = SubgroupSplit("g", (arms[0], SubgroupArm(0.0, 1.0, 5)))
    assert split.agg_se == aggregate_study(split).se == 1e-40


@pytest.mark.parametrize("p", [math.nan, -0.1, 1.5, math.inf])
def test_split_rejects_a_p_interaction_outside_0_1(p):
    # a NaN p used to pass and win select_pvalue's minimum: splits a (nan)
    # and b (0.2) in each of two studies gave choices (0, 0)
    with pytest.raises(ValidationError, match=r"split 'a': p_interaction must be a number in \[0, 1\]"):
        make_split("a", (0.0, 0.0), (1.0, 1.0), p_interaction=p)


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_split_accepts_a_p_interaction_of_0_or_1(p):
    assert make_split("a", (0.0, 0.0), (1.0, 1.0), p_interaction=p).p_interaction == p


def test_validate_too_few_studies():
    with pytest.raises(ValidationError):
        load_rows(_rows(("s1", "", "study", "", "", "0.1", "0.2", "")))


def test_one_study_dataset_is_rejected_when_built():
    with pytest.raises(ValidationError, match="^analysis requires at least 2 studies$"):
        MetaDataset((Study("s1", 0.1, 0.2),))
    with pytest.raises(ValidationError, match="^analysis requires at least 2 studies$"):
        MetaDataset(())
    # duplicate ids are reported first
    with pytest.raises(ValidationError, match="^duplicate study_id$"):
        MetaDataset((Study("s1", 0.1, 0.2), Study("s1", 0.3, 0.4)))


def test_study_rejects_duplicate_split_names():
    split = make_split("sex", (0.1, -0.4), (0.5, 0.7))
    with pytest.raises(ValidationError, match="^study 's': duplicate split names$"):
        Study("s", 0.0, 1.0, (split, split))


def test_study_estimate_derived_from_split():
    ds = load_rows(
        _rows(("s1", "", "study", "", "", "", "", ""),
              ("s2", "", "study", "", "", "0.3", "0.4", ""),
              ("s1", "", "subgroup", "sex", "1", "1.0", "1.0", "5"),
              ("s1", "", "subgroup", "sex", "2", "1.0", "1.0", "5")))
    assert ds.y[0] == pytest.approx(1.0)
    assert ds.se[0] == pytest.approx(math.sqrt(0.5))


def test_blank_study_row_is_derived_from_the_first_split_in_name_order(tmp_path):
    """zeta is listed first in the file, alpha first in name order: alpha
    gives the study's estimate."""
    lines = ["s1,,study,,,,,", _STUDIES[1],
             "s1,,subgroup,zeta,1,0.0,1.0,5", "s1,,subgroup,zeta,2,0.0,1.0,5",
             "s1,,subgroup,alpha,1,2.0,0.5,5", "s1,,subgroup,alpha,2,2.0,0.5,5"]
    path = tmp_path / "d.csv"
    path.write_text(_csv(*lines), encoding="utf-8")
    ds = load_csv(path)
    assert (ds.split_count[0], ds.split_names[:2]) == (2, ("alpha", "zeta"))
    assert (ds.y[0], ds.se[0]) == (ds.agg_y[0], ds.agg_se[0])
    assert ds.y[0] == 2.0 and ds.se[0] == pytest.approx(math.sqrt(0.125), rel=1e-15)


def _respire14_rows():
    with open(dataset_path("respire14"), encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("row, column, value, message", [
    (0, "n", "2_89", "RESPIRE-1: cannot parse number '2_89'"),
    (0, "y", "-\u0660.\u0666\u0661\u0669\u0665",
     "RESPIRE-1: cannot parse number '-\u0660.\u0666\u0661\u0669\u0665'"),
    (2, "y", "-0.7_333", "RESPIRE-1/sex/arm1: cannot parse number '-0.7_333'"),
    (3, "n", "\u0667\u0662", "RESPIRE-1/sex/arm2: cannot parse number '\u0667\u0662'"),
    (2, "p_interaction", "0.0_5", "RESPIRE-1/sex: cannot parse number '0.0_5'"),
], ids=["study-n", "study-y", "arm-y", "arm-n", "p_interaction"])
def test_dict_rows_keep_to_the_number_grammar(row, column, value, message):
    """respire14's rows, one number replaced and written back as CSV, load
    only in the number grammar: ASCII with no '_', which float alone does
    not ask."""
    rows = _respire14_rows()
    rows[row][column] = value
    with pytest.raises(ValidationError) as exc:
        load_rows(rows)
    assert str(exc.value) == message


def test_dict_rows_may_hold_numbers_rather_than_texts(monkeypatch):
    """Rows written with csv.DictWriter may hold a float or an int, which
    it writes as its str: the same dataset as the texts'. Each file is
    checked in the grammar once, so a text out of it among the numbers
    still fails with the all-text rows' message."""
    texts = _respire14_rows()
    numbers = [dict(row, y=float(row["y"]), n=int(row["n"])) for row in texts]
    checked = []
    plain = data.plain_number
    monkeypatch.setattr(data, "plain_number", lambda text: checked.append(text) or plain(text))
    assert load_rows(numbers) == load_rows(texts)
    assert len(checked) == 2
    numbers[0]["se"] = "0.1_5"
    with pytest.raises(ValidationError) as exc:
        load_rows(numbers)
    assert str(exc.value) == "RESPIRE-1: cannot parse number '0.1_5'"


def test_a_clean_csv_keeps_to_the_grammar_in_one_check(monkeypatch):
    """A file whose every number parses passes plain_number once, over all
    its number texts joined; one text out of the grammar still fails with
    the walk's message."""
    checked = []
    plain = data.plain_number
    monkeypatch.setattr(data, "plain_number", lambda text: checked.append(text) or plain(text))
    load_csv(dataset_path("respire14"))
    assert len(checked) == 1
    rows = _respire14_rows()
    rows[0]["se"] = "0.1_5"
    with pytest.raises(ValidationError) as exc:
        load_rows(rows)
    assert str(exc.value) == "RESPIRE-1: cannot parse number '0.1_5'"


def test_each_csv_effect_is_checked_once_over_columns(monkeypatch):
    """The loader range-checks each effect, se and n of a file once, all of
    them in one array (rows of effects, ses and ns), and builds no record."""
    sizes = []
    within = data._within
    monkeypatch.setattr(data, "_within", lambda x, bounds: sizes.append(np.shape(x)) or within(x, bounds))
    for record in ("SubgroupArm", "SubgroupSplit", "Study"):
        monkeypatch.setattr(data, record, None)
    with open(dataset_path("respire14"), encoding="utf-8") as fh:
        n_rows = sum(1 for _ in fh) - 1  # every data row has its y, se and n
    load_csv(dataset_path("respire14"))
    assert sizes == [(3, n_rows)]


def test_bundled_respire14_shape(respire14):
    assert respire14.k == 2
    assert respire14.split_count == (3, 3)
    for start in respire14.split_start:
        assert set(respire14.split_names[start:start + 3]) == {"age", "race", "sex"}


def test_consistency_gap_diagnostic():
    # the supplied study estimate intentionally disagrees with the split
    split = make_split("sex", (0.0, 2.0), (1.0, 1.0))
    ds = make_dataset([(9.9, 0.5, [split]), (0.0, 1.0, [])])
    gaps = consistency_gaps(ds)
    assert len(gaps) == 1
    assert gaps[0]["inconsistent"]


def test_the_table_is_read_only(sglt2):
    """with_selection's copy shares the table, so no array of it can be
    written."""
    chosen = sglt2.with_selection([0] * sglt2.k)
    for name in ("y", "se", "arm_y", "arm_se", "arm_n", "p_interaction", "w", "agg_y", "agg_se"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(chosen, name)[...] = 0.0
    assert chosen.arm_y is sglt2.arm_y


def test_selection_application():
    split = make_split("sex", (0.1, -0.4), (0.5, 0.7))
    ds = make_dataset([(0.0, 0.3, [split]), (0.2, 0.4, [split])])
    assert ds.selected is None and ds.selected_names == [None, None]
    sel = ds.with_selection([0, 0])
    assert sel.selected == (0, 0) and sel.selected_names == ["sex", "sex"]
    with pytest.raises(ValidationError, match="^selection length must equal k$"):
        ds.with_selection([0])
    with pytest.raises(ValidationError, match="^study 's2': selected split out of range$"):
        ds.with_selection([0, 1])
    with pytest.raises(ValidationError, match="^study 's1': selected split out of range$"):
        ds.with_selection([-1, 0])


def _load_by_dictreader(path):
    """The loader as it was: csv.DictReader rows, each as its _FIELDS
    values, into the row checks and columns load_csv's rows go to."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ValidationError(f"{path}: empty file")
            missing = set(data.CSV_COLUMNS) - set(reader.fieldnames)
            if missing:
                raise ValidationError(f"{path}: missing columns {sorted(missing)}")
            rows = list(reader)
    except csv.Error as exc:
        raise ValidationError(f"{path}: line {reader.reader.line_num}: {exc}") from None
    return data._build_dataset([tuple(map(row.get, data._FIELDS)) for row in rows])


def _outcome(load, path):
    try:
        return load(path)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


_HEADER = "study_id,label,level,split,arm,y,se,n"
_STUDIES = ["s1,,study,,,0.1,0.2,40", "s2,,study,,,0.3,0.4,30"]
_ARMS = ["s1,,subgroup,sex,1,0.05,0.3,20", "s1,,subgroup,sex,2,0.15,0.3,20",
         "s2,,subgroup,sex,1,0.25,0.5,15", "s2,,subgroup,sex,2,0.35,0.5,15"]


def _csv(*lines, header=_HEADER):
    return "\r\n".join([header, *lines]) + "\r\n"


_LOADER_CASES = {
    "plain": _csv(*_STUDIES, *_ARMS),
    "blank lines": _csv("", *_STUDIES, "", "", *_ARMS, ""),
    "blank line first": "\n\n" + _csv(*_STUDIES),
    "short study row": _csv("s1,,study,,,0.1,0.2", "s2,,study,,,0.3", *_ARMS),
    "short arm row": _csv(*_STUDIES, "s1,,subgroup,sex,1,0.05,0.3", *_ARMS[1:]),
    "extra fields": _csv("s1,,study,,,0.1,0.2,40,x,y", *_STUDIES[1:], _ARMS[0] + ",,9", *_ARMS[1:]),
    "duplicated column, last wins": _csv(
        *(line + ",0.7" for line in _STUDIES + _ARMS), header=_HEADER + ",y"),
    "duplicated column, short row": _csv(
        *(line + ",0.7" for line in _STUDIES[1:] + _ARMS), _STUDIES[0], header=_HEADER + ",y"),
    "duplicated column, blank last": _csv(
        *(line + "," for line in _STUDIES + _ARMS), header=_HEADER + ",se"),
    "byte-order mark": "﻿" + _csv(*_STUDIES, *_ARMS),
    "p_interaction": _csv(*_STUDIES, *(a + (",0.5" if a.split(",")[4] == "1" else ",")
                                        for a in _ARMS), header=_HEADER + ",p_interaction"),
    "unparsable p_interaction": _csv(*_STUDIES, *(a + ",x" for a in _ARMS),
                                     header=_HEADER + ",p_interaction"),
    "out-of-range p_interaction": _csv(*_STUDIES, *(a + ",1.5" for a in _ARMS),
                                       header=_HEADER + ",p_interaction"),
    "unparsable arm y": _csv(*_STUDIES, _ARMS[0].replace("0.05", "abc"), *_ARMS[1:]),
    "unparsable arm se": _csv(*_STUDIES, _ARMS[0].replace(",0.3,", ",0.3x,"), *_ARMS[1:]),
    "unparsable arm n": _csv(*_STUDIES, _ARMS[0][:-2] + "n/a", *_ARMS[1:]),
    "fractional arm n": _csv(*_STUDIES, _ARMS[0][:-2] + "2.5", *_ARMS[1:]),
    "arm n below 1": _csv(*_STUDIES, _ARMS[0][:-2] + "0", *_ARMS[1:]),
    "arm effect out of range": _csv(*_STUDIES, _ARMS[0].replace("0.05", "1e41"), *_ARMS[1:]),
    "arm effect not finite": _csv(*_STUDIES, _ARMS[0].replace("0.05", "nan"), *_ARMS[1:]),
    "arm se out of range": _csv(*_STUDIES, _ARMS[0].replace(",0.3,", ",1e-41,"), *_ARMS[1:]),
    "arms aggregate below the se floor": _csv(
        *_STUDIES, *(a.replace(",0.3,", ",1e-40,") for a in _ARMS[:2]), *_ARMS[2:]),
    "unparsable study y": _csv("s1,,study,,,y?,0.2,40", *_STUDIES[1:]),
    "study se out of range": _csv("s1,,study,,,0.1,0,40", *_STUDIES[1:]),
    "unparsable study n": _csv("s1,,study,,,0.1,0.2,many", *_STUDIES[1:]),
    "derived study row": _csv("s1,,study,,,,,", *_STUDIES[1:], *_ARMS),
    "empty file": "",
    "no columns": "\n",
    "missing column": _csv(*_STUDIES, header=_HEADER.replace(",n", "")),
    "unterminated quote": _csv(*_STUDIES, 's1,,subgroup,"sex,1,0.05,0.3,20'),
    "field over csv's limit": _csv(*_STUDIES, "s1," + "x" * 200_000 + ",subgroup", *_ARMS),
}


@pytest.mark.parametrize("text", _LOADER_CASES.values(), ids=_LOADER_CASES.keys())
def test_load_csv_reads_as_dictreader_rows(tmp_path, text):
    """load_csv reads its rows with csv.reader, as lists; the dataset, or
    the error, is what csv.DictReader's rows give."""
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_csv, path) == _outcome(_load_by_dictreader, path)


_TABLE = ("study_ids", "y", "se", "selected", "split_start", "split_count", "split_names",
          "split_study", "arm_y", "arm_se", "arm_n", "p_interaction", "w", "agg_y", "agg_se")


def _dump(dataset):
    """Every value of a dataset's column table, arrays as dtype, shape and
    bytes."""
    table = {}
    for name in _TABLE:
        value = getattr(dataset, name)
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.shape, value.tobytes())
        table[name] = value
    return table


def _dumped_outcome(load, *args):
    try:
        return _dump(load(*args))
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def _same_as_reference(live, reference, *args):
    """The live and the reference loader give the same dataset, value for
    value, or the same ValidationError text."""
    expected = _dumped_outcome(reference, *args)
    assert _dumped_outcome(live, *args) == expected
    return expected


def _write(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("text", _LOADER_CASES.values(), ids=_LOADER_CASES.keys())
def test_load_csv_matches_the_reference_loader(tmp_path, text):
    _same_as_reference(load_csv, reference_loader.load_csv, _write(tmp_path, text))


@pytest.mark.parametrize("path", [dataset_path("respire14"), dataset_path("respire28"),
                                  dataset_path("sglt2"), PVALUE_DATASET],
                         ids=["respire14", "respire28", "sglt2", "sglt2_pvalue"])
def test_bundled_datasets_match_the_reference_loader(path):
    assert not isinstance(_same_as_reference(load_csv, reference_loader.load_csv, path), str)


def _generated_csv(rng, counts):
    """A dataset of the benchmark's shapes, values to four decimals: a study
    row per study, then two arm rows per split."""
    lines = [_HEADER]
    for i in range(len(counts)):
        lines.append(f"S{i + 1},trial {i + 1},study,,,{rng.normal(-0.2, 0.3):.4f},"
                     f"{rng.uniform(0.05, 0.4):.4f},{int(rng.integers(24, 600))}")
    for i, count in enumerate(counts):
        for c in range(count):
            for j in (1, 2):
                lines.append(f"S{i + 1},split{c + 1}-{j},subgroup,split{c + 1},{j},"
                             f"{rng.normal(-0.2, 0.4):.4f},{rng.uniform(0.07, 0.6):.4f},"
                             f"{int(rng.integers(1, 300))}")
    return "\n".join(lines) + "\n"


def test_generated_datasets_match_the_reference_loader(tmp_path):
    """report_stream's shapes (2-6 studies, 0-4 splits each) and
    select_wide's (five studies, 5-7 splits each)."""
    rng = np.random.default_rng(29)
    shapes = [(s,) * k for k in (2, 3, 5, 6) for s in range(5)]
    shapes += [tuple(rng.integers(5, 8, 5)) for _ in range(8)]
    for counts in shapes:
        path = _write(tmp_path, _generated_csv(rng, counts))
        assert not isinstance(_same_as_reference(load_csv, reference_loader.load_csv, path), str)


def _arm(sid, split, arm, y="0.1", se="0.3", n="20", p=""):
    return f"{sid},,subgroup,{split},{arm},{y},{se},{n},{p}"


_P_HEADER = _HEADER + ",p_interaction"
_PRECEDENCE_CASES = {
    # split a (name order first) fails a range check, split b later fails to parse
    "earlier split's range error before a later split's parse error": _csv(
        *(s + "," for s in _STUDIES), _arm("s1", "b", 1, y="abc"), _arm("s1", "b", 2),
        _arm("s1", "a", 1, se="1e41"), _arm("s1", "a", 2), header=_P_HEADER),
    "arm 1's range error before arm 2's parse error": _csv(
        *(s + "," for s in _STUDIES), _arm("s1", "a", 2, n="x"), _arm("s1", "a", 1, y="1e41"),
        header=_P_HEADER),
    "arm 1's parse error before arm 2's": _csv(
        *(s + "," for s in _STUDIES), _arm("s1", "a", 2, se="?"), _arm("s1", "a", 1, n="2.5x"),
        header=_P_HEADER),
    "an arm's error before its split's p_interaction": _csv(
        *(s + "," for s in _STUDIES), _arm("s1", "a", 1, p="x"), _arm("s1", "a", 2, se="0"),
        header=_P_HEADER),
    "p_interaction's error before a later split's arm": _csv(
        *(s + "," for s in _STUDIES), _arm("s1", "b", 1, y="nan"), _arm("s1", "b", 2),
        _arm("s1", "a", 1, p="2"), _arm("s1", "a", 2), header=_P_HEADER),
    "a study's split error before its own row's": _csv(
        "s1,,study,,,y?,0.2,40,", _STUDIES[1] + ",", _arm("s1", "a", 1, se="-1"),
        _arm("s1", "a", 2), header=_P_HEADER),
    "a study row's error before a later study's split error": _csv(
        "s1,,study,,,0.1,1e41,40,", _STUDIES[1] + ",", _arm("s2", "a", 1, y="?"),
        _arm("s2", "a", 2), header=_P_HEADER),
    "a later study's row error after an earlier study's split": _csv(
        _STUDIES[0] + ",", "s2,,study,,,0.1,,x,", _arm("s1", "a", 1, n="0"),
        _arm("s1", "a", 2), header=_P_HEADER),
    "an aggregate below the floor before a later split's parse error": _csv(
        *(s + "," for s in _STUDIES), _arm("s1", "b", 1, y="?"), _arm("s1", "b", 2),
        _arm("s1", "a", 1, se="1e-40"), _arm("s1", "a", 2, se="1e-40"), header=_P_HEADER),
    "a missing arm before its split's p_interaction": _csv(
        *(s + "," for s in _STUDIES), _arm("s1", "a", 2, p="x"), header=_P_HEADER),
    "a blank n before arm 1's parse error": _csv(
        *(s + "," for s in _STUDIES), _arm("s1", "a", 1, y="?", n=" "), _arm("s1", "a", 2),
        header=_P_HEADER),
    "a derived study row from an arm at the effect bound": _csv(
        "s1,,study,,,,,,", _STUDIES[1] + ",", _arm("s1", "a", 1, y="1e40", se="0.3"),
        _arm("s1", "a", 2, y="1e40", se="0.7"), header=_P_HEADER),
    "one study": _csv(_STUDIES[0] + ",", _arm("s1", "a", 1), _arm("s1", "a", 2),
                      header=_P_HEADER),
    "a half-blank study row before its own unparsable n": _csv(
        "s1,,study,,,0.1,,x,", _STUDIES[1] + ",", header=_P_HEADER),
    "an unparsable p_interaction before its split's aggregate floor": _csv(
        *(s + "," for s in _STUDIES), _arm("s1", "a", 1, se="1e-40", p="x"),
        _arm("s1", "a", 2, se="1e-40"), header=_P_HEADER),
}


@pytest.mark.parametrize("text", _PRECEDENCE_CASES.values(), ids=_PRECEDENCE_CASES.keys())
def test_error_precedence_matches_the_reference_loader(tmp_path, text):
    _same_as_reference(load_csv, reference_loader.load_csv, _write(tmp_path, text))


_CORRUPTIONS = ["abc", "", " ", "nan", "inf", "-inf", "1e41", "-1e41", "1e-41", "1e-40", "1e40",
                "0", "-1", "2.5", " 3 ", "1e400", "0x10", "1_0", "0.5", "1", "7"]


def _same_as_reference_in_the_grammar(tmp_path, rows):
    """The rows (header first), from a file, give the dataset or the error
    that the reference loader gives once each 1_0 reads 1_0? to it; returns
    the outcome. The reference reads 1_0 as 10, while in the number grammar
    (data.plain_number) 1_0 does not parse, as 1_0? does not for both: the
    message names the text the rows hold."""
    reference_rows = [["1_0?" if value == "1_0" else value for value in row] for row in rows]
    live, reference = (_write(tmp_path, "\n".join(",".join(row) for row in r) + "\n", name)
                       for r, name in ((rows, "d.csv"), (reference_rows, "r.csv")))
    expected = _dumped_outcome(reference_loader.load_csv, reference)
    if isinstance(expected, str):
        expected = expected.replace("'1_0?'", "'1_0'")
    assert _dumped_outcome(load_csv, live) == expected
    return expected


def test_corrupted_files_match_the_reference_loader(tmp_path):
    """Seeded corruptions of one to three value fields (y, se, n and
    p_interaction, on study and arm rows): the same dataset or error as the
    reference loader in the number grammar."""
    rng = np.random.default_rng(54)
    base = [line.split(",") for line in _generated_csv(rng, (2, 3, 1)).splitlines()]
    base = [row + (["p_interaction"] if r == 0 else [f"{rng.uniform():.2f}" if row[4] == "1" else ""])
            for r, row in enumerate(base)]
    for case in range(300):
        rows = [list(row) for row in base]
        for _ in range(int(rng.integers(1, 4))):
            r = int(rng.integers(1, len(rows)))
            rows[r][int(rng.choice([5, 6, 7, 8]))] = str(rng.choice(_CORRUPTIONS))
        _same_as_reference_in_the_grammar(tmp_path, rows)


def test_structural_corruptions_match_the_reference_loader(tmp_path):
    """Seeded structural faults (a deleted arm row, a study row's y and se
    both blanked, so that it is derived, only one of them blanked, and a
    derived study without splits) mixed with the value corruptions above:
    the same dataset or error as the reference loader in the number
    grammar."""
    rng = np.random.default_rng(30)
    base = [line.split(",") for line in _generated_csv(rng, (2, 3, 1, 0)).splitlines()]
    base = [row + (["p_interaction"] if r == 0 else [f"{rng.uniform():.2f}" if row[4] == "1" else ""])
            for r, row in enumerate(base)]
    study_rows, no_splits = [1, 2, 3, 4], 4  # S1-S4 by row; S4 has no splits
    loaded = 0
    for _ in range(300):
        rows = [list(row) for row in base]
        for _ in range(int(rng.integers(0, 3))):  # half of them on a study row
            r = int(rng.choice(study_rows if rng.integers(2) else range(1, len(rows))))
            rows[r][int(rng.choice([5, 6, 7, 8]))] = str(rng.choice(_CORRUPTIONS))
        for fault in rng.integers(0, 4, int(rng.integers(1, 3))):
            if fault == 0:  # an arm row deleted; the study rows come first and keep their index
                del rows[int(rng.integers(len(study_rows) + 1, len(rows)))]
                continue
            r = no_splits if fault == 1 else int(rng.choice(study_rows))
            if fault == 3:
                rows[r][int(rng.choice([5, 6]))] = ""
            else:
                rows[r][5] = rows[r][6] = ""
        loaded += not isinstance(_same_as_reference_in_the_grammar(tmp_path, rows), str)
    assert 0 < loaded < 300  # both outcomes were met


def test_the_walk_runs_only_when_a_check_fails(tmp_path, monkeypatch):
    """A valid file, with a derived study row or not, loads without the walk
    to the first failure; a failing file takes it once."""
    walk = data._first_failure
    monkeypatch.setattr(data, "_first_failure", lambda *args: pytest.fail("walked a valid file"))
    derived = _write(tmp_path, _LOADER_CASES["derived study row"], "derived.csv")
    for path in (dataset_path("respire14"), dataset_path("respire28"), dataset_path("sglt2"),
                 PVALUE_DATASET, derived):
        load_csv(path)
    walks = []
    monkeypatch.setattr(data, "_first_failure", lambda *args: walks.append(args) or walk(*args))
    with pytest.raises(ValidationError, match="^s1/sex/arm1: arm: se must be in"):
        load_csv(_write(tmp_path, _LOADER_CASES["arm se out of range"]))
    assert len(walks) == 1


def test_load_csv_of_a_path_it_cannot_read_is_a_validation_error(tmp_path):
    with pytest.raises(ValidationError, match=f"^{re.escape(str(tmp_path))}: cannot read \\(Is a directory\\)$"):
        load_csv(tmp_path)


def _sex_split_records(n=(20, 20), p_interaction=0.5):
    """The records of the file _EQUAL_CSV holds, s1's split with the given
    arm sizes n and p_interaction."""
    return MetaDataset((
        Study("s1", 0.1, 0.2, (make_split("sex", (0.05, 0.15), (0.3, 0.3), n, p_interaction),)),
        Study("s2", 0.3, 0.4, (make_split("sex", (0.25, 0.35), (0.5, 0.5), (15, 15)),)),
    ))


# _STUDIES and _ARMS with p_interaction 0.5 on s1's split, absent (NaN in
# the table) on s2's
_EQUAL_CSV = _csv(*(line + "," for line in _STUDIES), _ARMS[0] + ",0.5",
                  *(line + "," for line in _ARMS[1:]), header=_HEADER + ",p_interaction")


def test_datasets_are_equal_by_their_tables(tmp_path):
    """The dataset from each door compares equal, with equal hashes: the
    CSV's (load_csv) and the records' (MetaDataset(studies)). NaN equals
    NaN in p_interaction, where it means absent."""
    from_csv, from_records = load_csv(_write(tmp_path, _EQUAL_CSV)), _sex_split_records()
    assert np.isnan(from_csv.p_interaction[1])
    assert from_records == from_csv and hash(from_records) == hash(from_csv)
    assert from_csv != _STUDIES


@pytest.mark.parametrize("change", ["arm n", "p_interaction absent", "selection"])
def test_one_changed_value_makes_datasets_unequal(change):
    dataset = _sex_split_records()
    other = {
        "arm n": lambda: _sex_split_records(n=(20, 21)),
        "p_interaction absent": lambda: _sex_split_records(p_interaction=None),
        "selection": lambda: dataset.with_selection([0, 0]),
    }[change]()
    assert other != dataset and not other == dataset

import json
import math

import numpy as np
import pytest

from fewmeta.data import (
    MetaDataset,
    Study,
    StudyEstimate,
    SubgroupArm,
    SubgroupSplit,
    ValidationError,
    aggregate_study,
    consistency_gaps,
    dataset_from_json,
    dataset_to_json,
    prevalence_of,
    validate_dataset,
)

from conftest import make_dataset, make_split


def test_prevalence_examples():
    assert prevalence_of(make_split("a", (0, 0), (1, 1), n=(6, 6))) == 0.5
    assert prevalence_of(make_split("a", (0, 0), (1, 1), n=(4, 8))) == pytest.approx(1 / 3)
    assert prevalence_of(make_split("a", (0, 0), (1, 1), n=(3, 9))) == 0.25


def test_prevalence_scale_free():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n1, n2 = rng.integers(1, 50, size=2)
        c = int(rng.integers(1, 20))
        p1 = prevalence_of(make_split("a", (0, 0), (1, 1), n=(n1, n2)))
        p2 = prevalence_of(make_split("a", (0, 0), (1, 1), n=(c * n1, c * n2)))
        assert p1 == pytest.approx(p2, abs=1e-15)


def test_arm_validation():
    with pytest.raises(ValidationError):
        SubgroupArm(j=3, y=0.0, se=1.0, n=5)
    with pytest.raises(ValidationError):
        SubgroupArm(j=1, y=0.0, se=0.0, n=5)
    with pytest.raises(ValidationError):
        SubgroupArm(j=1, y=0.0, se=1.0, n=0)
    with pytest.raises(ValidationError):
        StudyEstimate("s", float("nan"), 1.0)


def test_aggregate_identical_arms():
    agg = aggregate_study(make_split("a", (1.0, 1.0), (1.0, 1.0)))
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
    ds = validate_dataset(
        _rows(("s1", "", "study", "", "", "0.1", "0.2", ""),
              ("s2", "", "study", "", "", "0.3", "0.4", "")))
    assert ds.k == 2
    assert not ds.has_splits


def test_validate_orphan_subgroup():
    with pytest.raises(ValidationError, match="orphan"):
        validate_dataset(
            _rows(("s1", "", "study", "", "", "0.1", "0.2", ""),
                  ("s2", "", "study", "", "", "0.3", "0.4", ""),
                  ("zz", "", "subgroup", "sex", "1", "0.0", "1.0", "5"),
                  ("zz", "", "subgroup", "sex", "2", "0.0", "1.0", "5")))


def test_validate_duplicate_arm():
    with pytest.raises(ValidationError, match="duplicate"):
        validate_dataset(
            _rows(("s1", "", "study", "", "", "0.1", "0.2", ""),
                  ("s2", "", "study", "", "", "0.3", "0.4", ""),
                  ("s1", "", "subgroup", "sex", "1", "0.0", "1.0", "5"),
                  ("s1", "", "subgroup", "sex", "1", "0.0", "1.0", "5")))


def test_validate_missing_arm():
    with pytest.raises(ValidationError, match="missing arm"):
        validate_dataset(
            _rows(("s1", "", "study", "", "", "0.1", "0.2", ""),
                  ("s2", "", "study", "", "", "0.3", "0.4", ""),
                  ("s1", "", "subgroup", "sex", "1", "0.0", "1.0", "5")))


def test_validate_groups_interleaved_subgroup_rows():
    ds = validate_dataset(
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
    assert [s.study_id for s in ds.studies] == ["s1", "s2"]
    assert [[sp.split_name for sp in s.splits] for s in ds.studies] == [
        ["age", "sex"], ["age", "sex"]
    ]
    assert ds.studies[1].splits[1].arms[0].y == 0.2


def test_validate_error_precedence():
    rows = [("s1", "", "study", "", "", "0.1", "0.2", ""),
            ("s2", "", "study", "", "", "0.3", "0.4", ""),
            ("s1", "", "subgroup", "b", "1", "0.0", "1.0", "5"),
            ("s1", "", "subgroup", "a", "1", "0.0", "1.0", "")]
    # splits are built in name order: a's missing n is found before b's missing arm
    with pytest.raises(ValidationError, match="'s1'/'a' arm 1: n is required"):
        validate_dataset(_rows(*rows))
    # orphans are found before any split is built
    orphans = [("z2", "", "subgroup", "a", "1", "0.0", "1.0", "5"),
               ("z1", "", "subgroup", "a", "1", "0.0", "1.0", "5")]
    with pytest.raises(ValidationError, match="unknown study_id 'z2'"):
        validate_dataset(_rows(*rows, *orphans))


def test_split_aggregate_below_the_se_floor_is_rejected():
    arms = (SubgroupArm(1, 0.0, 1e-40, 5), SubgroupArm(2, 0.0, 1e-40, 5))
    floor = "split 'g': the arms aggregate to se 7.07e-41, below the floor 1e-40"
    with pytest.raises(ValidationError, match=floor):
        SubgroupSplit("g", arms)
    split = SubgroupSplit("g", (arms[0], SubgroupArm(2, 0.0, 1.0, 5)))
    assert split.agg_se == aggregate_study(split).se == 1e-40


def test_validate_too_few_studies():
    with pytest.raises(ValidationError):
        validate_dataset(_rows(("s1", "", "study", "", "", "0.1", "0.2", "")))


def test_study_estimate_derived_from_split():
    ds = validate_dataset(
        _rows(("s1", "", "study", "", "", "", "", ""),
              ("s2", "", "study", "", "", "0.3", "0.4", ""),
              ("s1", "", "subgroup", "sex", "1", "1.0", "1.0", "5"),
              ("s1", "", "subgroup", "sex", "2", "1.0", "1.0", "5")))
    assert ds.studies[0].estimate.y == pytest.approx(1.0)
    assert ds.studies[0].estimate.se == pytest.approx(math.sqrt(0.5))


def test_bundled_respire14_shape(respire14):
    assert respire14.k == 2
    for study in respire14.studies:
        assert len(study.splits) == 3
        assert {s.split_name for s in study.splits} == {"age", "race", "sex"}


def test_consistency_gap_diagnostic():
    # the supplied study estimate intentionally disagrees with the split
    split = make_split("sex", (0.0, 2.0), (1.0, 1.0))
    ds = make_dataset([(9.9, 0.5, [split]), (0.0, 1.0, [])])
    gaps = consistency_gaps(ds)
    assert len(gaps) == 1
    assert gaps[0]["inconsistent"]


def test_json_round_trip():
    split = make_split("sex", (0.1, -0.4), (0.5, 0.7), n=(12, 24), p_interaction=0.03)
    ds = make_dataset([(0.0, 0.3, [split]), (0.2, 0.4, [])], selected=[0, None])
    text = dataset_to_json(ds)
    again = dataset_from_json(text)
    assert again == ds
    assert dataset_to_json(again) == text


def test_selection_application():
    split = make_split("sex", (0.1, -0.4), (0.5, 0.7))
    ds = make_dataset([(0.0, 0.3, [split]), (0.2, 0.4, [split])])
    assert not ds.fully_selected
    sel = ds.with_selection([0, 0])
    assert sel.fully_selected
    assert sel.studies[0].selected_split.split_name == "sex"
    with pytest.raises(ValidationError):
        ds.with_selection([0])

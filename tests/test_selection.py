import os

import numpy as np
import pytest

from fewmeta.data import ValidationError
from fewmeta.estimators import q_subgroup
from fewmeta.selection import (
    CombinationBudgetError,
    qs_histogram,
    select,
    select_global,
    select_local,
    select_pvalue,
    within_study_q,
    write_histogram_csv,
)

from conftest import make_dataset, make_split


def test_within_study_q_hand_case():
    flat = make_split("A", (0.0, 0.0), (1.0, 1.0))
    steep = make_split("B", (-1.0, 1.0), (1.0, 1.0))
    assert within_study_q(flat) == pytest.approx(0.0)
    assert within_study_q(steep) == pytest.approx(2.0)


def test_select_local_prefers_larger_within_q():
    flat = make_split("A", (0.0, 0.0), (1.0, 1.0))
    steep = make_split("B", (-1.0, 1.0), (1.0, 1.0))
    ds = make_dataset([(0.0, 0.7, [flat, steep]), (0.0, 0.7, [steep, flat])])
    res = select_local(ds)
    assert res.choices == (1, 0)
    assert res.strategy == "local"
    assert res.combinations_evaluated == 4


def test_select_local_tie_breaks_lexicographically():
    a = make_split("zeta", (-1.0, 1.0), (1.0, 1.0))
    b = make_split("alpha", (1.0, -1.0), (1.0, 1.0))
    ds = make_dataset([(0.0, 0.7, [a, b]), (0.0, 0.7, [a, b])])
    res = select_local(ds)
    # equal within-study Q -> lowest split name wins
    assert [ds.studies[i].splits[c].split_name for i, c in enumerate(res.choices)] \
        == ["alpha", "alpha"]


def test_single_candidate_local_equals_global():
    split = make_split("only", (0.3, -0.2), (0.8, 0.9))
    ds = make_dataset([(0.0, 0.7, [split]), (0.1, 0.7, [split])])
    loc = select_local(ds)
    glo = select_global(ds)
    assert loc.choices == glo.choices
    assert loc.q_s == glo.q_s


def test_global_at_least_local():
    rng = np.random.default_rng(5)
    for _ in range(50):
        specs = []
        for _i in range(3):
            splits = [
                make_split(f"s{j}", rng.normal(0, 1, 2), rng.uniform(0.3, 1.5, 2))
                for j in range(3)
            ]
            specs.append((rng.normal(), 0.7, splits))
        ds = make_dataset(specs)
        assert select_global(ds).q_s >= select_local(ds).q_s - 1e-12


def test_global_matches_recomputed_qs():
    rng = np.random.default_rng(9)
    splits1 = [make_split(f"a{j}", rng.normal(0, 1, 2), rng.uniform(0.3, 1, 2)) for j in range(2)]
    splits2 = [make_split(f"b{j}", rng.normal(0, 1, 2), rng.uniform(0.3, 1, 2)) for j in range(2)]
    ds = make_dataset([(0.0, 0.7, splits1), (0.0, 0.7, splits2)])
    res = select_global(ds)
    recomputed = q_subgroup(ds.with_selection(res.choices))
    assert res.q_s == pytest.approx(recomputed, rel=1e-12)


def test_histogram_max_equals_global(sglt2):
    values, threshold = qs_histogram(sglt2)
    assert len(values) == 4096
    assert threshold == 11
    glo = select_global(sglt2)
    assert max(q for _, q in values) == glo.q_s


def test_write_histogram_csv_keeps_target_on_failure(tmp_path):
    path = tmp_path / "qs.csv"
    path.write_text("previous run\n")

    def values():
        yield 0, 1.5
        raise RuntimeError("enumeration interrupted")

    with pytest.raises(RuntimeError):
        write_histogram_csv(values(), path)
    assert path.read_text() == "previous run\n"
    assert os.listdir(tmp_path) == ["qs.csv"]

    write_histogram_csv([(0, 1.5), (1, 0.25)], path)
    assert path.read_bytes() == b"combination_id,q_s\r\n0,1.5\r\n1,0.25\r\n"


def test_budget_refusal(sglt2):
    with pytest.raises(CombinationBudgetError) as exc:
        select_global(sglt2, max_combinations=100)
    assert exc.value.required == 4096
    assert select_global(sglt2, max_combinations=4096).q_s > 0


def test_removing_unselected_split_keeps_global():
    rng = np.random.default_rng(21)
    splits1 = [make_split(f"a{j}", rng.normal(0, 1, 2), rng.uniform(0.3, 1, 2)) for j in range(3)]
    splits2 = [make_split(f"b{j}", rng.normal(0, 1, 2), rng.uniform(0.3, 1, 2)) for j in range(3)]
    ds = make_dataset([(0.0, 0.7, splits1), (0.0, 0.7, splits2)])
    res = select_global(ds)
    keep1 = [s for j, s in enumerate(splits1) if j == res.choices[0] or j == 0]
    keep2 = [s for j, s in enumerate(splits2) if j == res.choices[1] or j == 0]
    smaller = make_dataset([(0.0, 0.7, keep1), (0.0, 0.7, keep2)])
    assert select_global(smaller).q_s == pytest.approx(res.q_s, rel=1e-15)


def test_pvalue_strategy():
    a = make_split("a", (0.0, 0.0), (1.0, 1.0), p_interaction=0.40)
    b = make_split("b", (0.0, 0.0), (1.0, 1.0), p_interaction=0.01)
    ds = make_dataset([(0.0, 0.7, [a, b]), (0.0, 0.7, [b, a])])
    res = select_pvalue(ds)
    assert res.choices == (1, 0)

    missing = make_split("c", (0.0, 0.0), (1.0, 1.0))
    ds2 = make_dataset([(0.0, 0.7, [missing]), (0.0, 0.7, [missing])])
    with pytest.raises(ValidationError, match="p_interaction"):
        select_pvalue(ds2)


def test_select_dispatch_and_errors():
    split = make_split("only", (0.3, -0.2), (0.8, 0.9))
    ds = make_dataset([(0.0, 0.7, [split]), (0.1, 0.7, [split])])
    assert select(ds, "local").strategy == "local"
    assert select(ds, "global").strategy == "global"
    with pytest.raises(ValidationError):
        select(ds, "bogus")
    no_splits = make_dataset([(0.0, 0.7, []), (0.1, 0.7, [])])
    with pytest.raises(ValidationError, match="no candidate"):
        select_local(no_splits)


def test_sglt2_local_vs_global_disagree_only_on_one_study(sglt2):
    loc = select_local(sglt2)
    glo = select_global(sglt2)
    differing = [
        i for i, (a, b) in enumerate(zip(loc.choices, glo.choices)) if a != b
    ]
    assert len(differing) == 1
    i = differing[0]
    study = sglt2.studies[i]
    assert study.splits[loc.choices[i]].split_name == "diuretic"
    assert study.splits[glo.choices[i]].split_name == "eGFR"

import hashlib
import math
import os

import numpy as np
import pytest
from click.testing import CliRunner

from fewmeta import selection
from fewmeta.cli import main

from fewmeta.data import (
    MetaDataset,
    Study,
    StudyEstimate,
    SubgroupArm,
    SubgroupSplit,
    ValidationError,
    aggregate_study,
)
from fewmeta.estimators import qs_raw, subgroup_arrays
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

from conftest import dataset_path, make_dataset, make_split


def test_within_study_q_hand_case():
    flat = make_split("A", (0.0, 0.0), (1.0, 1.0))
    steep = make_split("B", (-1.0, 1.0), (1.0, 1.0))
    assert within_study_q(flat) == pytest.approx(0.0)
    assert within_study_q(steep) == pytest.approx(2.0)


def _numpy_split_statistics(dataset):
    """Per split, within_study_q and the Q_S moments as numpy sums over the
    two arms: the formulation the plain-float statistics reproduce."""
    c = np.mean([study.estimate.y for study in dataset.studies])
    out = []
    for study in dataset.studies:
        for split in study.splits:
            agg = aggregate_study(split)
            w = np.array([a.se ** -2 for a in split.arms])
            d = np.array([a.y for a in split.arms]) - c
            q = float(sum(a.se ** -2 * (a.y - agg.y) ** 2 for a in split.arms))
            out.append((q, (w.sum(), (w * d).sum(), (w * d * d).sum())))
    return out


@pytest.mark.parametrize("case", ["random", "shifted", "signed-zeros"])
def test_split_statistics_are_the_numpy_sums_bit_for_bit(case):
    rng = np.random.default_rng(21)
    if case == "signed-zeros":
        def effects(n):
            return rng.choice([-0.0, 0.0], n)
    else:
        def effects(n):
            return rng.normal(0, 1, n)
    for _ in range(40):
        ds = make_dataset([
            (effects(1)[0], rng.uniform(0.2, 1.0),
             [make_split(f"s{j}", effects(2), rng.uniform(0.2, 1.5, 2))
              for j in range(rng.integers(1, 4))])
            for _ in range(rng.integers(2, 5))
        ])
        if case == "shifted":
            ds = _affine(ds, 1e6, 1.0)
        expected = _numpy_split_statistics(ds)
        q = [within_study_q(split) for study in ds.studies for split in study.splits]
        moments = [row for rows in selection._split_moments(ds) for row in rows]
        assert [repr(v) for v in q] == [repr(e) for e, _ in expected]
        assert [[repr(float(v)) for v in row] for row in moments] == [
            [repr(float(v)) for v in row] for _, row in expected
        ]


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
    recomputed = qs_raw(*subgroup_arrays(ds.with_selection(res.choices))[:2])
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


def _affine(dataset, shift, scale):
    """The dataset with every effect y mapped to scale * y + shift and every
    se to scale * se."""
    studies = []
    for study in dataset.studies:
        est = study.estimate
        splits = tuple(
            SubgroupSplit(
                split.split_name,
                tuple(
                    SubgroupArm(a.j, scale * a.y + shift, scale * a.se, a.n)
                    for a in split.arms
                ),
                split.p_interaction,
            )
            for split in study.splits
        )
        moved = StudyEstimate(est.study_id, scale * est.y + shift, scale * est.se, est.n)
        studies.append(Study(moved, splits, study.selected))
    return MetaDataset(tuple(studies))


@pytest.mark.parametrize(
    "shift, scale",
    [(1e5, 1.0), (1e7, 1.0), (-1e7, 1.0), (0.0, 1e-3), (0.0, 1e3), (1e7, 1e3)],
)
def test_selection_shift_and_scale_invariant(sglt2, shift, scale):
    moved = _affine(sglt2, shift, scale)
    for select_fn in (select_local, select_global):
        before, after = select_fn(sglt2), select_fn(moved)
        assert after.choices == before.choices
        assert after.q_s == pytest.approx(before.q_s, rel=1e-6)
    before, threshold = qs_histogram(sglt2)
    after, moved_threshold = qs_histogram(moved)
    assert moved_threshold == threshold
    assert [cid for cid, _ in after] == [cid for cid, _ in before]
    assert np.allclose([q for _, q in after], [q for _, q in before], rtol=1e-6, atol=0)


def _enumerate(counts):
    """Study-major enumeration of combinations (last study fastest): the
    loop the numpy evaluator replaced, kept as its reference."""
    choices = [0] * len(counts)
    while True:
        yield tuple(choices)
        for pos in range(len(counts) - 1, -1, -1):
            choices[pos] += 1
            if choices[pos] < counts[pos]:
                break
            choices[pos] = 0
        else:
            return


def _qs_loop(dataset):
    """Every (choices, Q_S) pair, summed one combination at a time."""
    moments = selection._split_moments(dataset)
    out = []
    for choices in _enumerate([len(s.splits) for s in dataset.studies]):
        s0 = s1 = s2 = 0.0
        for rows, c in zip(moments, choices):
            a, b, d = rows[c]
            s0 += a
            s1 += b
            s2 += d
        out.append((choices, s2 - s1 * s1 / s0))
    return out


def _random_datasets():
    """Datasets of 2-4 studies with 1-4 splits each: plain, with every
    effect shifted far from zero, and with duplicated splits (tied Q_S)."""
    rng = np.random.default_rng(13)
    for case in range(24):
        specs = []
        for i in range(rng.integers(2, 5)):
            splits = [
                make_split(f"s{j}", rng.normal(0, 1, 2), rng.uniform(0.2, 1.5, 2))
                for j in range(rng.integers(1, 5))
            ]
            if case % 3 == 2:
                splits += [make_split(f"d{j}", [a.y for a in sp.arms], [a.se for a in sp.arms])
                           for j, sp in enumerate(splits)]
            specs.append((rng.normal(), 0.7, splits))
        ds = make_dataset(specs)
        yield _affine(ds, 1e6, 1.0) if case % 3 == 1 else ds


@pytest.mark.parametrize("block", [None, 1, 7, 50])
def test_qs_all_equals_loop_bit_for_bit(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(selection, "_QS_BLOCK", block)
    for ds in _random_datasets():
        expected = _qs_loop(ds)
        got = selection._qs_all(ds)
        assert got.dtype == np.float64
        assert got.tolist() == [q for _, q in expected]
        sizes = [len(q) for q in selection._qs_blocks(ds)]
        assert sum(sizes) == len(expected)
        assert max(sizes) <= selection._QS_BLOCK
        best_choices, best_q = expected[0]
        for choices, q in expected:
            if q > best_q:
                best_choices, best_q = choices, q
        res = select_global(ds)
        assert res.choices == best_choices
        assert res.q_s == best_q and type(res.q_s) is float
        values, _ = qs_histogram(ds)
        assert values == [(cid, q) for cid, (_, q) in enumerate(expected)]


def test_select_histogram_golden_bytes(tmp_path):
    path = tmp_path / "h.csv"
    result = CliRunner().invoke(
        main, ["select", dataset_path("sglt2"), "--histogram", str(path)]
    )
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "f9f4a2c79badf333197970d338a96cd3f2d890106c406d8fa125d8b08600315b"
    )


def test_select_global_skips_nan(monkeypatch):
    a = make_split("a", (0.5, -0.5), (1.0, 1.0))
    b = make_split("b", (0.1, -0.1), (1.0, 1.0))
    ds = make_dataset([(0.0, 0.7, [a, b]), (0.0, 0.7, [a, b])])
    moments = [[(1.0, math.nan, 0.0), (1.0, 1.0, 2.0)], [(1.0, 0.0, 0.0), (1.0, 1.0, 2.0)]]
    monkeypatch.setattr(selection, "_split_moments", lambda dataset: moments)
    res = select_global(ds)
    assert res.choices == (1, 1)
    assert res.q_s == 4.0 - 4.0 / 2.0

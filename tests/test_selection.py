import hashlib
import math
import os
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from fewmeta import report, selection
from fewmeta.cli import main

from fewmeta.data import (
    ValidationError,
    aggregate_study,
    load_csv,
)
from fewmeta.estimators import qs_raw
from fewmeta.selection import (
    CombinationBudgetError,
    qs_histogram,
    select,
    select_global,
    select_local,
    select_pvalue,
    write_histogram_csv,
)

from conftest import (
    PVALUE_DATASET,
    dataset_path,
    load_rows,
    make_dataset,
    make_split,
    selected_arms,
    table_rows,
    write_rows,
)


def test_within_study_q_hand_case():
    # deviations -d and d whose libm pow(d, 2) is one ulp off d * d
    d = 7.2249061795510094
    assert d ** 2 != d * d
    flat = make_split("A", (0.0, 0.0), (1.0, 1.0))
    steep = make_split("B", (-1.0, 1.0), (1.0, 1.0))
    ds = make_dataset([(0.0, 0.7, [flat, steep]), (0.0, 0.7, [make_split("C", (-d, d), (1.0, 1.0))])])
    q = selection._within_q(ds.w, ds.arm_y, ds.agg_y).tolist()
    assert q[:2] == pytest.approx([0.0, 2.0])
    assert q[2] == 2.0 * (d * d)


def _numpy_split_statistics(specs):
    """Per split of make_dataset's study specs, the within-study Q and the
    Q_S moments as numpy sums over the two arms: the formulation the
    table's statistics reproduce."""
    c = np.mean([y for y, _, _ in specs])
    out = []
    for _, _, splits in specs:
        for split in splits:
            agg = aggregate_study(split)
            w = np.array([1.0 / (a.se * a.se) for a in split.arms])
            d = np.array([a.y for a in split.arms]) - c
            q = float(sum(1.0 / (a.se * a.se) * ((a.y - agg.y) * (a.y - agg.y)) for a in split.arms))
            out.append((q, (w.sum(), (w * d).sum(), (w * d * d).sum())))
    return out


@pytest.mark.parametrize("case", ["random", "shifted", "signed-zeros"])
def test_split_statistics_are_the_numpy_sums_bit_for_bit(case):
    """The table's _within_q and Q_S moments of each split equal the numpy
    sums bit for bit, and the moments are one C-ordered (3, S) array."""
    rng = np.random.default_rng(21)
    if case == "signed-zeros":
        def effects(n):
            return rng.choice([-0.0, 0.0], n)
    elif case == "shifted":  # every effect moved far from zero
        def effects(n):
            return rng.normal(0, 1, n) + 1e6
    else:
        def effects(n):
            return rng.normal(0, 1, n)
    for _ in range(40):
        specs = [
            (effects(1)[0], rng.uniform(0.2, 1.0),
             [make_split(f"s{j}", effects(2), rng.uniform(0.2, 1.5, 2))
              for j in range(rng.integers(1, 4))])
            for _ in range(rng.integers(2, 5))
        ]
        ds = make_dataset(specs)
        expected = _numpy_split_statistics(specs)
        table = selection._split_moments(ds)
        # C order: over the Fortran-ordered table _sum's reduce leaves,
        # select_global on sglt2 took 1.3 to 1.4 times as long (timeit: 127
        # against 88 us, 162 against 125 us on a slower run)
        assert table.flags.c_contiguous
        moments = table.T.tolist()
        assert ([repr(v) for v in selection._within_q(ds.w, ds.arm_y, ds.agg_y).tolist()]
                == [repr(e) for e, _ in expected])
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
    assert ds.with_selection(res.choices).selected_names == ["alpha", "alpha"]


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
    recomputed = qs_raw(*selected_arms(ds.with_selection(res.choices))[:2])
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

    def blocks():
        yield np.array([1.5])
        raise RuntimeError("enumeration interrupted")

    with pytest.raises(RuntimeError):
        write_histogram_csv(SimpleNamespace(blocks=blocks), path)
    assert path.read_text() == "previous run\n"
    assert os.listdir(tmp_path) == ["qs.csv"]

    write_histogram_csv(SimpleNamespace(blocks=lambda: [np.array([1.5, 0.25])]), path)
    assert path.read_bytes() == b"combination_id,q_s\r\n0,1.5\r\n1,0.25\r\n"


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-05, 0.1, 18.24]


def _rows_by_percent(start, q):
    return "".join("%d,%r\r\n" % (start + i, v) for i, v in enumerate(q))


def _written_rows(tmp_path, blocks):
    path = tmp_path / "h.csv"
    write_histogram_csv(SimpleNamespace(blocks=lambda: blocks), path)
    text = path.read_bytes().decode()
    assert text.startswith("combination_id,q_s\r\n")
    return text[len("combination_id,q_s\r\n"):]


def test_histogram_rows_equal_percent_format():
    """A chunk's rows, for any first id and length up to _CHUNK_ROWS, across
    thousand- and ten-thousand-id boundaries, are "%d,%r\r\n" rows."""
    rng = np.random.default_rng(24)
    starts = [0, 1, 999, 1000, 4095, 4096, 9999, 999_999, 10 ** 6, 10 ** 8 - 4096, 10 ** 8]
    for start in starts + rng.integers(0, 10 ** 9, 30).tolist():
        for length in (1, 2, 999, 1000, 1001, 2500, 4095, 4096, int(rng.integers(1, 4097))):
            pool = _SPECIAL_FLOATS + (rng.standard_normal(6) * 10.0 ** rng.integers(-8, 17, 6)).tolist()
            q = rng.choice(pool, length)
            assert selection._histogram_chunk(start, q) == _rows_by_percent(start, q.tolist())


def test_write_histogram_csv_numbers_ids_across_blocks(tmp_path, monkeypatch):
    """Ids run on across blocks, and no chunk holds more than 4096 rows."""
    written = []

    def recording(path, chunks):
        report.write_atomic(path, (written.append(chunk) or chunk for chunk in chunks))

    monkeypatch.setattr(selection, "write_atomic", recording)
    rng = np.random.default_rng(5)
    sizes = [3, 996, 1, 1000, 2048, 7, 4096, 4097, 9000]
    pool = _SPECIAL_FLOATS + (rng.standard_normal(20) * 100.0).tolist()
    q = rng.choice(pool, sum(sizes)).tolist()
    blocks, at = [], 0
    for n in sizes:
        blocks.append(np.array(q[at:at + n]))
        at += n
    assert _written_rows(tmp_path, blocks) == _rows_by_percent(0, q)
    assert max(chunk.count("\n") for chunk in written) == 4096
    assert _written_rows(tmp_path, []) == ""


def _bits_to_float(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64).item()


# float64 values as bit patterns: any pattern; the fast domain's exponents
# with any mantissa (0 a power of two, 1 and 2^52 - 1 its ends); decimals of
# at most 14 digits; 10^k and powers of two with their neighbours
_FLOAT64 = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_bits_to_float),
    st.builds(lambda sign, exponent, mantissa: _bits_to_float(sign << 63 | exponent << 52 | mantissa),
              st.integers(0, 1), st.integers(1023, 1074),
              st.sampled_from([0, 1, 2 ** 52 - 1]) | st.integers(0, 2 ** 52 - 1)),
    st.builds(lambda m, e: m / 10 ** e, st.integers(-10 ** 14, 10 ** 14), st.integers(0, 14)),
    st.builds(lambda base, k, step: math.nextafter(base ** k, step),
              st.sampled_from([2.0, 10.0]), st.integers(-30, 60), st.sampled_from([-math.inf, math.inf])),
    st.builds(lambda base, k: base ** k, st.sampled_from([2.0, 10.0]), st.integers(-30, 60)),
)


@settings(max_examples=300, deadline=None)
@given(start=st.sampled_from([0, 999, 1000, 4095, 4096, 10 ** 8 - 1]) | st.integers(0, 10 ** 8),
       values=st.lists(_FLOAT64, min_size=1, max_size=200))
def test_histogram_chunk_is_percent_r_on_float64_bits(start, values):
    q = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert selection._histogram_chunk(start, q) == _rows_by_percent(start, values)


def test_histogram_chunk_is_percent_r_in_bulk():
    """About a million values, in chunks of 4096 whose ids cross 10^8: every
    sign and exponent with extreme and random mantissas, 12 000 random
    mantissas for each exponent of the fast domain, every power of two and
    of ten in range with both neighbours (1.0, 2^52 - ulp and 2^52 among
    them), and decimals of at most 14 digits with theirs."""
    rng = np.random.default_rng(37)
    exponents = np.arange(4096, dtype=np.uint64) << np.uint64(52)  # with the sign bit
    domain = np.arange(1023, 1075, dtype=np.uint64) << np.uint64(52)
    extremes = np.concatenate([[0, 1, 2 ** 52 - 1], rng.integers(0, 2 ** 52, 20)]).astype(np.uint64)
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-323, 309)])
    decimals = rng.integers(1, 10 ** 14, 100_000) / 10.0 ** rng.integers(0, 15, 100_000)
    edges = np.concatenate([powers, decimals])
    q = np.concatenate([
        (exponents[:, None] | extremes).ravel().view(np.float64),
        (domain[:, None] | rng.integers(0, 2 ** 52, (domain.size, 12_000), dtype=np.uint64)).ravel().view(np.float64),
        edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
    ])
    q.view(np.uint64)[rng.random(q.size) < 0.5] ^= np.uint64(1 << 63)  # either sign
    assert q.size > 10 ** 6
    start = 10 ** 8 - q.size // 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(0, q.size, 4096):
            chunk = q[i:i + 4096]
            assert selection._histogram_chunk(start + i, chunk) == _rows_by_percent(start + i, chunk.tolist())


@pytest.mark.parametrize("block", [7, 1000])
def test_histogram_bytes_with_blocks_ending_mid_thousand(tmp_path, monkeypatch, block):
    """sglt2's 4096 combinations in blocks that end inside a thousand of
    ids give test_select_histogram_golden_bytes' file."""
    monkeypatch.setattr(selection, "_QS_BLOCK", block)
    path = tmp_path / "h.csv"
    result = CliRunner().invoke(
        main, ["select", dataset_path("sglt2"), "--histogram", str(path)]
    )
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "a40bacdfbb8a543e5e654a26347b3c289b20a3139b181b93879a35cddc1bf263"
    )


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
    assert select(ds, "pvalue") == res

    missing = make_split("c", (0.0, 0.0), (1.0, 1.0))
    ds2 = make_dataset([(0.0, 0.7, [missing]), (0.0, 0.7, [missing])])
    with pytest.raises(ValidationError, match="p_interaction"):
        select_pvalue(ds2)


def test_select_dispatch_and_errors():
    split = make_split("only", (0.3, -0.2), (0.8, 0.9))
    ds = make_dataset([(0.0, 0.7, [split]), (0.1, 0.7, [split])])
    assert select(ds, "local").strategy == "local"
    assert select(ds, "global").strategy == "global"
    with pytest.raises(ValidationError, match="unknown selection strategy 'bogus'"):
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
    assert sglt2.with_selection(loc.choices).selected_names[i] == "diuretic"
    assert sglt2.with_selection(glo.choices).selected_names[i] == "eGFR"


def _affine(dataset, shift, scale):
    """The dataset, its splits in name order, with every effect y mapped to
    scale * y + shift and every se to scale * se."""
    return load_rows(table_rows(
        dataset, y=scale * dataset.y + shift, se=scale * dataset.se,
        arm_y=scale * dataset.arm_y + shift, arm_se=scale * dataset.arm_se))


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
    moments = selection._split_moments(dataset).T.tolist()
    out = []
    for choices in _enumerate(dataset.split_count):
        s0 = s1 = s2 = 0.0
        for start, c in zip(dataset.split_start, choices):
            a, b, d = moments[start + c]
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
        got = np.concatenate(list(selection._qs_blocks(ds)))
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
        assert len(values) == len(expected)
        assert list(values) == list(values) == [(cid, q) for cid, (_, q) in enumerate(expected)]


def _enumerated_qs(dataset, result):
    """The Q_S that the enumeration gives at the combination of `result`."""
    values = np.concatenate(list(selection._qs_blocks(dataset)))
    return float(values[np.ravel_multi_index(result.choices, dataset.split_count)])


def test_per_study_choosers_and_the_enumeration_agree_bit_for_bit():
    """select_local's and select_pvalue's Q_S, read at table rows
    split_start + choices, is the enumeration's Q_S of that combination,
    and no global maximum falls below a local choice, with no slack:
    shifted effects and tied splits included."""
    bundled = [load_csv(dataset_path(name)) for name in ("sglt2", "respire14", "respire28")]
    for ds in [*_random_datasets(), *bundled]:
        local = select_local(ds)
        assert repr(local.q_s) == repr(_enumerated_qs(ds, local))
        assert select_global(ds).q_s >= local.q_s
    pvalue = load_csv(PVALUE_DATASET)
    result = select_pvalue(pvalue)
    assert repr(result.q_s) == repr(_enumerated_qs(pvalue, result))


def test_histogram_is_streamed_in_bounded_memory(tmp_path):
    """8^6 = 262 144 combinations go to the file holding one block of Q_S
    and one chunk of at most 4096 rows (selection._CHUNK_ROWS) at a time:
    the write peaks at about 1.6 MB under tracemalloc, while a list of the
    pairs alone takes about 240 B per combination, 63 MB here. The bound
    does not grow with the combination count."""
    rng = np.random.default_rng(3)
    ds = make_dataset([
        (rng.normal(), 0.7, [make_split(f"s{j}", rng.normal(0, 1, 2), rng.uniform(0.2, 1.5, 2))
                             for j in range(8)])
        for _ in range(6)
    ])
    path = tmp_path / "h.csv"
    tracemalloc.start()
    try:
        write_histogram_csv(qs_histogram(ds)[0], path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    with open(path, "rb") as fh:
        assert sum(1 for _ in fh) == 8 ** 6 + 1


def test_select_histogram_golden_bytes(tmp_path):
    path = tmp_path / "h.csv"
    result = CliRunner().invoke(
        main, ["select", dataset_path("sglt2"), "--histogram", str(path)]
    )
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "a40bacdfbb8a543e5e654a26347b3c289b20a3139b181b93879a35cddc1bf263"
    )


def test_select_global_skips_nan(monkeypatch):
    a = make_split("a", (0.5, -0.5), (1.0, 1.0))
    b = make_split("b", (0.1, -0.1), (1.0, 1.0))
    ds = make_dataset([(0.0, 0.7, [a, b]), (0.0, 0.7, [a, b])])
    moments = np.array([(1.0, math.nan, 0.0), (1.0, 1.0, 2.0), (1.0, 0.0, 0.0), (1.0, 1.0, 2.0)]).T
    monkeypatch.setattr(selection, "_split_moments", lambda dataset: moments)
    res = select_global(ds)
    assert res.choices == (1, 1)
    assert res.q_s == 4.0 - 4.0 / 2.0


def _csv_of(dataset, path):
    """`dataset`, its splits in name order, as a fewmeta CSV."""
    write_rows(path, table_rows(dataset))
    return str(path)


def _select_lines(path, *options):
    result = CliRunner().invoke(main, ["select", path, *options])
    assert result.exit_code == 0, result.output
    return result.output.splitlines()


@pytest.mark.parametrize("block", [None, 7, 1000])
def test_select_histogram_takes_the_choice_of_plain_select(tmp_path, monkeypatch, block):
    """The histogram's pass gives the global choice: strategy, choices, Q_S
    and combination lines equal plain select's, tied maxima included (every
    third generated dataset duplicates its splits)."""
    if block is not None:
        monkeypatch.setattr(selection, "_QS_BLOCK", block)
    paths = [_csv_of(ds, tmp_path / f"d{i}.csv") for i, ds in enumerate(_random_datasets())]
    for path in paths + [dataset_path("sglt2")]:
        plain = _select_lines(path)
        with_histogram = _select_lines(path, "--histogram", str(tmp_path / "h.csv"))
        assert len(plain) == 4
        assert with_histogram[2:] == plain
        assert select_global(load_csv(path)).q_s == max(
            float(line.split(",")[1]) for line in (tmp_path / "h.csv").read_text().splitlines()[1:])


@pytest.mark.parametrize("block", [None, 1])
def test_select_histogram_skips_nan_as_plain_select_does(tmp_path, monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(selection, "_QS_BLOCK", block)
    a = make_split("a", (0.5, -0.5), (1.0, 1.0))
    b = make_split("b", (0.1, -0.1), (1.0, 1.0))
    path = _csv_of(make_dataset([(0.0, 0.7, [a, b]), (0.0, 0.7, [a, b])]), tmp_path / "d.csv")
    moments = np.array([(1.0, math.nan, 0.0), (1.0, 1.0, 2.0), (1.0, 0.0, 0.0), (1.0, 1.0, 2.0)]).T
    monkeypatch.setattr(selection, "_split_moments", lambda dataset: moments)
    plain = _select_lines(path)
    assert plain[1:3] == ["choices: s1=b, s2=b", "Q_S: 2"]
    assert _select_lines(path, "--histogram", str(tmp_path / "h.csv"))[2:] == plain


@pytest.mark.parametrize("strategy", ["global", "local", "pvalue"])
def test_select_histogram_enumerates_once(tmp_path, monkeypatch, strategy):
    """One pass over the combinations per command: a histogram's global
    choice comes from its own pass, and only plain global select has none
    to share."""
    calls = []

    def counted(dataset):
        calls.append(dataset)
        return qs_blocks(dataset)

    qs_blocks = selection._qs_blocks
    monkeypatch.setattr(selection, "_qs_blocks", counted)
    _select_lines(PVALUE_DATASET, "--strategy", strategy, "--histogram", str(tmp_path / "h.csv"))
    assert len(calls) == 1
    calls.clear()
    _select_lines(PVALUE_DATASET, "--strategy", strategy)
    assert len(calls) == (strategy == "global")


def test_qs_values_selection_needs_a_complete_pass(sglt2, monkeypatch):
    """selection() needs a complete pass: it makes one when none has
    completed, an unfinished one included, and then reuses the last."""
    calls = []

    def counted(dataset):
        calls.append(dataset)
        return qs_blocks(dataset)

    qs_blocks = selection._qs_blocks
    monkeypatch.setattr(selection, "_qs_blocks", counted)
    values, _ = qs_histogram(sglt2)
    next(values.blocks())
    chosen = values.selection()
    assert len(calls) == 2 and values.selection() == chosen
    assert list(values) and values.selection() == chosen and len(calls) == 3
    monkeypatch.undo()
    assert chosen == select_global(sglt2)

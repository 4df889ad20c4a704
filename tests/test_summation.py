"""estimators._sum against np.sum. Every study and arm reduction in the kernel
goes through _sum, so it must keep numpy's summation order bit for bit: the
+0.0 identity, sequential adds below 8 terms, eight pairwise accumulators
from 8 terms and a recursive split above 128."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from fewmeta.cli import main
from fewmeta.estimators import _sum, shrinkage_coefficients
from fewmeta.intervals import variance_hcs, zh_variance

pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf - inf


def _assert_same(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _terms(rng, n_reps, n_terms):
    """(n_reps, n_terms) values over ten decades, so that a change in the
    order of the adds shows in the last bits; one row of -0.0 terms, and rows
    holding NaN, +inf, -inf and both infinities."""
    x = rng.standard_normal((n_reps, n_terms)) * 10.0 ** rng.uniform(-5, 5, (n_reps, n_terms))
    x[0] = -0.0
    if n_reps > 1:
        x[1, rng.integers(n_terms)] = np.nan
        x[2 % n_reps, rng.integers(n_terms)] = np.inf
        x[-1, rng.integers(n_terms)] = -np.inf
        x[-1, rng.integers(n_terms)] = np.inf
    return x


def _views(x):
    """x, and strided views of it whose summed axis stays innermost."""
    wide = np.repeat(x, 2, axis=-1)
    return x, x[::2], x[:, ::-1], wide[:, ::2], np.concatenate([x, x], axis=-1)[:, : x.shape[-1]]


@pytest.mark.parametrize("n_reps", [1, 3, 1000])
@pytest.mark.parametrize("n_terms", range(1, 21))
def test_sum_over_last_axis_matches_numpy(n_terms, n_reps):
    rng = np.random.default_rng([n_terms, n_reps])
    for x in _views(_terms(rng, n_reps, n_terms)):
        _assert_same(_sum(x), np.sum(x, axis=-1))
        assert not np.signbit(_sum(x)[0])  # the -0.0 terms sum to +0.0
        for row in (x[0], x[len(x) // 2], x[-1]):  # one dataset: a numpy scalar
            _assert_same(_sum(row), np.sum(row))


@pytest.mark.parametrize("n_reps", [1, 3, 1000])
@pytest.mark.parametrize("n_terms", range(1, 21))
def test_sum_over_studies_and_arms_matches_numpy(n_terms, n_reps):
    rng = np.random.default_rng([n_terms, n_reps, 2])
    x = _terms(rng, n_reps, n_terms)
    shapes = [(n_terms, 1)] + ([(n_terms // 2, 2)] if n_terms % 2 == 0 else [])
    for shape in shapes:
        arms = x.reshape((n_reps,) + shape)
        for view in (arms, arms[::2], arms[:, ::-1]):
            _assert_same(_sum(view, (-2, -1)), np.sum(view, axis=(-2, -1)))


@pytest.mark.parametrize("n_studies", [2, 3, 5, 9])
def test_sum_is_numpys_order_in_any_memory_layout(n_studies):
    """run_scenario hands the kernel replicate-minor (Fortran-ordered) arms;
    _sum must still add them in the order np.sum uses on C-ordered ones."""
    rng = np.random.default_rng(n_studies)
    arms = _terms(rng, 1000, 2 * n_studies).reshape(1000, n_studies, 2)
    for layout in (np.asfortranarray(arms), arms.transpose(2, 1, 0).copy().transpose(2, 1, 0)):
        _assert_same(_sum(layout, (-2, -1)), np.sum(arms, axis=(-2, -1)))
        _assert_same(_sum(layout), np.sum(arms, axis=-1))
        _assert_same(_sum(layout[..., 0]), np.sum(arms[..., 0], axis=-1))


@pytest.mark.parametrize("n_terms", [0, 128, 129, 200, 300])
def test_sum_of_no_terms_and_of_long_axes_matches_numpy(n_terms):
    x = _terms(np.random.default_rng(n_terms), 50, n_terms) if n_terms else np.zeros((50, 0))
    _assert_same(_sum(x), np.sum(x, axis=-1))
    _assert_same(_sum(x.reshape(50, 1, -1), (-2, -1)), np.sum(x.reshape(50, 1, -1), axis=(-2, -1)))
    _assert_same(_sum(x.reshape(1, 50, -1)), np.sum(x.reshape(1, 50, -1), axis=-1))


def test_analyze_of_negative_zero_effects_reports_positive_zero(tmp_path):
    rows = ["study_id,label,level,split,arm,y,se,n"]
    for i, (se, n) in enumerate(((0.2, 100), (0.3, 80), (0.25, 90)), 1):
        rows.append(f"S{i},S{i},study,,,-0.0,{se},{n}")
        rows += [f"S{i},{j},subgroup,sex,{j},-0.0,{1.5 * se},{n // 2}" for j in (1, 2)]
    data = tmp_path / "zeros.csv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "report.json"
    result = CliRunner().invoke(main, ["analyze", str(data), "--json", str(out)])
    assert result.exit_code == 0, result.output
    text = out.read_text()
    assert '"point": -0.0' not in text
    points = [entry["point"] for entry in json.loads(text)["intervals"]]
    assert len(points) == 6
    assert all(p == 0.0 and math.copysign(1.0, p) == 1.0 for p in points)


def test_helpers_on_one_dataset_equal_their_rows_of_a_batch():
    """Without a replicate axis the study and arm sums are numpy scalars. A
    scalar's ** 2 is the C library's pow, which differs from x * x in about
    one value in a thousand, so the squares of sums are np.square: one
    dataset gives its row of a batch bit for bit."""
    rng = np.random.default_rng(7)
    n, k = 4000, 3
    y, se, tau2 = rng.normal(0.0, 1.0, (n, k)), rng.uniform(0.05, 1.5, (n, k)), rng.uniform(0.0, 0.5, n)
    se_sub, p = rng.uniform(0.05, 2.0, (n, k, 2)), rng.uniform(0.2, 0.8, (n, k))

    def helpers(*rows):
        y, se, tau2, se_sub, p = rows
        return (*zh_variance(y, se, tau2), variance_hcs(tau2, se ** -2.0),
                *shrinkage_coefficients(se_sub, p))

    batch = helpers(y, se, tau2, se_sub, p)
    for r in range(n):
        for got, want in zip(helpers(y[r], se[r], tau2[r], se_sub[r], p[r]), batch):
            assert got.tobytes() == want[r].tobytes()

"""estimators._sum against an independent in-order sum. Every study and arm
reduction in the package goes through _sum, which adds from +0.0 in study
order, then arm order, whatever the memory layout: _in_order, numpy's
accumulate over the C-ordered terms, gives those bits on any CPU, on both
of _sum's paths. The kernel lays a batch out once, at entry, so that none
of its sums copies, and its results depend on neither the layout nor the
float dtype of its inputs. And the pinned outputs hold without numpy's
AVX-512 loops."""

import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import fewmeta
from fewmeta import estimators, intervals, simulation
from fewmeta.cli import main
from fewmeta.estimators import _sum, shrinkage_coefficients
from fewmeta.intervals import hksj_scale, meta_kernel, variance_hcs

pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf - inf

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(fewmeta.__file__)))
WITHOUT_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def _assert_same(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _in_order(x, axes=(-1,)):
    """The oracle: the terms over `axes` in C order (studies, then arms),
    added one after the other by np.cumsum; + 0.0 makes a total of -0.0
    terms alone +0.0, as _sum's +0.0 start does."""
    lead = x.shape[:x.ndim - len(axes)]
    terms = np.reshape(x, lead + (-1,))
    if not terms.shape[-1]:
        return np.zeros(lead)[()]
    return np.cumsum(terms, axis=-1)[..., -1] + 0.0


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
    """numpy's in-order accumulate, that is: np.sum adds pairwise from 8."""
    rng = np.random.default_rng([n_terms, n_reps])
    for x in _views(_terms(rng, n_reps, n_terms)):
        _assert_same(_sum(x), _in_order(x))
        assert not np.signbit(_sum(x)[0])  # the -0.0 terms sum to +0.0
        for row in (x[0], x[len(x) // 2], x[-1]):  # one dataset: a numpy scalar
            _assert_same(_sum(row), _in_order(row))


@pytest.mark.parametrize("n_reps", [1, 3, 1000])
@pytest.mark.parametrize("n_terms", range(1, 21))
def test_sum_over_studies_and_arms_matches_numpy(n_terms, n_reps):
    rng = np.random.default_rng([n_terms, n_reps, 2])
    x = _terms(rng, n_reps, n_terms)
    shapes = [(n_terms, 1)] + ([(n_terms // 2, 2)] if n_terms % 2 == 0 else [])
    for shape in shapes:
        arms = x.reshape((n_reps,) + shape)
        for view in (arms, arms[::2], arms[:, ::-1]):
            _assert_same(_sum(view, (-2, -1)), _in_order(view, (-2, -1)))
            _assert_same(_sum(view[0], (-2, -1)), _in_order(view[0], (-2, -1)))


@pytest.mark.parametrize("n_studies", [2, 3, 5, 8, 9])
def test_sum_is_numpys_order_in_any_memory_layout(n_studies):
    """The kernel lays a batch out replicate-fastest, then arm, then study
    (estimators._laid_out), which _sum adds in one reduce as it is, and
    Fortran order puts the arm axis outermost, which _sum first copies into
    that layout: both give the order of the same C-ordered terms."""
    rng = np.random.default_rng(n_studies)
    arms = _terms(rng, 1000, 2 * n_studies).reshape(1000, n_studies, 2)
    for layout in (_LAYOUTS["replicate-fastest"](arms), np.asfortranarray(arms)):
        _assert_same(_sum(layout, (-2, -1)), _in_order(arms, (-2, -1)))
        _assert_same(_sum(layout), _in_order(arms))
        _assert_same(_sum(layout[..., 0]), _in_order(arms[..., 0]))


@pytest.mark.parametrize("n_terms", [0, 128, 129, 200, 300])
def test_sum_of_no_terms_and_of_long_axes_matches_numpy(n_terms):
    x = _terms(np.random.default_rng(n_terms), 50, n_terms) if n_terms else np.zeros((50, 0))
    for view in (x, x.reshape(50, 1, -1), x.reshape(1, 50, -1), x[0]):
        _assert_same(_sum(view), _in_order(view))
    for view in (x.reshape(50, 1, -1), x.reshape(50, -1, 1), x.reshape(1, 50, -1)):
        _assert_same(_sum(view, (-2, -1)), _in_order(view, (-2, -1)))


# memory layouts of the same shape; the broadcasts repeat a replicate (or,
# without a replicate axis, a study) or a column
_LAYOUTS = {
    "C": lambda x: x,
    "replicate-minor": np.asfortranarray,
    # the kernel's batches: replicates fastest, then arms, then studies
    "replicate-fastest": lambda x: np.asfortranarray(x.reshape(len(x), -1)).reshape(x.shape),
    "reversed": lambda x: x[..., ::-1],
    "strided": lambda x: np.repeat(x, 2, axis=-1)[..., ::2],
    "strided replicates": lambda x: np.asfortranarray(np.repeat(x, 2, axis=0))[::2],
    "broadcast row": lambda x: np.broadcast_to(x[:1], x.shape),
    "broadcast column": lambda x: np.broadcast_to(x[..., :1], x.shape),
}
# The NaN is the one inf - inf makes, so that every NaN in a sum has the same
# bits: which of two different NaNs an add keeps, IEEE 754 leaves open, and
# numpy's scalar, array and in-place adds do not all keep the same one.
with np.errstate(invalid="ignore"):
    _SPECIAL_VALUES = (0.0, -0.0, float(np.subtract(math.inf, math.inf)), math.inf, -math.inf)


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(2, 9),
    axes=st.sampled_from([(-1,), (-2, -1)]),
    n_reps=st.sampled_from([None, 1, 7, 1000]),
    seed=st.integers(0, 2 ** 32 - 1),
    specials=st.lists(st.tuples(st.integers(0, 10 ** 6), st.sampled_from(_SPECIAL_VALUES)),
                      max_size=8),
)
def test_sum_dispatch_matches_numpy_in_every_layout(k, axes, n_reps, seed, specials):
    """Whichever way _sum goes, Python floats without a replicate axis or
    below two replicates, or one np.add.reduce over a batch (copied
    replicate-fastest first unless it is so already, as the kernel's own
    batches are), the bits are those of the in-order accumulate: k studies
    (by two arms for axes (-2, -1)), with no replicate axis or R replicates
    in any layout, over magnitudes from 1e-5 to 1e5, signed zeros, NaN and
    infinities."""
    shape = (() if n_reps is None else (n_reps,)) + (k,) + ((2,) if len(axes) == 2 else ())
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-5, 5, shape)
    for index, value in specials:
        x.flat[index % x.size] = value
    if n_reps == 1000 and rng.random() < 0.5:
        x[rng.integers(n_reps)] = -0.0  # a replicate of -0.0 terms alone sums to +0.0
    for name, layout in _LAYOUTS.items():
        view = layout(x)
        with mock.patch.object(estimators, "_laid_out", wraps=estimators._laid_out) as copy:
            _assert_same(_sum(view, axes), _in_order(view, axes))
        if name == "replicate-fastest":
            assert not copy.called


@pytest.mark.parametrize("batch", ["run_scenario", "validate_expectation", "variance_ordering"])
def test_simulated_batches_take_one_reduce_per_sum(monkeypatch, batch):
    """The kernel lays each of a simulated batch's two arm arrays out once,
    at entry, and none of its 17 study and arm sums copies: each is one
    np.add.reduce over the batch as it is."""
    arms, laid_out, sums, kernel_sums = [], [], [], []
    kernel, lay_out, add = meta_kernel, estimators._laid_out, estimators._sum

    def spy_kernel(*args):
        arms.extend(args[2:])
        sums.clear()
        result = kernel(*args)
        kernel_sums.append(len(sums))
        return result

    def spy_lay_out(x, n_summed):
        laid_out.append(x)
        return lay_out(x, n_summed)

    def spy_sum(x, axes=(-1,)):
        sums.append(axes)
        return add(x, axes)

    monkeypatch.setattr(simulation, "meta_kernel", spy_kernel)
    for module in (estimators, intervals):
        monkeypatch.setattr(module, "_laid_out", spy_lay_out)
        monkeypatch.setattr(module, "_sum", spy_sum)
    scenario = simulation.Scenario(3, 0.2, 0.1, 0.1, 0.5, n_reps=50, seed=1)
    if batch == "validate_expectation":
        simulation.validate_expectation(scenario, [24, 36, 48])
    else:
        getattr(simulation, batch)(scenario)
    assert [a.shape for a in arms] == [(50, 3, 2)] * 2
    assert len(laid_out) == 2 and all(x is a for x, a in zip(laid_out, arms))
    assert kernel_sums == [17]


def _outcome(result):
    """Every array of a kernel result, as (dtype, shape, bytes), and its errors."""
    arrays = [*result.tau2.values(), *result.tau2_raw.values(), *result.subgroup_wins.values(),
              *(a for ci in result.intervals.values() for a in ci if a is not None)]
    return [(a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, arrays)], result.errors


# the kernel's three ways in: study rows and arms, arms alone, study rows alone
_KERNEL_INPUTS = (lambda y, se, y_sub, se_sub: (y, se, y_sub, se_sub),
                  lambda y, se, y_sub, se_sub: (None, None, y_sub, se_sub),
                  lambda y, se, y_sub, se_sub: (y, se))


def _kernel_data(rng, lead, k):
    """Study rows and arms of shape lead + (k,) and lead + (k, 2)."""
    return (rng.normal(0.0, 1.0, lead + (k,)), rng.uniform(0.1, 1.5, lead + (k,)),
            rng.normal(0.0, 1.0, lead + (k, 2)), rng.uniform(0.1, 1.5, lead + (k, 2)))


@pytest.mark.parametrize("n_reps", [1, 2, 7])
@pytest.mark.parametrize("k", range(2, 7))
def test_kernel_results_do_not_depend_on_the_input_layout(k, n_reps):
    """meta_kernel gives a batch in each layout of _LAYOUTS the bytes and
    errors of a C-ordered copy of it, on each of its three ways in; at k = 6
    one replicate is degenerate, so that every batch fails alike."""
    data = _kernel_data(np.random.default_rng([k, n_reps]), (n_reps,), k)
    if k == 6:
        data[1][-1, 0] = data[3][-1, 0] = 1e-9
    for layout in _LAYOUTS.values():
        views = [layout(a) for a in data]
        for inputs in _KERNEL_INPUTS:
            assert (_outcome(meta_kernel(*inputs(*views)))
                    == _outcome(meta_kernel(*inputs(*map(np.array, views)))))


@pytest.mark.parametrize("lead", [(), (1,), (7,)])
def test_kernel_computes_in_float64_whatever_dtype_it_is_handed(lead):
    """float32 inputs give the kernel's float64 result for the same values,
    bit for bit, for one dataset and for a batch."""
    data = [a.astype(np.float32) for a in _kernel_data(np.random.default_rng(3), lead, 4)]
    for inputs in _KERNEL_INPUTS:
        assert (_outcome(meta_kernel(*inputs(*data)))
                == _outcome(meta_kernel(*inputs(*(a.astype(float) for a in data)))))


def _without_avx512(code):
    """Run `code` in a new interpreter with numpy's AVX-512 loops switched
    off (a no-op on a machine without them, and a warning only where numpy
    does not know the names), the tests and the package importable."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=WITHOUT_AVX512,
               PYTHONPATH=os.pathsep.join(filter(None, (TESTS, SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-W", "ignore::RuntimeWarning", "-c", code],
                          capture_output=True, text=True, env=env, timeout=300,
                          cwd=os.path.dirname(TESTS))


def test_sum_dispatch_holds_without_avx512():
    """The same property without numpy's AVX-512 loops: _sum's adds and the
    accumulate keep their bits whichever SIMD loop numpy dispatches."""
    result = _without_avx512("import test_summation as t; "
                             "t.test_sum_dispatch_matches_numpy_in_every_layout()")
    assert result.returncode == 0, result.stderr


def test_pinned_outputs_hold_without_avx512():
    """Every weight is a correctly rounded operation and every sum has one
    order, so the pinned digests of tests/test_output_digests.py and
    tests/test_full_grid.py hold without numpy's AVX-512 loops too."""
    result = _without_avx512(
        "import sys, numpy, pytest; sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', "
        "'tests/test_output_digests.py', 'tests/test_full_grid.py']))")
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr


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
    assert '"point":-0.0' not in text
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
        return (*hksj_scale(y, se, tau2), variance_hcs(tau2, se ** -2.0),
                *shrinkage_coefficients(se_sub, p))

    batch = helpers(y, se, tau2, se_sub, p)
    for r in range(n):
        for got, want in zip(helpers(y[r], se[r], tau2[r], se_sub[r], p[r]), batch):
            assert got.tobytes() == want[r].tobytes()

"""The kernel's raw tau^2, Q, B, Q_S and interval variances against exact
arithmetic (tests/exact_oracle.py)."""

import sys
from fractions import Fraction

import numpy as np
import pytest

from fewmeta import selection
from fewmeta.data import load_csv
from fewmeta.estimators import DL, DLS, DLS_ADJ, cochran_q, shrinkage_coefficients
from fewmeta.intervals import dataset_kernel
from fewmeta.selection import select

import exact_oracle
from conftest import dataset_path, selected_arms

EPS = Fraction(sys.float_info.epsilon)

# measured on the bundled datasets, the largest error is 2.39 eps for a raw
# tau^2 (sglt2, local selection, DLS) and 7.28 eps in all (respire28, global
# selection, the ZH variance)
REL_BOUND = 8 * EPS


def _assert_close(value, exact, what):
    error = abs(Fraction(value) - exact) / abs(exact)
    assert error <= REL_BOUND, (what, float(error / EPS))


@pytest.mark.parametrize("strategy", ["local", "global"])
@pytest.mark.parametrize("name", ["sglt2", "respire14", "respire28"])
def test_raw_tau2_is_within_8_eps_of_the_exact_value(name, strategy):
    dataset = load_csv(dataset_path(name))
    chosen = dataset.with_selection(select(dataset, strategy).choices)
    raw = dataset_kernel(chosen).tau2_raw
    exact = exact_oracle.tau2(chosen)
    for method in (DL, DLS, DLS_ADJ):
        value = float(raw[method])
        if exact[method] == 0:  # DLS_ADJ truncated: a zero stays exactly zero
            assert value == 0.0, (method, value)
        else:
            _assert_close(value, exact[method], method)
    _, se_sub, p = selected_arms(chosen)
    _assert_close(float(shrinkage_coefficients(se_sub, p)[0]), exact["A"], "A")
    if name == "respire28":  # DLS is negative, so DLS_ADJ is truncated to zero
        assert exact[DLS] < 0 and float(raw[DLS_ADJ]) == 0.0


@pytest.mark.parametrize("name", ["sglt2", "respire14", "respire28"])
def test_every_qs_is_within_8_eps_of_the_exact_value(name):
    """Every Q_S the enumeration gives (sglt2: all 4096 combinations); the
    largest error measured is 2.59 eps (respire28), 1.55 eps on sglt2."""
    dataset = load_csv(dataset_path(name))
    values = np.concatenate(list(selection._qs_blocks(dataset))).tolist()
    exact = exact_oracle.qs(dataset)
    assert len(values) == len(exact)
    for i, (value, q) in enumerate(zip(values, exact)):
        _assert_close(value, q, i)


@pytest.mark.parametrize("strategy", ["local", "global"])
@pytest.mark.parametrize("name", ["sglt2", "respire14", "respire28"])
def test_q_b_and_interval_variances_are_within_8_eps_of_the_exact_values(name, strategy):
    """Cochran's Q, the bias coefficient B and the six interval variances,
    each variance given the kernel's tau^2 that its interval plugs in."""
    dataset = load_csv(dataset_path(name))
    chosen = dataset.with_selection(select(dataset, strategy).choices)
    _assert_close(float(cochran_q(chosen.y, chosen.se)), exact_oracle.cochran_q(chosen), "Q")
    _, se_sub, p = selected_arms(chosen)
    _assert_close(float(shrinkage_coefficients(se_sub, p)[1]), exact_oracle.b_coefficient(chosen), "B")
    intervals = dataset_kernel(chosen).intervals
    exact = exact_oracle.interval_variances(
        chosen, {method: float(ci.tau2) for method, ci in intervals.items()})
    assert list(exact) == list(intervals)
    for method, ci in intervals.items():
        _assert_close(float(ci.variance), exact[method], method)

"""The kernel's raw tau^2 against exact arithmetic (tests/exact_oracle.py)."""

import sys
from fractions import Fraction

import numpy as np
import pytest

from fewmeta import selection
from fewmeta.data import load_csv
from fewmeta.estimators import DL, DLS, DLS_ADJ, shrinkage_coefficients
from fewmeta.intervals import dataset_kernel
from fewmeta.selection import select

import exact_oracle
from conftest import dataset_path, selected_arms

EPS = Fraction(sys.float_info.epsilon)

# measured on the bundled datasets, the largest error is 2.39 eps (sglt2,
# local selection, DLS)
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

"""Exact values of the moment tau^2 estimators, for the tests.

Every input double is taken as the Fraction it equals, and DL, DLS, the
shrinkage factor A and DLS_ADJ are computed from it without rounding: each
is rational in the study rows and the selected splits' arms. The formulas
are the estimators' own (fewmeta.estimators), written once more in exact
arithmetic, so a test can bound the kernel's rounding error.
"""

from fractions import Fraction

from conftest import selected_arms


def _moment_tau2(y, se, df):
    """The untruncated moment estimate (Q - df) / (sw - sum w^2 / sw) of the
    effects y with standard errors se, weights w = 1 / se^2."""
    w = [1 / Fraction(s) ** 2 for s in se]
    y = [Fraction(v) for v in y]
    sw = sum(w)
    mu = sum(wi * yi for wi, yi in zip(w, y)) / sw
    q = sum(wi * (yi - mu) ** 2 for wi, yi in zip(w, y))
    return (q - df) / (sw - sum(wi * wi for wi in w) / sw)


def tau2(dataset):
    """{"DL", "DLS", "A", "DLS_ADJ"} of a fully selected dataset, as
    Fractions: DL from its k study rows, DLS from the 2k arms of its
    selected splits (2k - 1 degrees of freedom),
    A = 1 - 2 sum_i w_i1 w_i2 / ((sum w)^2 - sum w^2) over the arm weights,
    and DLS_ADJ = max(0, DLS) / A."""
    y_sub, se_sub, _ = selected_arms(dataset)
    k = dataset.k
    dl = _moment_tau2(dataset.y.tolist(), dataset.se.tolist(), k - 1)
    dls = _moment_tau2(y_sub.ravel().tolist(), se_sub.ravel().tolist(), 2 * k - 1)
    w = [[1 / Fraction(s) ** 2 for s in arms] for arms in se_sub.tolist()]
    sw = sum(w1 + w2 for w1, w2 in w)
    sw2 = sum(w1 * w1 + w2 * w2 for w1, w2 in w)
    a = 1 - 2 * sum(w1 * w2 for w1, w2 in w) / (sw * sw - sw2)
    return {"DL": dl, "DLS": dls, "A": a, "DLS_ADJ": max(Fraction(0), dls) / a}

"""Exact values of the moment tau^2 estimators and of Q_S, for the tests.

Every input double is taken as the Fraction it equals, and DL, DLS, the
shrinkage factor A and DLS_ADJ are computed from it without rounding: each
is rational in the study rows and the selected splits' arms. So is Q_S,
the subgroup Q statistic of every split combination. The formulas are the
package's own (fewmeta.estimators, fewmeta.selection), written once more
in exact arithmetic, so a test can bound the rounding error.
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


def qs(dataset):
    """Q_S of every split combination of the dataset, in enumeration order
    (last study fastest), as Fractions: S2 - S1^2 / S0 of the moments
    (sum w, sum w*y, sum w*y^2) of the chosen splits' arms, w = 1 / se^2,
    summed per combination. Q_S does not depend on the reference the
    package subtracts from y, so none is subtracted here."""
    moments = []
    for w, y in zip((1 / Fraction(s) ** 2 for s in dataset.arm_se.ravel().tolist()),
                    map(Fraction, dataset.arm_y.ravel().tolist())):
        moments.append((w, w * y, w * y * y))
    splits = [tuple(sum(m) for m in zip(*moments[2 * s:2 * s + 2]))
              for s in range(len(dataset.split_names))]
    sums = [(0, 0, 0)]
    for start, count in zip(dataset.split_start, dataset.split_count):
        sums = [tuple(a + b for a, b in zip(prefix, split))
                for prefix in sums for split in splits[start:start + count]]
    return [s2 - s1 * s1 / s0 for s0, s1, s2 in sums]

"""Exact values of the moment tau^2 estimators, of Q_S and of the interval
variances, for the tests.

Every input double is taken as the Fraction it equals, and DL, DLS, the
shrinkage factor A and DLS_ADJ are computed from it without rounding: each
is rational in the study rows and the selected splits' arms. So are
Cochran's Q, the bias coefficient B, Q_S, the subgroup Q statistic of every
split combination, and the six interval variances given the tau^2 each
plugs in. The formulas are the package's own (fewmeta.estimators,
fewmeta.selection, fewmeta.intervals), written once more in exact
arithmetic, so a test can bound the rounding error.
"""

from fractions import Fraction

from conftest import selected_arms


def _pool(y, w):
    """sum w, and the squared deviations (y - mu)^2 of the effects y from
    their w-weighted mean mu."""
    y = [Fraction(v) for v in y]
    sw = sum(w)
    mu = sum(wi * yi for wi, yi in zip(w, y)) / sw
    return sw, [(yi - mu) ** 2 for yi in y]


def _q(y, w):
    """sum w (y - mu)^2: Cochran's Q with common-effect weights w."""
    return sum(wi * d for wi, d in zip(w, _pool(y, w)[1]))


def _weights(se):
    return [1 / Fraction(s) ** 2 for s in se]


def _moment_tau2(y, se, df):
    """The untruncated moment estimate (Q - df) / (sw - sum w^2 / sw) of the
    effects y with standard errors se, weights w = 1 / se^2."""
    w = _weights(se)
    sw = sum(w)
    return (_q(y, w) - df) / (sw - sum(wi * wi for wi in w) / sw)


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


def cochran_q(dataset):
    """Cochran's Q of the dataset's k study rows."""
    return _q(dataset.y.tolist(), _weights(dataset.se.tolist()))


def b_coefficient(dataset):
    """B = sum_ij w_ij p_i (1 - p_i) * sum w / ((sum w)^2 - sum w^2) over
    the arm weights of the selected splits, p_i the prevalences (doubles)
    that selected_arms gives."""
    _, se_sub, p = selected_arms(dataset)
    w = [_weights(arms) for arms in se_sub.tolist()]
    sw = sum(w1 + w2 for w1, w2 in w)
    sw2 = sum(w1 * w1 + w2 * w2 for w1, w2 in w)
    pq = [Fraction(pi) * (1 - Fraction(pi)) for pi in p.tolist()]
    return sum((w1 + w2) * c for (w1, w2), c in zip(w, pq)) * sw / (sw * sw - sw2)


def interval_variances(dataset, tau2):
    """The variance of each of the six intervals of a selected dataset, as
    Fractions, given the tau^2 (a double) it plugs in, tau2[method]. NORMAL,
    HKSJ, MKH and ZH pool the study rows with random-effects weights
    (se^2 + tau^2)^-1: 1 / sum w; q / sum w, with q = Q / (k - 1) of those
    weights; max(1, q) / sum w; and sum w^2 (y - mu)^2 / (1 - w / sum w)^2
    over (sum w)^2. The two HCS variances are (tau^2 sum w^2 + sum w) /
    (sum w)^2 with each study's weight the sum of its selected arms'."""
    y, se = dataset.y.tolist(), dataset.se.tolist()
    k = dataset.k
    variances = {}
    for method in ("NORMAL", "HKSJ", "MKH", "ZH"):
        w = [1 / (Fraction(s) ** 2 + Fraction(tau2[method])) for s in se]
        sw, dev2 = _pool(y, w)
        q = sum(wi * d for wi, d in zip(w, dev2)) / (k - 1)
        variances[method] = {
            "NORMAL": 1 / sw,
            "HKSJ": q / sw,
            "MKH": max(Fraction(1), q) / sw,
            "ZH": sum(wi * wi * d / (1 - wi / sw) ** 2 for wi, d in zip(w, dev2)) / (sw * sw),
        }[method]
    _, se_sub, _ = selected_arms(dataset)
    w = [sum(_weights(arms)) for arms in se_sub.tolist()]
    sw, sw2 = sum(w), sum(wi * wi for wi in w)
    for method in ("HCS_MAX1", "HCS_MAX2"):
        variances[method] = (Fraction(tau2[method]) * sw2 + sw) / (sw * sw)
    return variances

r"""Choosing one subgroup split per study to maximize the subgroup Q statistic.

Three strategies are provided. Two pick per study, as one chooser given
different keys: the split maximizing its within-study statistic (local,
n x k evaluations), or the one with the smallest reported interaction
p-value (pvalue), when the input carries them. The third is an exhaustive
(global) search over all n^k combinations, evaluated in numpy blocks of at
most _QS_BLOCK (about 0.1 us each). All three read the (3, S) moments of
_split_moments at table rows split_start + c, as dataset_kernel does.

QsValues, made by select_global and qs_histogram, is the global search: it
checks the candidates and the budget, and each pass over it evaluates the
blocks again, yielding every (combination id, Q_S) pair and keeping the
global choice, the first maximum in enumeration order, NaN never winning.
selection() returns it, after a pass of its own if none has completed, so
`select --histogram` enumerates once. write_histogram_csv writes the blocks
chunk by chunk, at most _CHUNK_ROWS (4096) rows to a chunk, so a histogram of
any size holds about one block (a few MB) at a time. _histogram_chunk turns a
chunk into its text in a fixed number of numpy calls, byte for byte what
"%d,%r\r\n" gives: about 0.35 us a row formatted and written, where repr
alone took 0.6 us of the 0.7 us a row cost when each float went through it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import MetaDataset, ValidationError
from .estimators import _sum
from .report import write_atomic

LOCAL = "local"
GLOBAL = "global"
PVALUE = "pvalue"

STRATEGIES = (LOCAL, GLOBAL, PVALUE)

DEFAULT_MAX_COMBINATIONS = 10 ** 6
# The largest budget the CLI accepts: a histogram of 10^8 rows takes about
# 27 s and 3 GB of disk, the global search alone about 1.2 s.
MAX_COMBINATIONS_CEILING = 10 ** 8

_QS_BLOCK = 1 << 16  # most combinations the global search holds in one array


class CombinationBudgetError(RuntimeError):
    """Raised when the exhaustive search would exceed its budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"exhaustive search needs {required} combinations, "
            f"budget is {budget}; raise --max-combos to at least {required}"
        )


@dataclass(frozen=True)
class SelectionResult:
    choices: tuple  # one split index per study
    q_s: float
    strategy: str
    combinations_evaluated: int


def _within_q(w, y, agg_y):
    """Two-group homogeneity statistic of splits, their arms on the last
    axis, about their aggregated estimates agg_y."""
    d = y - agg_y[..., None]
    wd2 = w * (d * d)
    return wd2[..., 0] + wd2[..., 1]


def _require_candidates(dataset: MetaDataset):
    for sid, count in zip(dataset.study_ids, dataset.split_count):
        if not count:
            raise ValidationError(f"study {sid!r} has no candidate subgroup splits")


def _split_moments(dataset: MetaDataset):
    """Per split the sufficient statistics (sum w, sum w*d, sum w*d^2) of its
    arm deviations d = y - c, summed by estimators._sum, as one (3, S) array
    in C order (over _sum's Fortran order select_global takes 1.3 to 1.4
    times as long on sglt2). The one reference c, the mean study effect,
    keeps S2 - S1^2 / S0 from cancelling when the effects sit far from zero;
    being shared by all splits, it leaves Q_S exact in theory."""
    d = dataset.arm_y - float(np.add.reduce(dataset.y) / dataset.k)  # np.mean's sum and division
    wd = dataset.w * d
    return np.ascontiguousarray(_sum(np.array((dataset.w, wd, wd * d))))


def _choose_per_study(dataset: MetaDataset, keys, strategy, evaluated) -> SelectionResult:
    """Choose, in each study, the split with the smallest (keys[row], split
    name) over its table rows, and its Q_S, summed study by study as in
    _qs_blocks; `evaluated` is reported as the combinations evaluated."""
    names = dataset.split_names
    choices = tuple(
        min(range(count), key=lambda c, start=start: (keys[start + c], names[start + c]))
        for start, count in zip(dataset.split_start, dataset.split_count)
    )
    rows = np.add(dataset.split_start, choices)
    s0, s1, s2 = _sum(_split_moments(dataset)[:, rows]).tolist()
    return SelectionResult(choices, s2 - s1 * s1 / s0, strategy, evaluated)


def select_local(dataset: MetaDataset) -> SelectionResult:
    """Independently pick, per study, the split maximizing the within-study
    two-group statistic. Ties break to the lexicographically smallest
    split name. Every split is evaluated once."""
    _require_candidates(dataset)
    q = _within_q(dataset.w, dataset.arm_y, dataset.agg_y)
    return _choose_per_study(dataset, (-q).tolist(), LOCAL, len(dataset.split_names))


def _qs_blocks(dataset: MetaDataset):
    """Q_S of every combination in enumeration order (last study fastest, a
    mixed-radix number over split indices), in arrays of at most _QS_BLOCK:
    one per prefix of the leading studies, broadcast over the trailing ones.
    The sums grow study by study as in _choose_per_study, so Q_S is identical.
    """
    moments, counts = _split_moments(dataset), dataset.split_count
    sums = [moments[:, start:start + count] for start, count in zip(dataset.split_start, counts)]
    lead = len(counts)
    while lead and math.prod(counts[lead - 1:]) <= _QS_BLOCK:
        lead -= 1
    for prefix in itertools.product(*(range(n) for n in counts[:lead])):
        parts = [m[:, [c]] for m, c in zip(sums, prefix)] + sums[lead:]
        s = np.zeros((3, 1))
        for m in parts:
            s = (s[:, :, None] + m[:, None, :]).reshape(3, -1)
        q = s[1] * s[1]
        q /= s[0]
        yield np.subtract(s[2], q, out=q)


def select_global(
    dataset: MetaDataset, max_combinations: int = DEFAULT_MAX_COMBINATIONS
) -> SelectionResult:
    """Exhaustively evaluate the subgroup Q statistic over every split
    combination and return the argmax: one pass of QsValues, whose rule
    picks the first maximum in enumeration order."""
    return QsValues(dataset, max_combinations).selection()


def select_pvalue(dataset: MetaDataset) -> SelectionResult:
    """Pick the split with the smallest reported interaction p-value per
    study. All candidate splits must carry a p_interaction value."""
    _require_candidates(dataset)
    p = dataset.p_interaction.tolist()
    s = next((s for s, v in enumerate(p) if v != v), None)  # NaN: absent
    if s is not None:
        raise ValidationError(
            f"study {dataset.study_ids[dataset.split_study[s]]!r} split "
            f"{dataset.split_names[s]!r}: p_interaction required for the pvalue strategy"
        )
    return _choose_per_study(dataset, p, PVALUE, dataset.k)


def select(dataset: MetaDataset, strategy: str, max_combinations: int = DEFAULT_MAX_COMBINATIONS) -> SelectionResult:
    if strategy == LOCAL:
        return select_local(dataset)
    if strategy == GLOBAL:
        return select_global(dataset, max_combinations)
    if strategy == PVALUE:
        return select_pvalue(dataset)
    raise ValidationError(f"unknown selection strategy {strategy!r}")


class QsValues:
    """Every (combination id, Q_S) pair of a dataset, in enumeration order,
    at most max_combinations of them (len()): each pass evaluates
    _qs_blocks afresh, holding one block at a time, and a complete pass
    finds the global choice that selection() returns, so a histogram and
    the global search share one enumeration."""

    def __init__(self, dataset: MetaDataset, max_combinations: int):
        _require_candidates(dataset)
        self._total = math.prod(dataset.split_count)
        if self._total > max_combinations:
            raise CombinationBudgetError(self._total, max_combinations)
        self._dataset = dataset
        self._best = None  # (Q_S, id) of the first maximum, after a complete pass

    def __len__(self) -> int:
        return self._total

    def blocks(self):
        """The Q_S arrays, block by block (the ids run on from 0 across them),
        keeping the first maximum in enumeration order; NaN never wins."""
        best_q, best_at, start = -math.inf, None, 0
        for q in _qs_blocks(self._dataset):
            i = int(q.argmax())
            if q[i] != q[i]:  # argmax stops at the first NaN
                i = int(np.argmax(np.where(np.isnan(q), -math.inf, q)))
            if q[i] > best_q:
                best_q, best_at = float(q[i]), start + i
            start += q.size
            yield q
        self._best = best_q, best_at

    def __iter__(self):
        return enumerate(itertools.chain.from_iterable(q.tolist() for q in self.blocks()))

    def selection(self) -> SelectionResult:
        """The global choice of the last complete pass, making one if none has."""
        if self._best is None:
            for _ in self.blocks():
                pass
        best_q, best_at = self._best
        choices = tuple(int(c) for c in np.unravel_index(best_at, self._dataset.split_count))
        return SelectionResult(choices, best_q, GLOBAL, self._total)


def qs_histogram(
    dataset: MetaDataset, max_combinations: int = DEFAULT_MAX_COMBINATIONS
):
    """All (combination id, Q_S) pairs over the full enumeration, as a lazy
    QsValues view, plus the threshold 2k-1 above which the subgroup-level
    tau^2 estimate is positive."""
    return QsValues(dataset, max_combinations), 2 * dataset.k - 1


_CHUNK_ROWS = 4096  # most histogram rows _histogram_chunk formats at once

_POW10 = 10 ** np.arange(17, dtype=np.uint64)
_POW10F = _POW10.astype(np.float64)
_ONE = np.uint64(1)


@functools.cache
def _digit_words():
    r"""The 4-byte ASCII words a histogram row is put together from, built on
    first use: the 10^4 groups of four digits zero-padded ("0042"), then with
    leading zeros as NUL ("\0\0" "42"; 0 keeps its last "0"), then with
    trailing zeros as NUL ("42\0\0" for 4200; 0 is all NUL), then ",", ",-",
    "." and "\r\n"."""
    n = np.arange(10 ** 4, dtype=np.int16)[:, None]  # small types: no int64 temporaries
    text = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    lead = n >= np.array([1000, 100, 10, 0], np.int16)
    trail = n % np.array([10 ** 4, 1000, 100, 10], np.int16) != 0
    marks = np.frombuffer(b",\0\0\0,-\0\0.\0\0\0\r\n\0\0", np.uint8).reshape(4, 4)
    table = np.concatenate([text, np.where(lead, text, 0), np.where(trail, text, 0), marks])
    table.flags.writeable = False
    return table.view(np.uint32).ravel()


_LEADING, _TRAILING, _COMMA = 10 ** 4, 2 * 10 ** 4, 3 * 10 ** 4  # offsets in _digit_words()
_POINT, _CRLF = _COMMA + 2, _COMMA + 3


def _integer_words(v, groups):
    """_digit_words() indices of the integers v >= 0 in `groups` groups of four
    digits, right-aligned, leading zeros NUL: one array per group (a // and
    a product in place of %, which numpy does not divide by a constant)."""
    for g in range(groups - 1, 0, -1):
        scale = 10 ** (4 * g)
        above = v // scale
        yield above - above // 10 ** 4 * 10 ** 4 + _LEADING * (v < scale * 10 ** 4) + _LEADING * (v < scale)
    yield v - v // 10 ** 4 * 10 ** 4 + _LEADING * (v < 10 ** 4)


def _repr_digits(q):
    """repr's digits of the float64 array q where 1 <= |x| < 2^52: a mask of
    the values taken here, and for those the integer part, the 16 digits
    after the point (right-padded with zeros) and how many of them repr
    writes.

    |x| = 2f / 2^s1, f its 53-bit mantissa, so |x| = whole + b / 2^s1, and
    repr writes the shortest decimal within half an ulp (b +- 1 in units of
    2^-s1), the nearest to x among those. One with j digits after the point
    lies there when r = b * 10^j mod 2^s1, exact in wrapping uint64, is
    within 10^j of 0 or of 2^s1. With J = 17 - (digits of whole), j = J
    always holds, so repr's j is J - 2, J - 1 or J. A value that holds at
    J - 3 has at most 14 digits (integers, powers of two among them) and is
    left to repr; so is every value with s1 <= J, which is why no r meets a
    bound exactly (that needs 2^s1 to divide (b +- 1) * 10^j, b even) and
    dtoa's rule for bounds never applies. D_J = floor(b * 10^J / 2^s1) is a
    float estimate set right by its exact low bits; its first j digits are
    rounded to the nearest by r, a tie to the even digit. A carry out of the
    last digit, which never happens, is left to repr too."""
    bits = q.view(np.uint64)
    exponent = bits >> 52 & 0x7FF
    fast = (exponent >= 1023) & (exponent < 1075)
    s1 = np.where(fast, 1076 - exponent, 2)  # other lanes get a harmless exponent
    unit = _ONE << s1
    f2 = (bits & (1 << 52) - 1 | 1 << 52) << _ONE
    whole, b = f2 >> s1, f2 & unit - _ONE
    del exponent, f2  # freed early: these arrays set a histogram chunk's peak memory
    J = 17 - np.searchsorted(_POW10, whole, side="right")

    def remainder(j):  # b * 10^j mod 2^s1 and whether a j-digit decimal is in reach
        p = _POW10[j]
        r = b * p & unit - _ONE
        return r, (r < p) | (unit < p + r)

    fast &= ~remainder(np.maximum(J - 3, 0))[1]  # j <= 0: whether x is an integer
    r2, at2 = remainder(np.maximum(J - 2, 0))
    r1, at1 = remainder(J - 1)
    bp = b * _POW10[J]
    d = np.floor(np.ldexp(b.astype(np.float64), -s1.astype(np.int32)) * _POW10F[J])
    d = d.astype(np.uint64) - np.uint64(2)  # at most 4 below D_J
    d += (bp >> s1) - d & np.uint64(7)  # D_J, its low bits from bp
    r = np.where(at2, r2, np.where(at1, r1, bp & unit - _ONE))
    del b, bp, r1, r2
    d = np.where(at2, d // 100, np.where(at1, d // 10, d))
    half = unit >> _ONE
    d += (r > half) | (r == half) & (d & _ONE == _ONE)
    d = np.where(at2, d * 100, np.where(at1, d * 10, d))  # J digits, rounded
    fast &= d < _POW10[J]
    return fast, whole.view(np.int64), (d * _POW10[16 - J]).view(np.int64), J - at1 - at2


def _row_words(start, q):
    """The rows of _histogram_chunk as a (rows, words) uint32 matrix of
    _digit_words(), NUL-padded, in C order; its own function so that every
    array it builds is freed before the rows are joined."""
    n = q.size
    fast, whole, frac, shortest = _repr_digits(q)
    top = int(whole.max(initial=1, where=fast))
    id_groups, int_groups = -(-len(str(start + n - 1)) // 4), -(-len(str(top)) // 4)

    def columns():  # one array of indices alive at a time
        yield from _integer_words(np.arange(start, start + n, dtype=np.int64), id_groups)
        yield _COMMA + np.signbit(q)
        yield from _integer_words(whole, int_groups)
        yield np.full(n, _POINT)
        hi = frac // 10 ** 8
        for eight, digits in ((hi, 4), (frac - hi * 10 ** 8, 12)):  # after the point
            four = eight // 10 ** 4
            yield four + _TRAILING * (shortest <= digits)
            yield eight - four * 10 ** 4 + _TRAILING * (shortest <= digits + 4)
        yield np.full(n, _CRLF)

    words = np.empty((n, id_groups + int_groups + 7), np.uint32)
    for k, column in enumerate(columns()):
        words[:, k] = _digit_words()[column]
    slow = np.flatnonzero(~fast)
    # a row's words past the id's, at least 8, hold any repr and the ",\r\n"
    rows = words.view(f"S{words.itemsize * words.shape[1]}")[:, 0]
    rows[slow] = ["%d,%r\r\n" % row for row in zip((slow + start).tolist(), q[slow].tolist())]
    return words


def _histogram_chunk(start, q):
    r"""The rows "%d,%r\r\n" % (start + i, q[i]) of a float64 array q (at most
    _CHUNK_ROWS), as one string, byte for byte, from a fixed number of numpy
    calls: each row is a row of 4-byte words (_digit_words) padded with NUL,
    which are dropped. The values _repr_digits does not take (0, -0.0, NaN,
    +-inf, subnormals, |x| < 1 or >= 2^52, and those of at most 14 digits)
    are written by repr, each into its row of words."""
    return _row_words(start, q).tobytes().translate(None, b"\0").decode("ascii")


def write_histogram_csv(values, path):
    """Write the (combination id, Q_S) pairs of a QsValues as CSV,
    atomically, reading its blocks() and streaming at most _CHUNK_ROWS rows
    to a chunk."""

    def chunks():
        yield "combination_id,q_s\r\n"
        start = 0
        for q in values.blocks():
            for i in range(0, q.size, _CHUNK_ROWS):
                yield _histogram_chunk(start + i, q[i:i + _CHUNK_ROWS])
            start += q.size

    write_atomic(path, chunks())

"""Choosing one subgroup split per study to maximize the subgroup Q statistic.

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
chunk by chunk, at most 1000 rows to a chunk, so a histogram of any size
holds about one block (a few MB) at a time. Its rows come from fixed
templates of the ids, so the only per-row formatting is each float's repr
(about 0.6 of the 0.7 us a row costs).
"""

from __future__ import annotations

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
# 70 s and 3 GB of disk, the global search alone about 3 s.
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


# Row templates: the ids below 1000, and the three-digit tails of larger ids.
# The rows of ids sharing their leading digits L are L + L.join(tails).
_SMALL_ROWS = tuple(f"{i},%r\r\n" for i in range(1000))
_ROW_TAILS = tuple(f"{i:03d},%r\r\n" for i in range(1000))


def _histogram_rows(start, q):
    """CSV rows of the Q_S list `q`, its first id `start`: one `%` call per
    chunk of ids sharing their leading digits, so repr is all each row
    formats."""
    i = 0
    while i < len(q):
        lead, low = divmod(start + i, 1000)
        n = min(1000 - low, len(q) - i)
        if lead:
            lead = str(lead)
            template = lead + lead.join(_ROW_TAILS[low:low + n])
        else:
            template = "".join(_SMALL_ROWS[low:low + n])
        yield template % tuple(q[i:i + n])
        i += n


def write_histogram_csv(values, path):
    """Write the (combination id, Q_S) pairs of a QsValues as CSV,
    atomically, reading its blocks() and streaming at most 1000 rows to a
    chunk."""

    def chunks():
        yield "combination_id,q_s\r\n"
        start = 0
        for q in values.blocks():
            yield from _histogram_rows(start, q.tolist())
            start += q.size

    write_atomic(path, chunks())

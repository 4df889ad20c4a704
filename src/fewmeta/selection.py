"""Choosing one subgroup split per study to maximize the subgroup Q statistic.

Two strategies are provided: a per-study (local) search costing n x k
evaluations, and an exhaustive (global) search over all n^k combinations,
evaluated in numpy blocks of at most _QS_BLOCK (about 0.1 us each).
A third strategy picks the split with the smallest reported interaction
p-value per study, when those are available in the input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import MetaDataset, ValidationError
from .report import write_atomic

LOCAL = "local"
GLOBAL = "global"
PVALUE = "pvalue"

STRATEGIES = (LOCAL, GLOBAL, PVALUE)

DEFAULT_MAX_COMBINATIONS = 10 ** 6

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


def within_study_q(split) -> float:
    """Two-group homogeneity statistic of a single split about its own
    aggregated estimate (equivalent to the squared two-sample t statistic)."""
    (w1, w2), (a1, a2) = split.weights, split.arms
    return w1 * (a1.y - split.agg_y) ** 2 + w2 * (a2.y - split.agg_y) ** 2


def _require_candidates(dataset: MetaDataset):
    dataset.require_k2()
    for study in dataset.studies:
        if not study.splits:
            raise ValidationError(
                f"study {study.study_id!r} has no candidate subgroup splits"
            )


def _split_moments(dataset: MetaDataset):
    """Per (study, split) sufficient statistics (sum w, sum w*d, sum w*d^2)
    of the arm deviations d = y - c. The one reference c, the mean study
    effect, keeps S2 - S1^2 / S0 from cancelling when the effects sit far
    from zero; being shared by all splits, it leaves Q_S exact in theory.
    The two-term sums add in numpy's order, (0.0 + a) + b."""
    c = float(np.mean([study.estimate.y for study in dataset.studies]))
    moments = []
    for study in dataset.studies:
        rows = []
        for split in study.splits:
            (w1, w2), (a1, a2) = split.weights, split.arms
            d1, d2 = a1.y - c, a2.y - c
            wd1, wd2 = w1 * d1, w2 * d2
            rows.append(((0.0 + w1) + w2, (0.0 + wd1) + wd2, (0.0 + wd1 * d1) + wd2 * d2))
        moments.append(rows)
    return moments


def _qs_from_moments(moments, choices) -> float:
    s0 = s1 = s2 = 0.0
    for rows, c in zip(moments, choices):
        a, b, d = rows[c]
        s0 += a
        s1 += b
        s2 += d
    return s2 - s1 * s1 / s0


def select_local(dataset: MetaDataset) -> SelectionResult:
    """Independently pick, per study, the split maximizing the within-study
    two-group statistic. Ties break to the lexicographically smallest
    split name."""
    _require_candidates(dataset)
    choices = []
    evaluated = 0
    for study in dataset.studies:
        best = None
        for idx, split in enumerate(study.splits):
            evaluated += 1
            key = (-within_study_q(split), split.split_name)
            if best is None or key < best[0]:
                best = (key, idx)
        choices.append(best[1])
    choices = tuple(choices)
    q_s = _qs_from_moments(_split_moments(dataset), choices)
    return SelectionResult(choices, float(q_s), LOCAL, evaluated)


def _check_budget(dataset: MetaDataset, max_combinations: int) -> int:
    _require_candidates(dataset)
    total = math.prod(len(s.splits) for s in dataset.studies)
    if total > max_combinations:
        raise CombinationBudgetError(total, max_combinations)
    return total


def _qs_blocks(dataset: MetaDataset):
    """Q_S of every combination in enumeration order (last study fastest, a
    mixed-radix number over split indices), in arrays of at most _QS_BLOCK:
    one per prefix of the leading studies, broadcast over the trailing ones.
    The sums grow study by study as in _qs_from_moments, so Q_S is identical.
    """
    sums = [np.array(rows).T for rows in _split_moments(dataset)]
    counts = [m.shape[1] for m in sums]
    lead = len(counts)
    while lead and math.prod(counts[lead - 1:]) <= _QS_BLOCK:
        lead -= 1
    for prefix in itertools.product(*(range(n) for n in counts[:lead])):
        parts = [m[:, [c]] for m, c in zip(sums, prefix)] + sums[lead:]
        s = np.zeros((3, 1))
        for m in parts:
            s = (s[:, :, None] + m[:, None, :]).reshape(3, -1)
        yield s[2] - s[1] * s[1] / s[0]


def _qs_all(dataset: MetaDataset) -> np.ndarray:
    """Q_S of every split combination, in enumeration order."""
    return np.concatenate(list(_qs_blocks(dataset)))


def select_global(
    dataset: MetaDataset, max_combinations: int = DEFAULT_MAX_COMBINATIONS
) -> SelectionResult:
    """Exhaustively evaluate the subgroup Q statistic over every split
    combination and return the argmax. Ties break to the first combination
    in enumeration order."""
    total = _check_budget(dataset, max_combinations)
    best_q, best_at = -math.inf, None
    for b, q in enumerate(_qs_blocks(dataset)):  # blocks are all one size
        i = int(np.argmax(np.where(np.isnan(q), -math.inf, q)))
        if q[i] > best_q:
            best_q, best_at = q[i], b * q.size + i
    counts = [len(s.splits) for s in dataset.studies]
    choices = tuple(int(c) for c in np.unravel_index(best_at, counts))
    return SelectionResult(choices, float(best_q), GLOBAL, total)


def select_pvalue(dataset: MetaDataset) -> SelectionResult:
    """Pick the split with the smallest reported interaction p-value per
    study. All candidate splits must carry a p_interaction value."""
    _require_candidates(dataset)
    choices = []
    for study in dataset.studies:
        best = None
        for idx, split in enumerate(study.splits):
            if split.p_interaction is None:
                raise ValidationError(
                    f"study {study.study_id!r} split {split.split_name!r}: "
                    "p_interaction required for the pvalue strategy"
                )
            key = (split.p_interaction, split.split_name)
            if best is None or key < best[0]:
                best = (key, idx)
        choices.append(best[1])
    choices = tuple(choices)
    q_s = _qs_from_moments(_split_moments(dataset), choices)
    return SelectionResult(choices, float(q_s), PVALUE, dataset.k)


def select(dataset: MetaDataset, strategy: str, max_combinations: int = DEFAULT_MAX_COMBINATIONS) -> SelectionResult:
    if strategy == LOCAL:
        return select_local(dataset)
    if strategy == GLOBAL:
        return select_global(dataset, max_combinations)
    if strategy == PVALUE:
        return select_pvalue(dataset)
    raise ValidationError(f"unknown selection strategy {strategy!r}")


def qs_histogram(
    dataset: MetaDataset, max_combinations: int = DEFAULT_MAX_COMBINATIONS
):
    """All (combination id, Q_S) pairs over the full enumeration, plus the
    threshold 2k-1 above which the subgroup-level tau^2 estimate is
    positive."""
    _check_budget(dataset, max_combinations)
    return list(enumerate(_qs_all(dataset).tolist())), 2 * dataset.k - 1


def write_histogram_csv(values, path):
    rows = "".join(f"{cid},{q!r}\r\n" for cid, q in values)
    write_atomic(path, "combination_id,q_s\r\n" + rows)

"""Candidate ranking and retrieval metrics: R_n@k, MAP, MRR, P@1.

``pool_metrics`` alone reads a ranked pool's metrics: it returns an answered
pool's row, one value per reported metric.  A report is the mean of each
column, and the no-answer threshold sweep and finetune's validation
criterion read the row's top-1 recall.  The sweep scores a pool whose top
score falls below the threshold as an abstention (a correct abstention
counts as a rank-1 hit); the threshold is reported and changes no metric.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

DEFAULT_THRESHOLD_GRID = tuple(round(0.60 + 0.05 * i, 2) for i in range(8))


@dataclass(frozen=True)
class RankedPool:
    """Scores aligned with a pool's candidates plus the induced ranking."""

    scores: tuple[float, ...]
    labels: tuple[int, ...]
    ranking: tuple[int, ...]
    has_answer: bool

    @property
    def top_score(self) -> float:
        return self.scores[self.ranking[0]]


def rank_scores(scores: Sequence[float], labels: Sequence[int]) -> RankedPool:
    """Rank candidates by descending score; ties go to the lower index."""
    if len(scores) != len(labels):
        raise ValueError("scores and labels differ in length")
    if not scores:
        raise ValueError("cannot rank an empty pool")
    ranking = tuple(sorted(range(len(scores)), key=lambda i: (-scores[i], i)))
    return RankedPool(
        scores=tuple(float(s) for s in scores),
        labels=tuple(int(l) for l in labels),
        ranking=ranking,
        has_answer=any(l == 1 for l in labels),
    )


def recall_key(n: int, k: int) -> str:
    return "R@%d,%d" % (n, k)


def pool_metrics(pool: RankedPool, recall_cutoffs: Sequence[tuple[int, int]]) -> dict[str, float]:
    """An answered pool's value of every reported metric, keyed as the report prints it.

    ``R@n,k`` is the share of the positives among the first n candidates
    that rank in the top k of those n (the convention behind R_2@1 on
    10-candidate sets, where candidate 0 is the reference response).  It is
    left out when the first n candidates hold no positive.  ``MAP`` and
    ``MRR`` hold the pool's average precision and reciprocal rank, and
    ``P@1`` whether its top candidate is a positive.
    """
    if not pool.has_answer:
        raise ValueError("pool has no positive candidate")
    row = {}
    for n, k in recall_cutoffs:
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= n, got k=%d n=%d" % (k, n))
        if len(pool.scores) < n:
            raise ValueError("pool has %d candidates, need at least %d" % (len(pool.scores), n))
        positives = sum(pool.labels[:n])
        if positives:
            restricted = [i for i in pool.ranking if i < n]
            row[recall_key(n, k)] = sum(pool.labels[i] for i in restricted[:k]) / positives
    hit_ranks = [rank for rank, i in enumerate(pool.ranking, start=1) if pool.labels[i] == 1]
    row["MAP"] = sum(seen / rank for seen, rank in enumerate(hit_ranks, start=1)) / len(hit_ranks)
    row["MRR"] = 1.0 / hit_ranks[0]
    row["P@1"] = pool.labels[pool.ranking[0]]
    return row


def top1_recall(pool: RankedPool) -> float:
    """An answered pool's R@size,1: the share of its positives that its top candidate holds."""
    size = len(pool.scores)
    return pool_metrics(pool, [(size, 1)])[recall_key(size, 1)]


def select_threshold(
    validation_pools: Sequence[RankedPool],
    grid: Sequence[float] = DEFAULT_THRESHOLD_GRID,
) -> float:
    """Pick the grid threshold maximizing abstention-aware top-1 recall.

    An answered pool scores its top-1 recall unless it abstains (its top
    score is below the threshold); an answerless pool scores 1 when it
    abstains.  Ties resolve to the smallest threshold.
    """
    if not grid:
        raise ValueError("threshold grid is empty")
    if not validation_pools:
        raise ValueError("no validation pools")
    recalls = [top1_recall(pool) if pool.has_answer else None for pool in validation_pools]

    def abstention_aware_recall(tau: float) -> float:
        values = [float(pool.top_score < tau) if recall is None else recall * (pool.top_score >= tau)
                  for pool, recall in zip(validation_pools, recalls)]
        return sum(values) / len(values)

    return max(sorted(grid), key=abstention_aware_recall)  # max keeps the first of equal values


def compute_report(pools: Sequence[RankedPool], recall_cutoffs: Sequence[tuple[int, int]]) -> dict[str, float]:
    """The mean of each metric column over the answered ``pools``, in report order.

    An ``R@n,k`` column leaves out, with one warning, the pools whose first
    n candidates hold no positive.
    """
    cutoffs = sorted(set(recall_cutoffs))
    rows = [pool_metrics(pool, cutoffs) for pool in pools]
    for n, k in cutoffs:
        dropped = sum(recall_key(n, k) not in row for row in rows)
        if dropped:
            warnings.warn("%s: excluded %d pool(s) without a positive among the first %d candidates"
                          % (recall_key(n, k), dropped, n))
    report = {}
    for key in [recall_key(n, k) for n, k in cutoffs] + ["MAP", "MRR", "P@1"]:
        column = [row[key] for row in rows if key in row]
        if not column:
            raise ValueError("%s: no pool to evaluate" % key)
        report[key] = sum(column) / len(column)
    return report


def format_report(report: dict[str, float]) -> str:
    """Machine-readable key=value lines; the no-answer threshold keeps two decimals."""
    return "\n".join(("%s=%.2f" if key == "threshold" else "%s=%.6f") % (key, value) for key, value in report.items())

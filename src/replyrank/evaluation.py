"""Candidate ranking and retrieval metrics: R_n@k, MAP, MRR, P@1.

Also selects a no-answer threshold for pools that may lack a correct
response: a threshold is swept over a fixed grid, scoring a pool whose top
score falls below it as an abstention (a correct abstention counts as a
rank-1 hit).  The threshold is reported; it changes no metric.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class MetricReport:
    recall_at: dict[tuple[int, int], float] = field(default_factory=dict)
    map_score: float = 0.0
    mrr: float = 0.0
    p_at_1: float = 0.0
    threshold_used: float | None = None


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


def _usable_pools(pools: Sequence[RankedPool], metric: str) -> list[RankedPool]:
    usable = [p for p in pools if p.has_answer]
    dropped = len(pools) - len(usable)
    if dropped:
        warnings.warn("%s: excluded %d pool(s) without positives" % (metric, dropped))
    if not usable:
        raise ValueError("%s: no pools with positives to evaluate" % metric)
    return usable


def recall_at_k(pools: Sequence[RankedPool], n: int, k: int) -> float:
    """Mean fraction of a pool's positives found in the top k of n candidates.

    Pools larger than n are restricted to their first n candidates (the
    convention behind R_2@1 on 10-candidate sets, where candidate 0 is the
    reference response).
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n, got k=%d n=%d" % (k, n))
    values = []
    dropped = 0
    for pool in pools:
        if len(pool.scores) < n:
            raise ValueError("pool has %d candidates, need at least %d" % (len(pool.scores), n))
        positives = sum(pool.labels[i] for i in range(n))
        if positives == 0:
            dropped += 1
            continue
        restricted = [i for i in pool.ranking if i < n]
        hits = sum(pool.labels[i] for i in restricted[:k])
        values.append(hits / positives)
    if dropped:
        warnings.warn("recall_at_k: excluded %d pool(s) without positives" % dropped)
    if not values:
        raise ValueError("recall_at_k: no pools with positives to evaluate")
    return sum(values) / len(values)


def mean_average_precision(pools: Sequence[RankedPool]) -> float:
    values = []
    for pool in _usable_pools(pools, "mean_average_precision"):
        seen = 0
        precisions = []
        for rank, idx in enumerate(pool.ranking, start=1):
            if pool.labels[idx] == 1:
                seen += 1
                precisions.append(seen / rank)
        values.append(sum(precisions) / len(precisions))
    return sum(values) / len(values)


def mean_reciprocal_rank(pools: Sequence[RankedPool]) -> float:
    values = []
    for pool in _usable_pools(pools, "mean_reciprocal_rank"):
        for rank, idx in enumerate(pool.ranking, start=1):
            if pool.labels[idx] == 1:
                values.append(1.0 / rank)
                break
    return sum(values) / len(values)


def precision_at_one(pools: Sequence[RankedPool]) -> float:
    usable = _usable_pools(pools, "precision_at_one")
    return sum(pool.labels[pool.ranking[0]] for pool in usable) / len(usable)


def _abstention_objective(pools: Sequence[RankedPool], tau: float) -> float:
    """Top-1 recall with abstention: a correct no-answer call scores 1."""
    total = 0.0
    for pool in pools:
        abstain = pool.top_score < tau
        if not pool.has_answer:
            total += 1.0 if abstain else 0.0
        elif not abstain:
            positives = sum(pool.labels)
            total += pool.labels[pool.ranking[0]] / positives
    return total / len(pools)


def select_threshold(
    validation_pools: Sequence[RankedPool],
    grid: Sequence[float] = DEFAULT_THRESHOLD_GRID,
) -> float:
    """Pick the grid threshold maximizing abstention-aware top-1 recall.

    Ties resolve to the smallest threshold.
    """
    if not grid:
        raise ValueError("threshold grid is empty")
    if not validation_pools:
        raise ValueError("no validation pools")
    best_tau = None
    best_value = None
    for tau in sorted(grid):
        value = _abstention_objective(validation_pools, tau)
        if best_value is None or value > best_value:
            best_tau = tau
            best_value = value
    return best_tau


def compute_report(
    pools: Sequence[RankedPool],
    recall_cutoffs: Sequence[tuple[int, int]],
    threshold_used: float | None = None,
) -> MetricReport:
    return MetricReport(
        recall_at={(n, k): recall_at_k(pools, n, k) for n, k in recall_cutoffs},
        map_score=mean_average_precision(pools),
        mrr=mean_reciprocal_rank(pools),
        p_at_1=precision_at_one(pools),
        threshold_used=threshold_used,
    )


def format_report(report: MetricReport) -> str:
    """Machine-readable key=value lines."""
    lines = []
    for (n, k) in sorted(report.recall_at):
        lines.append("R@%d,%d=%.6f" % (n, k, report.recall_at[(n, k)]))
    lines.append("MAP=%.6f" % report.map_score)
    lines.append("MRR=%.6f" % report.mrr)
    lines.append("P@1=%.6f" % report.p_at_1)
    if report.threshold_used is not None:
        lines.append("threshold=%.2f" % report.threshold_used)
    return "\n".join(lines)

import numpy as np
import pytest

from replyrank.evaluation import (
    DEFAULT_THRESHOLD_GRID,
    compute_report,
    format_report,
    pool_metrics,
    rank_scores,
    recall_key,
    select_threshold,
    top1_recall,
)


def recall(pools, n, k):
    return compute_report(pools, [(n, k)])[recall_key(n, k)]


def metric(pools, key):
    return compute_report(pools, [])[key]


# --- independent brute-force evaluator (oracle) ------------------------------


def oracle_order(scores):
    """Selection-sort style ranking: repeatedly pick the best remaining."""
    remaining = list(range(len(scores)))
    order = []
    while remaining:
        best = remaining[0]
        for i in remaining[1:]:
            if scores[i] > scores[best]:
                best = i
        order.append(best)
        remaining.remove(best)
    return order


def oracle_recall(scores, labels, n, k):
    order = oracle_order(scores[:n])
    hits = sum(labels[i] for i in order[:k])
    total = sum(labels[:n])
    return hits / total if total else None


def oracle_ap(scores, labels):
    order = oracle_order(scores)
    precisions = []
    found = 0
    for pos, i in enumerate(order):
        if labels[i]:
            found += 1
            precisions.append(found / (pos + 1))
    return sum(precisions) / len(precisions)


def oracle_rr(scores, labels):
    order = oracle_order(scores)
    for pos, i in enumerate(order):
        if labels[i]:
            return 1.0 / (pos + 1)
    return None


def random_pools(rng, count, n=10, max_positives=3):
    pools = []
    for _ in range(count):
        positives = int(rng.integers(1, max_positives + 1))
        labels = [1] * positives + [0] * (n - positives)
        rng.shuffle(labels)
        scores = rng.random(n).tolist()
        pools.append((scores, labels))
    return pools


class TestRankScores:
    def test_descending(self):
        pool = rank_scores([0.1, 0.9, 0.5], [0, 1, 0])
        assert pool.ranking == (1, 2, 0)

    def test_tie_break_lower_index_first(self):
        pool = rank_scores([0.5, 0.5], [0, 1])
        assert pool.ranking == (0, 1)

    def test_single_candidate(self):
        assert rank_scores([0.3], [1]).ranking == (0,)

    def test_scores_non_increasing_along_ranking(self, rng):
        for _ in range(50):
            scores = rng.random(8).tolist()
            pool = rank_scores(scores, [1] * 8)
            ordered = [pool.scores[i] for i in pool.ranking]
            assert all(a >= b for a, b in zip(ordered, ordered[1:]))
            assert sorted(pool.ranking) == list(range(8))


class TestRecallAtK:
    def test_single_positive_on_top(self):
        scores = [0.9] + [0.1] * 9
        labels = [1] + [0] * 9
        assert recall([rank_scores(scores, labels)], 10, 1) == 1.0

    def test_three_positives_bound_at_one_third(self):
        # a pool with 3 positives can contribute at most 1/3 at k=1
        scores = [0.9, 0.8, 0.7] + [0.1] * 7
        labels = [1, 1, 1] + [0] * 7
        pool = rank_scores(scores, labels)
        assert recall([pool], 10, 1) == pytest.approx(1 / 3)

    def test_positives_at_ranks_two_and_four(self):
        scores = [0.9, 0.8, 0.7, 0.6] + [0.1] * 6
        labels = [0, 1, 0, 1] + [0] * 6
        assert recall([rank_scores(scores, labels)], 10, 2) == 0.5

    def test_r2_restricts_to_first_two_candidates(self):
        # candidate 0 is the reference, candidate 1 the paired distractor
        scores = [0.4, 0.6, 0.99, 0.98]
        labels = [1, 0, 0, 0]
        pool = rank_scores(scores, labels)
        assert recall([pool], 2, 1) == 0.0
        scores = [0.7, 0.6, 0.99, 0.98]
        pool = rank_scores(scores, labels)
        assert recall([pool], 2, 1) == 1.0

    def test_monotone_in_k(self, rng):
        pools = [rank_scores(s, l) for s, l in random_pools(rng, 50)]
        values = [recall(pools, 10, k) for k in range(1, 11)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0)

    def test_oracle_equivalence(self, rng):
        data = random_pools(rng, 300)
        pools = [rank_scores(s, l) for s, l in data]
        for n, k in [(10, 1), (10, 2), (10, 5), (2, 1)]:
            oracle_values = [oracle_recall(s, l, n, k) for s, l in data]
            kept = [v for v in oracle_values if v is not None]
            if not kept:
                continue
            expected = sum(kept) / len(kept)
            with pytest.warns(UserWarning) if len(kept) < len(data) else _nullcontext():
                got = recall(pools, n, k)
            assert abs(got - expected) < 1e-9

    def test_pool_too_small(self):
        with pytest.raises(ValueError):
            recall([rank_scores([0.5], [1])], 10, 1)

    def test_pool_without_positive_among_first_n_excluded_with_warning(self):
        pools = [rank_scores([0.5, 0.4, 0.9], [0, 0, 1]), rank_scores([0.5, 0.4, 0.9], [1, 0, 0])]
        with pytest.warns(UserWarning, match=r"^R@2,1: excluded 1 pool\(s\) without a positive among the first 2 "):
            assert recall(pools, 2, 1) == 1.0

    def test_cutoff_no_pool_can_score(self):
        with pytest.warns(UserWarning), pytest.raises(ValueError, match="R@2,1: no pool to evaluate"):
            recall([rank_scores([0.5, 0.4, 0.9], [0, 0, 1])], 2, 1)

    def test_k_outside_one_to_n(self):
        for n, k in [(2, 0), (2, 3)]:
            with pytest.raises(ValueError):
                recall([rank_scores([0.5, 0.4], [1, 0])], n, k)


class _nullcontext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class TestMeanAveragePrecision:
    def test_positives_at_ranks_one_and_three(self):
        pool = rank_scores([0.9, 0.8, 0.7], [1, 0, 1])
        assert metric([pool], "MAP") == pytest.approx((1.0 + 2 / 3) / 2)

    def test_single_positive_rank_one(self):
        assert metric([rank_scores([0.9, 0.1], [1, 0])], "MAP") == 1.0

    def test_single_positive_rank_five(self):
        scores = [0.9, 0.8, 0.7, 0.6, 0.5]
        labels = [0, 0, 0, 0, 1]
        assert metric([rank_scores(scores, labels)], "MAP") == pytest.approx(0.2)

    def test_oracle_equivalence(self, rng):
        data = random_pools(rng, 300)
        pools = [rank_scores(s, l) for s, l in data]
        expected = sum(oracle_ap(s, l) for s, l in data) / len(data)
        assert abs(metric(pools, "MAP") - expected) < 1e-9


class TestMeanReciprocalRank:
    def test_first_positive_rank_two(self):
        assert metric([rank_scores([0.9, 0.8], [0, 1])], "MRR") == 0.5

    def test_rank_one(self):
        assert metric([rank_scores([0.9, 0.8], [1, 0])], "MRR") == 1.0

    def test_mean_over_pools(self):
        pools = [
            rank_scores([0.9, 0.1, 0.1, 0.1], [1, 0, 0, 0]),
            rank_scores([0.9, 0.8, 0.7, 0.6], [0, 0, 0, 1]),
        ]
        assert metric(pools, "MRR") == pytest.approx((1.0 + 0.25) / 2)

    def test_oracle_equivalence(self, rng):
        data = random_pools(rng, 300)
        pools = [rank_scores(s, l) for s, l in data]
        expected = sum(oracle_rr(s, l) for s, l in data) / len(data)
        assert abs(metric(pools, "MRR") - expected) < 1e-9


class TestPrecisionAtOne:
    def test_fraction_of_pools(self):
        pools = [
            rank_scores([0.9, 0.1], [1, 0]),
            rank_scores([0.9, 0.1], [1, 0]),
            rank_scores([0.9, 0.1], [0, 1]),
            rank_scores([0.1, 0.9], [0, 1]),
        ]
        assert metric(pools, "P@1") == 0.75

    def test_all_and_none(self):
        good = [rank_scores([0.9, 0.1], [1, 0])] * 3
        bad = [rank_scores([0.9, 0.1], [0, 1])] * 3
        assert metric(good, "P@1") == 1.0
        assert metric(bad, "P@1") == 0.0


class TestRankOrderInvariance:
    def test_strictly_increasing_transform_preserves_metrics(self, rng):
        data = random_pools(rng, 100)
        base = [rank_scores(s, l) for s, l in data]
        for transform in (lambda x: 3 * x + 1, np.tanh, lambda x: x ** 3):
            mapped = [rank_scores([float(transform(v)) for v in s], l) for s, l in data]
            assert [p.ranking for p in mapped] == [p.ranking for p in base]
            assert recall(mapped, 10, 2) == pytest.approx(recall(base, 10, 2))
            assert metric(mapped, "MAP") == pytest.approx(metric(base, "MAP"))
            assert metric(mapped, "MRR") == pytest.approx(metric(base, "MRR"))
            assert metric(mapped, "P@1") == pytest.approx(metric(base, "P@1"))


class TestSelectThreshold:
    def test_default_grid(self):
        assert DEFAULT_THRESHOLD_GRID == (0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)
        assert len(DEFAULT_THRESHOLD_GRID) == 8

    def test_all_answerable_ties_resolve_to_smallest(self):
        pools = [rank_scores([0.99, 0.1, 0.1], [1, 0, 0]) for _ in range(3)]
        assert select_threshold(pools) == 0.60

    def test_single_answerless_pool(self):
        pools = [rank_scores([0.7, 0.2], [0, 0])]
        assert select_threshold(pools) == 0.75

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            select_threshold([rank_scores([0.5], [1])], grid=[])


class TestPoolMetrics:
    def test_row_holds_every_reported_metric(self):
        pool = rank_scores([0.2, 0.9, 0.8, 0.1], [1, 0, 1, 0])
        assert pool_metrics(pool, [(4, 1), (4, 2), (2, 1)]) == {
            "R@4,1": 0.0, "R@4,2": 0.5, "R@2,1": 0.0, "MAP": (1 / 2 + 2 / 3) / 2, "MRR": 0.5, "P@1": 0,
        }

    def test_cutoff_without_positive_among_first_n_is_left_out(self):
        row = pool_metrics(rank_scores([0.2, 0.9, 0.8], [0, 0, 1]), [(2, 1), (3, 1)])
        assert "R@2,1" not in row and row["R@3,1"] == 0.0

    def test_answerless_pool_is_rejected(self):
        with pytest.raises(ValueError, match="no positive"):
            pool_metrics(rank_scores([0.5, 0.4], [0, 0]), [])
        with pytest.raises(ValueError, match="no positive"):
            compute_report([rank_scores([0.5, 0.4], [0, 0]), rank_scores([0.5, 0.4], [1, 0])], [])

    def test_top1_recall_is_the_full_pool_r_at_1_for_any_size(self):
        for scores, labels in [([0.9, 0.1], [1, 0]), ([0.9, 0.8, 0.7], [1, 1, 0]), ([0.1, 0.9, 0.5, 0.3], [1, 0, 1, 1])]:
            pool = rank_scores(scores, labels)
            assert top1_recall(pool) == pool_metrics(pool, [(len(scores), 1)])[recall_key(len(scores), 1)]
        assert top1_recall(rank_scores([0.9, 0.8, 0.7], [1, 1, 0])) == 0.5


class TestReport:
    def test_compute_and_format(self):
        pools = [rank_scores([0.9, 0.1], [1, 0]), rank_scores([0.8, 0.9], [1, 0])]
        report = compute_report(pools, [(2, 2), (2, 1)])
        assert list(report) == ["R@2,1", "R@2,2", "MAP", "MRR", "P@1"]
        assert report["R@2,1"] == 0.5
        assert report["R@2,2"] == 1.0
        report["threshold"] = 0.65
        assert format_report(report) == (
            "R@2,1=0.500000\nR@2,2=1.000000\nMAP=0.750000\nMRR=0.750000\nP@1=0.500000\nthreshold=0.65"
        )

    def test_threshold_omitted_when_unused(self):
        pools = [rank_scores([0.9, 0.1], [1, 0])]
        assert "threshold" not in format_report(compute_report(pools, [(2, 1)]))

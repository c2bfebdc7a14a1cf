"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole suite is deterministic.
"""

import contextlib
import time
import warnings
from pathlib import Path

import numpy as np

from replyrank.disentangle import filter_channel
from replyrank.encoding import encode_instance
from replyrank.evaluation import (
    DEFAULT_THRESHOLD_GRID,
    mean_average_precision,
    mean_reciprocal_rank,
    precision_at_one,
    rank_scores,
    recall_at_k,
    select_threshold,
)
from replyrank.model import (
    ModelConfig,
    forward_batch,
    init_params,
    score_batch,
    stack_inputs,
)
from replyrank.tokenizer import CLS, EOT, EOU, MASK, PAD, SEP
from replyrank.training import TrainConfig, plan_masking, train

from helpers import (
    VOCAB,
    accuracy,
    combined_loss,
    combined_loss_grads,
    finite_difference_grads,
    gradcheck_setup,
    max_relative_error,
    random_channel,
    speaker_pattern_instances,
    topic_instances,
    topic_pools,
    topic_vocab,
)
from test_evaluation import oracle_ap, oracle_order, oracle_recall, oracle_rr
from test_training import encoded_with_maskable

REPO = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print("criterion %d FAIL - %s" % (number, description))
        raise
    print("criterion %d PASS - %s" % (number, description))


def test_criterion_01_disentanglement_oracle():
    with criterion(1, "disentanglement matches brute-force scan on 1000 channels"):
        rng = np.random.default_rng(20240101)
        start = time.monotonic()
        for _ in range(1000):
            channel, speakers = random_channel(rng, max_len=50, max_speakers=8, to_density=0.3)
            target = speakers[int(rng.integers(len(speakers)))]
            got = [(u.index, role.value) for u, role in filter_channel(channel, target).utterances]
            expected = []
            for u in channel:
                if u.spoken_from == target:
                    expected.append((u.index, 1))
                elif u.spoken_to is not None and u.spoken_to == target:
                    expected.append((u.index, 2))
            assert got == expected
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, "took %.2fs" % elapsed


def test_criterion_02_metric_oracle():
    with criterion(2, "ranking metrics match an independent evaluator on 1000 pools"):
        rng = np.random.default_rng(20240202)
        data = []
        for _ in range(1000):
            positives = int(rng.integers(1, 4))
            labels = [1] * positives + [0] * (10 - positives)
            rng.shuffle(labels)
            data.append((rng.random(10).tolist(), labels))
        pools = [rank_scores(s, l) for s, l in data]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for n, k in [(10, 1), (10, 2), (10, 5), (2, 1)]:
                oracle_values = [oracle_recall(s, l, n, k) for s, l in data]
                kept = [v for v in oracle_values if v is not None]
                assert abs(recall_at_k(pools, n, k) - sum(kept) / len(kept)) < 1e-9
        assert abs(mean_average_precision(pools) - sum(oracle_ap(s, l) for s, l in data) / len(data)) < 1e-9
        assert abs(mean_reciprocal_rank(pools) - sum(oracle_rr(s, l) for s, l in data) / len(data)) < 1e-9
        oracle_p1 = sum(l[oracle_order(s)[0]] for s, l in data) / len(data)
        assert abs(precision_at_one(pools) - oracle_p1) < 1e-9

        # multi-positive bound: with 3 positives a pool contributes at most
        # 1/3 at k=1, so even perfect top-1 ranking gives exactly 1/3
        bound_pools = []
        for _ in range(8):
            scores = [0.99, 0.98, 0.97] + rng.random(7).tolist()
            bound_pools.append(rank_scores(scores, [1, 1, 1] + [0] * 7))
        assert recall_at_k(bound_pools, 10, 1) == 1 / 3


def test_criterion_03_masking_statistics():
    with criterion(3, "masking actions 80/10/10 +-1%, selection 15% +-0.5%, no structural picks"):
        rng = np.random.default_rng(20240303)
        structural = {PAD, CLS, SEP, MASK, EOU, EOT}
        inputs = [encoded_with_maskable(int(rng.integers(20, 81)), rng) for _ in range(40)]
        counts = {"mask": 0, "random": 0, "keep": 0}
        total_selected = 0
        total_maskable = 0
        while total_selected < 100_000:
            enc = inputs[int(rng.integers(len(inputs)))]
            maskable = sum(1 for t in enc.token_ids if t not in structural)
            plan = plan_masking(enc, VOCAB, 0.15, rng)
            for pos in plan:
                assert enc.token_ids[pos.index] not in structural
                counts[pos.action] += 1
            total_selected += len(plan)
            total_maskable += maskable
        total = sum(counts.values())
        assert total >= 100_000
        assert abs(counts["mask"] / total - 0.80) < 0.01
        assert abs(counts["random"] / total - 0.10) < 0.01
        assert abs(counts["keep"] / total - 0.10) < 0.01
        assert abs(total_selected / total_maskable - 0.15) < 0.005


def test_criterion_04_gradient_check():
    with criterion(4, "analytic gradients match central differences on every tensor"):
        start = time.monotonic()
        config = ModelConfig(vocab_size=32, hidden_dim=16, num_layers=2, num_heads=2,
                             ffn_dim=32, max_seq_len=24)
        params = init_params(config, np.random.default_rng(404))
        batch, mlm_targets, match_labels, nsp_labels = gradcheck_setup(
            config, np.random.default_rng(405), batch_size=2
        )
        analytic = combined_loss_grads(params, batch, config, mlm_targets, match_labels, nsp_labels)

        def loss_fn(p):
            return combined_loss(p, batch, config, mlm_targets, match_labels, nsp_labels)

        numeric = finite_difference_grads(loss_fn, params, eps=1e-4)
        worst = {}
        for name in params:
            worst[name] = max_relative_error(analytic[name], numeric[name])
            assert worst[name] < 1e-4, "%s: rel err %g" % (name, worst[name])
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, "took %.1fs" % elapsed


def test_criterion_05_speaker_mechanism():
    with criterion(5, "speaker-id-only task: ablation pins 50%, embeddings reach >=95%"):
        rng = np.random.default_rng(20240505)
        instances = speaker_pattern_instances(rng, 100)  # 200 examples
        assert len(instances) == 200
        config = ModelConfig(vocab_size=len(VOCAB), hidden_dim=32, num_layers=2, num_heads=4,
                             ffn_dim=64, max_seq_len=32)

        # ablated: zeroed+frozen speaker table; pair members are token-identical,
        # so their match logits are bitwise equal and accuracy is exactly 50%
        params = init_params(config, np.random.default_rng(1))
        ablated_tc = TrainConfig(learning_rate=3e-3, batch_size=25, max_epochs=10, seed=1,
                                 freeze_speaker_table=True)
        train("finetune", instances, params, config, ablated_tc, VOCAB)
        for a, b in zip(instances[::2], instances[1::2]):
            logit_a, _, _, _ = forward_batch(stack_inputs([encode_instance(a, VOCAB, 32)]), params, config)
            logit_b, _, _, _ = forward_batch(stack_inputs([encode_instance(b, VOCAB, 32)]), params, config)
            assert logit_a[0] == logit_b[0]  # bitwise
        assert accuracy(instances, params, config, VOCAB, 32) == 0.5

        # enabled: learnable within 500 steps
        params = init_params(config, np.random.default_rng(1))
        tc = TrainConfig(learning_rate=3e-3, batch_size=25, max_epochs=62, seed=1)  # 496 steps
        result = train("finetune", instances, params, config, tc, VOCAB)
        assert len(result.log) <= 500
        assert accuracy(instances, params, config, VOCAB, 32) >= 0.95


def test_criterion_06_overfit_probe():
    with criterion(6, "32-example probe reaches accuracy 1.0 and loss < 0.05 within 300 steps"):
        vocab = topic_vocab()
        instances = topic_instances(np.random.default_rng(42), 32)
        config = ModelConfig(vocab_size=len(vocab), hidden_dim=32, num_layers=2, num_heads=4,
                             ffn_dim=64, max_seq_len=48)
        params = init_params(config, np.random.default_rng(0))
        tc = TrainConfig(learning_rate=3e-3, batch_size=25, max_epochs=150, seed=0)  # 300 steps
        result = train("finetune", instances, params, config, tc, vocab)
        assert len(result.log) <= 300
        losses = [e.loss for e in result.log]
        tenth = max(1, len(losses) // 10)
        assert np.median(losses[-tenth:]) < np.median(losses[:tenth])
        assert accuracy(instances, params, config, vocab, 48) == 1.0
        assert losses[-1] < 0.05


def test_criterion_07_threshold_protocol():
    with criterion(7, "threshold sweep uses the 8-value grid and picks the hand-derived tau"):
        assert DEFAULT_THRESHOLD_GRID == (0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)
        # 5-pool validation set, hand-swept:
        #   tau<=0.70 -> 3/5, tau=0.75 -> 4/5 (unique max), tau=0.80..0.90 -> 3/5,
        #   tau=0.95 -> 2/5; so the selector must return 0.75
        pools = [
            rank_scores([0.92, 0.30], [1, 0]),  # answerable, correctly ranked
            rank_scores([0.78, 0.20], [1, 0]),  # answerable, correctly ranked
            rank_scores([0.73, 0.10], [0, 0]),  # answerless
            rank_scores([0.58, 0.20], [0, 0]),  # answerless
            rank_scores([0.66, 0.50], [0, 1]),  # answerable, mis-ranked
        ]
        assert select_threshold(pools) == 0.75


def test_criterion_08_two_phase_effect_direction():
    with criterion(8, "adapt-then-finetune beats no-adaptation on R_10@1 in >=4 of 5 seeds"):
        vocab = topic_vocab()
        max_len = 32

        def r_at_1(pools, params, config):
            ranked = []
            for pool in pools:
                batch = stack_inputs([encode_instance(i, vocab, max_len) for i in pool])
                scores = score_batch(batch, params, config)
                ranked.append(rank_scores(scores.tolist(), [i.label for i in pool]))
            return recall_at_k(ranked, n=10, k=1)

        wins = 0
        outcomes = []
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            train_insts = topic_instances(rng, 128)
            pools = topic_pools(rng, 40)
            config = ModelConfig(vocab_size=len(vocab), hidden_dim=32, num_layers=2,
                                 num_heads=4, ffn_dim=64, max_seq_len=max_len)
            finetune_tc = TrainConfig(learning_rate=3e-3, batch_size=25, max_epochs=4, seed=seed)

            plain_params = init_params(config, np.random.default_rng(seed))
            train("finetune", train_insts, plain_params, config, finetune_tc, vocab)
            plain = r_at_1(pools, plain_params, config)

            adapted_params = init_params(config, np.random.default_rng(seed))
            adapt_tc = TrainConfig(learning_rate=3e-3, batch_size=25, max_epochs=200, seed=seed)
            train("adapt", train_insts, adapted_params, config, adapt_tc, vocab)
            train("finetune", train_insts, adapted_params, config, finetune_tc, vocab)
            adapted = r_at_1(pools, adapted_params, config)

            outcomes.append((plain, adapted))
            wins += adapted >= plain
        assert wins >= 4, "only %d/5 wins: %s" % (wins, outcomes)


def test_criterion_09_end_to_end_determinism(tmp_path):
    with criterion(9, "toy pipeline run twice with one seed yields identical reports"):
        from replyrank.cli import main

        reports = []
        for run_dir in (tmp_path / "run1", tmp_path / "run2"):
            run_dir.mkdir()
            vocab = run_dir / "vocab.txt"
            adapted = run_dir / "adapted.npz"
            model = run_dir / "model.npz"
            report = run_dir / "report.txt"
            argv_sets = [
                ["build-vocab", "--input", str(REPO / "data/toy/train.tsv"),
                 "--out", str(vocab)],
                ["adapt", "--data", str(REPO / "data/toy/train.tsv"), "--vocab", str(vocab),
                 "--config", str(REPO / "configs/toy.json"), "--checkpoint-out", str(adapted),
                 "--seed", "0"],
                ["finetune", "--data", str(REPO / "data/toy/train.tsv"), "--vocab", str(vocab),
                 "--config", str(REPO / "configs/toy.json"), "--checkpoint-in", str(adapted),
                 "--checkpoint-out", str(model), "--seed", "0"],
                ["evaluate", "--pools", str(REPO / "data/toy/valid_pools.jsonl"),
                 "--checkpoint", str(model), "--vocab", str(vocab),
                 "--threshold-sweep", "--out", str(report)],
            ]
            for argv in argv_sets:
                assert main(argv) == 0, argv
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

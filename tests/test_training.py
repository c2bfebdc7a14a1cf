import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from replyrank import training
from replyrank.encoding import EncodedInput
from replyrank.model import ModelConfig, init_params
from replyrank.tokenizer import CLS, EOT, EOU, MASK, NUM_SPECIALS, PAD, SEP
from replyrank.training import (
    MASK_FRACTION,
    WEIGHT_DECAY,
    AdamState,
    TrainConfig,
    _adaptation_batch,
    _adaptation_validation_loss,
    _corrupted_pairs,
    adamw_step,
    apply_masking,
    build_nsp_pair,
    linear_lr,
    plan_masking,
    train,
    write_loss_log,
)
from helpers import (
    VOCAB,
    adaptation_loss,
    finetune_loss,
    random_encoded,
    topic_instances,
    topic_vocab,
)

STRUCTURAL = {PAD, CLS, SEP, MASK, EOU, EOT}


def encoded_with_maskable(n_maskable, rng):
    """Build an input with exactly ``n_maskable`` content tokens (response has 8)."""
    from replyrank.corpus import Utterance
    from replyrank.encoding import build_input

    assert n_maskable >= 9
    words = [f"w{i % 25:02d}" for i in range(n_maskable - 8)]
    context = [(Utterance(index=0, spoken_from="a", spoken_to=None, text=" ".join(words)), 1)]
    response = Utterance(index=1, spoken_from="b", spoken_to=None, text=" ".join(f"w{i:02d}" for i in range(8)))
    enc = build_input(context, response, 2, VOCAB, max_len=n_maskable + 8)
    assert sum(1 for t in enc.token_ids if t not in STRUCTURAL) == n_maskable
    return enc


class TestPlanMasking:
    def test_selection_count_rounds(self, rng):
        enc = encoded_with_maskable(20, rng)
        plan = plan_masking(enc, VOCAB, 0.15, rng)
        assert len(plan) == 3

    def test_minimum_one_selected(self, rng):
        for _ in range(20):
            enc = random_encoded(rng)
            plan = plan_masking(enc, VOCAB, 0.01, rng)
            assert len(plan) >= 1

    def test_structural_tokens_never_selected(self, rng):
        for _ in range(300):
            enc = random_encoded(rng)
            plan = plan_masking(enc, VOCAB, 0.3, rng)
            for pos in plan:
                assert enc.token_ids[pos.index] not in STRUCTURAL

    def test_action_invariants(self, rng):
        for _ in range(200):
            enc = random_encoded(rng)
            for pos in plan_masking(enc, VOCAB, 0.3, rng):
                assert pos.original_id == enc.token_ids[pos.index]
                if pos.action == "mask":
                    assert pos.replacement_id == MASK
                elif pos.action == "keep":
                    assert pos.replacement_id == pos.original_id
                else:
                    assert pos.replacement_id >= NUM_SPECIALS

    def test_action_frequencies(self, rng):
        counts = {"mask": 0, "random": 0, "keep": 0}
        total = 0
        enc = encoded_with_maskable(30, rng)
        while total < 20000:
            for pos in plan_masking(enc, VOCAB, 0.5, rng):
                counts[pos.action] += 1
                total += 1
        assert abs(counts["mask"] / total - 0.80) < 0.02
        assert abs(counts["random"] / total - 0.10) < 0.02
        assert abs(counts["keep"] / total - 0.10) < 0.02

    def test_no_maskable_tokens_rejected(self, rng):
        from replyrank.encoding import EncodedInput

        enc = EncodedInput(token_ids=(CLS, SEP, SEP), segment_ids=(0, 0, 1), speaker_ids=(0, 0, 0))
        with pytest.raises(ValueError):
            plan_masking(enc, VOCAB, 0.15, rng)

    def test_apply_masking_replaces_only_planned(self, rng):
        enc = random_encoded(rng)
        plan = plan_masking(enc, VOCAB, 0.3, rng)
        masked = apply_masking(enc, plan)
        planned = {pos.index: pos.replacement_id for pos in plan}
        for i, (before, after) in enumerate(zip(enc.token_ids, masked.token_ids)):
            assert after == planned.get(i, before)


class TestBuildNspPair:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.instances = topic_instances(rng, 20)
        self.vocab = topic_vocab()
        self.positives = [i for i in self.instances if i.label == 1]
        self.pool = [i.response for i in self.positives]

    def test_label_balance(self, rng):
        labels = []
        inst = self.positives[0]
        for _ in range(4000):
            _, label = build_nsp_pair(
                inst.context, inst.response, inst.response_role, self.pool, self.vocab, 48, rng
            )
            labels.append(label)
        assert abs(np.mean(labels) - 0.5) < 0.02

    def test_positive_branch_encodes_true_response(self, rng):
        from replyrank.tokenizer import tokenize

        inst = self.positives[0]
        found = False
        for _ in range(50):
            enc, label = build_nsp_pair(
                inst.context, inst.response, inst.response_role, self.pool, self.vocab, 48, rng
            )
            if label == 1:
                seps = [i for i, t in enumerate(enc.token_ids) if t == SEP]
                segment_b = list(enc.token_ids[seps[-2] + 1 : seps[-1]])
                assert segment_b == tokenize(inst.response.text, self.vocab)
                found = True
                break
        assert found

    def test_negative_never_identical_to_positive(self, rng):
        inst = self.positives[0]
        for _ in range(200):
            enc, label = build_nsp_pair(
                inst.context, inst.response, inst.response_role, self.pool, self.vocab, 48, rng
            )
            if label == 0:
                from replyrank.tokenizer import tokenize

                seps = [i for i, t in enumerate(enc.token_ids) if t == SEP]
                segment_b = list(enc.token_ids[seps[-2] + 1 : seps[-1]])
                # the sampled entry is a different corpus response object
                positive_ids = tokenize(inst.response.text, self.vocab)
                if segment_b == positive_ids:
                    # identical text from another entry is legal; object identity is not
                    continue
        assert True

    def test_small_corpus_rejected(self, rng):
        inst = self.positives[0]
        with pytest.raises(ValueError):
            build_nsp_pair(inst.context, inst.response, inst.response_role, [inst.response], self.vocab, 48, rng)


class TestLosses:
    def test_uniform_mlm_logits_give_log_vocab(self):
        from replyrank.training import MaskedPosition

        V = len(VOCAB)
        mlm_logits = np.zeros((10, V))
        plan = [MaskedPosition(index=2, action="mask", original_id=8, replacement_id=MASK)]
        nsp_logits = np.array([5.0, -1e9])  # NSP term ~0
        loss = adaptation_loss(mlm_logits, plan, nsp_logits, 0)
        assert abs(loss - math.log(V)) < 1e-6

    def test_flat_nsp_logits_give_log2(self):
        from replyrank.training import MaskedPosition

        plan = [MaskedPosition(index=0, action="keep", original_id=8, replacement_id=8)]
        mlm_logits = np.zeros((4, len(VOCAB)))
        mlm_logits[0, 8] = 1e9  # MLM term ~0
        for label in (0, 1):
            loss = adaptation_loss(mlm_logits, plan, np.zeros(2), label)
            assert abs(loss - math.log(2)) < 1e-6

    def test_combined_is_sum(self):
        from replyrank.training import MaskedPosition

        V = len(VOCAB)
        plan = [MaskedPosition(index=1, action="mask", original_id=9, replacement_id=MASK)]
        mlm_logits = np.zeros((4, V))
        nsp_logits = np.zeros(2)
        loss = adaptation_loss(mlm_logits, plan, nsp_logits, 1)
        assert abs(loss - (math.log(V) + math.log(2))) < 1e-6

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            adaptation_loss(np.zeros((4, 10)), [], np.zeros(2), 1)

    def test_finetune_loss_values(self):
        assert abs(finetune_loss(0.5, 1) - math.log(2)) < 1e-12
        assert finetune_loss(1 - 1e-12, 1) < 1e-9
        assert abs(finetune_loss(0.9, 0) - (-math.log(0.1))) < 1e-9

    def test_finetune_loss_domain(self):
        with pytest.raises(ValueError):
            finetune_loss(0.0, 1)
        with pytest.raises(ValueError):
            finetune_loss(1.0, 1)

    def test_match_head_gradient_at_zero_logit(self):
        # d(BCE)/d(logit) at logit 0, label 1 is sigma(0) - 1 = -0.5
        assert expit(0.0) - 1.0 == -0.5


class TestOptimizer:
    def test_linear_decay_formula(self):
        assert linear_lr(2e-5, 0, 100) == 2e-5
        assert linear_lr(2e-5, 50, 100) == pytest.approx(1e-5)
        assert linear_lr(2e-5, 100, 100) == 0.0

    def test_quadratic_convergence(self):
        params = {"w": np.array([[5.0]])}
        state = AdamState.for_params(params)
        for _ in range(500):
            grads = {"w": 2.0 * params["w"]}
            adamw_step(params, grads, state, lr=0.05, weight_decay=0.0)
        assert abs(params["w"][0, 0]) < 1e-3

    def test_decay_skips_vectors(self):
        params = {"w": np.ones((2, 2)), "b": np.ones(2)}
        state = AdamState.for_params(params)
        adamw_step(params, {"w": np.zeros((2, 2)), "b": np.zeros(2)}, state, lr=0.1, weight_decay=0.5)
        assert np.all(params["w"] < 1.0)  # decayed
        assert np.all(params["b"] == 1.0)  # zero grad, no decay

    def test_frozen_tensors_untouched(self):
        params = {"w": np.ones((2, 2))}
        state = AdamState.for_params(params)
        adamw_step(params, {"w": np.ones((2, 2))}, state, lr=0.1, weight_decay=0.1,
                   frozen=frozenset(["w"]))
        assert np.all(params["w"] == 1.0)


class TestTrain:
    def setup_method(self):
        self.vocab = topic_vocab()
        rng = np.random.default_rng(5)
        self.instances = topic_instances(rng, 16)
        self.config = ModelConfig(vocab_size=len(self.vocab), hidden_dim=16, num_layers=1,
                                  num_heads=2, ffn_dim=24, max_seq_len=32)

    def test_seeded_runs_identical(self):
        logs = []
        for _ in range(2):
            params = init_params(self.config, np.random.default_rng(3))
            tc = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=3, seed=11)
            result = train("finetune", self.instances, params, self.config, tc, self.vocab)
            logs.append([(e.step, e.loss, e.lr) for e in result.log])
        assert logs[0] == logs[1]

    def test_adapt_seeded_runs_identical(self):
        logs = []
        for _ in range(2):
            params = init_params(self.config, np.random.default_rng(3))
            tc = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=2, seed=11)
            result = train("adapt", self.instances, params, self.config, tc, self.vocab)
            logs.append([(e.step, e.loss) for e in result.log])
        assert logs[0] == logs[1]

    def test_loss_decreases_on_probe(self):
        params = init_params(self.config, np.random.default_rng(3))
        tc = TrainConfig(learning_rate=3e-3, batch_size=8, max_epochs=50, seed=0)
        result = train("finetune", self.instances, params, self.config, tc, self.vocab)
        losses = [e.loss for e in result.log]
        tenth = max(1, len(losses) // 10)
        assert np.median(losses[-tenth:]) < np.median(losses[:tenth])

    def test_lr_schedule_logged(self):
        params = init_params(self.config, np.random.default_rng(3))
        tc = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=2, seed=0)
        result = train("finetune", self.instances, params, self.config, tc, self.vocab)
        total = len(result.log)
        for t, entry in enumerate(result.log):
            assert entry.lr == pytest.approx(1e-3 * (1 - t / total))

    def test_freeze_speaker_table(self):
        params = init_params(self.config, np.random.default_rng(3))
        tc = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=1, seed=0,
                         freeze_speaker_table=True)
        train("finetune", self.instances, params, self.config, tc, self.vocab)
        assert np.all(params["speaker_table"] == 0.0)

    def test_speaker_table_moves_by_default(self):
        params = init_params(self.config, np.random.default_rng(3))
        before = params["speaker_table"].copy()
        tc = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=1, seed=0)
        train("finetune", self.instances, params, self.config, tc, self.vocab)
        assert not np.array_equal(params["speaker_table"], before)

    def test_unknown_phase(self):
        params = init_params(self.config, np.random.default_rng(0))
        with pytest.raises(ValueError):
            train("pretrain", self.instances, params, self.config, TrainConfig(), self.vocab)

    def test_empty_dataset(self):
        params = init_params(self.config, np.random.default_rng(0))
        with pytest.raises(ValueError):
            train("finetune", [], params, self.config, TrainConfig(), self.vocab)

    def test_adapt_validation_history(self):
        params = init_params(self.config, np.random.default_rng(3))
        tc = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=3, seed=0)
        result = train("adapt", self.instances, params, self.config, tc, self.vocab,
                       validation=self.instances[:4])
        assert len(result.validation_history) == 3
        assert result.best_epoch is not None
        assert result.validation_history[result.best_epoch] == min(result.validation_history)

    def test_finetune_validation_selects_best_recall(self):
        from helpers import topic_pools

        pools = topic_pools(np.random.default_rng(8), 4)
        params = init_params(self.config, np.random.default_rng(3))
        tc = TrainConfig(learning_rate=3e-3, batch_size=8, max_epochs=3, seed=0)
        result = train("finetune", self.instances, params, self.config, tc, self.vocab,
                       validation=pools)
        assert len(result.validation_history) == 3
        assert result.validation_history[result.best_epoch] == max(result.validation_history)


class TestAdaptationValidation:
    def test_chunked_loss_equals_one_batch(self, monkeypatch):
        vocab = topic_vocab()
        instances = topic_instances(np.random.default_rng(2), 23)
        config = ModelConfig(vocab_size=len(vocab), hidden_dim=16, num_layers=2, num_heads=2,
                             ffn_dim=24, max_seq_len=32)
        params = init_params(config, np.random.default_rng(4))
        draw = _corrupted_pairs(instances, [inst.response for inst in instances], vocab, 32,
                                np.random.default_rng(6))
        whole, _ = _adaptation_batch(*draw, params, config)
        monkeypatch.setattr(training, "BLOCK_BYTES", 1)  # one row per block
        chunked = _adaptation_validation_loss(*draw, params, config)
        assert abs(chunked - whole) <= 1e-12

    def test_memory_does_not_grow_with_validation_size(self):
        toy = json.loads((Path(__file__).resolve().parent.parent / "configs" / "toy.json").read_text())
        config = ModelConfig(vocab_size=len(VOCAB), **toy["model"])
        params = init_params(config, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        content = config.max_seq_len - 2
        draws = []
        for count in (50, 200):
            encoded, plans = [], []
            for _ in range(count):
                enc = EncodedInput(
                    token_ids=(CLS, *(int(t) for t in rng.integers(NUM_SPECIALS, len(VOCAB), content)), SEP),
                    segment_ids=(0,) * (content // 2 + 1) + (1,) * (content - content // 2 + 1),
                    speaker_ids=(0, *(int(r) for r in rng.integers(1, 3, content)), 0),
                )
                plan = plan_masking(enc, VOCAB, MASK_FRACTION, rng)
                encoded.append(apply_masking(enc, plan))
                plans.append(plan)
            draws.append((encoded, plans, rng.integers(0, 2, count)))
        peaks = []
        for draw in draws:
            tracemalloc.start()
            try:
                _adaptation_validation_loss(*draw, params, config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks


class TestTrainConfig:
    def test_defaults_follow_training_recipe(self):
        tc = TrainConfig()
        assert tc.learning_rate == 2e-5
        assert tc.batch_size == 25
        assert tc.max_epochs == 3
        assert MASK_FRACTION == 0.15
        assert WEIGHT_DECAY == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        for learning_rate in (math.nan, math.inf):
            with pytest.raises(ValueError):
                TrainConfig(learning_rate=learning_rate)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestLossLog:
    def test_csv_format(self, tmp_path):
        from replyrank.training import LogEntry

        path = tmp_path / "loss.csv"
        write_loss_log(path, [LogEntry(step=1, phase="adapt", loss=1.5, lr=2e-5)])
        lines = path.read_text().splitlines()
        assert lines[0] == "step,phase,loss,lr"
        assert lines[1] == "1,adapt,1.5,2e-05"

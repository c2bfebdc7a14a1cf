"""Padding happens only in ``stack_inputs``; it must never change a result."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replyrank import cli, training
from replyrank.encoding import EncodedInput, encode_instance
from replyrank.evaluation import rank_scores
from replyrank.model import Batch, init_params, score_batch, stack_inputs
from replyrank.tokenizer import CLS, PAD, SEP
from replyrank.training import (
    MASK_FRACTION,
    _adaptation_block,
    _matching_block,
    _objective,
    apply_masking,
    plan_masking,
)
from helpers import VOCAB, random_encoded, tiny_model_config, topic_pools, topic_vocab, widen

TOLERANCE = 1e-12
MAX_LEN = 32  # longest input random_encoded builds
MAX_EXTRA = 8
CONFIG = tiny_model_config(vocab_size=len(VOCAB), max_seq_len=MAX_LEN + MAX_EXTRA)


def assert_close(a, b):
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= TOLERANCE


def mixed_inputs(seed: int, size: int) -> list[EncodedInput]:
    rng = np.random.default_rng(seed)
    return [random_encoded(rng, max_len=MAX_LEN) for _ in range(size)]


class TestStackInputs:
    def test_pads_to_longest_member(self):
        short = EncodedInput((CLS, 9, SEP), (0, 0, 0), (0, 1, 0))
        long = EncodedInput((CLS, 7, SEP, 8, SEP), (0, 0, 0, 1, 1), (0, 1, 0, 2, 0))
        batch = stack_inputs([short, long])
        assert [f.name for f in fields(Batch)] == ["token_ids", "segment_ids", "speaker_ids", "attention_mask"]
        assert batch.token_ids.tolist() == [[CLS, 9, SEP, PAD, PAD], [CLS, 7, SEP, 8, SEP]]
        assert batch.segment_ids.tolist() == [[0, 0, 0, 0, 0], [0, 0, 0, 1, 1]]
        assert batch.speaker_ids.tolist() == [[0, 1, 0, 0, 0], [0, 1, 0, 2, 0]]
        assert batch.attention_mask.tolist() == [[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]]
        assert batch.token_ids.dtype == np.int64

    def test_width_is_longest_real_length(self, rng):
        inputs = [random_encoded(rng, max_len=MAX_LEN) for _ in range(6)]
        assert stack_inputs(inputs).token_ids.shape == (6, max(len(enc) for enc in inputs))


class TestPaddingInvariance:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 4), extra=st.integers(1, MAX_EXTRA))
    def test_scores_losses_and_gradients_ignore_padding_columns(self, seed, size, extra):
        rng = np.random.default_rng(seed)
        params = init_params(CONFIG, rng)
        inputs = mixed_inputs(seed, size)

        def stack_wide(encoded):
            stacked = stack_inputs(encoded)
            return widen(stacked, stacked.token_ids.shape[1] + extra)

        assert stack_wide(inputs).token_ids.shape[1] == max(len(enc) for enc in inputs) + extra
        assert_close(score_batch(stack_inputs(inputs), params, CONFIG),
                     score_batch(stack_wide(inputs), params, CONFIG))

        labels = rng.integers(0, 2, size=size).astype(float)
        plans = [plan_masking(enc, VOCAB, MASK_FRACTION, rng) for enc in inputs]
        masked = [apply_masking(enc, plan) for enc, plan in zip(inputs, plans)]
        nsp_labels = rng.integers(0, 2, size=size)
        loss, grads = _objective(_matching_block, inputs, labels, params, CONFIG)
        adapt_loss, adapt_grads = _objective(_adaptation_block, masked, (plans, nsp_labels), params, CONFIG)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(training, "stack_inputs", stack_wide)
            padded_loss, padded_grads = _objective(_matching_block, inputs, labels, params, CONFIG)
            padded_adapt_loss, padded_adapt_grads = _objective(
                _adaptation_block, masked, (plans, nsp_labels), params, CONFIG
            )
        assert_close(loss, padded_loss)
        for name in grads:
            assert_close(grads[name], padded_grads[name])
        assert_close(adapt_loss, padded_adapt_loss)
        for name in adapt_grads:
            assert_close(adapt_grads[name], padded_adapt_grads[name])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 6))
    def test_alone_equals_inside_mixed_batch(self, seed, size):
        params = init_params(CONFIG, np.random.default_rng(seed))
        inputs = mixed_inputs(seed, size)
        together = score_batch(stack_inputs(inputs), params, CONFIG)
        for i, enc in enumerate(inputs):
            assert_close(score_batch(stack_inputs([enc]), params, CONFIG)[0], together[i])


class TestScorePools:
    def setup_method(self):
        self.vocab = topic_vocab()
        self.config = tiny_model_config(vocab_size=len(self.vocab), max_seq_len=32)
        self.params = init_params(self.config, np.random.default_rng(5))

    def mixed_pools(self):
        pools = topic_pools(np.random.default_rng(3), 5, pool_size=4)
        pools[1] = pools[1][:2]
        pools[3] = pools[3][:3]
        # vary lengths so that sorting reorders candidates across pools
        pools[2] = [replace(inst, response=replace(inst.response, text=inst.response.text + " the my is"))
                    for inst in pools[2]]
        return pools

    def test_scores_in_candidate_order(self):
        pools = self.mixed_pools()
        ranked = cli.rank_pools(pools, self.params, self.config, self.vocab)
        assert len(ranked) == len(pools)
        for pool, pool_ranked in zip(pools, ranked):
            encoded = [encode_instance(inst, self.vocab, self.config.max_seq_len) for inst in pool]
            scores = score_batch(stack_inputs(encoded), self.params, self.config)
            assert_close(pool_ranked.scores, scores)
            assert pool_ranked.labels == tuple(inst.label for inst in pool)
            assert pool_ranked.ranking == rank_scores(pool_ranked.scores, pool_ranked.labels).ranking

    def test_length_sorted_chunks_no_larger_than_a_pool(self, monkeypatch):
        pools = self.mixed_pools()
        shapes = []

        def recording_score_batch(batch, params, config):
            shapes.append(batch.token_ids.shape)
            return score_batch(batch, params, config)

        monkeypatch.setattr(cli, "score_batch", recording_score_batch)
        cli.rank_pools(pools, self.params, self.config, self.vocab)
        largest = max(len(pool) for pool in pools)
        assert sum(rows for rows, _ in shapes) == sum(len(pool) for pool in pools)
        assert all(rows <= largest for rows, _ in shapes)
        widths = [width for _, width in shapes]
        assert widths == sorted(widths)

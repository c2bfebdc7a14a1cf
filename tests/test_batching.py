"""Padding happens only in ``stack_inputs``; it must never change a result."""

import os
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replyrank import cli, model, training
from replyrank.encoding import EncodedInput, encode_instance
from replyrank.evaluation import rank_scores
from replyrank.model import Batch, forward_batch, init_params, score_batch, stack_inputs
from replyrank.tokenizer import CLS, PAD, SEP
from replyrank.training import (
    MASK_FRACTION,
    _adaptation_block,
    _matching_block,
    _objective,
    apply_masking,
    plan_masking,
)
from helpers import VOCAB, full_length_input, random_encoded, tiny_model_config, topic_pools, topic_vocab, widen

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

    def test_one_score_batch_call_with_rows_in_ascending_length(self, monkeypatch):
        pools = self.mixed_pools()
        batches = []

        def recording_score_batch(batch, params, config):
            batches.append(batch)
            return score_batch(batch, params, config)

        monkeypatch.setattr(cli, "score_batch", recording_score_batch)
        cli.rank_pools(pools, self.params, self.config, self.vocab)
        assert len(batches) == 1
        lengths = batches[0].attention_mask.sum(axis=1).tolist()
        assert len(lengths) == sum(len(pool) for pool in pools)
        assert lengths == sorted(lengths) and lengths[0] < lengths[-1]
        assert cli.rank_pools([], self.params, self.config, self.vocab) == []
        assert len(batches) == 1


class TestScoreBatchWorkers:
    """``score_batch`` scores fixed row blocks, shared among forked workers whatever their count."""

    def setup_method(self):
        self.config = tiny_model_config(vocab_size=len(VOCAB), max_seq_len=MAX_LEN)
        self.params = init_params(self.config, np.random.default_rng(11))
        widest = full_length_input(np.random.default_rng(4), MAX_LEN, len(VOCAB))
        inputs = sorted(mixed_inputs(4, 10) + [widest], key=len)
        assert len(inputs[0]) < len(inputs[-2]) < len(inputs[-1]) == MAX_LEN
        self.batch = stack_inputs(inputs)

    def score(self, monkeypatch, cores, batch=None):
        """``score_batch`` with 3-row blocks at ``max_seq_len``, as if the process could use ``cores`` CPUs."""
        width = self.config.max_seq_len
        per_row = 8 * (self.config.num_heads * width * width + self.config.ffn_dim * width)
        monkeypatch.setattr(model, "BLOCK_BYTES", 3 * per_row)
        monkeypatch.setattr(model, "_usable_cores", lambda: cores)
        return score_batch(self.batch if batch is None else batch, self.params, self.config)

    def rows(self, start, stop):
        return Batch(*(getattr(self.batch, f.name)[start:stop] for f in fields(Batch)))

    def test_blocks_hold_the_positions_of_a_training_block_at_max_seq_len(self, monkeypatch):
        shapes = []

        def recording_forward_batch(batch, params, config):
            shapes.append(batch.token_ids.shape)
            return forward_batch(batch, params, config)

        monkeypatch.setattr(model, "forward_batch", recording_forward_batch)
        self.score(monkeypatch, 1)
        lengths = self.batch.attention_mask.sum(axis=1)
        # as wide as max_seq_len: 3-row blocks, each cut to its own widest row
        assert shapes == [(3, lengths[2]), (3, lengths[5]), (3, lengths[8]), (2, MAX_LEN)]
        shapes.clear()
        self.score(monkeypatch, 1, self.rows(0, 8))
        per_block = 3 * MAX_LEN // lengths[7]  # narrower rows: more of them in as many positions
        assert 3 < per_block < 8
        assert [rows for rows, _ in shapes] == [per_block, 8 - per_block]

    def test_each_block_is_freed_before_the_next_runs(self, monkeypatch):
        traces = []

        def tracking_forward_batch(batch, params, config):
            assert all(trace() is None for trace in traces), "an earlier block's trace is still alive"
            result = forward_batch(batch, params, config)
            traces.append(weakref.ref(result[3]))
            return result

        monkeypatch.setattr(model, "forward_batch", tracking_forward_batch)
        self.score(monkeypatch, 1)
        assert len(traces) == 4

    def test_scores_do_not_depend_on_the_worker_count(self, monkeypatch):
        serial = self.score(monkeypatch, 1)
        for cores in (2, 3):
            assert self.score(monkeypatch, cores).tobytes() == serial.tobytes()
        for start in range(0, len(serial), 3):  # each block alone
            assert self.score(monkeypatch, 1, self.rows(start, start + 3)).tobytes() == serial[start : start + 3].tobytes()

    def with_bad_tokens(self, *cells):
        """The batch with token id 999 at each (row, column) of ``cells``, all real positions."""
        token_ids = self.batch.token_ids.copy()
        for row, col in cells:
            assert self.batch.attention_mask[row, col]
            token_ids[row, col] = 999
        return replace(self.batch, token_ids=token_ids)

    @pytest.mark.parametrize("cells", [
        [(4, 2)],  # block 1, which the child scores
        [(10, 1), (4, 2), (7, 3)],  # blocks 3, 1 and 2: block 1's error is raised
    ])
    def test_a_failing_block_raises_as_a_serial_run(self, monkeypatch, cells):
        batch = self.with_bad_tokens(*cells)
        errors = []
        for cores in (1, 2):
            with pytest.raises(ValueError) as failure:
                self.score(monkeypatch, cores, batch)
            errors.append((type(failure.value), str(failure.value)))
        assert errors[0] == errors[1] == (ValueError, "token_ids[1][2] = 999 out of range [0, %d)" % len(VOCAB))

    def test_a_child_that_dies_is_an_error(self, monkeypatch):
        parent, score_blocks = os.getpid(), model._score_blocks

        def dying_in_a_child(*args):
            if os.getpid() != parent:
                os._exit(1)
            return score_blocks(*args)

        monkeypatch.setattr(model, "_score_blocks", dying_in_a_child)
        with pytest.raises(ChildProcessError, match="^scoring worker [0-9]+ ended without sending its scores$"):
            self.score(monkeypatch, 2)

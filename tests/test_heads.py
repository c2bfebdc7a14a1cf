"""Each phase computes only the heads it reads, and the last layer only the rows they read.

Adaptation gets vocabulary logits at its masked positions only; finetuning
and scoring get none.  The gathered path must match a dense (B, L, vocab)
reference, and no phase may allocate an array of that shape.  The last
encoder layer computes [CLS] and the requested positions only; every phase
must match the path that requests every position, where it computes all L.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from replyrank.model import ModelConfig, backward, forward_batch, init_params, score_batch, stack_inputs
from replyrank.training import _adaptation_block, _matching_block, _objective, apply_masking, plan_masking
from helpers import (
    VOCAB,
    adaptation_loss,
    dense_adaptation_reference,
    every_position,
    finetune_loss,
    full_length_input,
    random_encoded,
    tiny_model_config,
)

TOLERANCE = 1e-12
CONFIG = tiny_model_config(vocab_size=len(VOCAB), max_seq_len=32)
REPO = Path(__file__).resolve().parent.parent


def masked_batch(seed: int, size: int):
    rng = np.random.default_rng(seed)
    inputs = [random_encoded(rng, max_len=32) for _ in range(size)]
    fraction = float(rng.uniform(0.1, 0.6))
    plans = [plan_masking(enc, VOCAB, fraction, rng) for enc in inputs]
    masked = [apply_masking(enc, plan) for enc, plan in zip(inputs, plans)]
    return masked, plans, rng.integers(0, 2, size=size), rng


def assert_close(a, b):
    assert np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) <= TOLERANCE


class TestRequestedPositions:
    def test_none_requested_gives_empty_vocabulary_logits(self, rng):
        params = init_params(CONFIG, rng)
        batch = stack_inputs([random_encoded(rng) for _ in range(3)])
        _, mlm_logits, _, _ = forward_batch(batch, params, CONFIG)
        assert mlm_logits.shape == (0, CONFIG.vocab_size)

    def test_logits_follow_the_requested_pairs(self, rng):
        params = init_params(CONFIG, rng)
        batch = stack_inputs([random_encoded(rng) for _ in range(3)])
        rows, cols = np.array([2, 0, 2, 1]), np.array([1, 3, 1, 0])
        _, mlm_logits, _, trace = forward_batch(batch, params, CONFIG, mlm_positions=(rows, cols))
        # [CLS] first, each requested column once, short rows padded with column 0
        read = trace.layers[-1].query_cols
        assert read.tolist() == [[0, 3], [0, 0], [0, 1]]
        slots = [read[row].tolist().index(col) for row, col in zip(rows, cols)]
        expected = trace.final_hidden[rows, slots] @ params["mlm_head.w"] + params["mlm_head.b"]
        assert mlm_logits.shape == (4, CONFIG.vocab_size)
        assert_close(mlm_logits, expected)
        assert_close(mlm_logits[0], mlm_logits[2])


class TestAgainstDenseReference:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 4))
    def test_adapt_loss_and_gradients_equal_dense(self, seed, size):
        masked, plans, nsp_labels, rng = masked_batch(seed, size)
        params = init_params(CONFIG, rng)
        loss, grads = _objective(_adaptation_block, masked, (plans, nsp_labels), params, CONFIG)
        dense_loss, dense_grads = dense_adaptation_reference(masked, plans, nsp_labels, params, CONFIG)
        assert_close(loss, dense_loss)
        assert grads.keys() == dense_grads.keys()
        for name in grads:
            assert_close(grads[name], dense_grads[name])

    def test_single_example_loss_equals_scalar_oracle(self, rng):
        masked, plans, nsp_labels, _ = masked_batch(int(rng.integers(2**32)), 1)
        params = init_params(CONFIG, rng)
        loss, _ = _objective(_adaptation_block, masked, (plans, nsp_labels), params, CONFIG)
        length = len(masked[0])
        every = (np.zeros(length, dtype=int), np.arange(length))
        _, logits, nsp_logits, _ = forward_batch(stack_inputs(masked), params, CONFIG, mlm_positions=every)
        expected = adaptation_loss(logits, plans[0], nsp_logits[0], int(nsp_labels[0]))
        assert_close(loss, expected)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 4))
    def test_finetune_leaves_vocabulary_head_untouched(self, seed, size):
        rng = np.random.default_rng(seed)
        params = init_params(CONFIG, rng)
        inputs = [random_encoded(rng) for _ in range(size)]
        labels = rng.integers(0, 2, size=size).astype(float)
        loss, grads = _objective(_matching_block, inputs, labels, params, CONFIG)
        assert np.all(grads["mlm_head.w"] == 0.0)
        assert np.all(grads["mlm_head.b"] == 0.0)
        match_logits, _, _, _ = forward_batch(stack_inputs(inputs), params, CONFIG)
        expected = np.mean([finetune_loss(expit(m), y) for m, y in zip(match_logits, labels)])
        assert abs(loss - expected) < 1e-9


def every_position_finetune(inputs, labels, params):
    """Match logits, finetune loss and gradients with every position requested (R = L)."""
    batch = stack_inputs(inputs)
    match_logits, mlm_logits, _, trace = forward_batch(batch, params, CONFIG, mlm_positions=every_position(batch))
    loss = np.mean(np.logaddexp(0.0, match_logits) - labels * match_logits)
    d_match = (expit(match_logits) - labels) / len(labels)
    grads = backward(trace, params, d_match, np.zeros((len(labels), 2)), np.zeros_like(mlm_logits))
    return match_logits, loss, grads


class TestReadRows:
    # Adaptation's read rows are held to the every-position path by
    # test_adapt_loss_and_gradients_equal_dense, whose reference requests every position.
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 5))
    def test_score_and_finetune_equal_every_position_path(self, seed, size):
        rng = np.random.default_rng(seed)
        inputs = [random_encoded(rng) for _ in range(size)]
        params = init_params(CONFIG, rng)
        labels = rng.integers(0, 2, size=size).astype(float)
        match_logits, every_loss, every_grads = every_position_finetune(inputs, labels, params)

        assert_close(score_batch(stack_inputs(inputs), params, CONFIG), expit(match_logits))
        loss, grads = _objective(_matching_block, inputs, labels, params, CONFIG)
        assert_close(loss, every_loss)
        assert grads.keys() == every_grads.keys()
        for name in grads:
            assert_close(grads[name], every_grads[name])

    def test_last_layer_keeps_attention_at_read_rows_only(self, rng):
        params = init_params(CONFIG, rng)
        masked, plans, _, _ = masked_batch(int(rng.integers(2**32)), 4)
        batch = stack_inputs(masked)
        b, l = batch.token_ids.shape
        heads = CONFIG.num_heads
        _, _, _, trace = forward_batch(batch, params, CONFIG)
        assert [attn.shape for attn in trace.attention_weights] == [(b, heads, l, l), (b, heads, 1, l)]
        assert trace.final_hidden.shape == (b, 1, CONFIG.hidden_dim)

        rows = np.repeat(np.arange(b), [len(plan) for plan in plans])
        cols = np.array([pos.index for plan in plans for pos in plan])
        _, _, _, trace = forward_batch(batch, params, CONFIG, mlm_positions=(rows, cols))
        reads = 1 + max(len(plan) for plan in plans)  # masked positions are never [CLS] and never repeat
        assert [attn.shape for attn in trace.attention_weights] == [(b, heads, l, l), (b, heads, reads, l)]
        assert trace.final_hidden.shape == (b, reads, CONFIG.hidden_dim)


def test_finetune_step_at_default_dimensions_stays_under_memory_bound():
    # One (2, 512, 30000) float64 array is 246 MB: the bound leaves no room
    # for dense vocabulary logits or their gradient next to the activations.
    model = json.loads((REPO / "configs" / "default.json").read_text())["model"]
    config = ModelConfig(vocab_size=30_000, **model)
    rng = np.random.default_rng(0)
    params = init_params(config, rng)
    inputs = [full_length_input(rng, config.max_seq_len, config.vocab_size) for _ in range(2)]
    tracemalloc.start()
    try:
        loss, grads = _objective(_matching_block, inputs, np.array([1.0, 0.0]), params, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss)
    assert np.all(grads["mlm_head.w"] == 0.0)
    assert peak < 450e6, "peak %.0f MB" % (peak / 1e6)

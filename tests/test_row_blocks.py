"""A training step runs in row blocks under ``model.BLOCK_BYTES`` and adds up their gradients.

A step that fits the budget is one block; a step split into several must
give the one-block loss within 1e-12 relative and every gradient within
1e-10 of the step's largest gradient entry.  Gradients are not compared
elementwise relative: the key biases' gradients are analytically zero, so
their values are rounding noise.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import replyrank.model
from replyrank import training
from replyrank.model import ModelConfig, NumericError, block_rows, init_params, stack_inputs, validate_params
from replyrank.training import (
    TrainConfig,
    _adaptation_block,
    _matching_block,
    _objective,
    apply_masking,
    plan_masking,
    train,
)
from helpers import VOCAB, full_length_input, random_encoded, tiny_model_config, topic_instances, topic_vocab

REPO = Path(__file__).resolve().parent.parent
ONE_BLOCK = 2**62


def shipped_model(name: str, vocab_size: int) -> ModelConfig:
    model = json.loads((REPO / "configs" / name).read_text())["model"]
    return ModelConfig(vocab_size=vocab_size, **model)


def masked_step(rng, size, max_len):
    inputs = [random_encoded(rng, max_len=max_len) for _ in range(size)]
    plans = [plan_masking(enc, VOCAB, training.MASK_FRACTION, rng) for enc in inputs]
    masked = [apply_masking(enc, plan) for enc, plan in zip(inputs, plans)]
    return inputs, masked, plans, rng.integers(0, 2, size=size)


def both_phases(inputs, labels, masked, plans, nsp_labels, params, config, block_bytes):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(replyrank.model, "BLOCK_BYTES", block_bytes)
        return (_objective(_matching_block, inputs, labels, params, config),
                _objective(_adaptation_block, masked, (plans, nsp_labels), params, config))


class TestBlockRows:
    def test_toy_dimensions(self):
        config = shipped_model("toy.json", len(VOCAB))
        assert block_rows(31, config) >= 25
        # 3 MiB // (8 * (4 * 128 * 128 + 128 * 128)) = 4
        assert block_rows(128, config) == 4

    def test_default_dimensions_at_full_width_take_one_row(self):
        config = shipped_model("default.json", len(VOCAB))
        assert block_rows(512, config) == 1

    def test_widest_input_sets_the_size(self, monkeypatch):
        config = shipped_model("toy.json", len(VOCAB))
        rng = np.random.default_rng(0)
        params = init_params(config, rng)
        inputs = [full_length_input(rng, 20, len(VOCAB))] * 24 + [full_length_input(rng, 128, len(VOCAB))]
        stacked = []

        def recording_stack_inputs(encoded):
            stacked.append(len(encoded))
            return stack_inputs(encoded)

        monkeypatch.setattr(training, "stack_inputs", recording_stack_inputs)
        _objective(_matching_block, inputs, np.ones(25), params, config, backprop=False)
        assert stacked == [4] * 6 + [1]


class TestBlocksMatchOneBlock:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(4, 7),
        block=st.integers(1, 3),
        layers=st.integers(1, 2),
        heads=st.sampled_from([1, 2, 4]),
        ffn_dim=st.integers(4, 24),
    )
    def test_losses_and_gradients(self, seed, size, block, layers, heads, ffn_dim):
        rng = np.random.default_rng(seed)
        config = ModelConfig(vocab_size=len(VOCAB), hidden_dim=8, num_layers=layers, num_heads=heads,
                             ffn_dim=ffn_dim, max_seq_len=32)
        params = init_params(config, rng)
        inputs, masked, plans, nsp_labels = masked_step(rng, size, max_len=32)
        labels = rng.integers(0, 2, size=size).astype(float)
        width = max(len(enc) for enc in inputs)
        per_row = 8 * (heads * width * width + ffn_dim * width)
        whole = both_phases(inputs, labels, masked, plans, nsp_labels, params, config, ONE_BLOCK)
        blocked = both_phases(inputs, labels, masked, plans, nsp_labels, params, config, block * per_row)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(replyrank.model, "BLOCK_BYTES", block * per_row)
            assert block_rows(width, config) < size
        for (loss, grads), (blocked_loss, blocked_grads) in zip(whole, blocked):
            assert abs(blocked_loss - loss) <= 1e-12 * abs(loss)
            scale = max(np.abs(g).max() for g in grads.values())
            for name in grads:
                assert np.abs(blocked_grads[name] - grads[name]).max() <= 1e-10 * scale, name

    def test_blocks_are_cut_in_length_order_and_as_wide_as_their_widest_row(self, monkeypatch):
        rng = np.random.default_rng(3)
        config = ModelConfig(vocab_size=len(VOCAB), hidden_dim=8, num_layers=1, num_heads=2, ffn_dim=8, max_seq_len=32)
        params = init_params(config, rng)
        inputs, masked, plans, nsp_labels = masked_step(rng, 9, max_len=32)
        labels = rng.integers(0, 2, size=9).astype(float)
        width = max(len(enc) for enc in inputs)
        monkeypatch.setattr(replyrank.model, "BLOCK_BYTES", 2 * 8 * (2 * width * width + 8 * width))  # 2-row blocks
        monkeypatch.setattr(replyrank.model, "_usable_cores", lambda: 1)  # every block stacked in this process
        stacked, scored = [], []

        def recording_stack_inputs(encoded):
            stacked.append(list(encoded))
            return stack_inputs(encoded)

        monkeypatch.setattr(training, "stack_inputs", recording_stack_inputs)
        for phase_inputs, block_loss, targets, columns in ((inputs, _matching_block, labels, lambda t: (t,)),
                                                           (masked, _adaptation_block, (plans, nsp_labels), tuple)):
            def recording_block(encoded, targets, rows, params, config, block_loss=block_loss, columns=columns):
                scored.extend(zip(encoded[rows], *(column[rows] for column in columns(targets))))
                return block_loss(encoded, targets, rows, params, config)

            stacked.clear()
            scored.clear()
            _objective(recording_block, phase_inputs, targets, params, config)
            in_length_order = sorted(phase_inputs, key=len)
            assert in_length_order != phase_inputs  # the batch is not already sorted
            assert [len(block) for block in stacked] == [2, 2, 2, 2, 1]
            assert [enc for block in stacked for enc in block] == in_length_order
            for block in stacked:
                assert stack_inputs(block).token_ids.shape[1] == max(len(enc) for enc in block)
            # each row is scored with its own targets: its label, or its plan and pair label
            assert scored == sorted(zip(phase_inputs, *columns(targets)), key=lambda row: len(row[0]))

    def test_a_one_block_step_stacks_its_rows_in_batch_order(self, monkeypatch):
        rng = np.random.default_rng(3)
        config = ModelConfig(vocab_size=len(VOCAB), hidden_dim=8, num_layers=1, num_heads=2, ffn_dim=8, max_seq_len=32)
        params = init_params(config, rng)
        inputs, masked, plans, nsp_labels = masked_step(rng, 9, max_len=32)
        assert sorted(inputs, key=len) != inputs
        monkeypatch.setattr(replyrank.model, "BLOCK_BYTES", ONE_BLOCK)
        stacked = []

        def recording_stack_inputs(encoded):
            stacked.append(list(encoded))
            return stack_inputs(encoded)

        monkeypatch.setattr(training, "stack_inputs", recording_stack_inputs)
        for phase_inputs, block_loss, targets in ((inputs, _matching_block, np.ones(9)),
                                                  (masked, _adaptation_block, (plans, nsp_labels))):
            stacked.clear()
            _objective(block_loss, phase_inputs, targets, params, config)
            assert stacked == [phase_inputs]

    def test_rows_of_equal_length_keep_batch_order(self, monkeypatch):
        rng = np.random.default_rng(4)
        config = ModelConfig(vocab_size=len(VOCAB), hidden_dim=8, num_layers=1, num_heads=2, ffn_dim=8, max_seq_len=32)
        params = init_params(config, rng)
        inputs = [full_length_input(rng, 20, len(VOCAB)) for _ in range(7)]
        monkeypatch.setattr(replyrank.model, "BLOCK_BYTES", 2 * 8 * (2 * 20 * 20 + 8 * 20))  # 2-row blocks
        monkeypatch.setattr(replyrank.model, "_usable_cores", lambda: 1)
        stacked = []

        def recording_stack_inputs(encoded):
            stacked.append(list(encoded))
            return stack_inputs(encoded)

        monkeypatch.setattr(training, "stack_inputs", recording_stack_inputs)
        _objective(_matching_block, inputs, np.ones(7), params, config)
        assert [len(block) for block in stacked] == [2, 2, 2, 1]
        assert [enc for block in stacked for enc in block] == inputs


class TestSlotCounts:
    def test_hand_counted_batch(self, monkeypatch):
        config = ModelConfig(vocab_size=len(VOCAB), hidden_dim=8, num_layers=1, num_heads=2, ffn_dim=8, max_seq_len=32)
        rng = np.random.default_rng(0)
        inputs = [full_length_input(rng, length, len(VOCAB)) for length in (5, 9, 6, 9, 3)]
        monkeypatch.setattr(replyrank.model, "BLOCK_BYTES", 2 * 8 * (2 * 9 * 9 + 8 * 9))  # 2-row blocks
        # blocks [3, 5], [6, 9], [9]: 2 * 5 + 2 * 9 + 1 * 9 = 37 slots for 32 positions
        assert training._slot_counts(inputs, config) == (32, 5)
        monkeypatch.setattr(replyrank.model, "BLOCK_BYTES", ONE_BLOCK)
        # one block in batch order, 9 wide: 5 * 9 = 45 slots
        assert training._slot_counts(inputs, config) == (32, 13)


class TestParameterCheck:
    def test_once_per_multi_block_step(self, monkeypatch):
        rng = np.random.default_rng(3)
        config = ModelConfig(vocab_size=len(VOCAB), hidden_dim=8, num_layers=1, num_heads=2, ffn_dim=8, max_seq_len=32)
        params = init_params(config, rng)
        inputs, masked, plans, nsp_labels = masked_step(rng, 9, max_len=32)
        width = max(len(enc) for enc in inputs)
        monkeypatch.setattr(replyrank.model, "BLOCK_BYTES", 2 * 8 * (2 * width * width + 8 * width))  # 2-row blocks
        assert block_rows(width, config) == 2
        checked = []

        def counting_validate_params(config, params):
            checked.append(config)
            validate_params(config, params)

        for module in (training, replyrank.model):  # the step's own check, and any inside the model's forward or backward
            monkeypatch.setattr(module, "validate_params", counting_validate_params)
        for phase_inputs, block_loss, targets in ((inputs, _matching_block, np.ones(9)),
                                                  (masked, _adaptation_block, (plans, nsp_labels))):
            checked.clear()
            _objective(block_loss, phase_inputs, targets, params, config)
            assert checked == [config]

    def test_finetune_step_rejects_a_tensor_its_forward_never_reads(self, monkeypatch):
        vocab = topic_vocab()
        config = tiny_model_config(vocab_size=len(vocab), max_seq_len=32)
        params = init_params(config, np.random.default_rng(0))
        params["mlm_head.w"][0, 0] = np.nan
        updates = []
        monkeypatch.setattr(training, "adamw_step", lambda *args, **kwargs: updates.append(args))
        instances = topic_instances(np.random.default_rng(1), 8)
        with pytest.raises(NumericError, match="^parameter mlm_head.w contains non-finite values$"):
            train("finetune", instances, params, config, TrainConfig(batch_size=4, max_epochs=1), vocab)
        assert updates == []


def test_adapt_step_memory_at_default_dimensions_does_not_grow_with_batch():
    config = shipped_model("default.json", 30_000)
    rng = np.random.default_rng(0)
    params = init_params(config, rng)
    peaks = []
    for size in (2, 6):
        inputs = [full_length_input(rng, config.max_seq_len, config.vocab_size) for _ in range(size)]
        plans = [plan_masking(enc, VOCAB, training.MASK_FRACTION, rng) for enc in inputs]
        masked = [apply_masking(enc, plan) for enc, plan in zip(inputs, plans)]
        tracemalloc.start()
        try:
            loss, _ = _objective(_adaptation_block, masked, (plans, rng.integers(0, 2, size=size)), params, config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss)
    # One 512-position row's activations take about 125 MB, and the 30,000-entry
    # vocabulary's gradients, logits and temporaries about 155 MB more; without
    # row blocks the peak grew by about 190 MB a row (385 MB at batch 2).
    assert peaks[1] <= 1.1 * peaks[0], peaks
    assert max(peaks) < 300e6, peaks

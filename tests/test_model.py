from dataclasses import replace

import numpy as np
import pytest

from replyrank.encoding import EncodedInput
from replyrank.model import (
    ModelConfig,
    _gelu,
    _gelu_grad,
    NumericError,
    backward,
    forward_batch,
    init_params,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
    score_batch,
    stack_inputs,
    validate_params,
)
from replyrank.tokenizer import CLS, SEP
from helpers import (
    combined_loss,
    combined_loss_grads,
    finite_difference_grads,
    gradcheck_setup,
    max_relative_error,
    random_encoded,
    reference_attention,
    reference_gelu,
    reference_gelu_grad,
    tiny_model_config,
    widen,
)


def embed(enc, params, config):
    """Per-position embedding sum of one input, as the forward pass records it."""
    return forward_batch(stack_inputs([enc]), params, config)[3].embeddings[0]


def forward(enc, params, config, mlm_positions=()):
    """Head outputs for one input; vocabulary logits at ``mlm_positions`` only."""
    positions = (np.zeros(len(mlm_positions), dtype=int), np.asarray(mlm_positions, dtype=int))
    match, mlm, nsp, trace = forward_batch(stack_inputs([enc]), params, config, mlm_positions=positions)
    return match[0], mlm, nsp[0], trace


def score(enc, params, config):
    return float(score_batch(stack_inputs([enc]), params, config)[0])


def simple_input(content=(7, 8, 9, 10), speakers=(1, 1, 2, 2)):
    tokens = [CLS, *content[:2], SEP, *content[2:], SEP]
    spk = [0, *speakers[:2], 0, *speakers[2:], 0]
    seg = [0, 0, 0, 0] + [1] * (len(content) - 1)
    return EncodedInput(token_ids=tuple(tokens), segment_ids=tuple(seg), speaker_ids=tuple(spk))


class TestEmbed:
    def test_zero_tables_zero_output(self):
        config = tiny_model_config(vocab_size=16, max_seq_len=12)
        params = init_params(config, np.random.default_rng(7))
        for name in ("token_table", "segment_table", "position_table", "speaker_table"):
            params[name][:] = 0.0
        out = embed(simple_input(), params, config)
        assert np.all(out == 0.0)

    def test_reserved_speaker_row(self):
        config = tiny_model_config(vocab_size=16, max_seq_len=12)
        params = init_params(config, np.random.default_rng(7))
        enc = simple_input()
        baseline = embed(enc, params, config)
        # position 0 is [CLS] with speaker 0; the zero row contributes nothing
        expected = (
            params["token_table"][CLS]
            + params["segment_table"][0]
            + params["position_table"][0]
        )
        assert np.allclose(baseline[0], expected)

    def test_hand_computed_sum(self):
        config = ModelConfig(vocab_size=8, hidden_dim=4, num_layers=1, num_heads=1,
                             ffn_dim=4, max_seq_len=8)
        params = init_params(config, np.random.default_rng(0))
        for name in ("token_table", "segment_table", "position_table", "speaker_table"):
            params[name][:] = 0.0
        params["token_table"][7] = [1, 0, 0, 0]
        params["segment_table"][0] = [0, 2, 0, 0]
        params["position_table"][1] = [0, 0, 3, 0]
        params["speaker_table"][1] = [0, 0, 0, 4]
        enc = EncodedInput(
            token_ids=(CLS, 7, SEP, 7, SEP),
            segment_ids=(0, 0, 0, 1, 1),
            speaker_ids=(0, 1, 0, 1, 0),
        )
        out = embed(enc, params, config)
        assert np.allclose(out[1], [1, 2, 3, 4])

    def test_out_of_range_names_track(self):
        config = tiny_model_config(vocab_size=16, max_seq_len=12)
        params = init_params(config, np.random.default_rng(7))
        enc = simple_input(content=(7, 8, 9, 15))
        bad = replace(enc, token_ids=tuple(99 if t == 15 else t for t in enc.token_ids))
        with pytest.raises(ValueError, match="token_ids"):
            embed(bad, params, config)

    def test_batch_wider_than_max_seq_len_rejected(self):
        config = tiny_model_config(vocab_size=16, max_seq_len=8)
        params = init_params(config, np.random.default_rng(7))
        enc = simple_input()  # 7 positions
        embed(enc, params, config)
        with pytest.raises(ValueError, match="batch width 9 exceeds max_seq_len 8"):
            forward_batch(widen(stack_inputs([enc]), 9), params, config)
        with pytest.raises(ValueError, match="batch width 9 exceeds max_seq_len 8"):
            embed(simple_input(content=(7, 8, 9, 10, 11, 12), speakers=(1, 1, 2, 2, 2, 2)), params, config)


class TestForward:
    def test_deterministic(self):
        config = tiny_model_config(vocab_size=16, max_seq_len=12)
        params = init_params(config, np.random.default_rng(7))
        enc = simple_input()
        live = list(range(len(enc)))
        a = forward(enc, params, config, live)
        b = forward(enc, params, config, live)
        assert a[1].shape == (len(live), config.vocab_size)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[2], b[2])

    def test_padding_invariance_bitwise(self, rng):
        config = tiny_model_config(vocab_size=16, max_seq_len=16)
        params = init_params(config, np.random.default_rng(7))
        batch = widen(stack_inputs([simple_input()]), 16)
        pad_slots = batch.attention_mask == 0
        tampered = replace(batch, token_ids=batch.token_ids.copy())
        tampered.token_ids[pad_slots] = rng.integers(0, config.vocab_size, size=int(pad_slots.sum()))
        live = np.nonzero(batch.attention_mask)
        m1, mlm1, nsp1, _ = forward_batch(batch, params, config, mlm_positions=live)
        m2, mlm2, nsp2, _ = forward_batch(tampered, params, config, mlm_positions=live)
        assert m1[0] == m2[0]
        assert np.array_equal(nsp1, nsp2)
        assert np.array_equal(mlm1, mlm2)

    def test_attention_rows_sum_to_one(self, rng):
        config = tiny_model_config(vocab_size=32, max_seq_len=32)
        params = init_params(config, np.random.default_rng(7))
        batch = stack_inputs([random_encoded(rng, max_len=32) for _ in range(4)])
        _, _, _, trace = forward_batch(batch, params, config)
        for attn in trace.attention_weights:
            sums = attn.sum(axis=-1)
            assert np.all(np.abs(sums - 1.0) < 1e-6)
            # masked keys carry exactly zero weight
            key_mask = batch.attention_mask[:, None, None, :]
            assert np.all(attn * (1 - key_mask) == 0.0)

    def test_attention_equals_reference_softmax_bitwise(self, rng):
        config = tiny_model_config(vocab_size=32, max_seq_len=32)
        params = init_params(config, np.random.default_rng(7))
        batch = widen(stack_inputs([random_encoded(rng, max_len=32) for _ in range(5)]), 32)
        _, _, _, trace = forward_batch(batch, params, config)
        scale = 1.0 / np.sqrt(config.hidden_dim // config.num_heads)
        for attn, layer in zip(trace.attention_weights, trace.layers):
            assert np.array_equal(attn, reference_attention(layer.q, layer.k, batch.attention_mask, scale))

    def test_zero_match_head_gives_zero_logit(self, rng):
        config = tiny_model_config(vocab_size=32, max_seq_len=32)
        params = init_params(config, np.random.default_rng(7))
        params["match_head.w"][:] = 0.0
        params["match_head.b"][:] = 0.0
        for _ in range(5):
            enc = random_encoded(rng, max_len=32)
            match_logit, _, _, _ = forward(enc, params, config)
            assert match_logit == 0.0

    def test_nonfinite_raises_with_layer_index(self):
        config = tiny_model_config(vocab_size=16, max_seq_len=12)
        params = init_params(config, np.random.default_rng(7))
        params["layer1.ffn.w2"][:] = 1e308
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="layer 1"):
            forward(simple_input(), params, config)


class TestGelu:
    def test_activation_and_gradient_equal_reference_bitwise(self, rng):
        x = np.concatenate([rng.normal(0.0, 3.0, size=20_000), [-40.0, -8.0, -1e-3, 0.0, 1e-3, 8.0, 40.0]])
        activation, cdf = _gelu(x)
        assert np.array_equal(activation, reference_gelu(x))
        assert np.array_equal(_gelu_grad(x, cdf), reference_gelu_grad(x))


class TestScore:
    def test_sigmoid_of_zero(self):
        config = tiny_model_config(vocab_size=16, max_seq_len=12)
        params = init_params(config, np.random.default_rng(7))
        params["match_head.w"][:] = 0.0
        params["match_head.b"][:] = 0.0
        assert score(simple_input(), params, config) == 0.5

    def test_large_logit_saturates_monotonically(self):
        config = tiny_model_config(vocab_size=16, max_seq_len=12)
        params = init_params(config, np.random.default_rng(7))
        values = []
        for bias in (0.0, 2.0, 8.0, 30.0):
            params["match_head.b"][:] = bias
            values.append(score(simple_input(), params, config))
        assert values == sorted(values)
        assert values[-1] > 0.999999
        assert all(0.0 < v < 1.0 for v in values)

    def test_speaker_ids_change_score(self):
        config = tiny_model_config(vocab_size=16, max_seq_len=12)
        params = init_params(config, np.random.default_rng(3))
        a = simple_input(speakers=(1, 1, 2, 2))
        b = simple_input(speakers=(2, 2, 1, 1))
        assert score(a, params, config) != score(b, params, config)

    def test_speaker_ablation_identity(self):
        config = tiny_model_config(vocab_size=16, max_seq_len=12)
        params = init_params(config, np.random.default_rng(3))
        params["speaker_table"][:] = 0.0
        a = simple_input(speakers=(1, 1, 2, 2))
        b = simple_input(speakers=(2, 2, 1, 1))
        la, _, _, _ = forward(a, params, config)
        lb, _, _, _ = forward(b, params, config)
        assert la == lb  # bitwise


class TestBackward:
    def test_zero_head_gradients_give_zero_param_gradients(self, rng):
        config = tiny_model_config(vocab_size=16, max_seq_len=12)
        params = init_params(config, np.random.default_rng(7))
        _, mlm, _, trace = forward(simple_input(), params, config, mlm_positions=[1, 2, 4])
        grads = backward(trace, params, np.zeros(1), np.zeros((1, 2)), np.zeros_like(mlm))
        for name, grad in grads.items():
            assert np.all(grad == 0.0), name

    def test_gradients_match_finite_differences_small(self, rng):
        config = ModelConfig(vocab_size=12, hidden_dim=8, num_layers=1, num_heads=2,
                             ffn_dim=12, max_seq_len=10)
        params = init_params(config, np.random.default_rng(5))
        # at init scale attention is near uniform and the last layer's query-input
        # gradient falls under the check's floor; larger scores make it count
        for name in ("token_table", "segment_table", "position_table", "speaker_table",
                     "layer0.attn.wq", "layer0.attn.wk"):
            params[name] *= 25.0
        batch, mlm_targets, match_labels, nsp_labels = gradcheck_setup(config, np.random.default_rng(11), batch_size=1)
        analytic = combined_loss_grads(params, batch, config, mlm_targets, match_labels, nsp_labels)

        def loss_fn(p):
            return combined_loss(p, batch, config, mlm_targets, match_labels, nsp_labels)

        numeric = finite_difference_grads(loss_fn, params, eps=1e-4)
        for name in params:
            err = max_relative_error(analytic[name], numeric[name])
            assert err < 1e-4, "%s: %g" % (name, err)

    def test_incomplete_trace_rejected(self):
        config = tiny_model_config(vocab_size=16, max_seq_len=12)
        params = init_params(config, np.random.default_rng(7))
        batch = stack_inputs([simple_input()])
        _, mlm, _, trace = forward_batch(batch, params, config)
        trace.final_hidden = None
        with pytest.raises(ValueError):
            backward(trace, params, np.zeros(1), np.zeros((1, 2)), np.zeros_like(mlm))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config = tiny_model_config(vocab_size=16, max_seq_len=12)
        params = init_params(config, np.random.default_rng(7))
        path = tmp_path / "model.npz"
        save_checkpoint(path, config, params)
        loaded_config, loaded_params = load_checkpoint(path)
        assert loaded_config == config
        for name, tensor in params.items():
            assert np.array_equal(loaded_params[name], tensor)

    def test_shape_validation(self):
        config = tiny_model_config(vocab_size=16, max_seq_len=12)
        params = init_params(config, np.random.default_rng(7))
        params["match_head.w"] = np.zeros((3, 3))
        with pytest.raises(ValueError, match="match_head.w"):
            validate_params(config, params)

    def test_missing_key_detected(self):
        config = tiny_model_config(vocab_size=16, max_seq_len=12)
        params = init_params(config, np.random.default_rng(7))
        del params["nsp_head.b"]
        with pytest.raises(ValueError, match="nsp_head.b"):
            validate_params(config, params)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=16, hidden_dim=10, num_heads=3)

    def test_dimensions_must_be_positive_integers(self):
        for bad in (dict(num_heads=0), dict(hidden_dim=-4), dict(num_layers=1.5), dict(ffn_dim="64")):
            with pytest.raises(ValueError, match="positive integers"):
                ModelConfig(vocab_size=16, **bad)

    def test_init_is_seeded(self):
        config = tiny_model_config(vocab_size=16)
        a = init_params(config, np.random.default_rng(9))
        b = init_params(config, np.random.default_rng(9))
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_param_shapes_cover_all_tensors(self):
        config = tiny_model_config(vocab_size=16)
        shapes = param_shapes(config)
        assert "layer0.attn.wq" in shapes and "layer1.ln_ffn.gain" in shapes
        assert shapes["mlm_head.w"] == (config.hidden_dim, config.vocab_size)

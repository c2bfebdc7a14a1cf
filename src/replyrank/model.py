"""A small transformer encoder over four summed embedding tracks, in numpy.

The encoder follows the original post-layernorm convention (residual, then
layernorm, GELU feed-forward) and carries three output heads: per-position
vocabulary logits, a two-way next-utterance head and a scalar matching head,
the latter two read from the final [CLS] position.  Forward retains a trace
so ``backward`` can produce exact analytic gradients for every parameter
tensor; everything runs in double precision for reproducibility.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import erf, expit

from .encoding import EncodedInput
from .tokenizer import PAD

LN_EPS = 1e-6
INIT_STD = 0.02
CHECKPOINT_FORMAT = 1


class NumericError(Exception):
    """Non-finite values encountered inside the network."""


class CheckpointError(ValueError):
    """A checkpoint file that is not a readable replyrank .npz archive."""


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    hidden_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 128
    max_seq_len: int = 128
    num_speaker_roles: int = 3
    dropout_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                "hidden_dim %d not divisible by num_heads %d" % (self.hidden_dim, self.num_heads)
            )
        if self.num_speaker_roles < 3:
            raise ValueError("num_speaker_roles must be >= 3 (reserved id plus two roles)")
        if self.max_seq_len < 8:
            raise ValueError("max_seq_len must be >= 8")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "hidden_dim": self.hidden_dim,
            "num_layers": self.num_layers,
            "num_heads": self.num_heads,
            "ffn_dim": self.ffn_dim,
            "max_seq_len": self.max_seq_len,
            "num_speaker_roles": self.num_speaker_roles,
            "dropout_rate": self.dropout_rate,
            "seed": self.seed,
        }


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every learnable tensor, in a fixed order."""
    h, f, v = config.hidden_dim, config.ffn_dim, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {
        "token_table": (v, h),
        "segment_table": (2, h),
        "position_table": (config.max_seq_len, h),
        "speaker_table": (config.num_speaker_roles, h),
    }
    for i in range(config.num_layers):
        prefix = "layer%d." % i
        for name in ("wq", "wk", "wv", "wo"):
            shapes[prefix + "attn." + name] = (h, h)
            shapes[prefix + "attn.b" + name[1]] = (h,)
        shapes[prefix + "ln_attn.gain"] = (h,)
        shapes[prefix + "ln_attn.bias"] = (h,)
        shapes[prefix + "ffn.w1"] = (h, f)
        shapes[prefix + "ffn.b1"] = (f,)
        shapes[prefix + "ffn.w2"] = (f, h)
        shapes[prefix + "ffn.b2"] = (h,)
        shapes[prefix + "ln_ffn.gain"] = (h,)
        shapes[prefix + "ln_ffn.bias"] = (h,)
    shapes["mlm_head.w"] = (h, v)
    shapes["mlm_head.b"] = (v,)
    shapes["nsp_head.w"] = (h, 2)
    shapes["nsp_head.b"] = (2,)
    shapes["match_head.w"] = (h, 1)
    shapes["match_head.b"] = (1,)
    return shapes


def init_params(config: ModelConfig, rng: np.random.Generator | None = None) -> dict[str, np.ndarray]:
    """Normal(0, 0.02) weights, zero biases, unit layernorm gains.

    Speaker row 0 starts at zero: it is the neutral embedding for structural
    tokens and padding.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".gain"):
            params[name] = np.ones(shape)
        elif len(shape) == 1:
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(0.0, INIT_STD, size=shape)
    params["speaker_table"][0] = 0.0
    return params


def validate_params(config: ModelConfig, params: dict[str, np.ndarray]) -> None:
    shapes = param_shapes(config)
    missing = set(shapes) - set(params)
    extra = set(params) - set(shapes)
    if missing or extra:
        raise ValueError("parameter keys mismatch: missing %s, extra %s" % (sorted(missing), sorted(extra)))
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise ValueError("parameter %s has shape %s, expected %s" % (name, params[name].shape, shape))
        if not np.isfinite(params[name]).all():
            raise NumericError("parameter %s contains non-finite values" % name)


def zero_speaker_table(params: dict[str, np.ndarray]) -> None:
    """Ablation support: remove all speaker information from the model."""
    params["speaker_table"][:] = 0.0


# --- batching ---------------------------------------------------------------


@dataclass(frozen=True)
class Batch:
    token_ids: np.ndarray
    segment_ids: np.ndarray
    position_ids: np.ndarray
    speaker_ids: np.ndarray
    attention_mask: np.ndarray

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]


_TRACKS = ("token_ids", "segment_ids", "position_ids", "speaker_ids", "attention_mask")


def stack_inputs(inputs: Sequence[EncodedInput]) -> Batch:
    """Stack inputs into one batch as wide as its longest member.

    This is where padding happens: slots past an input's end get token PAD,
    segment 0, speaker 0 and mask 0, while position ids stay absolute
    (``0..width-1`` along every row).
    """
    if not inputs:
        raise ValueError("cannot stack an empty list of inputs")
    width = max(len(enc) for enc in inputs)
    tracks = {name: np.zeros((len(inputs), width), dtype=np.int64) for name in _TRACKS}
    tracks["token_ids"][:] = PAD
    tracks["position_ids"][:] = np.arange(width)
    for row, enc in enumerate(inputs):
        for name, array in tracks.items():
            array[row, : len(enc)] = getattr(enc, name)
    return Batch(**tracks)


def _check_ids(batch: Batch, config: ModelConfig) -> None:
    tracks = (
        ("token_ids", batch.token_ids, config.vocab_size),
        ("segment_ids", batch.segment_ids, 2),
        ("position_ids", batch.position_ids, config.max_seq_len),
        ("speaker_ids", batch.speaker_ids, config.num_speaker_roles),
    )
    for name, ids, limit in tracks:
        bad = (ids < 0) | (ids >= limit)
        if bad.any():
            b, l = np.argwhere(bad)[0]
            raise ValueError(
                "%s[%d][%d] = %d out of range [0, %d)" % (name, b, l, ids[b, l], limit)
            )


# --- forward ----------------------------------------------------------------


@dataclass
class LayerTrace:
    x_in: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    attn: np.ndarray
    merged: np.ndarray
    attn_drop: np.ndarray | None
    ln_attn_xhat: np.ndarray
    ln_attn_inv_std: np.ndarray
    x_mid: np.ndarray
    z1: np.ndarray
    hidden_act: np.ndarray
    ffn_drop: np.ndarray | None
    ln_ffn_xhat: np.ndarray
    ln_ffn_inv_std: np.ndarray


@dataclass
class ForwardTrace:
    """Intermediate activations retained for the backward pass and inspection."""

    config: ModelConfig
    batch: Batch
    embeddings: np.ndarray
    layers: list[LayerTrace] = field(default_factory=list)
    final_hidden: np.ndarray | None = None

    @property
    def attention_weights(self) -> list[np.ndarray]:
        return [layer.attn for layer in self.layers]


def embed_batch(batch: Batch, params: dict[str, np.ndarray], config: ModelConfig) -> np.ndarray:
    _check_ids(batch, config)
    return (
        params["token_table"][batch.token_ids]
        + params["segment_table"][batch.segment_ids]
        + params["position_table"][batch.position_ids]
        + params["speaker_table"][batch.speaker_ids]
    )


def embed(enc: EncodedInput, params: dict[str, np.ndarray], config: ModelConfig) -> np.ndarray:
    """Per-position sum of the token, segment, position and speaker tables."""
    return embed_batch(stack_inputs([enc]), params, config)[0]


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv_std
    return gain * xhat + bias, xhat, inv_std


def _layer_norm_backward(dy: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, gain: np.ndarray):
    dgain = (dy * xhat).sum(axis=(0, 1))
    dbias = dy.sum(axis=(0, 1))
    dxhat = dy * gain
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dgain, dbias


_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    return cdf + x * np.exp(-0.5 * x * x) / _SQRT_2PI


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    b, l, h = x.shape
    return x.reshape(b, l, num_heads, h // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, nh, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, nh * dh)


def forward_batch(
    batch: Batch,
    params: dict[str, np.ndarray],
    config: ModelConfig,
    rng: np.random.Generator | None = None,
):
    """Run the encoder on a batch; returns head outputs plus the trace.

    The batch is as wide as ``stack_inputs`` made it.  Padded key positions
    receive -inf attention scores, so no activation at an unmasked position
    depends on padding content or on how many padding columns there are.
    Dropout (when enabled) applies to the two sublayer outputs before their
    residual adds and requires an rng; ``score_batch`` runs without it.
    """
    if config.dropout_rate > 0.0 and rng is None:
        raise ValueError("dropout_rate > 0 requires an rng")
    x = embed_batch(batch, params, config)
    if not np.isfinite(x).all():
        raise NumericError("non-finite values in the embedding sum")
    trace = ForwardTrace(config=config, batch=batch, embeddings=x)

    key_mask = batch.attention_mask[:, None, None, :].astype(bool)
    scale = 1.0 / np.sqrt(config.hidden_dim // config.num_heads)
    for i in range(config.num_layers):
        prefix = "layer%d." % i
        q = _split_heads(x @ params[prefix + "attn.wq"] + params[prefix + "attn.bq"], config.num_heads)
        k = _split_heads(x @ params[prefix + "attn.wk"] + params[prefix + "attn.bk"], config.num_heads)
        v = _split_heads(x @ params[prefix + "attn.wv"] + params[prefix + "attn.bv"], config.num_heads)
        scores = (q @ k.swapaxes(-1, -2)) * scale
        scores = np.where(key_mask, scores, -np.inf)
        scores -= scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores)
        attn = weights / weights.sum(axis=-1, keepdims=True)
        merged = _merge_heads(attn @ v)
        attn_out = merged @ params[prefix + "attn.wo"] + params[prefix + "attn.bo"]
        attn_out, attn_drop = _dropout(attn_out, config.dropout_rate, rng)
        x_mid, xhat1, inv_std1 = _layer_norm(
            x + attn_out, params[prefix + "ln_attn.gain"], params[prefix + "ln_attn.bias"]
        )
        z1 = x_mid @ params[prefix + "ffn.w1"] + params[prefix + "ffn.b1"]
        hidden_act = _gelu(z1)
        ffn_out = hidden_act @ params[prefix + "ffn.w2"] + params[prefix + "ffn.b2"]
        ffn_out, ffn_drop = _dropout(ffn_out, config.dropout_rate, rng)
        x_out, xhat2, inv_std2 = _layer_norm(
            x_mid + ffn_out, params[prefix + "ln_ffn.gain"], params[prefix + "ln_ffn.bias"]
        )
        if not np.isfinite(x_out).all():
            raise NumericError("non-finite activations after encoder layer %d" % i)
        trace.layers.append(
            LayerTrace(
                x_in=x, q=q, k=k, v=v, attn=attn, merged=merged, attn_drop=attn_drop,
                ln_attn_xhat=xhat1, ln_attn_inv_std=inv_std1, x_mid=x_mid,
                z1=z1, hidden_act=hidden_act, ffn_drop=ffn_drop,
                ln_ffn_xhat=xhat2, ln_ffn_inv_std=inv_std2,
            )
        )
        x = x_out

    trace.final_hidden = x
    mlm_logits = x @ params["mlm_head.w"] + params["mlm_head.b"]
    cls = x[:, 0, :]
    nsp_logits = cls @ params["nsp_head.w"] + params["nsp_head.b"]
    match_logits = (cls @ params["match_head.w"])[:, 0] + params["match_head.b"][0]
    return match_logits, mlm_logits, nsp_logits, trace


def _dropout(x: np.ndarray, rate: float, rng: np.random.Generator | None):
    if rate <= 0.0:
        return x, None
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask


def forward(enc: EncodedInput, params: dict[str, np.ndarray], config: ModelConfig):
    """Single-example forward: (match logit, per-position logits, pair logits, trace)."""
    match_logits, mlm_logits, nsp_logits, trace = forward_batch(stack_inputs([enc]), params, config)
    return match_logits[0], mlm_logits[0], nsp_logits[0], trace


def score(enc: EncodedInput, params: dict[str, np.ndarray], config: ModelConfig) -> float:
    """Matching probability sigmoid(match logit) for one context-response pair."""
    match_logit, _, _, _ = forward(enc, params, config)
    return float(expit(match_logit))


def score_batch(batch: Batch, params: dict[str, np.ndarray], config: ModelConfig) -> np.ndarray:
    """Matching probabilities for a batch, with dropout off (inference)."""
    match_logits, _, _, _ = forward_batch(batch, params, replace(config, dropout_rate=0.0))
    return expit(match_logits)


# --- backward ---------------------------------------------------------------


def backward(
    trace: ForwardTrace,
    params: dict[str, np.ndarray],
    d_match: np.ndarray,
    d_nsp: np.ndarray,
    d_mlm: np.ndarray,
) -> dict[str, np.ndarray]:
    """Exact gradients for every parameter given loss gradients at the heads.

    ``d_match`` is (B,), ``d_nsp`` (B, 2) and ``d_mlm`` (B, L, vocab); any of
    them may be zero arrays when a head does not participate in the loss.
    """
    config = trace.config
    validate_params(config, params)
    if trace.final_hidden is None:
        raise ValueError("trace does not contain a completed forward pass")
    final = trace.final_hidden
    b, l, h = final.shape
    d_match = np.asarray(d_match, dtype=float).reshape(b)
    d_nsp = np.asarray(d_nsp, dtype=float).reshape(b, 2)
    d_mlm = np.asarray(d_mlm, dtype=float).reshape(b, l, config.vocab_size)

    grads = {name: np.zeros_like(tensor) for name, tensor in params.items()}

    flat_final = final.reshape(-1, h)
    grads["mlm_head.w"] += flat_final.T @ d_mlm.reshape(-1, config.vocab_size)
    grads["mlm_head.b"] += d_mlm.sum(axis=(0, 1))
    dx = d_mlm @ params["mlm_head.w"].T

    cls = final[:, 0, :]
    grads["nsp_head.w"] += cls.T @ d_nsp
    grads["nsp_head.b"] += d_nsp.sum(axis=0)
    grads["match_head.w"] += (cls * d_match[:, None]).sum(axis=0)[:, None]
    grads["match_head.b"] += d_match.sum(keepdims=True)
    dx[:, 0, :] += d_nsp @ params["nsp_head.w"].T + d_match[:, None] * params["match_head.w"][:, 0]

    scale = 1.0 / np.sqrt(config.hidden_dim // config.num_heads)
    for i in reversed(range(config.num_layers)):
        prefix = "layer%d." % i
        lt = trace.layers[i]

        dsum2, dgain2, dbias2 = _layer_norm_backward(
            dx, lt.ln_ffn_xhat, lt.ln_ffn_inv_std, params[prefix + "ln_ffn.gain"]
        )
        grads[prefix + "ln_ffn.gain"] += dgain2
        grads[prefix + "ln_ffn.bias"] += dbias2
        dffn_out = dsum2 if lt.ffn_drop is None else dsum2 * lt.ffn_drop
        grads[prefix + "ffn.w2"] += lt.hidden_act.reshape(-1, config.ffn_dim).T @ dffn_out.reshape(-1, h)
        grads[prefix + "ffn.b2"] += dffn_out.sum(axis=(0, 1))
        dz1 = (dffn_out @ params[prefix + "ffn.w2"].T) * _gelu_grad(lt.z1)
        grads[prefix + "ffn.w1"] += lt.x_mid.reshape(-1, h).T @ dz1.reshape(-1, config.ffn_dim)
        grads[prefix + "ffn.b1"] += dz1.sum(axis=(0, 1))
        dx_mid = dsum2 + dz1 @ params[prefix + "ffn.w1"].T

        dsum1, dgain1, dbias1 = _layer_norm_backward(
            dx_mid, lt.ln_attn_xhat, lt.ln_attn_inv_std, params[prefix + "ln_attn.gain"]
        )
        grads[prefix + "ln_attn.gain"] += dgain1
        grads[prefix + "ln_attn.bias"] += dbias1
        dattn_out = dsum1 if lt.attn_drop is None else dsum1 * lt.attn_drop
        grads[prefix + "attn.wo"] += lt.merged.reshape(-1, h).T @ dattn_out.reshape(-1, h)
        grads[prefix + "attn.bo"] += dattn_out.sum(axis=(0, 1))
        dmerged = dattn_out @ params[prefix + "attn.wo"].T
        dctx = _split_heads(dmerged, config.num_heads)

        dattn = dctx @ lt.v.swapaxes(-1, -2)
        dv = lt.attn.swapaxes(-1, -2) @ dctx
        # softmax backward; masked keys carry attn == 0, so their scores get 0
        dscores = lt.attn * (dattn - (dattn * lt.attn).sum(axis=-1, keepdims=True))
        dq = (dscores @ lt.k) * scale
        dk = (dscores.swapaxes(-1, -2) @ lt.q) * scale

        dx = dsum1
        x_flat = lt.x_in.reshape(-1, h)
        for name, dhead in (("q", dq), ("k", dk), ("v", dv)):
            dmat = _merge_heads(dhead)
            grads[prefix + "attn.w" + name] += x_flat.T @ dmat.reshape(-1, h)
            grads[prefix + "attn.b" + name] += dmat.sum(axis=(0, 1))
            dx = dx + dmat @ params[prefix + "attn.w" + name].T

    batch = trace.batch
    flat_dx = dx.reshape(-1, h)
    np.add.at(grads["token_table"], batch.token_ids.ravel(), flat_dx)
    np.add.at(grads["segment_table"], batch.segment_ids.ravel(), flat_dx)
    np.add.at(grads["position_table"], batch.position_ids.ravel(), flat_dx)
    np.add.at(grads["speaker_table"], batch.speaker_ids.ravel(), flat_dx)
    return grads


# --- checkpoints ------------------------------------------------------------


def save_checkpoint(path: str | Path, config: ModelConfig, params: dict[str, np.ndarray]) -> None:
    """Write a self-describing .npz checkpoint (config JSON plus named tensors)."""
    validate_params(config, params)
    meta = json.dumps({"format": CHECKPOINT_FORMAT, "config": config.to_dict()})
    np.savez(path, __meta__=np.array(meta), **params)


def load_checkpoint(path: str | Path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("a single array, not an archive")
        with archive:
            entries = {name: archive[name] for name in archive.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError("checkpoint %s is not a valid .npz" % path) from exc
    if "__meta__" not in entries:
        raise CheckpointError("checkpoint %s is missing its metadata entry" % path)
    meta = json.loads(str(entries.pop("__meta__")))
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError("unsupported checkpoint format %r" % meta.get("format"))
    config = ModelConfig(**meta["config"])
    params = {name: array.astype(float) for name, array in entries.items()}
    validate_params(config, params)
    return config, params

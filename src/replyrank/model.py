"""A small numpy transformer encoder over token, segment, position and speaker embeddings.

The encoder follows the original post-layernorm convention (residual, then
layernorm, GELU feed-forward) and carries three output heads: vocabulary
logits at the positions a caller asks for (the masked positions during
adaptation, none otherwise), a two-way next-utterance head and a scalar
matching head, the latter two read from the final [CLS] position.  Since
nothing reads the other positions of the last layer, that layer computes its
queries, attention output, layernorms and feed-forward only at the read
columns, [CLS] plus the requested positions, while keys and values still come
from every position.  Forward retains a trace so ``backward`` can produce
exact analytic gradients for every parameter tensor; everything runs in
double precision for reproducibility.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import erf, expit

from .encoding import NUM_SPEAKER_ROLES, EncodedInput
from .tokenizer import PAD

LN_EPS = 1e-6
INIT_STD = 0.02
CHECKPOINT_FORMAT = 2


class NumericError(Exception):
    """Non-finite values encountered inside the network."""


class CheckpointError(ValueError):
    """A checkpoint file that is not a readable replyrank .npz archive."""


def _is_int(value) -> bool:
    """An integer that is not a bool: JSON ``true`` must not pass as 1."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    hidden_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 128
    max_seq_len: int = 128
    seed: int = 0

    def __post_init__(self) -> None:
        sizes = (self.vocab_size, self.hidden_dim, self.num_layers, self.num_heads, self.ffn_dim, self.max_seq_len)
        if not all(_is_int(n) and n >= 1 for n in sizes):
            raise ValueError("vocab_size and the model dimensions must be positive integers")
        if not _is_int(self.seed):
            raise ValueError("seed must be an integer")
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                "hidden_dim %d not divisible by num_heads %d" % (self.hidden_dim, self.num_heads)
            )
        if self.max_seq_len < 8:
            raise ValueError("max_seq_len must be >= 8")


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every learnable tensor, in a fixed order."""
    h, f, v = config.hidden_dim, config.ffn_dim, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {
        "token_table": (v, h),
        "segment_table": (2, h),
        "position_table": (config.max_seq_len, h),
        "speaker_table": (NUM_SPEAKER_ROLES, h),
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


# --- batching ---------------------------------------------------------------


@dataclass(frozen=True)
class Batch:
    """(B, width) id tracks plus the mask of real positions; column j is position j."""

    token_ids: np.ndarray
    segment_ids: np.ndarray
    speaker_ids: np.ndarray
    attention_mask: np.ndarray


_TRACKS = ("token_ids", "segment_ids", "speaker_ids")


def stack_inputs(inputs: Sequence[EncodedInput]) -> Batch:
    """Stack inputs into one batch as wide as its longest member.

    This is the one place padding and the attention mask exist: slots past
    an input's end get token PAD, segment 0, speaker 0 and mask 0.
    """
    if not inputs:
        raise ValueError("cannot stack an empty list of inputs")
    lengths = np.array([len(enc) for enc in inputs])
    width = int(lengths.max())
    tracks = {name: np.zeros((len(inputs), width), dtype=np.int64) for name in _TRACKS}
    tracks["token_ids"][:] = PAD
    for row, enc in enumerate(inputs):
        for name, array in tracks.items():
            array[row, : len(enc)] = getattr(enc, name)
    mask = (np.arange(width) < lengths[:, None]).astype(np.int64)
    return Batch(**tracks, attention_mask=mask)


def _check_ids(batch: Batch, config: ModelConfig) -> None:
    width = batch.token_ids.shape[1]
    if width > config.max_seq_len:
        raise ValueError("batch width %d exceeds max_seq_len %d" % (width, config.max_seq_len))
    tracks = (
        ("token_ids", batch.token_ids, config.vocab_size),
        ("segment_ids", batch.segment_ids, 2),
        ("speaker_ids", batch.speaker_ids, NUM_SPEAKER_ROLES),
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
    """One encoder layer's retained activations.

    ``query_cols`` is None when the layer computed every row.  Otherwise it
    holds the (B, R) batch columns whose rows were computed, and every array
    except ``x_in``, ``k`` and ``v`` covers only those R rows: ``q`` is
    (B, H, R, d), ``attn`` (B, H, R, L), the rest (B, R, ·).
    """

    x_in: np.ndarray
    query_cols: np.ndarray | None
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    attn: np.ndarray
    merged: np.ndarray
    ln_attn_xhat: np.ndarray
    ln_attn_inv_std: np.ndarray
    x_mid: np.ndarray
    z1: np.ndarray
    cdf: np.ndarray
    ln_ffn_xhat: np.ndarray
    ln_ffn_inv_std: np.ndarray


@dataclass
class ForwardTrace:
    """Intermediate activations retained for the backward pass and inspection.

    The last layer computes only its (B, R) read columns
    (``layers[-1].query_cols``), so ``final_hidden`` is (B, R, hidden): slot 0
    of every row is [CLS], and requested pair p sits at
    ``final_hidden[mlm_rows[p], mlm_slots[p]]``.
    """

    config: ModelConfig
    batch: Batch
    embeddings: np.ndarray
    mlm_rows: np.ndarray
    mlm_slots: np.ndarray
    layers: list[LayerTrace] = field(default_factory=list)
    final_hidden: np.ndarray | None = None

    @property
    def attention_weights(self) -> list[np.ndarray]:
        return [layer.attn for layer in self.layers]


def embed_batch(batch: Batch, params: dict[str, np.ndarray], config: ModelConfig) -> np.ndarray:
    _check_ids(batch, config)
    width = batch.token_ids.shape[1]
    return (
        params["token_table"][batch.token_ids]
        + params["segment_table"][batch.segment_ids]
        + params["position_table"][:width]
        + params["speaker_table"][batch.speaker_ids]
    )


def _read_columns(rows: np.ndarray, cols: np.ndarray, batch_size: int, width: int):
    """The (B, R) columns the heads read, and each requested pair's slot among its row's.

    Row b reads column 0 ([CLS]) and the positions requested for it, each once
    and in ascending order; a row with fewer than R read columns is padded by
    repeating column 0.
    """
    # a pair outside the batch would alias another row's column in the keys below
    if rows.size and (rows.min() < 0 or rows.max() >= batch_size or cols.min() < 0 or cols.max() >= width):
        raise ValueError("mlm_positions out of range for a batch of %d rows and %d columns" % (batch_size, width))
    requested = rows * width + cols
    keys = np.unique(np.concatenate([np.arange(batch_size) * width, requested]))
    key_rows = keys // width
    counts = np.bincount(key_rows, minlength=batch_size)
    key_slots = np.arange(len(keys)) - (np.cumsum(counts) - counts)[key_rows]
    read = np.zeros((batch_size, counts.max()), dtype=np.int64)
    read[key_rows, key_slots] = keys % width
    return read, key_slots[np.searchsorted(keys, requested)]


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


def _gelu(x: np.ndarray):
    """GELU and the normal CDF that scales ``x`` in it: ``(x * cdf, cdf)``."""
    cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    return x * cdf, cdf


def _gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """GELU's derivative at ``x``, given the ``cdf`` that ``_gelu`` returned for it."""
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
    mlm_positions: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Run the encoder on a batch: ``(match, mlm, nsp logits, trace)``.

    Match logits are (B,) and pair logits (B, 2), both read at [CLS].
    Vocabulary logits are computed only where ``mlm_positions``, a pair of
    equal-length (row, position) index arrays, asks for them: they come back
    as (M, vocab) in the order of the pairs, and as (0, vocab) when none are
    requested, so no (B, L, vocab) array is ever built.

    Layers before the last run at every position.  The last layer takes keys
    and values from all L positions but computes everything else only at the
    R read columns of each row, [CLS] plus its requested positions (see
    ``_read_columns``): R is 1 when nothing is requested, and L when every
    position is.  Its attention weights are (B, H, R, L), and the trace's
    ``final_hidden`` is (B, R, hidden).

    The batch is as wide as ``stack_inputs`` made it, at most
    ``max_seq_len``; column j takes position embedding j, and the batch's
    attention mask is the only record of padding.  Padded key positions
    receive -inf attention scores, so no activation at an unmasked position
    depends on padding content or on how many padding columns there are.
    """
    rows, cols = ((), ()) if mlm_positions is None else mlm_positions
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    x = embed_batch(batch, params, config)
    if not np.isfinite(x).all():
        raise NumericError("non-finite values in the embedding sum")
    b, width, _ = x.shape
    read, slots = _read_columns(rows, cols, b, width)
    trace = ForwardTrace(config=config, batch=batch, embeddings=x, mlm_rows=rows, mlm_slots=slots)

    pad_keys = batch.attention_mask[:, None, None, :] == 0
    scale = 1.0 / np.sqrt(config.hidden_dim // config.num_heads)
    for i in range(config.num_layers):
        prefix = "layer%d." % i
        query_cols = read if i == config.num_layers - 1 else None
        x_q = x if query_cols is None else x[np.arange(b)[:, None], query_cols]
        q = _split_heads(x_q @ params[prefix + "attn.wq"] + params[prefix + "attn.bq"], config.num_heads)
        k = _split_heads(x @ params[prefix + "attn.wk"] + params[prefix + "attn.bk"], config.num_heads)
        v = _split_heads(x @ params[prefix + "attn.wv"] + params[prefix + "attn.bv"], config.num_heads)
        # softmax in place: every fresh (B, H, L, L) array would be paged in anew
        attn = q @ k.swapaxes(-1, -2)
        attn *= scale
        np.copyto(attn, -np.inf, where=pad_keys)
        attn -= attn.max(axis=-1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        merged = _merge_heads(attn @ v)
        attn_out = merged @ params[prefix + "attn.wo"] + params[prefix + "attn.bo"]
        x_mid, xhat1, inv_std1 = _layer_norm(
            x_q + attn_out, params[prefix + "ln_attn.gain"], params[prefix + "ln_attn.bias"]
        )
        z1 = x_mid @ params[prefix + "ffn.w1"] + params[prefix + "ffn.b1"]
        hidden_act, cdf = _gelu(z1)
        ffn_out = hidden_act @ params[prefix + "ffn.w2"] + params[prefix + "ffn.b2"]
        x_out, xhat2, inv_std2 = _layer_norm(
            x_mid + ffn_out, params[prefix + "ln_ffn.gain"], params[prefix + "ln_ffn.bias"]
        )
        if not np.isfinite(x_out).all():
            raise NumericError("non-finite activations after encoder layer %d" % i)
        trace.layers.append(
            LayerTrace(
                x_in=x, query_cols=query_cols, q=q, k=k, v=v, attn=attn, merged=merged,
                ln_attn_xhat=xhat1, ln_attn_inv_std=inv_std1, x_mid=x_mid,
                z1=z1, cdf=cdf,
                ln_ffn_xhat=xhat2, ln_ffn_inv_std=inv_std2,
            )
        )
        x = x_out

    trace.final_hidden = x
    mlm_logits = x[rows, slots] @ params["mlm_head.w"] + params["mlm_head.b"]
    cls = x[:, 0, :]
    nsp_logits = cls @ params["nsp_head.w"] + params["nsp_head.b"]
    match_logits = (cls @ params["match_head.w"])[:, 0] + params["match_head.b"][0]
    return match_logits, mlm_logits, nsp_logits, trace


def score_batch(batch: Batch, params: dict[str, np.ndarray], config: ModelConfig) -> np.ndarray:
    """Matching probabilities for a batch."""
    match_logits, _, _, _ = forward_batch(batch, params, config)
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

    ``d_match`` is (B,) and ``d_nsp`` (B, 2); either may be zeros when its
    head does not take part in the loss.  ``d_mlm`` is (M, vocab), one row
    per (row, position) pair the forward pass computed vocabulary logits
    for, and is scattered back to those pairs' read slots; it is
    (0, vocab) when the forward requested none.

    The last layer is differentiated on its (B, R, ·) read rows; its key and
    value gradients cover every position, and its residual and query
    gradients are scattered back into the (B, L, hidden) input gradient.
    """
    config = trace.config
    validate_params(config, params)
    if trace.final_hidden is None:
        raise ValueError("trace does not contain a completed forward pass")
    final = trace.final_hidden
    b, _, h = final.shape
    d_match = np.asarray(d_match, dtype=float).reshape(b)
    d_nsp = np.asarray(d_nsp, dtype=float).reshape(b, 2)
    rows, slots = trace.mlm_rows, trace.mlm_slots
    d_mlm = np.asarray(d_mlm, dtype=float).reshape(len(rows), config.vocab_size)

    grads = {name: np.zeros_like(tensor) for name, tensor in params.items()}

    grads["mlm_head.w"] += final[rows, slots].T @ d_mlm
    grads["mlm_head.b"] += d_mlm.sum(axis=0)
    dx = np.zeros_like(final)
    np.add.at(dx, (rows, slots), d_mlm @ params["mlm_head.w"].T)

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
        hidden_act = lt.z1 * lt.cdf
        grads[prefix + "ffn.w2"] += hidden_act.reshape(-1, config.ffn_dim).T @ dsum2.reshape(-1, h)
        grads[prefix + "ffn.b2"] += dsum2.sum(axis=(0, 1))
        dz1 = (dsum2 @ params[prefix + "ffn.w2"].T) * _gelu_grad(lt.z1, lt.cdf)
        grads[prefix + "ffn.w1"] += lt.x_mid.reshape(-1, h).T @ dz1.reshape(-1, config.ffn_dim)
        grads[prefix + "ffn.b1"] += dz1.sum(axis=(0, 1))
        dx_mid = dsum2 + dz1 @ params[prefix + "ffn.w1"].T

        dsum1, dgain1, dbias1 = _layer_norm_backward(
            dx_mid, lt.ln_attn_xhat, lt.ln_attn_inv_std, params[prefix + "ln_attn.gain"]
        )
        grads[prefix + "ln_attn.gain"] += dgain1
        grads[prefix + "ln_attn.bias"] += dbias1
        grads[prefix + "attn.wo"] += lt.merged.reshape(-1, h).T @ dsum1.reshape(-1, h)
        grads[prefix + "attn.bo"] += dsum1.sum(axis=(0, 1))
        dmerged = dsum1 @ params[prefix + "attn.wo"].T
        dctx = _split_heads(dmerged, config.num_heads)

        dattn = dctx @ lt.v.swapaxes(-1, -2)
        dv = lt.attn.swapaxes(-1, -2) @ dctx
        # softmax backward, in dattn's buffer; masked keys carry attn == 0, so their scores get 0
        dscores = dattn
        dscores -= (dattn * lt.attn).sum(axis=-1, keepdims=True)
        dscores *= lt.attn
        dq = (dscores @ lt.k) * scale
        dk = (dscores.swapaxes(-1, -2) @ lt.q) * scale

        query_rows = (np.arange(b)[:, None], lt.query_cols)
        x_q = lt.x_in if lt.query_cols is None else lt.x_in[query_rows]
        dq_mat = _merge_heads(dq)
        grads[prefix + "attn.wq"] += x_q.reshape(-1, h).T @ dq_mat.reshape(-1, h)
        grads[prefix + "attn.bq"] += dq_mat.sum(axis=(0, 1))
        dx_q = dsum1 + dq_mat @ params[prefix + "attn.wq"].T
        if lt.query_cols is None:
            dx = dx_q
        else:
            # padded slots repeat column 0: a fancy-index += would keep only one of the duplicates
            dx = np.zeros_like(lt.x_in)
            np.add.at(dx, query_rows, dx_q)
        x_flat = lt.x_in.reshape(-1, h)
        for name, dhead in (("k", dk), ("v", dv)):
            dmat = _merge_heads(dhead)
            grads[prefix + "attn.w" + name] += x_flat.T @ dmat.reshape(-1, h)
            grads[prefix + "attn.b" + name] += dmat.sum(axis=(0, 1))
            dx = dx + dmat @ params[prefix + "attn.w" + name].T

    batch = trace.batch
    flat_dx = dx.reshape(-1, h)
    np.add.at(grads["token_table"], batch.token_ids.ravel(), flat_dx)
    np.add.at(grads["segment_table"], batch.segment_ids.ravel(), flat_dx)
    grads["position_table"][: dx.shape[1]] += dx.sum(axis=0)
    np.add.at(grads["speaker_table"], batch.speaker_ids.ravel(), flat_dx)
    return grads


# --- checkpoints ------------------------------------------------------------


def save_checkpoint(path: str | Path, config: ModelConfig, params: dict[str, np.ndarray]) -> None:
    """Write a self-describing .npz checkpoint (config JSON plus named tensors)."""
    validate_params(config, params)
    meta = json.dumps({"format": CHECKPOINT_FORMAT, "config": asdict(config)})
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
    try:
        meta = json.loads(str(entries.pop("__meta__")))
    except ValueError as exc:
        raise CheckpointError("checkpoint %s has unreadable metadata" % path) from exc
    version = meta.get("format") if isinstance(meta, dict) else None
    if version != CHECKPOINT_FORMAT:
        raise CheckpointError("unsupported checkpoint format %r" % version)
    if not isinstance(meta.get("config"), dict):
        raise CheckpointError("checkpoint %s metadata has no model config" % path)
    try:
        config = ModelConfig(**meta["config"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError("checkpoint %s has an invalid model config: %s" % (path, exc)) from exc
    params = {name: array.astype(float) for name, array in entries.items()}
    validate_params(config, params)
    return config, params

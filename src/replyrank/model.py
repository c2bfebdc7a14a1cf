"""A small numpy transformer encoder over token, segment, position and speaker embeddings.

The encoder follows the original post-layernorm convention (residual, then
layernorm, GELU feed-forward) and carries three output heads: vocabulary
logits at the positions a caller asks for (the masked positions during
adaptation, none otherwise), a two-way next-utterance head and a scalar
matching head, the latter two read from the final [CLS] position.
Everything runs in double precision for reproducibility.

Each sublayer is a pair of module functions: a forward that returns its
output and the ``LayerTrace`` fields it retains, and a ``*_backward`` that
turns those into exact gradients.  The pairs are ``_embed``, ``_attention``
and ``_ffn`` (each of the last two ends in its residual and layernorm) and
``_heads``; ``forward_batch`` and ``backward`` are loops over them.  Since
nothing reads the other positions of the last layer, that layer computes
queries, attention output, layernorms and feed-forward only at the read
columns, [CLS] plus the requested positions, while keys and values still
come from every position.  Only ``_attention`` (which gathers those rows)
and ``_attention_backward`` (which scatters their gradient back) handle them.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import pickle
import zipfile
from contextlib import closing
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .encoding import NUM_SPEAKER_ROLES, EncodedInput
from .tokenizer import PAD

LN_EPS = 1e-6
INIT_STD = 0.02
CHECKPOINT_FORMAT = 5
# GELU's tanh form (Hendrycks & Gimpel 2016), as in BERT's reference code:
# the normal CDF at x is taken as 0.5 * (1 + tanh(GELU_C * (x + GELU_A * x**3))).
GELU_C = math.sqrt(2.0 / math.pi)
GELU_A = 0.044715

# parameter (or gradient) tensors by name, in ``param_shapes`` order
Params = dict[str, np.ndarray]


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

    def __post_init__(self) -> None:
        sizes = (self.vocab_size, self.hidden_dim, self.num_layers, self.num_heads, self.ffn_dim, self.max_seq_len)
        if not all(_is_int(n) and n >= 1 for n in sizes):
            raise ValueError("vocab_size and the model dimensions must be positive integers")
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


def init_params(config: ModelConfig, rng: np.random.Generator) -> Params:
    """Normal(0, 0.02) weights drawn from ``rng``, zero biases, unit layernorm gains.

    Speaker row 0 starts at zero: it is the neutral embedding for structural
    tokens and padding.
    """
    params: Params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".gain"):
            params[name] = np.ones(shape)
        elif len(shape) == 1:
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(0.0, INIT_STD, size=shape)
    params["speaker_table"][0] = 0.0
    return params


def validate_params(config: ModelConfig, params: Params) -> None:
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


# --- traces and sublayers ---------------------------------------------------


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
    mlm_rows: np.ndarray
    mlm_slots: np.ndarray
    layers: list[LayerTrace] = field(default_factory=list)
    final_hidden: np.ndarray | None = None

    @property
    def attention_weights(self) -> list[np.ndarray]:
        return [layer.attn for layer in self.layers]


def _embed(batch: Batch, params: Params, config: ModelConfig) -> np.ndarray:
    """The (B, L, hidden) sum of the token, segment, position and speaker embeddings."""
    _check_ids(batch, config)
    width = batch.token_ids.shape[1]
    x = (
        params["token_table"][batch.token_ids]
        + params["segment_table"][batch.segment_ids]
        + params["position_table"][:width]
        + params["speaker_table"][batch.speaker_ids]
    )
    if not np.isfinite(x).all():
        raise NumericError("non-finite values in the embedding sum")
    return x


def _scatter_add(table: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """Add row i of ``rows`` to ``table[ids[i]]`` for every i, repeated ids included.

    ``np.add.at(table, ids, rows)`` for 1-D ``ids``, in one ``np.bincount`` pass:
    a stable sort numbers each row by its id's rank among the distinct ids,
    bincount sums the rows' entries per (rank, column) cell in row order, and
    one fancy-index ``+=`` adds the sums, whose ids are distinct.  Into a zero
    table that is bitwise ``np.add.at``; into another, each sum is added in
    one piece.  Its cost does not grow with the number of distinct ids, as a
    ``np.add.reduceat`` over sorted rows does.
    """
    if not ids.size:
        return
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    first = np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
    rank = np.empty_like(order)
    rank[order] = np.cumsum(first) - 1
    width = rows.shape[1]
    cells = (rank * width)[:, None] + np.arange(width)
    table[sorted_ids[first]] += np.bincount(cells.ravel(), weights=rows.ravel()).reshape(-1, width)


def _embed_backward(dx: np.ndarray, batch: Batch, grads: Params) -> None:
    flat_dx = dx.reshape(-1, dx.shape[-1])
    _scatter_add(grads["token_table"], batch.token_ids.ravel(), flat_dx)
    _scatter_add(grads["segment_table"], batch.segment_ids.ravel(), flat_dx)
    grads["position_table"][: dx.shape[1]] += dx.sum(axis=0)
    _scatter_add(grads["speaker_table"], batch.speaker_ids.ravel(), flat_dx)


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
    # the sorted distinct keys row * width + column, from a mask rather than np.unique,
    # whose first call imports numpy.ma (about 12 ms of every command's start)
    marked = np.zeros(batch_size * width, dtype=bool)
    marked[::width] = True
    marked[requested] = True
    keys = np.flatnonzero(marked)
    key_rows = keys // width
    counts = np.bincount(key_rows, minlength=batch_size)
    key_slots = np.arange(len(keys)) - (np.cumsum(counts) - counts)[key_rows]
    read = np.zeros((batch_size, counts.max()), dtype=np.int64)
    read[key_rows, key_slots] = keys % width
    return read, key_slots[np.searchsorted(keys, requested)]


def _linear_backward(dy: np.ndarray, x: np.ndarray, params: Params, grads: Params, at: str, s: str) -> np.ndarray:
    """Add the gradients of ``x @ W + b`` to ``grads``, where W is ``at + "w" + s`` and b ``at + "b" + s``.

    Returns the input's gradient, ``dy @ W.T``.
    """
    flat_dy = dy.reshape(-1, dy.shape[-1])
    grads[at + "w" + s] += x.reshape(-1, x.shape[-1]).T @ flat_dy
    grads[at + "b" + s] += np.ones(len(flat_dy)) @ flat_dy
    return dy @ params[at + "w" + s].T


# Layernorm's row reductions are matrix-vector products and einsum row dots:
# numpy's mean over a short last axis is a slow reduction per row, and
# ``(a * b).sum(-1)`` writes a full temporary first.


def _row_mean(x: np.ndarray) -> np.ndarray:
    """The mean over the last axis, kept as a trailing axis of length 1.

    The row sum comes first, as in ``x.mean``, so a sum that overflows gives
    a non-finite mean rather than a finite one.
    """
    h = x.shape[-1]
    return (x.reshape(-1, h) @ np.ones(h) / h).reshape(*x.shape[:-1], 1)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products of the last-axis rows of ``a`` and ``b``, kept as a trailing axis of length 1."""
    return np.einsum("...i,...i->...", a, b)[..., None]


def _layer_norm(x: np.ndarray, params: Params, name: str):
    """Layernorm ``name`` of ``x``: ``(output, xhat, inv_std)``."""
    xhat = x - _row_mean(x)
    inv_std = 1.0 / np.sqrt(_row_dot(xhat, xhat) / x.shape[-1] + LN_EPS)
    xhat *= inv_std
    out = xhat * params[name + ".gain"]
    out += params[name + ".bias"]
    return out, xhat, inv_std


def _layer_norm_backward(dy: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, params: Params, grads: Params,
                         name: str) -> np.ndarray:
    """Add the gain and bias gradients of layernorm ``name`` to ``grads``; return the input's."""
    h = dy.shape[-1]
    flat_dy = dy.reshape(-1, h)
    grads[name + ".gain"] += np.einsum("ni,ni->i", flat_dy, xhat.reshape(-1, h))
    grads[name + ".bias"] += np.ones(len(flat_dy)) @ flat_dy
    dx = dy * params[name + ".gain"]
    dot = _row_dot(dx, xhat) / h
    dx -= _row_mean(dx)
    dx -= xhat * dot
    dx *= inv_std
    return dx


def _gelu(x: np.ndarray):
    """GELU and the tanh approximation of the normal CDF that scales ``x`` in it: ``(x * cdf, cdf)``."""
    # in place, in the order of 0.5 * (1.0 + np.tanh(GELU_C * (x + GELU_A * x * x * x)))
    cdf = GELU_A * x
    cdf *= x
    cdf *= x
    cdf += x
    cdf *= GELU_C
    np.tanh(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def _gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """GELU's derivative at ``x``, given the ``cdf`` that ``_gelu`` returned for it.

    ``1 - tanh**2`` is ``4 * cdf * (1 - cdf)``, so no second tanh is needed.
    """
    # in place, in the order of cdf + 2.0 * x * cdf * (1.0 - cdf) * GELU_C * (1.0 + 3.0 * GELU_A * x * x)
    grad = 2.0 * x
    grad *= cdf
    other = 1.0 - cdf
    grad *= other
    grad *= GELU_C
    np.multiply(3.0 * GELU_A, x, out=other)
    other *= x
    other += 1.0
    grad *= other
    grad += cdf
    return grad


def sigmoid(x) -> np.ndarray:
    """The logistic function, exponentiating only ``-|x|`` so nothing overflows.

    Above zero it is ``1 / (1 + e)``, below ``e / (1 + e)``, with ``e = exp(-|x|)``:
    the second form keeps tiny probabilities instead of rounding them to 0.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    b, l, h = x.shape
    return x.reshape(b, l, num_heads, h // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, nh, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, nh * dh)


def _attention(x: np.ndarray, query_cols: np.ndarray | None, mask: np.ndarray, params: Params, prefix: str,
               num_heads: int):
    """Self-attention, residual and layernorm: ``(x_mid, LayerTrace fields)``.

    Keys and values come from every row; given (B, R) ``query_cols``, the rest
    is computed only at those rows, and ``x_mid`` is (B, R, hidden).
    """
    p = prefix + "attn."
    x_q = x if query_cols is None else x[np.arange(len(x))[:, None], query_cols]
    q = _split_heads(x_q @ params[p + "wq"] + params[p + "bq"], num_heads)
    k = _split_heads(x @ params[p + "wk"] + params[p + "bk"], num_heads)
    v = _split_heads(x @ params[p + "wv"] + params[p + "bv"], num_heads)
    # softmax in place: every fresh (B, H, L, L) array would be paged in anew
    attn = q @ k.swapaxes(-1, -2)
    attn *= 1.0 / np.sqrt(q.shape[-1])
    if not mask.all():
        np.copyto(attn, -np.inf, where=mask[:, None, None, :] == 0)
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    merged = _merge_heads(attn @ v)
    attn_out = merged @ params[p + "wo"] + params[p + "bo"]
    x_mid, xhat, inv_std = _layer_norm(x_q + attn_out, params, prefix + "ln_attn")
    return x_mid, dict(x_in=x, query_cols=query_cols, q=q, k=k, v=v, attn=attn, merged=merged,
                       ln_attn_xhat=xhat, ln_attn_inv_std=inv_std)


def _attention_backward(dx_mid: np.ndarray, lt: LayerTrace, params: Params, grads: Params, prefix: str) -> np.ndarray:
    """Gradient of ``_attention`` at ``lt.x_in``, (B, L, hidden) even when only query rows were computed."""
    p = prefix + "attn."
    dsum = _layer_norm_backward(dx_mid, lt.ln_attn_xhat, lt.ln_attn_inv_std, params, grads, prefix + "ln_attn")
    dctx = _split_heads(_linear_backward(dsum, lt.merged, params, grads, p, "o"), lt.q.shape[1])
    dattn = dctx @ lt.v.swapaxes(-1, -2)
    dv = lt.attn.swapaxes(-1, -2) @ dctx
    # softmax backward, in dattn's buffer; masked keys carry attn == 0, so their scores get 0
    dscores = dattn
    dscores -= np.einsum("bhij,bhij->bhi", dattn, lt.attn)[..., None]
    dscores *= lt.attn
    scale = 1.0 / np.sqrt(lt.q.shape[-1])
    dq = dscores @ lt.k
    dq *= scale
    dk = dscores.swapaxes(-1, -2) @ lt.q
    dk *= scale
    query_rows = (np.arange(len(lt.x_in))[:, None], lt.query_cols)
    x_q = lt.x_in if lt.query_cols is None else lt.x_in[query_rows]
    dx_q = dsum + _linear_backward(_merge_heads(dq), x_q, params, grads, p, "q")
    if lt.query_cols is None:
        dx = dx_q
    else:
        # padded slots repeat column 0: a fancy-index += would keep only one of the duplicates
        dx = np.zeros_like(lt.x_in)
        b, l, h = dx.shape
        _scatter_add(dx.reshape(b * l, h), (query_rows[0] * l + lt.query_cols).ravel(), dx_q.reshape(-1, h))
    for name, dhead in (("k", dk), ("v", dv)):
        dx += _linear_backward(_merge_heads(dhead), lt.x_in, params, grads, p, name)
    return dx


def _ffn(x: np.ndarray, params: Params, prefix: str):
    """GELU feed-forward, residual and layernorm: ``(x_out, LayerTrace fields)``."""
    z1 = x @ params[prefix + "ffn.w1"] + params[prefix + "ffn.b1"]
    hidden_act, cdf = _gelu(z1)
    ffn_out = hidden_act @ params[prefix + "ffn.w2"] + params[prefix + "ffn.b2"]
    x_out, xhat, inv_std = _layer_norm(x + ffn_out, params, prefix + "ln_ffn")
    return x_out, dict(x_mid=x, z1=z1, cdf=cdf, ln_ffn_xhat=xhat, ln_ffn_inv_std=inv_std)


def _ffn_backward(dx: np.ndarray, lt: LayerTrace, params: Params, grads: Params, prefix: str) -> np.ndarray:
    dsum = _layer_norm_backward(dx, lt.ln_ffn_xhat, lt.ln_ffn_inv_std, params, grads, prefix + "ln_ffn")
    dz1 = _linear_backward(dsum, lt.z1 * lt.cdf, params, grads, prefix + "ffn.", "2")
    dz1 *= _gelu_grad(lt.z1, lt.cdf)
    return dsum + _linear_backward(dz1, lt.x_mid, params, grads, prefix + "ffn.", "1")


def _heads(x: np.ndarray, rows: np.ndarray, slots: np.ndarray, params: Params):
    """``(match, mlm, nsp logits)``: vocabulary logits at the pairs' read slots, the other two at [CLS]."""
    mlm_logits = x[rows, slots] @ params["mlm_head.w"] + params["mlm_head.b"]
    cls = x[:, 0, :]
    nsp_logits = cls @ params["nsp_head.w"] + params["nsp_head.b"]
    match_logits = (cls @ params["match_head.w"])[:, 0] + params["match_head.b"][0]
    return match_logits, mlm_logits, nsp_logits


def _heads_backward(trace: ForwardTrace, params: Params, grads: Params, d_match, d_nsp, d_mlm) -> np.ndarray:
    """Gradient of ``_heads`` at the last layer's (B, R, hidden) output."""
    final, rows, slots = trace.final_hidden, trace.mlm_rows, trace.mlm_slots
    d_match = np.asarray(d_match, dtype=float).reshape(len(final))
    d_nsp = np.asarray(d_nsp, dtype=float).reshape(len(final), 2)
    d_mlm = np.asarray(d_mlm, dtype=float).reshape(len(rows), params["mlm_head.w"].shape[1])
    dx = np.zeros_like(final)
    if len(rows):  # with no vocabulary logits (finetune) the head's gradient would be a dense zero product
        d_read = _linear_backward(d_mlm, final[rows, slots], params, grads, "mlm_head.", "")
        b, r, h = dx.shape
        _scatter_add(dx.reshape(b * r, h), rows * r + slots, d_read)
    cls = final[:, 0, :]
    grads["match_head.w"] += (cls * d_match[:, None]).sum(axis=0)[:, None]
    grads["match_head.b"] += d_match.sum(keepdims=True)
    dx[:, 0, :] += (
        _linear_backward(d_nsp, cls, params, grads, "nsp_head.", "")
        + d_match[:, None] * params["match_head.w"][:, 0]
    )
    return dx


# --- forward and backward ---------------------------------------------------


def forward_batch(
    batch: Batch,
    params: Params,
    config: ModelConfig,
    mlm_positions: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Run the encoder on a batch: ``(match, mlm, nsp logits, trace)``.

    Match logits are (B,) and pair logits (B, 2), both read at [CLS].
    Vocabulary logits are computed only where ``mlm_positions``, a pair of
    equal-length (row, position) index arrays, asks for them: they come back
    as (M, vocab) in the order of the pairs, and as (0, vocab) when none are
    requested, so no (B, L, vocab) array is ever built.

    The last layer runs only at the R read columns of each row (see
    ``_read_columns``): R is 1 when nothing is requested and L when every
    position is, so its attention weights are (B, H, R, L).

    The batch is as wide as ``stack_inputs`` made it, at most
    ``max_seq_len``; column j takes position embedding j, and the batch's
    attention mask is the only record of padding.  Padded key positions
    receive -inf attention scores, so no activation at an unmasked position
    depends on padding content or on how many padding columns there are.
    """
    rows, cols = ((), ()) if mlm_positions is None else mlm_positions
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    x = _embed(batch, params, config)
    read, slots = _read_columns(rows, cols, *x.shape[:2])
    trace = ForwardTrace(config=config, batch=batch, mlm_rows=rows, mlm_slots=slots)
    for i in range(config.num_layers):
        prefix = "layer%d." % i
        query_cols = read if i == config.num_layers - 1 else None
        x_mid, attn_fields = _attention(x, query_cols, batch.attention_mask, params, prefix, config.num_heads)
        x, ffn_fields = _ffn(x_mid, params, prefix)
        if not np.isfinite(x).all():
            raise NumericError("non-finite activations after encoder layer %d" % i)
        trace.layers.append(LayerTrace(**attn_fields, **ffn_fields))
    trace.final_hidden = x
    return (*_heads(x, rows, slots, params), trace)


# --- row blocks and scoring ---------------------------------------------------


# The bytes a row block may spend on one layer's attention weights and
# feed-forward activations (``block_rows``).  It is not a block's memory: the
# trace keeps every layer's activations and backward adds temporaries, so one
# 512-position row at configs/default.json dimensions peaks at about 124 MB
# against its 18.9 MB count here.
BLOCK_BYTES = 3 * 2**20


def block_rows(width: int, config: ModelConfig) -> int:
    """How many rows ``width`` positions wide a block holds: as many as fit ``BLOCK_BYTES``, at least one.

    A row counts ``8 * (num_heads * width**2 + ffn_dim * width)`` bytes: the
    float64 attention weights and feed-forward activations of a single
    layer, not the other layers, the rest of the trace or backward's
    temporaries.  A training step takes it at its widest input; scoring
    takes it at ``max_seq_len``.
    """
    return max(1, BLOCK_BYTES // (8 * (config.num_heads * width * width + config.ffn_dim * width)))


def _real_width(mask: np.ndarray) -> int:
    """One past the last column of ``mask`` that holds a real position (1 when none does)."""
    real = np.flatnonzero(mask.any(axis=0))
    return int(real[-1]) + 1 if real.size else 1


def _usable_cores() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(jobs: int) -> int:
    """How many workers share ``jobs`` blocks: ``min(usable cores, jobs)``."""
    return min(_usable_cores(), jobs)


def _send(fd: int, data: bytes) -> None:
    """Write ``data`` to the pipe end ``fd`` behind its 8-byte length, as ``_receive`` reads it."""
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd: int) -> bytes:
    """The next message ``_send`` wrote to the other end of ``fd``; ``EOFError`` when that end closed first."""

    def read(count: int) -> bytes:
        chunks = []
        while count:
            chunk = os.read(fd, count)
            if not chunk:
                raise EOFError
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    return read(int.from_bytes(read(8), "little"))


class _WorkerPool:
    """The calling process, worker 0, and ``workers - 1`` children forked once, which then run many jobs.

    ``work(worker, job)`` does worker ``worker``'s share of a job, and
    ``run(job, rerun)`` has every worker do its share.  Each child has its
    own job pipe, over which ``run`` sends it the job pickled, and its own
    done pipe, on which it writes one byte when its share is done; so what
    ``work`` reads from the caller's memory at fork time (the functions it
    calls, an array mapped shared) is not sent again.  ``ends[w]`` are the
    pipe ends worker w keeps of pipes that ``work`` uses (say, a ring); the
    pool owns them, and after the fork each process closes every pipe end
    that is not its own.  A child ends with ``os._exit(0)`` at end-of-file
    on its job pipe, that is once the pool is closed, and with
    ``os._exit(1)`` on any error.

    Children are forked, not spawned: a spawned worker would import numpy
    and this package afresh.  OpenBLAS stops its thread pool before a fork
    (its own ``pthread_atfork`` handler), and ``replyrank.cli.main`` runs
    it on one thread anyway.
    """

    def __init__(self, workers: int, work, lost: str, ends: Sequence[Sequence[int]] = ()) -> None:
        self.work, self.lost = work, lost
        ends = [set(own) for own in ends] or [set() for _ in range(workers)]
        jobs = [os.pipe() for _ in range(1, workers)]
        done = [os.pipe() for _ in range(1, workers)]
        self.held = set().union(*ends, *jobs, *done)
        self.jobs, self.done = [write for _, write in jobs], [read for read, _ in done]
        self.children: list[int] = []
        try:
            for worker in range(1, workers):
                pid = os.fork()
                if pid == 0:  # the child: it never returns into the caller's code
                    try:
                        self._serve(worker, jobs[worker - 1][0], done[worker - 1][1], ends[worker])
                    finally:
                        os._exit(1)
                self.children.append(pid)
        except BaseException:
            self.close()
            raise
        self._keep_only(ends[0] | set(self.jobs) | set(self.done))

    def _keep_only(self, keep) -> None:
        for fd in self.held.difference(keep):
            os.close(fd)
        self.held.intersection_update(keep)

    def _serve(self, worker: int, job_end: int, done_end: int, ends) -> None:
        """A child's life: run each job it is sent, and end at end-of-file."""
        self._keep_only(ends | {job_end, done_end})
        while True:
            try:
                job = pickle.loads(_receive(job_end))
            except EOFError:
                os._exit(0)
            self.work(worker, job)
            os.write(done_end, b"\0")

    def run(self, job, rerun) -> None:
        """``work(w, job)`` on every worker w, with ``rerun()`` as the fallback on any failure.

        If any worker failed (the caller's share raised, or a child's done
        pipe reached end-of-file), the pool is closed and the caller calls
        ``rerun()``, which does the whole job again serially, so a
        deterministic failure raises what a serial run raises.  If that
        returns, the call raises ``ChildProcessError(lost % pid)`` for the
        first child that failed, from the caller's own exception if there
        was one (a child's end can fail the caller's share too, at a closed
        pipe), or else the caller's own exception.
        """
        error = None
        try:
            message = pickle.dumps(job, pickle.HIGHEST_PROTOCOL)
            for fd in self.jobs:
                _send(fd, message)
            self.work(0, job)
            if all(os.read(fd, 1) == b"\0" for fd in self.done):
                return
        except Exception as exc:  # raised below, unless the serial pass raises first
            error = exc
        failed = self.close()
        rerun()
        if failed:
            raise ChildProcessError(self.lost % failed[0]) from error
        raise error

    def close(self) -> list[int]:
        """Close every pipe end the caller holds and wait for every child: the children that failed.

        The children see end-of-file, on their job pipe when idle and on a
        ring pipe when they wait on the caller or on a child that ended, so
        none is left waiting.  Closing a closed pool does nothing.
        """
        self._keep_only(())
        failed = [pid for pid in self.children if os.waitpid(pid, 0)[1] != 0]
        self.children = []
        return failed


def _score_blocks(batch: Batch, blocks: list[slice], indices, params: Params, config: ModelConfig,
                  scores: np.ndarray) -> None:
    """Write the probabilities of each block ``blocks[index]`` into ``scores``, in ``indices`` order.

    Each block is cut to its own widest row, and its trace is freed before
    the next block runs.
    """
    for index in indices:
        rows = blocks[index]
        width = _real_width(batch.attention_mask[rows])
        block = Batch(*(getattr(batch, name)[rows, :width] for name in (*_TRACKS, "attention_mask")))
        scores[rows] = sigmoid(forward_batch(block, params, config)[0])


def score_batch(batch: Batch, params: Params, config: ModelConfig) -> np.ndarray:
    """Matching probabilities for a batch, scored in row blocks shared among the usable cores.

    A block holds at most as many positions as a training block at
    ``max_seq_len``: ``block_rows(max_seq_len) * max_seq_len // width``
    consecutive rows, with ``width`` the batch's widest row (4 rows at
    width 128 under configs/toy.json, 1 at width 512 under
    configs/default.json), and is cut to its own widest row.  So neither the
    blocks nor the scores depend on the batch's padding or the core count.
    With N = ``_workers(blocks)`` workers (a ``_WorkerPool`` for one job), the calling
    process scores blocks 0, N, 2N, ... and N - 1 forked children the
    others, round-robin; every worker writes its probabilities into one
    anonymous shared mapping.  If any worker failed, the caller scores
    every block again, in order, so a failure raises what a serial run
    raises: the lowest-numbered failing block's error.
    """
    positions = block_rows(config.max_seq_len, config) * config.max_seq_len
    size = max(1, positions // _real_width(batch.attention_mask))
    blocks = [slice(start, start + size) for start in range(0, len(batch.token_ids), size)]
    workers = _workers(len(blocks))
    # MAP_SHARED: what a child writes here, the caller reads (an empty mapping is invalid)
    scores = np.frombuffer(mmap.mmap(-1, 8 * max(1, len(batch.token_ids))), count=len(batch.token_ids))
    share = lambda worker, _: _score_blocks(batch, blocks, range(worker, len(blocks), workers), params, config, scores)
    with closing(_WorkerPool(workers, share, "scoring worker %d ended without sending its scores")) as pool:
        pool.run(None, lambda: _score_blocks(batch, blocks, range(len(blocks)), params, config, scores))
    return scores.copy()


def backward(
    trace: ForwardTrace,
    params: Params,
    d_match: np.ndarray,
    d_nsp: np.ndarray,
    d_mlm: np.ndarray,
    grads: Params | None = None,
) -> Params:
    """Exact gradients for every parameter given loss gradients at the heads.

    ``d_match`` is (B,) and ``d_nsp`` (B, 2); either may be zeros when its
    head does not take part in the loss.  ``d_mlm`` is (M, vocab), one row
    per (row, position) pair the forward pass computed vocabulary logits
    for, and is scattered back to those pairs' read slots; it is
    (0, vocab) when the forward requested none, and the vocabulary head's
    gradient is then left as it is.  The gradients are added into ``grads``
    when it is given, each tensor at most once, and returned; otherwise
    into zeros.
    The parameters are not checked here; ``training._objective`` checks
    them once per step.
    """
    if trace.final_hidden is None:
        raise ValueError("trace does not contain a completed forward pass")
    if grads is None:
        grads = {name: np.zeros_like(tensor) for name, tensor in params.items()}
    dx = _heads_backward(trace, params, grads, d_match, d_nsp, d_mlm)
    for i in reversed(range(trace.config.num_layers)):
        prefix = "layer%d." % i
        dx_mid = _ffn_backward(dx, trace.layers[i], params, grads, prefix)
        dx = _attention_backward(dx_mid, trace.layers[i], params, grads, prefix)
    _embed_backward(dx, trace.batch, grads)
    return grads


# --- checkpoints ------------------------------------------------------------


def save_checkpoint(path: str | Path, config: ModelConfig, params: Params) -> None:
    """Write a self-describing .npz checkpoint (config JSON plus named tensors)."""
    validate_params(config, params)
    meta = json.dumps({"format": CHECKPOINT_FORMAT, "config": asdict(config)})
    np.savez(path, __meta__=np.array(meta), **params)


def load_checkpoint(path: str | Path) -> tuple[ModelConfig, Params]:
    try:
        archive = np.load(path)  # numpy>=1.16.3 refuses object arrays unless asked
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("a single array, not an archive")
        with archive:
            try:
                entries = {name: archive[name] for name in archive.files}
            except OSError as exc:
                # a member's decompressor failed (say, a bzip2 method on a deflate stream); caught only
                # here, because a missing file is an OSError too and keeps its own message
                raise ValueError("unreadable member") from exc
    except (ValueError, EOFError, zipfile.BadZipFile, NotImplementedError, RuntimeError) as exc:
        # NotImplementedError: a zip method or version zipfile cannot read; RuntimeError: an encrypted member
        raise CheckpointError("checkpoint %s is not a valid .npz" % path) from exc
    if "__meta__" not in entries:
        raise CheckpointError("checkpoint %s is missing its metadata entry" % path)
    try:
        meta = json.loads(str(entries.pop("__meta__")))
    except (ValueError, RecursionError) as exc:
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
    try:
        params = {name: array.astype(float) for name, array in entries.items()}
        validate_params(config, params)  # its NumericError, on non-finite values, passes through
    except ValueError as exc:
        raise CheckpointError("checkpoint %s: %s" % (path, exc)) from exc
    return config, params

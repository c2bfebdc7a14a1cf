"""Shared fixtures: tiny vocabularies, random channels, synthetic tasks."""

from __future__ import annotations

import numpy as np

from replyrank.corpus import Utterance
from replyrank.encoding import NUM_SPEAKER_ROLES, EncodedInput, MatchingInstance, build_input
from replyrank.model import Batch, ModelConfig, backward, forward_batch, stack_inputs
from replyrank.tokenizer import CLS, NUM_SPECIALS, PAD, SEP, Vocabulary, build_vocab


def detokenize(ids, vocab: Vocabulary) -> str:
    """Space-join the token strings for ``ids``: the round-trip oracle for ``tokenize``."""
    tokens = []
    for token_id in ids:
        if not 0 <= token_id < len(vocab.id_to_token):
            raise ValueError("token id %d out of range for vocabulary of size %d" % (token_id, len(vocab.id_to_token)))
        tokens.append(vocab.id_to_token[token_id])
    return " ".join(tokens)


def make_vocab(words: list[str]) -> Vocabulary:
    return build_vocab([" ".join(words)], min_count=1, max_size=NUM_SPECIALS + len(words))


WORDS = ["w%02d" % i for i in range(25)]
VOCAB = make_vocab(WORDS)


def utt(index, spoken_from, text="hello there", spoken_to=None):
    return Utterance(index=index, spoken_from=spoken_from, spoken_to=spoken_to, text=text)


def random_channel(rng: np.random.Generator, max_len=50, max_speakers=8, to_density=0.3):
    """Random multi-party channel with optional addressing labels."""
    length = int(rng.integers(1, max_len + 1))
    speakers = ["user%d" % i for i in range(int(rng.integers(2, max_speakers + 1)))]
    channel = []
    for i in range(length):
        spoken_from = speakers[int(rng.integers(len(speakers)))]
        spoken_to = None
        if rng.random() < to_density:
            spoken_to = speakers[int(rng.integers(len(speakers)))]
        text = " ".join(WORDS[int(rng.integers(len(WORDS)))] for _ in range(int(rng.integers(1, 5))))
        channel.append(Utterance(index=i, spoken_from=spoken_from, spoken_to=spoken_to, text=text))
    return channel, speakers


def random_encoded(rng: np.random.Generator, vocab=VOCAB, max_len=32) -> EncodedInput:
    """Random but well-formed encoded input built through the real assembler."""
    n_utts = int(rng.integers(1, 4))
    context = []
    speakers = ["s1", "s2", "s3"]
    for i in range(n_utts):
        text = " ".join(WORDS[int(rng.integers(len(WORDS)))] for _ in range(int(rng.integers(1, 6))))
        context.append(
            (Utterance(index=i, spoken_from=speakers[int(rng.integers(len(speakers)))], spoken_to=None, text=text),
             int(rng.integers(1, NUM_SPEAKER_ROLES)))
        )
    response_text = " ".join(WORDS[int(rng.integers(len(WORDS)))] for _ in range(int(rng.integers(1, 6))))
    response = Utterance(index=n_utts, spoken_from="s1", spoken_to=None, text=response_text)
    return build_input(context, response, int(rng.integers(1, NUM_SPEAKER_ROLES)), vocab, max_len)


def full_length_input(rng, length, vocab_size):
    """A two-segment input of exactly ``length`` positions with random content and speakers."""
    half = length // 2
    tokens = [CLS] + [int(t) for t in rng.integers(NUM_SPECIALS, vocab_size, size=length - 3)] + [SEP]
    tokens.insert(half, SEP)
    return EncodedInput(
        token_ids=tuple(tokens),
        segment_ids=tuple([0] * (half + 1) + [1] * (length - half - 1)),
        speaker_ids=tuple(int(s) for s in rng.integers(0, 3, size=length)),
    )


def widen(batch: Batch, width: int) -> Batch:
    """``batch`` with padding columns appended up to ``width``, laid out as ``stack_inputs`` pads."""
    extra = ((0, 0), (0, width - batch.token_ids.shape[1]))
    return Batch(
        token_ids=np.pad(batch.token_ids, extra, constant_values=PAD),
        segment_ids=np.pad(batch.segment_ids, extra),
        speaker_ids=np.pad(batch.speaker_ids, extra),
        attention_mask=np.pad(batch.attention_mask, extra),
    )


def reference_attention(q: np.ndarray, k: np.ndarray, attention_mask: np.ndarray, scale: float) -> np.ndarray:
    """Masked-softmax attention weights, each step in a fresh array: the oracle for the in-place softmax."""
    key_mask = attention_mask[:, None, None, :].astype(bool)
    scores = (q @ k.swapaxes(-1, -2)) * scale
    scores = np.where(key_mask, scores, -np.inf)
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    return weights / weights.sum(axis=-1, keepdims=True)


def _tanh_cdf(x: np.ndarray) -> np.ndarray:
    """The tanh approximation of the normal CDF in BERT's GELU (Hendrycks & Gimpel 2016)."""
    return 0.5 * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x * x * x)))


def reference_gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-form GELU as one expression: the oracle for ``model._gelu``."""
    return x * _tanh_cdf(x)


def reference_gelu_grad(x: np.ndarray) -> np.ndarray:
    """Tanh-form GELU's derivative with its own CDF: the oracle for ``model._gelu_grad``.

    ``0.5 * sech(u)**2`` is written ``2 * cdf * (1 - cdf)``, as in the model, so the
    two agree bitwise; ``TestGelu`` checks that form against ``sech**2`` and
    finite differences.
    """
    cdf = _tanh_cdf(x)
    return cdf + 2.0 * x * cdf * (1.0 - cdf) * np.sqrt(2.0 / np.pi) * (1.0 + 3.0 * 0.044715 * x * x)


def reference_layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """Layernorm with numpy's row means, each step in a fresh array: ``(output, xhat, inv_std)``.

    The oracle for ``model._layer_norm``, which takes its row reductions as
    matrix-vector products and einsum row dots.
    """
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    return gain * xhat + bias, xhat, inv_std


def reference_layer_norm_backward(dy: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, gain: np.ndarray):
    """Layernorm's gradients ``(d input, d gain, d bias)`` from numpy's sums and means: the oracle for
    ``model._layer_norm_backward``."""
    dxhat = dy * gain
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, (dy * xhat).sum(axis=(0, 1)), dy.sum(axis=(0, 1))


def reference_adamw_step(params, grads, state, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8,
                         frozen=frozenset()) -> None:
    """``training.adamw_step`` as whole-array expressions: the oracle it must equal bitwise."""
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for name, p in params.items():
        if name in frozen:
            continue
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        if weight_decay > 0.0 and p.ndim >= 2:
            update = update + weight_decay * p
        p -= lr * update


def every_position(batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) pairs for every slot of ``batch``, row by row: requesting them gives R = L."""
    b, l = batch.token_ids.shape
    return np.divmod(np.arange(b * l), l)


def tiny_model_config(vocab_size, **overrides) -> ModelConfig:
    defaults = dict(
        vocab_size=vocab_size, hidden_dim=16, num_layers=2, num_heads=2,
        ffn_dim=24, max_seq_len=24,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


# --- combined loss for gradient checking -------------------------------------


def combined_loss(params, batch, config, mlm_targets, match_labels, nsp_labels):
    """Scalar loss exercising all three heads (used for finite differences)."""
    from scipy.special import logsumexp

    rows_b, rows_i, targets = mlm_targets
    match_logits, rows, nsp_logits, _ = forward_batch(batch, params, config, mlm_positions=(rows_b, rows_i))
    mlm = (logsumexp(rows, axis=-1) - rows[np.arange(len(targets)), targets]).mean()
    nsp_rows = nsp_logits
    nsp = (logsumexp(nsp_rows, axis=-1) - nsp_rows[np.arange(len(nsp_labels)), nsp_labels]).mean()
    match = (np.logaddexp(0.0, match_logits) - match_labels * match_logits).mean()
    return float(mlm + nsp + match)


def combined_loss_grads(params, batch, config, mlm_targets, match_labels, nsp_labels):
    """Same loss, with analytic parameter gradients via the backward pass."""
    from scipy.special import expit, logsumexp

    rows_b, rows_i, targets = mlm_targets
    match_logits, rows, nsp_logits, trace = forward_batch(batch, params, config, mlm_positions=(rows_b, rows_i))

    log_z = logsumexp(rows, axis=-1)
    probs = np.exp(rows - log_z[:, None])
    probs[np.arange(len(targets)), targets] -= 1.0
    d_mlm = probs / len(targets)

    log_zn = logsumexp(nsp_logits, axis=-1)
    nprobs = np.exp(nsp_logits - log_zn[:, None])
    nprobs[np.arange(len(nsp_labels)), nsp_labels] -= 1.0
    d_nsp = nprobs / len(nsp_labels)

    d_match = (expit(match_logits) - match_labels) / len(match_labels)
    return backward(trace, params, d_match, d_nsp, d_mlm)


# --- scalar and dense references for the training losses ------------------------


def adaptation_loss(mlm_logits, plan, nsp_logits, nsp_label) -> float:
    """One example's adapt loss from its (L, vocab) logits, position by position.

    The sum of the mean masked-token cross-entropy (targets are the
    pre-corruption ids) and the pair loss.
    """
    from scipy.special import logsumexp

    if not plan:
        raise ValueError("masking plan is empty")
    mlm = np.mean([logsumexp(mlm_logits[pos.index]) - mlm_logits[pos.index][pos.original_id] for pos in plan])
    nsp = logsumexp(nsp_logits) - nsp_logits[nsp_label]
    return float(mlm + nsp)


def finetune_loss(score: float, label: int) -> float:
    """Binary cross-entropy of a matching probability against its label."""
    import math

    if not 0.0 < score < 1.0:
        raise ValueError("score must lie strictly inside (0, 1), got %r" % score)
    return -(label * math.log(score) + (1 - label) * math.log(1.0 - score))


def dense_adaptation_reference(encoded, plans, nsp_labels, params, config):
    """The adapt loss and gradients computed over dense (B, L, vocab) logits.

    The logits and the vocabulary head's gradients are computed here from the
    final hidden states at every position, with a zero gradient row wherever
    nothing is masked; the loss picks the masked rows out of the dense array.
    The encoder gradients come from ``backward`` with every position
    requested (R = L, so the last layer computes every row), so its scatter
    is checked by the finite-difference tests, not by this reference.
    """
    from scipy.special import logsumexp

    batch = stack_inputs(encoded)
    b, l = batch.token_ids.shape
    _, _, nsp_logits, trace = forward_batch(batch, params, config, mlm_positions=every_position(batch))
    # every position is requested, so every row reads all L columns in order: slot j is column j
    assert np.array_equal(trace.layers[-1].query_cols, np.broadcast_to(np.arange(l), (b, l)))
    final = trace.final_hidden
    logits = final @ params["mlm_head.w"] + params["mlm_head.b"]

    rows_b = np.array([row for row, plan in enumerate(plans) for _ in plan])
    rows_i = np.array([pos.index for plan in plans for pos in plan])
    targets = np.array([pos.original_id for plan in plans for pos in plan])
    picked = logits[rows_b, rows_i]
    log_z = logsumexp(picked, axis=-1)
    mlm = (log_z - picked[np.arange(len(targets)), targets]).mean()
    log_zn = logsumexp(nsp_logits, axis=-1)
    nsp = (log_zn - nsp_logits[np.arange(b), nsp_labels]).mean()
    loss = mlm + nsp

    probs = np.exp(picked - log_z[:, None])
    probs[np.arange(len(targets)), targets] -= 1.0
    d_dense = np.zeros_like(logits)
    np.add.at(d_dense, (rows_b, rows_i), probs * (1.0 / len(targets)))
    nprobs = np.exp(nsp_logits - log_zn[:, None])
    nprobs[np.arange(b), nsp_labels] -= 1.0
    d_nsp = nprobs * (1.0 / b)
    grads = backward(trace, params, np.zeros(b), d_nsp, d_dense.reshape(b * l, config.vocab_size))
    grads["mlm_head.w"] = final.reshape(b * l, -1).T @ d_dense.reshape(b * l, config.vocab_size)
    grads["mlm_head.b"] = d_dense.sum(axis=(0, 1))
    return float(loss), grads


def finite_difference_grads(loss_fn, params, eps=1e-4):
    """Central finite differences for every element of every tensor."""
    grads = {}
    for name, tensor in params.items():
        grad = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            plus = loss_fn(params)
            flat[i] = original - eps
            minus = loss_fn(params)
            flat[i] = original
            gflat[i] = (plus - minus) / (2.0 * eps)
        grads[name] = grad
    return grads


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor=1e-6) -> float:
    """Relative error with an absolute-agreement fallback for near-zero grads."""
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    rel = np.where(scale >= floor, diff / np.maximum(scale, floor), np.where(diff < 1e-10, 0.0, 1.0))
    return float(rel.max()) if rel.size else 0.0


def gradcheck_setup(config, rng, batch_size=2):
    """A random batch plus head targets covering all three heads.

    Every row is shorter than ``max_seq_len`` and the batch is widened to it,
    so each row has padded key columns.
    """
    from replyrank.tokenizer import CLS, SEP

    vocab_size = config.vocab_size
    length = config.max_seq_len
    encs = []
    for _ in range(batch_size):
        content = int(rng.integers(6, length - 3))
        tokens = [CLS] + [int(rng.integers(NUM_SPECIALS, vocab_size)) for _ in range(content)] + [SEP]
        split = 1 + int(rng.integers(1, content))
        tokens.insert(split, SEP)
        segs = [0] * (split + 1) + [1] * (len(tokens) - split - 1)
        spk = [0] + [int(rng.integers(0, NUM_SPEAKER_ROLES)) for _ in range(len(tokens) - 2)] + [0]
        encs.append(EncodedInput(token_ids=tuple(tokens), segment_ids=tuple(segs), speaker_ids=tuple(spk)))
    batch = widen(stack_inputs(encs), length)
    rows_b, rows_i = [], []
    for b, enc in enumerate(encs):
        live = [i for i, t in enumerate(enc.token_ids) if t >= NUM_SPECIALS]
        for i in rng.choice(live, size=min(3, len(live)), replace=False):
            rows_b.append(b)
            rows_i.append(int(i))
    mlm_targets = (
        np.array(rows_b),
        np.array(rows_i),
        rng.integers(NUM_SPECIALS, vocab_size, size=len(rows_b)),
    )
    match_labels = rng.integers(0, 2, size=batch_size).astype(float)
    nsp_labels = rng.integers(0, 2, size=batch_size)
    return batch, mlm_targets, match_labels, nsp_labels


# --- synthetic tasks ----------------------------------------------------------

TOPICS = {
    "boot": ["kernel", "grub", "bios", "restart", "firmware"],
    "net": ["wifi", "router", "dns", "ethernet", "ping"],
    "disk": ["partition", "mount", "filesystem", "backup", "sector"],
    "audio": ["volume", "driver", "speaker", "mixer", "mute"],
    "shell": ["bash", "alias", "script", "prompt", "cron"],
    "gui": ["window", "theme", "icon", "desktop", "cursor"],
}
FILLERS = ["the", "my", "is", "not", "try", "again", "please", "help", "it", "now"]


def topic_vocab() -> Vocabulary:
    words = [w for bank in TOPICS.values() for w in bank] + FILLERS
    return make_vocab(words)


def _topic_sentence(topic: str, rng: np.random.Generator, words=4) -> str:
    bank = TOPICS[topic]
    out = []
    for _ in range(words):
        if rng.random() < 0.7:
            out.append(bank[int(rng.integers(len(bank)))])
        else:
            out.append(FILLERS[int(rng.integers(len(FILLERS)))])
    return " ".join(out)


def topic_instances(rng: np.random.Generator, count: int, context_utts=2) -> list[MatchingInstance]:
    """Balanced matching task: positives share the context topic, negatives don't."""
    names = list(TOPICS)
    instances = []
    for i in range(count):
        topic = names[int(rng.integers(len(names)))]
        context = tuple(
            (Utterance(index=j, spoken_from="spk_A" if j % 2 == 0 else "spk_B",
                       spoken_to=None, text=_topic_sentence(topic, rng)),
             1 if j % 2 == 0 else 2)
            for j in range(context_utts)
        )
        label = i % 2
        if label == 1:
            response_text = _topic_sentence(topic, rng)
        else:
            other = names[(names.index(topic) + 1 + int(rng.integers(len(names) - 1))) % len(names)]
            response_text = _topic_sentence(other, rng)
        response = Utterance(index=context_utts, spoken_from="spk_A" if context_utts % 2 == 0 else "spk_B",
                             spoken_to=None, text=response_text)
        instances.append(
            MatchingInstance(context=context, response=response,
                             response_role=1 if context_utts % 2 == 0 else 2, label=label)
        )
    return instances


def topic_pools(rng: np.random.Generator, count: int, pool_size=10) -> list[list[MatchingInstance]]:
    """Candidate pools: one on-topic positive among off-topic negatives."""
    names = list(TOPICS)
    pools = []
    for _ in range(count):
        topic = names[int(rng.integers(len(names)))]
        context = tuple(
            (Utterance(index=j, spoken_from="spk_A" if j % 2 == 0 else "spk_B",
                       spoken_to=None, text=_topic_sentence(topic, rng)), 1 if j % 2 == 0 else 2)
            for j in range(2)
        )
        pool = []
        positive_slot = int(rng.integers(pool_size))
        for slot in range(pool_size):
            if slot == positive_slot:
                text = _topic_sentence(topic, rng)
                label = 1
            else:
                other = names[(names.index(topic) + 1 + int(rng.integers(len(names) - 1))) % len(names)]
                text = _topic_sentence(other, rng)
                label = 0
            response = Utterance(index=2, spoken_from="spk_A", spoken_to=None, text=text)
            pool.append(MatchingInstance(context=context, response=response, response_role=1, label=label))
        pools.append(pool)
    return pools


def speaker_pattern_instances(rng: np.random.Generator, pairs: int) -> list[MatchingInstance]:
    """Pairs of token-identical examples whose speaker tracks decide the label.

    Within a pair the utterance and response texts match exactly; only the
    role ids differ (1/2 assignment flipped), and the labels are opposite.
    """
    instances = []
    for i in range(pairs):
        texts = [
            " ".join(WORDS[int(rng.integers(len(WORDS)))] for _ in range(3)),
            " ".join(WORDS[int(rng.integers(len(WORDS)))] for _ in range(3)),
        ]
        response_text = " ".join(WORDS[int(rng.integers(len(WORDS)))] for _ in range(3))
        for flip in (0, 1):
            context = tuple(
                (Utterance(index=j, spoken_from="spk_%d" % j, spoken_to=None, text=texts[j]),
                 (1 + (j + flip) % 2))
                for j in range(2)
            )
            response = Utterance(index=2, spoken_from="spk_0", spoken_to=None, text=response_text)
            instances.append(
                MatchingInstance(context=context, response=response,
                                 response_role=1 + flip, label=1 - flip)
            )
    return instances


def accuracy(instances, params, config, vocab, max_len) -> float:
    from replyrank.encoding import encode_instance
    from replyrank.model import score_batch

    batch = stack_inputs([encode_instance(inst, vocab, max_len) for inst in instances])
    scores = score_batch(batch, params, config)
    predicted = (scores > 0.5).astype(int)
    return float(np.mean(predicted == np.array([inst.label for inst in instances])))

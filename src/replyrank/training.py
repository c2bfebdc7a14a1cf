"""Two-phase training: corruption+next-utterance adaptation, then matching.

Phase one corrupts content tokens (80% [MASK], 10% random, 10% kept) and
pairs each context with its true response half the time, optimizing the sum
of the reconstruction and pair-classification losses.  Phase two minimizes
binary cross-entropy on the matching head.  Both phases share an Adam-style
optimizer with decoupled weight decay and a learning rate decaying linearly
to zero over the planned steps.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Literal, Sequence

import numpy as np
from scipy.special import expit, logsumexp

from .encoding import EncodedInput, MatchingInstance, build_input, encode_instance
from .evaluation import rank_scores, recall_at_k
from .model import ModelConfig, _is_int, backward, forward_batch, stack_inputs
from .tokenizer import MASK, NUM_SPECIALS, UNK, Vocabulary
from .corpus import Utterance

STRUCTURAL_IDS = frozenset(i for i in range(NUM_SPECIALS) if i != UNK)

MaskAction = Literal["mask", "random", "keep"]


class TrainingDiverged(Exception):
    """Loss became non-finite; message carries the offending step."""


@dataclass(frozen=True)
class MaskedPosition:
    index: int
    action: MaskAction
    original_id: int
    replacement_id: int


# The fixed BERT recipe (Devlin et al., NAACL 2019): the share of content
# tokens corrupted in adaptation, and AdamW's decoupled weight decay.
MASK_FRACTION = 0.15
WEIGHT_DECAY = 0.01


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-5
    batch_size: int = 25
    max_epochs: int = 3
    seed: int = 0
    freeze_speaker_table: bool = False

    def __post_init__(self) -> None:
        if not all(_is_int(n) for n in (self.batch_size, self.max_epochs, self.seed)):
            raise ValueError("batch_size, max_epochs and seed must be integers")
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, (int, float)) or not 0 < lr < math.inf:
            raise ValueError("learning_rate must be a finite positive number")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")


@dataclass(frozen=True)
class LogEntry:
    step: int
    phase: str
    loss: float
    lr: float


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    log: list[LogEntry]
    best_epoch: int | None
    validation_history: list[float]


def plan_masking(
    enc: EncodedInput,
    vocab: Vocabulary,
    mask_fraction: float,
    rng: np.random.Generator,
) -> list[MaskedPosition]:
    """Choose corruption targets among content tokens.

    Selects round(fraction * maskable), at least one, uniformly without
    replacement; structural tokens ([CLS]/[SEP]/[EOU]/[EOT]/padding) are
    never candidates.  Targets keep their original id as the prediction
    label whatever the replacement action.
    """
    maskable = [i for i, tok in enumerate(enc.token_ids) if tok not in STRUCTURAL_IDS]
    if not maskable:
        raise ValueError("sequence has no maskable tokens")
    count = max(1, round(mask_fraction * len(maskable)))
    chosen = rng.choice(len(maskable), size=count, replace=False)
    plan = []
    for slot in sorted(int(c) for c in chosen):
        index = maskable[slot]
        original = enc.token_ids[index]
        draw = rng.random()
        if draw < 0.8:
            action: MaskAction = "mask"
            replacement = MASK
        elif draw < 0.9:
            action = "random"
            if len(vocab) <= NUM_SPECIALS:
                raise ValueError("vocabulary has no content tokens to sample replacements from")
            replacement = int(rng.integers(NUM_SPECIALS, len(vocab)))
        else:
            action = "keep"
            replacement = original
        plan.append(MaskedPosition(index=index, action=action, original_id=original, replacement_id=replacement))
    return plan


def apply_masking(enc: EncodedInput, plan: Sequence[MaskedPosition]) -> EncodedInput:
    tokens = list(enc.token_ids)
    for pos in plan:
        tokens[pos.index] = pos.replacement_id
    return replace(enc, token_ids=tuple(tokens))


def build_nsp_pair(
    context: Sequence[tuple[Utterance, int]],
    positive_response: Utterance,
    response_role: int,
    corpus_responses: Sequence[Utterance],
    vocab: Vocabulary,
    max_len: int,
    rng: np.random.Generator,
) -> tuple[EncodedInput, int]:
    """Encode (context, response) with the true response half the time.

    Negatives are drawn uniformly from ``corpus_responses``, resampling when
    the draw is the positive itself.
    """
    if len(corpus_responses) < 2:
        raise ValueError("need at least 2 corpus responses to sample negatives")
    if rng.random() < 0.5:
        return build_input(context, positive_response, response_role, vocab, max_len), 1
    while True:
        candidate = corpus_responses[int(rng.integers(len(corpus_responses)))]
        if candidate is not positive_response:
            break
    return build_input(context, candidate, response_role, vocab, max_len), 0


def _corrupted_pairs(
    instances: Sequence[MatchingInstance],
    response_pool: Sequence[Utterance],
    vocab: Vocabulary,
    max_len: int,
    rng: np.random.Generator,
) -> tuple[list[EncodedInput], list[list[MaskedPosition]], np.ndarray]:
    """Pair and corrupt each instance: ``(masked encodings, plans, pair labels)``.

    Per instance, the pair draw comes before the masking draws.
    """
    encoded, plans, labels = [], [], []
    for inst in instances:
        enc, label = build_nsp_pair(
            inst.context, inst.response, inst.response_role, response_pool, vocab, max_len, rng
        )
        plan = plan_masking(enc, vocab, MASK_FRACTION, rng)
        encoded.append(apply_masking(enc, plan))
        plans.append(plan)
        labels.append(label)
    return encoded, plans, np.array(labels)


def _softmax_ce_rows(logits: np.ndarray, targets: np.ndarray):
    """Cross-entropy and its logit gradient for rows of logits."""
    log_z = logsumexp(logits, axis=-1)
    losses = log_z - logits[np.arange(len(targets)), targets]
    probs = np.exp(logits - log_z[:, None])
    probs[np.arange(len(targets)), targets] -= 1.0
    return losses, probs


# --- optimizer ----------------------------------------------------------------


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    weight_decay: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    frozen: frozenset[str] = frozenset(),
) -> None:
    """In-place adaptive-moment update with decoupled weight decay.

    Decay applies only to matrices/tables; biases and layernorm vectors are
    exempt, as are frozen tensors (skipped entirely).
    """
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


def linear_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Linear decay from base_lr at step 0 to zero at step == total_steps."""
    return base_lr * (1.0 - step / total_steps)


# --- training loop -------------------------------------------------------------


# The activation budget of one training forward.  A step runs as consecutive
# row blocks sized to it (``_block_rows``), and the blocks' gradients are added
# up before the step's single update; a step that fits is one block.
BLOCK_BYTES = 3 * 2**20


def _block_rows(encoded: Sequence[EncodedInput], model_config: ModelConfig) -> list[slice]:
    """Consecutive row slices whose attention and feed-forward activations fit ``BLOCK_BYTES``.

    A row costs ``8 * (num_heads * w * w + ffn_dim * w)`` bytes, with ``w``
    the widest input of the step; a block holds at least one row.
    """
    w = max(len(enc) for enc in encoded)
    size = max(1, BLOCK_BYTES // (8 * (model_config.num_heads * w * w + model_config.ffn_dim * w)))
    return [slice(start, start + size) for start in range(0, len(encoded), size)]


def _finetune_batch(encoded: list[EncodedInput], labels: np.ndarray, params, model_config):
    """The mean matching loss on one batch and its gradients, block by block: ``(loss, grads)``."""
    losses, grads = np.empty(len(labels)), None
    for rows in _block_rows(encoded, model_config):
        match_logits, mlm_logits, _, trace = forward_batch(stack_inputs(encoded[rows]), params, model_config)
        losses[rows] = np.logaddexp(0.0, match_logits) - labels[rows] * match_logits
        d_match = (expit(match_logits) - labels[rows]) / len(labels)
        d_nsp = np.zeros((len(match_logits), 2))
        grads = backward(trace, params, d_match, d_nsp, np.zeros_like(mlm_logits), grads)
        del trace  # free this block's activations before the next forward
    return float(losses.mean()), grads


def _adaptation_losses(
    encoded: list[EncodedInput],
    plans: list[list[MaskedPosition]],
    nsp_labels: np.ndarray,
    params,
    model_config,
):
    """Adaptation losses on one batch: ``(mlm_losses, nsp_losses, d_mlm, d_nsp, trace)``.

    ``mlm_losses`` holds one cross-entropy per masked position, in plan
    order, and ``nsp_losses`` one per pair; ``d_mlm`` and ``d_nsp`` are
    their logit gradients, row by row.  Vocabulary logits are computed only
    at the masked positions.
    """
    rows = np.repeat(np.arange(len(plans)), [len(plan) for plan in plans])
    cols = np.array([pos.index for plan in plans for pos in plan])
    targets = np.array([pos.original_id for plan in plans for pos in plan])
    batch = stack_inputs(encoded)
    _, mlm_logits, nsp_logits, trace = forward_batch(batch, params, model_config, (rows, cols))
    mlm_losses, d_mlm = _softmax_ce_rows(mlm_logits, targets)
    nsp_losses, d_nsp = _softmax_ce_rows(nsp_logits, nsp_labels)
    return mlm_losses, nsp_losses, d_mlm, d_nsp, trace


def _adaptation_objective(mlm_losses: np.ndarray, nsp_losses: np.ndarray) -> float:
    """The sum of the mean masked-token loss and the mean pair loss."""
    return float(mlm_losses.mean() + nsp_losses.mean())


def _adaptation_validation_loss(
    encoded: list[EncodedInput],
    plans: list[list[MaskedPosition]],
    nsp_labels: np.ndarray,
    params,
    model_config,
) -> float:
    """The adaptation objective over a fixed validation draw.

    The draw is scored in the row blocks a training step would use, so
    memory does not grow with the validation set; the per-position and
    per-pair losses of all blocks make up one masked-token mean and one pair
    mean.
    """
    mlm, nsp = [], []
    for rows in _block_rows(encoded, model_config):
        # keep only the losses, so one block's trace is freed before the next is built
        mlm_losses, nsp_losses = _adaptation_losses(
            encoded[rows], plans[rows], nsp_labels[rows], params, model_config
        )[:2]
        mlm.append(mlm_losses)
        nsp.append(nsp_losses)
    return _adaptation_objective(np.concatenate(mlm), np.concatenate(nsp))


def _adaptation_batch(
    encoded: list[EncodedInput],
    plans: list[list[MaskedPosition]],
    nsp_labels: np.ndarray,
    params,
    model_config,
):
    """The adaptation objective on one batch and its gradients, block by block: ``(loss, grads)``.

    The pair gradient is divided by the batch's row count and the
    masked-token gradient by its total masked positions, whatever the blocks.
    """
    masked = sum(len(plan) for plan in plans)
    mlm, nsp, grads = [], [], None
    for rows in _block_rows(encoded, model_config):
        mlm_losses, nsp_losses, d_mlm, d_nsp, trace = _adaptation_losses(
            encoded[rows], plans[rows], nsp_labels[rows], params, model_config
        )
        d_mlm *= 1.0 / masked
        d_nsp *= 1.0 / len(encoded)
        grads = backward(trace, params, np.zeros(len(nsp_losses)), d_nsp, d_mlm, grads)
        del trace  # free this block's activations before the next forward
        mlm.append(mlm_losses)
        nsp.append(nsp_losses)
    return _adaptation_objective(np.concatenate(mlm), np.concatenate(nsp)), grads


def _validation_recall_at_1(pools: Sequence[Sequence[MatchingInstance]], params, model_config, vocab) -> float:
    # score_pools lives in cli, whose module-level names perfbench traces;
    # cli imports this module, so the import is deferred to call time.
    from .cli import score_pools

    sizes = {len(pool) for pool in pools}
    if len(sizes) != 1:
        raise ValueError("validation pools must all have the same candidate count")
    scores = score_pools(pools, params, model_config, vocab)
    ranked = [rank_scores(s, [inst.label for inst in pool]) for s, pool in zip(scores, pools)]
    return recall_at_k(ranked, n=sizes.pop(), k=1)


def train(
    phase: Literal["adapt", "finetune"],
    dataset: Sequence[MatchingInstance],
    params: dict[str, np.ndarray],
    model_config: ModelConfig,
    train_config: TrainConfig,
    vocab: Vocabulary,
    validation: Sequence | None = None,
) -> TrainResult:
    """Mini-batch training for one phase; params are updated in place.

    ``dataset`` holds role-annotated instances.  For ``adapt`` only label-1
    instances are used (their responses double as the negative-sampling
    pool) and ``validation``, when given, is a list of instances scored with
    a fixed corruption draw.  For ``finetune`` all instances are used and
    ``validation`` is a list of candidate pools (lists of instances); the
    returned params are the epoch checkpoint with the best validation
    metric (lowest combined loss, respectively highest top-1 recall).
    """
    if phase not in ("adapt", "finetune"):
        raise ValueError("unknown phase %r" % phase)
    if not dataset:
        raise ValueError("dataset is empty")
    max_len = model_config.max_seq_len
    rng = np.random.default_rng(train_config.seed)

    if train_config.freeze_speaker_table:
        params["speaker_table"][:] = 0.0
    frozen = frozenset(["speaker_table"]) if train_config.freeze_speaker_table else frozenset()

    if phase == "adapt":
        instances = [inst for inst in dataset if inst.label == 1]
        if not instances:
            raise ValueError("adaptation needs label-1 instances")
        response_pool = [inst.response for inst in instances]
        if len(response_pool) < 2:
            raise ValueError("adaptation needs at least 2 distinct responses")
        if validation is not None:
            val_fixed = _corrupted_pairs(
                validation, response_pool, vocab, max_len, np.random.default_rng(train_config.seed + 104729)
            )
    else:
        instances = list(dataset)
        encoded_cache = [encode_instance(inst, vocab, max_len) for inst in instances]
        labels_cache = np.array([inst.label for inst in instances], dtype=float)

    steps_per_epoch = math.ceil(len(instances) / train_config.batch_size)
    total_steps = steps_per_epoch * train_config.max_epochs
    state = AdamState.for_params(params)
    log: list[LogEntry] = []
    best_epoch: int | None = None
    best_metric: float | None = None
    best_params: dict[str, np.ndarray] | None = None
    validation_history: list[float] = []

    step = 0
    for epoch in range(train_config.max_epochs):
        order = rng.permutation(len(instances))
        for start in range(0, len(instances), train_config.batch_size):
            batch_idx = order[start : start + train_config.batch_size]
            lr = linear_lr(train_config.learning_rate, step, total_steps)
            if phase == "finetune":
                loss, grads = _finetune_batch(
                    [encoded_cache[j] for j in batch_idx], labels_cache[batch_idx],
                    params, model_config,
                )
            else:
                corrupted = _corrupted_pairs([instances[j] for j in batch_idx], response_pool, vocab, max_len, rng)
                loss, grads = _adaptation_batch(*corrupted, params, model_config)
            if not math.isfinite(loss):
                raise TrainingDiverged("non-finite loss at step %d" % step)
            adamw_step(params, grads, state, lr, WEIGHT_DECAY, frozen=frozen)
            step += 1
            log.append(LogEntry(step=step, phase=phase, loss=loss, lr=lr))

        if validation is not None:
            if phase == "adapt":
                metric = _adaptation_validation_loss(*val_fixed, params, model_config)
                better = best_metric is None or metric < best_metric
            else:
                metric = _validation_recall_at_1(validation, params, model_config, vocab)
                better = best_metric is None or metric > best_metric
            validation_history.append(metric)
            if better:
                best_metric = metric
                best_epoch = epoch
                best_params = {k: v.copy() for k, v in params.items()}

    if best_params is not None:
        for k in params:
            params[k][...] = best_params[k]
    return TrainResult(params=params, log=log, best_epoch=best_epoch, validation_history=validation_history)


def write_loss_log(path: str | Path, entries: Sequence[LogEntry]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "phase", "loss", "lr"])
        for entry in entries:
            writer.writerow([entry.step, entry.phase, "%.10g" % entry.loss, "%.10g" % entry.lr])

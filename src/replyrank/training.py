"""Two-phase training: corruption+next-utterance adaptation, then matching.

Phase one corrupts content tokens (80% [MASK], 10% random, 10% kept) and
pairs each context with its true response half the time, optimizing the sum
of the reconstruction and pair-classification losses.  Phase two minimizes
binary cross-entropy on the matching head.  Both phases share an Adam-style
optimizer with decoupled weight decay and a learning rate decaying linearly
to zero over the planned steps.

Every step of either phase, and adaptation validation, is one call of
``_objective``: it runs the batch in row blocks of ``model.block_rows`` at
its widest input with the phase's per-block loss (``_matching_block`` or
``_adaptation_block``) and adds the blocks' gradients.  A batch of several
blocks is cut in length order (``_row_blocks``), so each block is padded
only to the longest of rows of similar length.  The phases differ only in
how a batch is drawn: cached encodings and labels, or a fresh corruption
draw.
"""

from __future__ import annotations

import csv
import math
import mmap
import os
from contextlib import closing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

from .encoding import EncodedInput, MatchingInstance, build_input, encode_instance
from .evaluation import top1_recall
from .model import (
    ModelConfig,
    _is_int,
    _WorkerPool,
    _workers,
    backward,
    block_rows,
    forward_batch,
    sigmoid,
    stack_inputs,
    validate_params,
)
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
# tokens corrupted in adaptation, and AdamW's decoupled weight decay, moment
# decay rates and denominator epsilon.
MASK_FRACTION = 0.15
WEIGHT_DECAY = 0.01
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


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
    """One optimizer step: its loss and learning rate, and the real and padded positions its row blocks stacked."""

    step: int
    phase: str
    loss: float
    lr: float
    real_slots: int
    padded_slots: int


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
) -> tuple[list[EncodedInput], tuple[list[list[MaskedPosition]], np.ndarray]]:
    """Pair and corrupt each instance: ``(masked encodings, (plans, pair labels))``.

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
    return encoded, (plans, np.array(labels))


def _softmax_ce_rows(logits: np.ndarray, targets: np.ndarray):
    """Cross-entropy and its logit gradient for rows of logits.

    One exp pass over the max-shifted logits gives both each row's
    log-sum-exp and its softmax probabilities.
    """
    picked = np.arange(len(targets)), targets
    shifted = logits - logits.max(axis=-1, keepdims=True)
    losses = -shifted[picked]
    probs = np.exp(shifted, out=shifted)
    total = probs.sum(axis=-1, keepdims=True)
    losses += np.log(total[:, 0])
    probs /= total
    probs[picked] -= 1.0
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
    *,
    frozen: frozenset[str] = frozenset(),
) -> None:
    """In-place adaptive-moment update with decoupled weight decay.

    Decay applies only to matrices/tables; biases and layernorm vectors are
    exempt, as are frozen tensors (skipped entirely).
    """
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for name, p in params.items():
        if name in frozen:
            continue
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        # in two scratch buffers, in the order of m = BETA1 * m + (1 - BETA1) * g,
        # v = BETA2 * v + (1 - BETA2) * g * g and p -= lr * (update + weight_decay * p),
        # update = (m / bc1) / (sqrt(v / bc2) + ADAM_EPS)
        scratch = np.multiply(1.0 - BETA1, g)
        m *= BETA1
        m += scratch
        np.multiply(1.0 - BETA2, g, out=scratch)
        scratch *= g
        v *= BETA2
        v += scratch
        np.divide(v, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        update = np.divide(m, bc1)
        update /= scratch
        if weight_decay > 0.0 and p.ndim >= 2:
            np.multiply(weight_decay, p, out=scratch)
            update += scratch
        update *= lr
        p -= update


def linear_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Linear decay from base_lr at step 0 to zero at step == total_steps."""
    return base_lr * (1.0 - step / total_steps)


# --- training loop -------------------------------------------------------------


def _matching_block(encoded: list[EncodedInput], labels: np.ndarray, rows: slice, params, model_config):
    """Matching cross-entropy on rows ``rows`` of a batch: ``((losses,), trace, head gradients)``.

    The head gradients are ``backward``'s ``(d_match, d_nsp, d_mlm)``; the
    match gradient is divided by the whole batch's row count.
    """
    match_logits, mlm_logits, _, trace = forward_batch(stack_inputs(encoded[rows]), params, model_config)
    losses = np.logaddexp(0.0, match_logits) - labels[rows] * match_logits
    d_match = (sigmoid(match_logits) - labels[rows]) / len(labels)
    return (losses,), trace, (d_match, np.zeros((len(match_logits), 2)), np.zeros_like(mlm_logits))


def _adaptation_block(encoded: list[EncodedInput], targets, rows: slice, params, model_config):
    """Masked-token and pair cross-entropy on rows ``rows`` of a batch, as ``_matching_block`` returns them.

    ``targets`` is ``(plans, pair labels)`` for the whole batch.  The
    masked-token losses come one per plan position, in plan order, and the
    vocabulary logits only at those positions.  The pair gradient is divided
    by the batch's row count and the masked-token gradient by its total
    masked positions, whatever the blocks.
    """
    plans, nsp_labels = targets
    block = plans[rows]
    mlm_rows = np.repeat(np.arange(len(block)), [len(plan) for plan in block])
    cols = np.array([pos.index for plan in block for pos in plan])
    original = np.array([pos.original_id for plan in block for pos in plan])
    batch = stack_inputs(encoded[rows])
    _, mlm_logits, nsp_logits, trace = forward_batch(batch, params, model_config, (mlm_rows, cols))
    mlm_losses, d_mlm = _softmax_ce_rows(mlm_logits, original)
    nsp_losses, d_nsp = _softmax_ce_rows(nsp_logits, nsp_labels[rows])
    d_mlm *= 1.0 / sum(len(plan) for plan in plans)
    d_nsp *= 1.0 / len(plans)
    return (mlm_losses, nsp_losses), trace, (np.zeros(len(nsp_losses)), d_nsp, d_mlm)


def _blocks_in_order(block_loss, encoded, targets, blocks: list[slice], params, model_config, backprop: bool):
    """Each block's losses, and the step's gradients when ``backprop``: ``(per-block losses, grads)``.

    Each block's gradients are added into the step's one gradient dict
    before its trace is freed; without ``backprop`` nothing is
    differentiated and ``grads`` is None.
    """
    heads, grads = [], None
    for rows in blocks:
        losses, trace, d_heads = block_loss(encoded, targets, rows, params, model_config)
        if backprop:
            grads = backward(trace, params, *d_heads, grads)
        del trace, d_heads  # free this block's activations before the next forward
        heads.append(losses)
    return heads, grads


def _tensor_views(flat: np.ndarray, params) -> dict[str, np.ndarray]:
    """One view of ``flat`` per tensor of ``params``, shaped like it, in order."""
    views, start = {}, 0
    for name, tensor in params.items():
        views[name] = flat[start : start + tensor.size].reshape(tensor.shape)
        start += tensor.size
    return views


def _shared(size: int) -> np.ndarray:
    """``size`` zeroed float64 values in an anonymous shared mapping, where every worker reads what any writes."""
    return np.frombuffer(mmap.mmap(-1, 8 * size))


def _share_params(params) -> None:
    """Move every tensor of ``params`` into one shared mapping, in place: the dict then holds views of it."""
    flat = _shared(sum(tensor.size for tensor in params.values()))
    for name, view in _tensor_views(flat, params).items():
        view[...] = params[name]
        params[name] = view


def _loss_slots(encoded, blocks: list[slice]) -> np.ndarray:
    """Where each block's losses start in the shared loss array, and where the last block's end.

    A block's slot holds its head count, up to three heads' loss counts, then
    its losses: at most one a position (masked tokens) and one a row ([CLS]
    heads).
    """
    width = max(len(enc) for enc in encoded)
    return np.cumsum([0] + [4 + len(encoded[rows]) * (width + 1) for rows in blocks])


class _StepWorkers:
    """The workers that share a phase's steps of several blocks, forked once, at the first such step.

    ``step`` returns ``_blocks_in_order``'s result with backprop.  The pool
    (``model._WorkerPool``) has N = ``model._workers`` of the most blocks a
    step of at most ``rows`` rows, none wider than ``width``, can have.  It
    captures the block loss, the parameters and the shared arrays at fork
    time, and a step sends it only ``(encoded, targets, blocks)``; so the
    parameters must not move while it is open, and are read where the
    caller's updates land when they live in a shared mapping
    (``_share_params``).  The gradient sum and the loss slots are mapped
    once, before the fork.

    Of a step's B blocks, worker w takes blocks w, w + n, ... of
    n = min(N, B) workers.  It runs each into its own zeroed gradient
    buffer, then (for every block but block 0) waits on its pipe of a ring
    for the one-byte token that says block j - 1 has been added, adds the
    buffer into the shared gradient sum, writes the block's losses into the
    block's slot and passes the token to the next worker.  So the blocks'
    gradients reach the sum one by one in block order, and since
    ``backward`` adds into each tensor once per call and a sum that starts
    at +0.0 never becomes -0.0, every entry rounds as in
    ``_blocks_in_order``'s one running dict.  Worker w reads only ring pipe
    w and writes only pipe w + 1 (mod N), so a worker that ends makes the
    next one read end-of-file, which raises; on any failure the caller runs
    the step again serially.
    """

    def __init__(self, block_loss, params, model_config, rows: int, width: int) -> None:
        self.block_loss, self.params, self.config = block_loss, params, model_config
        self.blocks = math.ceil(rows / block_rows(width, model_config))
        self.loss_size = 4 * self.blocks + rows * (width + 1)
        self.pool = None

    def _open(self) -> None:
        # the children's work refers to none of self, so no cycle keeps the shared arrays alive after the phase
        block_loss, params, config = self.block_loss, self.params, self.config
        workers = _workers(self.blocks)
        size = sum(tensor.size for tensor in params.values())
        shared = _shared(size + self.loss_size)
        total, losses = shared[:size], shared[size:]
        self.sum, self.losses = total, losses
        self.grads = _tensor_views(total, params)
        own = np.zeros(size)
        own_grads = _tensor_views(own, params)
        ring = [os.pipe() for _ in range(workers)]
        ends = [(ring[w][0], ring[(w + 1) % workers][1]) for w in range(workers)]

        def work(worker, job):
            encoded, targets, blocks = job
            read_end, write_end = ends[worker]
            slots = _loss_slots(encoded, blocks)
            for j in range(worker, len(blocks), min(workers, len(blocks))):
                own.fill(0.0)
                block_losses, trace, d_heads = block_loss(encoded, targets, blocks[j], params, config)
                backward(trace, params, *d_heads, own_grads)
                del trace, d_heads
                if j > 0 and os.read(read_end, 1) != b"\0":
                    raise ChildProcessError("a training worker ended before adding block %d" % (j - 1))
                np.add(total, own, out=total)
                record = np.concatenate(([len(block_losses)], [len(head) for head in block_losses], *block_losses))
                losses[slots[j] : slots[j] + len(record)] = record
                if j + 1 < len(blocks):
                    os.write(write_end, b"\0")

        self.pool = _WorkerPool(workers, work, "training worker %d ended without adding its gradients", ends)

    def step(self, encoded, targets, blocks: list[slice]):
        """``(per-block losses, grads)`` of one step; ``grads`` view the shared sum, valid until the next step."""
        if self.pool is None:
            self._open()
        self.sum.fill(0.0)
        self.pool.run((encoded, targets, blocks), lambda: _blocks_in_order(
            self.block_loss, encoded, targets, blocks, self.params, self.config, True))
        heads = []
        for start in _loss_slots(encoded, blocks)[:-1]:
            count = int(self.losses[start])
            lengths = self.losses[start + 1 : start + 1 + count].astype(int)
            values = self.losses[start + 1 + count : start + 1 + count + lengths.sum()]
            heads.append(np.split(values, np.cumsum(lengths)[:-1]))
        return heads, self.grads

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()


def _row_blocks(encoded: list[EncodedInput], model_config) -> tuple[list[int], list[slice]]:
    """``(order, blocks)``: a batch runs its rows in ``order``, in ``blocks`` of ``block_rows`` rows at its widest.

    A batch of one block keeps its order.  A batch of several is sorted
    stably by length, so each block is stacked only as wide as its own
    longest row, among rows of similar length, instead of a random long one.
    """
    lengths = [len(enc) for enc in encoded]
    size = block_rows(max(lengths), model_config)
    order = list(range(len(lengths)))
    if size < len(lengths):
        order.sort(key=lengths.__getitem__)
    return order, [slice(start, start + size) for start in range(0, len(lengths), size)]


def _in_order(targets, order: list[int]):
    """A batch's targets rearranged with its rows: an array or a list of one per row, or a tuple of them."""
    if isinstance(targets, tuple):
        return tuple(_in_order(part, order) for part in targets)
    return targets[order] if isinstance(targets, np.ndarray) else [targets[i] for i in order]


def _slot_counts(encoded: list[EncodedInput], model_config) -> tuple[int, int]:
    """``(real, padded)``: a batch's real positions, and the padding its row blocks stack beside them."""
    order, blocks = _row_blocks(encoded, model_config)
    lengths = [len(encoded[i]) for i in order]
    real = sum(lengths)
    return real, sum(len(lengths[rows]) * max(lengths[rows]) for rows in blocks) - real


def _objective(block_loss, encoded: list[EncodedInput], targets, params, model_config, backprop: bool = True,
               workers: _StepWorkers | None = None):
    """A phase's loss on one batch, and its gradients when ``backprop``: ``(loss, grads)``.

    The batch runs in the blocks of ``_row_blocks``, its rows and
    ``targets`` (the finetune labels, or the adaptation plans and pair
    labels) moved to their order; ``block_loss`` (a ``*_block`` function)
    scores one.  The loss is the sum over heads of each head's mean over the
    whole batch.
    With ``backprop``, a step of several blocks and more than one usable
    core runs on ``workers`` (a ``_StepWorkers`` of the same block loss and
    parameters), or on workers forked for this call when it is None, and
    the result is byte-identical to the serial ``_blocks_in_order``;
    without ``backprop``, nothing is differentiated, ``grads`` is None and
    the blocks run serially.  The parameters are checked once, before the
    first block, when ``backprop``: a non-finite tensor is a
    ``NumericError`` before any update.
    """
    if backprop:
        validate_params(model_config, params)
    order, blocks = _row_blocks(encoded, model_config)
    encoded, targets = [encoded[i] for i in order], _in_order(targets, order)
    if backprop and _workers(len(blocks)) > 1:
        if workers is None:  # a lone step: workers for it alone
            width = max(len(enc) for enc in encoded)
            with closing(_StepWorkers(block_loss, params, model_config, len(encoded), width)) as lone:
                heads, grads = lone.step(encoded, targets, blocks)
        else:
            heads, grads = workers.step(encoded, targets, blocks)
    else:
        heads, grads = _blocks_in_order(block_loss, encoded, targets, blocks, params, model_config, backprop)
    return float(sum(np.concatenate(head).mean() for head in zip(*heads))), grads


def _validation_recall_at_1(pools: Sequence[Sequence[MatchingInstance]], params, model_config, vocab) -> float:
    """Mean top-1 recall of the answered ``pools``, whatever their sizes."""
    # rank_pools lives in cli, whose module-level names perfbench traces;
    # cli imports this module, so the import is deferred to call time.
    from .cli import rank_pools

    recalls = [top1_recall(pool) for pool in rank_pools(pools, params, model_config, vocab)]
    return sum(recalls) / len(recalls)


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
    ``validation`` is a list of candidate pools (lists of instances), each
    holding a positive; the returned params are the epoch checkpoint with
    the best validation metric (lowest combined loss, respectively highest
    top-1 recall).  ``validation`` may be None but not empty.

    The dict ``params`` is updated in place, but its tensors are first moved
    into one shared mapping (``_share_params``), so an array taken from it
    before the call does not see the updates.  The phase's steps of several
    blocks run on one ``_StepWorkers``, closed when the phase ends.
    """
    if phase not in ("adapt", "finetune"):
        raise ValueError("unknown phase %r" % phase)
    if not dataset:
        raise ValueError("dataset is empty")
    if validation is not None and not validation:
        raise ValueError("validation is empty: give None to train without validation")
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
        block_loss = _adaptation_block

        def draw(batch_idx):
            return _corrupted_pairs([instances[j] for j in batch_idx], response_pool, vocab, max_len, rng)
    else:
        instances = list(dataset)
        encoded_cache = [encode_instance(inst, vocab, max_len) for inst in instances]
        labels_cache = np.array([inst.label for inst in instances], dtype=float)
        block_loss = _matching_block

        def draw(batch_idx):
            return [encoded_cache[j] for j in batch_idx], labels_cache[batch_idx]

    steps_per_epoch = math.ceil(len(instances) / train_config.batch_size)
    total_steps = steps_per_epoch * train_config.max_epochs
    _share_params(params)  # before AdamState, which can reuse the memory of the old arrays
    state = AdamState.for_params(params)
    log: list[LogEntry] = []
    best_epoch: int | None = None
    best_metric: float | None = None
    best_params: dict[str, np.ndarray] | None = None
    validation_history: list[float] = []

    step = 0
    batch_rows = min(train_config.batch_size, len(instances))
    with closing(_StepWorkers(block_loss, params, model_config, batch_rows, max_len)) as workers:
        for epoch in range(train_config.max_epochs):
            order = rng.permutation(len(instances))
            for start in range(0, len(instances), train_config.batch_size):
                batch_idx = order[start : start + train_config.batch_size]
                lr = linear_lr(train_config.learning_rate, step, total_steps)
                encoded, targets = draw(batch_idx)
                loss, grads = _objective(block_loss, encoded, targets, params, model_config, workers=workers)
                if not math.isfinite(loss):
                    raise TrainingDiverged("non-finite loss at step %d" % step)
                adamw_step(params, grads, state, lr, WEIGHT_DECAY, frozen=frozen)
                del grads  # free a serial step's gradients before the next step's
                step += 1
                real, padded = _slot_counts(encoded, model_config)
                log.append(LogEntry(step=step, phase=phase, loss=loss, lr=lr, real_slots=real, padded_slots=padded))

            if validation is not None:
                if phase == "adapt":
                    metric = _objective(block_loss, *val_fixed, params, model_config, backprop=False)[0]
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
        writer.writerow(["step", "phase", "loss", "lr", "real_slots", "padded_slots"])
        for entry in entries:
            writer.writerow([entry.step, entry.phase, "%.10g" % entry.loss, "%.10g" % entry.lr,
                             entry.real_slots, entry.padded_slots])

"""A training step of several row blocks runs them on every usable core, byte-identical to the serial run.

``training._StepWorkers`` adds each block's fresh gradients into the
step's shared sum in block order.  That equals the serial loop's one running
dict only because ``backward`` adds into every gradient tensor exactly once
per call (``TestBackwardAddsOnce``).  The tests patch ``model._usable_cores``
to pick the worker count and ``model.BLOCK_BYTES`` for 2-row blocks.
"""

import gc
import os
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import replyrank.model
import replyrank.training
from replyrank.encoding import encode_instance
from replyrank.model import ModelConfig, NumericError, backward, forward_batch, init_params, stack_inputs
from replyrank.training import TrainConfig, _matching_block, _objective, train
from helpers import VOCAB, random_encoded, tiny_model_config, topic_instances, topic_pools, topic_vocab


class TestBackwardAddsOnce:
    """``backward`` into a dict G gives, bit for bit, G plus what it gives into zeros.

    So adding a block's fresh gradients into the step's sum rounds exactly as
    the serial loop's running dict.  It holds because every tensor takes one
    addition per call; a decoder tied to the token table would add two
    contributions into ``token_table``, so it must sum them within the block
    before adding them (ROADMAP item 21).
    """

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(2, 5),
        layers=st.integers(1, 3),
        heads=st.sampled_from([1, 2, 4]),
        requested=st.booleans(),
    )
    def test_into_a_dict_is_the_dict_plus_a_fresh_run(self, seed, size, layers, heads, requested):
        rng = np.random.default_rng(seed)
        config = ModelConfig(vocab_size=len(VOCAB), hidden_dim=8, num_layers=layers, num_heads=heads, ffn_dim=12,
                             max_seq_len=32)
        params = init_params(config, rng)
        batch = stack_inputs([random_encoded(rng) for _ in range(size)])
        assume(not batch.attention_mask.all())  # padded rows
        positions = None
        if requested:
            real = np.argwhere(batch.attention_mask)
            picked = real[np.sort(rng.choice(len(real), size=min(6, len(real)), replace=False))]
            positions = (picked[:, 0], picked[:, 1])
        match_logits, mlm_logits, nsp_logits, trace = forward_batch(batch, params, config, positions)
        d_heads = (rng.standard_normal(match_logits.shape), rng.standard_normal(nsp_logits.shape),
                   rng.standard_normal(mlm_logits.shape))
        start = {name: rng.standard_normal(p.shape) * 10.0 ** rng.uniform(-8, 8, p.shape) for name, p in params.items()}
        into = backward(trace, params, *d_heads, {name: g.copy() for name, g in start.items()})
        fresh = backward(trace, params, *d_heads)
        for name, g in start.items():
            assert into[name].tobytes() == (g + fresh[name]).tobytes(), name


def two_row_blocks(monkeypatch, config, width):
    """Patch ``model.BLOCK_BYTES`` so a step whose widest input is ``width`` runs in 2-row blocks."""
    per_row = 8 * (config.num_heads * width * width + config.ffn_dim * width)
    monkeypatch.setattr(replyrank.model, "BLOCK_BYTES", 2 * per_row)
    assert replyrank.model.block_rows(width, config) == 2


class TestTrainAtEveryWorkerCount:
    def setup_method(self):
        self.vocab = topic_vocab()
        self.config = tiny_model_config(vocab_size=len(self.vocab), max_seq_len=32)
        self.instances = topic_instances(np.random.default_rng(5), 28)
        self.width = max(len(encode_instance(inst, self.vocab, 32)) for inst in self.instances)

    def run(self, monkeypatch, phase, cores, validate=True, one_block=False):
        """Loss log and final parameters of a 2-epoch run in 7-row batches (four blocks a step, or one) on ``cores``."""
        if one_block:
            monkeypatch.setattr(replyrank.model, "BLOCK_BYTES", 10**9)
        else:
            two_row_blocks(monkeypatch, self.config, self.width)
        monkeypatch.setattr(replyrank.model, "_usable_cores", lambda: cores)
        params = init_params(self.config, np.random.default_rng(2))
        validation = self.instances[:6] if phase == "adapt" else topic_pools(np.random.default_rng(6), 3, pool_size=4)
        result = train(phase, self.instances, params, self.config,
                       TrainConfig(learning_rate=1e-3, batch_size=7, max_epochs=2, seed=3), self.vocab,
                       validation if validate else None)
        log = [(e.step, e.phase, e.loss.hex(), e.lr.hex()) for e in result.log]
        return log, {name: p.tobytes() for name, p in result.params.items()}

    @pytest.mark.parametrize("phase", ["adapt", "finetune"])
    def test_loss_logs_and_parameters_are_byte_identical(self, monkeypatch, phase):
        serial = self.run(monkeypatch, phase, 1)
        assert len(serial[0]) == (4 if phase == "adapt" else 8)
        for cores in (2, 3):
            assert self.run(monkeypatch, phase, cores) == serial

    @pytest.mark.parametrize("phase", ["adapt", "finetune"])
    def test_a_phase_forks_each_child_once_whatever_its_step_count(self, monkeypatch, phase):
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        for cores in (2, 3):
            forks.clear()
            log, _ = self.run(monkeypatch, phase, cores, validate=False)
            assert len(log) == (4 if phase == "adapt" else 8)
            assert len(forks) == cores - 1
        forks.clear()
        self.run(monkeypatch, phase, 3, validate=False, one_block=True)
        assert forks == []

    def test_the_phase_workers_are_freed_without_the_cycle_collector(self, monkeypatch):
        """No reference cycle keeps a finished phase's shared arrays, gradient buffer and parameters alive."""
        made = []

        class Recorded(replyrank.training._StepWorkers):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        monkeypatch.setattr(replyrank.training, "_StepWorkers", Recorded)
        gc.disable()
        try:
            self.run(monkeypatch, "finetune", 2, validate=False)
            assert len(made) == 1 and made[0]() is None
        finally:
            gc.enable()


class TestFailuresAtALaterStep:
    """A block that fails at step 2 raises what a serial run raises; a child that dies there is an error.

    The pool was forked at step 1, so these failures reach workers that have
    already run a step.  The blocks tell step 2 from step 1 by the
    parameters, which AdamW has moved by then, in every worker; the conftest
    guards check that the failed phase leaves no child process and no file
    descriptor behind.
    """

    def setup_method(self):
        TestTrainAtEveryWorkerCount.setup_method(self)
        self.initial = init_params(self.config, np.random.default_rng(2))

    def train(self, monkeypatch, cores, block_loss):
        two_row_blocks(monkeypatch, self.config, self.width)
        monkeypatch.setattr(replyrank.model, "_usable_cores", lambda: cores)
        monkeypatch.setattr(replyrank.training, "_matching_block", block_loss)
        params = {name: p.copy() for name, p in self.initial.items()}
        train("finetune", self.instances, params, self.config,
              TrainConfig(learning_rate=1e-3, batch_size=7, max_epochs=2, seed=3), self.vocab)

    def after_step_1(self, params):
        return not np.array_equal(params["token_table"], self.initial["token_table"])

    @pytest.mark.parametrize("failing", [{0}, {1}, {3, 1, 2}])
    def test_a_failing_block_raises_as_a_serial_run(self, monkeypatch, failing):
        def failing_block(encoded, targets, rows, params, config):
            if self.after_step_1(params) and rows.start // 2 in failing:
                raise NumericError("non-finite values in block %d" % (rows.start // 2))
            return _matching_block(encoded, targets, rows, params, config)

        errors = []
        for cores in (1, 2, 3):
            with pytest.raises(NumericError) as failure:
                self.train(monkeypatch, cores, failing_block)
            errors.append((type(failure.value), str(failure.value)))
        assert errors == [(NumericError, "non-finite values in block %d" % min(failing))] * 3

    @pytest.mark.parametrize("cores, stop", [
        (2, 1),  # a block the caller waits on
        (2, 3),  # the step's last block
        (3, 2),  # the block before the caller's block 3
    ])
    def test_a_child_that_dies_is_an_error(self, monkeypatch, cores, stop):
        parent = os.getpid()

        def dying_block(encoded, targets, rows, params, config):
            if os.getpid() != parent and self.after_step_1(params) and rows.start // 2 == stop:
                os._exit(1)
            return _matching_block(encoded, targets, rows, params, config)

        with pytest.raises(ChildProcessError, match="^training worker [0-9]+ ended without adding its gradients$"):
            self.train(monkeypatch, cores, dying_block)


class TestFailures:
    """A failing block makes the step raise what a serial run raises; a child that dies is an error."""

    def setup_method(self):
        rng = np.random.default_rng(8)
        self.config = ModelConfig(vocab_size=len(VOCAB), hidden_dim=8, num_layers=1, num_heads=2, ffn_dim=8,
                                  max_seq_len=32)
        self.params = init_params(self.config, rng)
        self.inputs = [random_encoded(rng) for _ in range(7)]  # four 2-row blocks
        self.labels = rng.integers(0, 2, size=7).astype(float)

    def step(self, monkeypatch, cores, block_loss):
        two_row_blocks(monkeypatch, self.config, max(len(enc) for enc in self.inputs))
        monkeypatch.setattr(replyrank.model, "_usable_cores", lambda: cores)
        return _objective(block_loss, self.inputs, self.labels, self.params, self.config)

    @pytest.mark.parametrize("failing", [
        {0},  # the caller's first block
        {1},  # a child's
        {3, 1, 2},  # three blocks: block 1's error is raised
    ])
    def test_a_failing_block_raises_as_a_serial_run(self, monkeypatch, failing):
        def failing_block(encoded, targets, rows, params, config):
            if rows.start // 2 in failing:
                raise NumericError("non-finite values in block %d" % (rows.start // 2))
            return _matching_block(encoded, targets, rows, params, config)

        errors = []
        for cores in (1, 2, 3):
            with pytest.raises(NumericError) as failure:
                self.step(monkeypatch, cores, failing_block)
            errors.append((type(failure.value), str(failure.value)))
        assert errors == [(NumericError, "non-finite values in block %d" % min(failing))] * 3

    @pytest.mark.parametrize("stop", [1, 3])  # a block the caller waits on, and the step's last
    def test_a_child_that_dies_mid_step_is_an_error(self, monkeypatch, stop):
        parent = os.getpid()

        def dying_block(encoded, targets, rows, params, config):
            if os.getpid() != parent and rows.start // 2 == stop:
                os._exit(1)
            return _matching_block(encoded, targets, rows, params, config)

        with pytest.raises(ChildProcessError, match="^training worker [0-9]+ ended without adding its gradients$"):
            self.step(monkeypatch, 2, dying_block)

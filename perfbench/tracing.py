"""Boundary spans for the traced benchmark run.

``Tracer.install`` replaces a function name in the module that *calls* it
(for example ``replyrank.training.forward_batch``, the name ``train`` looks
up) with a wrapper that records a span.  Function objects are never
modified and ``Tracer.remove`` puts every name back, so an untraced run
executes the program's code untouched.

Spans are kept in memory as ``(name, start, end, parent)`` and written out
once, at the end.  A layer's self time is its spans' duration minus the part
covered by their direct child spans; ``stage_residuals`` checks that, for
each stage, the self times of the stage and all its descendants add up to
the stage span.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# Per-layer metric -> the span names whose self time it sums.
TIME_METRICS = {
    "corpus.load_channel_s": ("corpus.load_channel",),
    "disentangle.filter_channel_s": ("disentangle.filter_channel",),
    "tokenizer.build_vocab_s": ("tokenizer.build_vocab",),
    "tokenizer.tokenize_s": ("tokenizer.tokenize",),
    "encoding.build_input_s": ("encoding.build_input", "encoding.encode_instance"),
    "model.stack_inputs_s": ("model.stack_inputs",),
    "model.forward_batch_s": ("model.forward_batch",),
    "model.score_batch_s": ("model.score_batch",),
    "model.backward_s": ("model.backward",),
    "model.checkpoint_s": ("model.save_checkpoint", "model.load_checkpoint"),
    "training.train_self_s": ("training.train",),
    "training.adamw_step_s": ("training.adamw_step",),
    "training.masking_s": ("training.plan_masking", "training.apply_masking", "training.build_nsp_pair"),
    "evaluation.rank_scores_s": ("evaluation.rank_scores",),
    "evaluation.compute_report_s": ("evaluation.compute_report",),
    "cli.stage_self_s": ("cli.stage",),
}

# Per-layer metric -> the span names whose call count it is.
CALL_METRICS = {
    "corpus.load_channel_calls": ("corpus.load_channel",),
    "disentangle.filter_channel_calls": ("disentangle.filter_channel",),
    "tokenizer.tokenize_calls": ("tokenizer.tokenize",),
    "encoding.build_input_calls": ("encoding.build_input", "encoding.encode_instance"),
    "model.forward_batch_calls": ("model.forward_batch",),
    "model.backward_calls": ("model.backward",),
    "training.adamw_calls": ("training.adamw_step",),
}

_F64 = 8  # bytes per float64


def _count_filtered(counts, args, kwargs, result):
    counts["disentangle.scanned"] += len(args[0])
    counts["disentangle.kept"] += len(result.utterances)


def _count_encoded(counts, args, kwargs, result):
    real = sum(result.attention_mask)
    counts["encoding.real_tokens"] += real
    counts["encoding.padded_tokens"] += len(result.attention_mask) - real


def _count_forward(counts, args, kwargs, result):
    match_logits, mlm_logits, nsp_logits, _ = result
    counts["model.forward_rows"] += len(match_logits)
    counts["model.head_logit_bytes"] += match_logits.nbytes + mlm_logits.nbytes + nsp_logits.nbytes


def _count_scored(counts, args, kwargs, result):
    # score_batch returns only (B,) probabilities, but the forward inside it
    # builds every head; the bytes are computed from the shapes it produces:
    # (B,) match, (B, 2) pair and (B, L, V) vocabulary logits.
    batch, _, config = args[:3]
    rows, length = batch.token_ids.shape
    counts["model.forward_rows"] += rows
    counts["model.scored_rows"] += rows
    counts["model.head_logit_bytes"] += rows * (1 + 2 + length * config.vocab_size) * _F64


def _count_adamw(counts, args, kwargs, result):
    params = args[0]
    frozen = kwargs.get("frozen", args[8] if len(args) > 8 else frozenset())
    counts["training.param_bytes_updated"] += sum(p.nbytes for n, p in params.items() if n not in frozen)


# (calling module, name it looks up, span name, counter)
BOUNDARIES = (
    ("replyrank.cli", "load_channel", "corpus.load_channel", None),
    ("replyrank.cli", "filter_channel", "disentangle.filter_channel", _count_filtered),
    ("replyrank.cli", "build_vocab", "tokenizer.build_vocab", None),
    ("replyrank.cli", "encode_instance", "encoding.encode_instance", _count_encoded),
    ("replyrank.cli", "stack_inputs", "model.stack_inputs", None),
    ("replyrank.cli", "score_batch", "model.score_batch", _count_scored),
    ("replyrank.cli", "save_checkpoint", "model.save_checkpoint", None),
    ("replyrank.cli", "load_checkpoint", "model.load_checkpoint", None),
    ("replyrank.cli", "train", "training.train", None),
    ("replyrank.cli", "rank_scores", "evaluation.rank_scores", None),
    ("replyrank.cli", "compute_report", "evaluation.compute_report", None),
    ("replyrank.encoding", "tokenize", "tokenizer.tokenize", None),
    ("replyrank.training", "build_input", "encoding.build_input", _count_encoded),
    ("replyrank.training", "encode_instance", "encoding.encode_instance", _count_encoded),
    ("replyrank.training", "stack_inputs", "model.stack_inputs", None),
    ("replyrank.training", "forward_batch", "model.forward_batch", _count_forward),
    ("replyrank.training", "backward", "model.backward", None),
    ("replyrank.training", "adamw_step", "training.adamw_step", _count_adamw),
    ("replyrank.training", "plan_masking", "training.plan_masking", None),
    ("replyrank.training", "apply_masking", "training.apply_masking", None),
    ("replyrank.training", "build_nsp_pair", "training.build_nsp_pair", None),
)


class Tracer:
    """In-memory span recorder with boundary wrappers."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.labels: dict[int, str] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def run(self, name: str, fn, *args, counter=None, label=None, **kwargs):
        """Call ``fn`` inside a span named ``name`` (``label`` tags a stage span)."""
        sid = len(self.spans)
        if label is not None:
            self.labels[sid] = label
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent)
        if counter is not None:
            counter(self.counts, args, kwargs, result)
        return result

    def wrap(self, fn, name: str, counter=None):
        """``fn`` with every call recorded as a span named ``name``."""

        def traced(*args, **kwargs):
            return self.run(name, fn, *args, counter=counter, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self, boundaries=BOUNDARIES) -> None:
        for module_name, attr, span_name, counter in boundaries:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append("%s.%s" % (module_name, attr))
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span_name, counter))

    def remove(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        records = [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
            for i, s in enumerate(self.spans)
        ]
        for sid, label in self.labels.items():
            records[sid]["stage"] = label
        Path(path).write_text(
            json.dumps({"spans": records, "counts": dict(self.counts), "missing": self.missing}),
            encoding="utf-8",
        )


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start"], s["end"]))
    result = []
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for start, end in sorted(children[s["id"]]):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        result.append((s["end"] - s["start"]) - covered)
    return result


def stage_residuals(spans: list[dict], selfs: list[float]) -> dict[str, float]:
    """Per stage: span duration minus (own self time + descendants' self times)."""
    root_of = {}
    for s in spans:  # parents are recorded before their children
        root_of[s["id"]] = s["id"] if s["parent"] < 0 else root_of[s["parent"]]
    total = defaultdict(float)
    for s, own in zip(spans, selfs):
        total[root_of[s["id"]]] += own
    residuals = {}
    for s in spans:
        if s["parent"] < 0:
            residuals[s.get("stage", s["name"])] = (s["end"] - s["start"]) - total[s["id"]]
    return residuals


def layer_metrics(dump: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics and per-stage residuals from one span dump."""
    spans = dump["spans"]
    counts = dump["counts"]
    selfs = self_times(spans)
    by_name_time = defaultdict(float)
    by_name_calls = defaultdict(int)
    for s, own in zip(spans, selfs):
        by_name_time[s["name"]] += own
        by_name_calls[s["name"]] += 1
    metrics = {m: sum(by_name_time[n] for n in names) for m, names in TIME_METRICS.items()}
    metrics.update({m: sum(by_name_calls[n] for n in names) for m, names in CALL_METRICS.items()})
    scanned = counts.get("disentangle.scanned", 0)
    metrics["disentangle.kept_ratio"] = counts.get("disentangle.kept", 0) / scanned if scanned else 0.0
    real = counts.get("encoding.real_tokens", 0)
    padded = counts.get("encoding.padded_tokens", 0)
    metrics["encoding.real_tokens"] = real
    metrics["encoding.padded_tokens"] = padded
    metrics["encoding.real_token_ratio"] = real / (real + padded) if real + padded else 0.0
    rows = counts.get("model.forward_rows", 0)
    metrics["model.forward_rows"] = rows
    metrics["model.head_logit_bytes"] = counts.get("model.head_logit_bytes", 0) / rows if rows else 0.0
    metrics["training.param_bytes_updated"] = counts.get("training.param_bytes_updated", 0)
    return metrics, stage_residuals(spans, selfs)

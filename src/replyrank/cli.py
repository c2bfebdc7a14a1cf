"""Command-line surface for the response-selection pipeline.

Subcommands: ``build-vocab``, ``disentangle``, ``adapt``, ``finetune``,
``evaluate`` and ``encode``.  Every file-producing run writes a JSON
manifest next to its primary output recording the command, config snapshot,
input content hashes and seed, so a run can be replayed bit-for-bit.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .corpus import CandidatePool, CorpusError, extract_spoken_to, load_channel, write_channel
from .disentangle import DEFAULT_CONTEXT_CAP, cap_context, filter_channel
from .encoding import (
    MatchingInstance,
    assign_roles_by_appearance,
    encode_instance,
    format_tracks,
    instance_from_example,
    instance_from_filtered,
)
from .evaluation import (
    DEFAULT_THRESHOLD_GRID,
    apply_no_answer,
    compute_report,
    format_report,
    rank_scores,
    select_threshold,
)
from .model import (
    CheckpointError,
    ModelConfig,
    NumericError,
    init_params,
    load_checkpoint,
    save_checkpoint,
    score_batch,
    stack_inputs,
)
from .tokenizer import Vocabulary, build_vocab
from .training import TrainConfig, TrainingDiverged, train, write_loss_log

CONFIG_DIR_ENV = "REPLYRANK_CONFIG_DIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through our exit codes
        raise UsageError(message)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(command: str, args: argparse.Namespace, inputs: list, outputs: list, seed, started: str) -> None:
    outputs = [Path(p) for p in outputs if p]
    if not outputs:
        return
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "command"},
        "inputs": {str(p): _sha256(Path(p)) for p in inputs if p},
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
    }
    path = Path(str(outputs[0]) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n", encoding="utf-8")


def _resolve_config(name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    config_dir = os.environ.get(CONFIG_DIR_ENV)
    if config_dir:
        fallback = Path(config_dir) / name
        if fallback.exists():
            return fallback
    raise UsageError("config file %r not found (set %s for a search directory)" % (name, CONFIG_DIR_ENV))


def _load_config(name: str | None) -> dict:
    if name is None:
        return {}
    path = _resolve_config(name)
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError("config file %s is not valid JSON: %s" % (path, exc)) from exc
    if not isinstance(config, dict):
        raise UsageError("config file %s must hold a JSON object" % path)
    return config


def _pool_instances(pool: CandidatePool, num_roles: int, disentangle: bool, cap: int) -> list[MatchingInstance]:
    instances = []
    for candidate, label in pool.candidates:
        if disentangle:
            filtered = filter_channel(pool.context, candidate.spoken_from)
            if filtered.utterances:
                instances.append(
                    instance_from_filtered(filtered, candidate, label, max_utterances=cap)
                )
                continue
        context = pool.context[-cap:]
        roles = assign_roles_by_appearance(
            [u.spoken_from for u in context] + [candidate.spoken_from], num_roles
        )
        instances.append(
            MatchingInstance(
                context=tuple((u, roles[u.spoken_from]) for u in context),
                response=candidate,
                response_role=roles[candidate.spoken_from],
                label=label,
            )
        )
    return instances


def _load_instances(path: str, fmt: str, num_roles: int, disentangle: bool, cap: int) -> list[MatchingInstance]:
    loaded = load_channel(path, fmt)
    if fmt == "tsv":
        return [instance_from_example(ex, num_roles) for ex in loaded]
    if loaded and isinstance(loaded[0], CandidatePool):
        instances = []
        for pool in loaded:
            instances.extend(_pool_instances(pool, num_roles, disentangle, cap))
        return instances
    raise CorpusError("%s holds a bare utterance channel; need examples or candidate pools" % path)


def _load_instance_pools(path: str, num_roles: int, disentangle: bool, cap: int) -> list[list[MatchingInstance]]:
    loaded = load_channel(path, "jsonl")
    if not loaded or not isinstance(loaded[0], CandidatePool):
        raise CorpusError("%s does not contain candidate pools" % path)
    return [_pool_instances(pool, num_roles, disentangle, cap) for pool in loaded]


def score_pools(
    pools: list[list[MatchingInstance]], params, config: ModelConfig, vocab: Vocabulary
) -> list[list[float]]:
    """Matching probabilities for every candidate of every pool, in candidate order.

    All candidates are encoded, sorted by real length and scored in
    consecutive chunks of at most as many rows as the largest pool, so a
    batch holds candidates of similar length and is never larger than one
    pool.
    """
    encoded = [encode_instance(inst, vocab, config.max_seq_len) for pool in pools for inst in pool]
    order = sorted(range(len(encoded)), key=lambda i: len(encoded[i]))
    chunk = max((len(pool) for pool in pools), default=1)
    scores = np.empty(len(encoded))
    for start in range(0, len(order), chunk):
        rows = order[start : start + chunk]
        scores[rows] = score_batch(stack_inputs([encoded[i] for i in rows]), params, config)
    flat = iter(scores.tolist())
    return [[next(flat) for _ in pool] for pool in pools]


def _collect_texts(paths: list[str], fmt: str) -> list[str]:
    texts = []
    for path in paths:
        if fmt == "text":
            texts.extend(Path(path).read_text(encoding="utf-8").splitlines())
        elif fmt == "tsv":
            for example in load_channel(path, "tsv"):
                texts.extend(u.text for u in example.context)
                texts.append(example.response.text)
        else:
            loaded = load_channel(path, "jsonl")
            for item in loaded:
                if isinstance(item, CandidatePool):
                    texts.extend(u.text for u in item.context)
                    texts.extend(c.text for c, _ in item.candidates)
                else:
                    texts.append(item.text)
    return texts


# --- commands ---------------------------------------------------------------


def cmd_build_vocab(args) -> int:
    started = _now()
    if args.max_size < 8:
        raise UsageError("--max-size must be at least 8 (7 specials + content)")
    vocab = build_vocab(_collect_texts(args.input, args.format), args.min_count, args.max_size)
    vocab.save(args.out)
    print("wrote vocabulary of %d tokens to %s" % (len(vocab), args.out))
    _write_manifest("build-vocab", args, args.input, [args.out], None, started)
    return EXIT_OK


def cmd_disentangle(args) -> int:
    started = _now()
    loaded = load_channel(args.channel, "jsonl")
    if loaded and isinstance(loaded[0], CandidatePool):
        raise CorpusError("%s contains candidate pools, expected a bare utterance channel" % args.channel)
    if args.infer_addressees:
        known = {u.spoken_from for u in loaded}
        enriched = []
        for u in loaded:
            if u.spoken_to is None:
                name, rest = extract_spoken_to(u.text, known)
                if name is not None:
                    u = replace(u, spoken_to=name, text=rest)
            enriched.append(u)
        loaded = enriched
    filtered = cap_context(filter_channel(loaded, args.speaker), args.cap)
    if not filtered.utterances:
        print("warning: no utterances match speaker %r" % args.speaker, file=sys.stderr)
    write_channel(
        args.out,
        [utt for utt, _ in filtered.utterances],
        extra={utt.index: {"role": role.value} for utt, role in filtered.utterances},
    )
    print("kept %d of %d utterances for %s" % (len(filtered.utterances), len(loaded), args.speaker))
    _write_manifest("disentangle", args, [args.channel], [args.out], None, started)
    return EXIT_OK


def _prepare_training(args, phase: str):
    config = _load_config(args.config)
    vocab = Vocabulary.load(args.vocab)
    seed = args.seed if args.seed is not None else config.get("train", {}).get("seed", 0)

    # phase-specific section (e.g. "adapt": {"max_epochs": ...}) overrides "train"
    train_kwargs = dict(config.get("train", {}))
    train_kwargs.update(config.get(phase, {}))
    train_kwargs["seed"] = seed
    if args.no_speaker_embeddings:
        train_kwargs["freeze_speaker_table"] = True
    try:
        train_config = TrainConfig(**train_kwargs)
    except TypeError as exc:
        raise UsageError("bad train config: %s" % exc) from exc

    checkpoint_in = getattr(args, "checkpoint_in", None)
    if getattr(args, "no_adaptation", False):
        checkpoint_in = None
    if checkpoint_in:
        model_config, params = load_checkpoint(checkpoint_in)
        if model_config.vocab_size != len(vocab):
            raise CorpusError(
                "checkpoint vocab size %d does not match vocabulary %d"
                % (model_config.vocab_size, len(vocab))
            )
    else:
        model_kwargs = dict(config.get("model", {}))
        model_kwargs["vocab_size"] = len(vocab)
        model_kwargs.setdefault("seed", seed)
        try:
            model_config = ModelConfig(**model_kwargs)
        except TypeError as exc:
            raise UsageError("bad model config: %s" % exc) from exc
        params = init_params(model_config, np.random.default_rng(seed))
    if args.no_speaker_embeddings:
        params["speaker_table"][:] = 0.0
    return vocab, model_config, train_config, params, seed


def _run_phase(args, phase: str) -> int:
    started = _now()
    vocab, model_config, train_config, params, seed = _prepare_training(args, phase)
    instances = _load_instances(
        args.data, args.format, model_config.num_speaker_roles,
        disentangle=not args.no_disentangle, cap=args.cap,
    )
    validation = None
    if args.validation:
        if phase == "finetune":
            validation = _load_instance_pools(
                args.validation, model_config.num_speaker_roles,
                disentangle=not args.no_disentangle, cap=args.cap,
            )
        else:
            validation = [
                inst
                for inst in _load_instances(
                    args.validation, args.format, model_config.num_speaker_roles,
                    disentangle=not args.no_disentangle, cap=args.cap,
                )
                if inst.label == 1
            ]
    result = train(phase, instances, params, model_config, train_config, vocab, validation=validation)
    save_checkpoint(args.checkpoint_out, model_config, result.params)
    if args.loss_log:
        write_loss_log(args.loss_log, result.log)
    last = result.log[-1]
    print("%s: %d steps, final loss %.6f" % (phase, last.step, last.loss))
    if result.best_epoch is not None:
        print("selected epoch %d checkpoint (validation metric %.6f)"
              % (result.best_epoch, result.validation_history[result.best_epoch]))
    inputs = [args.data, args.vocab] + [p for p in (args.validation, getattr(args, "checkpoint_in", None)) if p]
    _write_manifest(phase, args, inputs, [args.checkpoint_out, args.loss_log], seed, started)
    return EXIT_OK


def cmd_adapt(args) -> int:
    return _run_phase(args, "adapt")


def cmd_finetune(args) -> int:
    return _run_phase(args, "finetune")


def _parse_recall_cutoffs(arg: str | None, pools: list[list[MatchingInstance]]) -> list[tuple[int, int]]:
    if arg:
        cutoffs = []
        for piece in arg.split(","):
            try:
                n, k = piece.split(":")
                cutoffs.append((int(n), int(k)))
            except ValueError as exc:
                raise UsageError("bad --recall entry %r, expected n:k" % piece) from exc
        return cutoffs
    sizes = {len(pool) for pool in pools}
    if len(sizes) != 1:
        raise CorpusError("pools have mixed candidate counts %s; pass --recall explicitly" % sorted(sizes))
    pool_size = sizes.pop()
    cutoffs = [(pool_size, k) for k in (1, 2, 5) if k <= pool_size]
    if pool_size >= 2:
        cutoffs.append((2, 1))
    return cutoffs


def cmd_evaluate(args) -> int:
    started = _now()
    vocab = Vocabulary.load(args.vocab)
    model_config, params = load_checkpoint(args.checkpoint)
    if model_config.vocab_size != len(vocab):
        raise CorpusError("checkpoint vocab size %d does not match vocabulary %d"
                          % (model_config.vocab_size, len(vocab)))
    pools = _load_instance_pools(
        args.pools, model_config.num_speaker_roles,
        disentangle=not args.no_disentangle, cap=args.cap,
    )
    scores = score_pools(pools, params, model_config, vocab)
    ranked = [rank_scores(s, [inst.label for inst in pool]) for s, pool in zip(scores, pools)]
    cutoffs = _parse_recall_cutoffs(args.recall, pools)
    threshold = None
    if args.threshold_sweep:
        threshold = select_threshold(ranked, DEFAULT_THRESHOLD_GRID)
        ranked = apply_no_answer(ranked, threshold)
    report = compute_report(ranked, cutoffs, threshold)
    text = format_report(report)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    _write_manifest("evaluate", args, [args.pools, args.checkpoint, args.vocab], [args.out], None, started)
    return EXIT_OK


def cmd_encode(args) -> int:
    started = _now()
    vocab = Vocabulary.load(args.vocab)
    instances = _load_instances(args.data, args.format, args.num_roles, disentangle=True, cap=args.cap)
    if not 0 <= args.row < len(instances):
        raise UsageError("--row %d out of range (have %d instances)" % (args.row, len(instances)))
    enc = encode_instance(instances[args.row], vocab, args.max_len)
    text = format_tracks(enc, vocab)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        _write_manifest("encode", args, [args.data, args.vocab], [args.out], None, started)
    return EXIT_OK


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


# --- argument wiring ---------------------------------------------------------


def _add_data_args(parser, with_format=True):
    parser.add_argument("--data", required=True, help="training data file")
    if with_format:
        parser.add_argument("--format", choices=("tsv", "jsonl"), default="tsv",
                            help="data format (default tsv)")
    parser.add_argument("--cap", type=int, default=DEFAULT_CONTEXT_CAP,
                        help="max context utterances kept per example")
    parser.add_argument("--no-disentangle", action="store_true",
                        help="use raw pool contexts instead of speaker filtering")


def _add_train_args(parser):
    parser.add_argument("--vocab", required=True, help="vocabulary file")
    parser.add_argument("--config", help="JSON config file with 'model'/'train' sections")
    parser.add_argument("--checkpoint-in", help="checkpoint to continue from")
    parser.add_argument("--checkpoint-out", required=True, help="where to save the trained checkpoint")
    parser.add_argument("--loss-log", help="CSV file for per-step losses")
    parser.add_argument("--validation", help="validation data (pools for finetune)")
    parser.add_argument("--seed", type=int, help="seed override for init, shuffling and sampling")
    parser.add_argument("--no-speaker-embeddings", action="store_true",
                        help="zero and freeze the speaker embedding table")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="replyrank", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a vocabulary file from corpora")
    p.add_argument("--input", nargs="+", required=True, help="corpus file(s)")
    p.add_argument("--format", choices=("tsv", "jsonl", "text"), default="tsv")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--max-size", type=int, default=30000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("disentangle", help="filter an entangled channel for one speaker")
    p.add_argument("--channel", required=True, help="utterance channel JSONL")
    p.add_argument("--speaker", required=True, help="target (response) speaker")
    p.add_argument("--cap", type=int, default=DEFAULT_CONTEXT_CAP)
    p.add_argument("--infer-addressees", action="store_true",
                   help="fill missing 'to' labels from name:/name, prefixes before filtering")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_disentangle)

    p = sub.add_parser("adapt", help="in-domain adaptation (corruption + next-utterance objectives)")
    _add_data_args(p)
    _add_train_args(p)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("finetune", help="fine-tune the matching head")
    _add_data_args(p)
    _add_train_args(p)
    p.add_argument("--no-adaptation", action="store_true",
                   help="ignore --checkpoint-in and start from random init")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="rank candidate pools and report metrics")
    p.add_argument("--pools", required=True, help="candidate pools JSONL")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--recall", help="comma-separated n:k cutoffs, e.g. 10:1,10:2,10:5,2:1")
    p.add_argument("--threshold-sweep", action="store_true",
                   help="select a no-answer threshold on these pools")
    p.add_argument("--cap", type=int, default=DEFAULT_CONTEXT_CAP)
    p.add_argument("--no-disentangle", action="store_true")
    p.add_argument("--out", help="write the report to this file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("encode", help="inspect the encoded id tracks for one example")
    _add_data_args(p)
    p.add_argument("--vocab", required=True)
    p.add_argument("--row", type=int, default=0, help="which instance to show")
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--num-roles", type=int, default=3)
    p.add_argument("--inspect", action="store_true", help="print aligned id tracks (default behaviour)")
    p.add_argument("--out", help="also write the dump to this file")
    p.set_defaults(func=cmd_encode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, CheckpointError, OSError, json.JSONDecodeError) as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, TrainingDiverged) as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

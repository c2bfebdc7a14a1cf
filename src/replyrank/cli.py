"""Command-line surface for the response-selection pipeline.

Subcommands: ``build-vocab``, ``disentangle``, ``adapt``, ``finetune``,
``evaluate`` and ``encode``.  Every file-producing run writes a JSON
manifest next to its primary output recording the command, config snapshot,
input content hashes, seed and resource use, so a run can be replayed
bit-for-bit.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import sys
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from .corpus import CandidatePool, CorpusError, DialogueExample, extract_spoken_to, load_channel, write_channel
from .disentangle import DEFAULT_CONTEXT_CAP, cap_context, filter_channel
from .encoding import MatchingInstance, encode_instance, format_tracks, instance_from_example, instance_from_filtered
from .evaluation import DEFAULT_THRESHOLD_GRID, compute_report, format_report, rank_scores, select_threshold
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
from .tokenizer import Vocabulary, VocabularyError, build_vocab
from .training import TrainConfig, TrainingDiverged, train, write_loss_log

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# glibc's mallopt parameters and the values the CLI gives them.  By default
# glibc hands large freed blocks back to the kernel (munmap above the mmap
# threshold, heap trimming above the trim threshold), so every batch pays
# minor page faults to get zeroed pages again.  A fresh `evaluate` on the
# benchmark's rank-multiparty inputs (seed 7, 800 candidates) took 443,000
# minor faults, about 1.7 GB of zeroed pages and half its 2.7 s.  With both
# thresholds at 1 GiB, freed activations stay in the heap for the next batch.
# Both are set: setting either one turns off glibc's dynamic mmap threshold,
# and the trim threshold alone doubled the faults.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
KEEP_FREED_BYTES = 1 << 30


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


def _keep_freed_memory() -> None:
    """Raise glibc's mmap and trim thresholds so freed heap memory stays in the process.

    Where the C library has no ``mallopt`` (macOS's, for one), nothing changes.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, KEEP_FREED_BYTES)
    mallopt(M_TRIM_THRESHOLD, KEEP_FREED_BYTES)


@dataclass(frozen=True)
class _Start:
    """When a command started, and the process's minor page faults up to then."""

    iso: str
    monotonic: float
    minor_faults: int


def _start() -> _Start:
    return _Start(_now(), time.monotonic(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt)


def _resources(started: _Start) -> dict:
    """Wall time and minor faults since ``started``, and the process's lifetime peak RSS."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    rss_unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is bytes on macOS, KiB elsewhere
    return {
        "wall_s": time.monotonic() - started.monotonic,
        "peak_rss_mb": usage.ru_maxrss * rss_unit / 2**20,
        "minor_faults": usage.ru_minflt - started.minor_faults,
    }


def _environment() -> dict:
    """Library versions, and the OpenBLAS build and thread count numpy computes with.

    GEMM results can differ in the last bits between OpenBLAS kernels and
    thread counts, so a replay needs them.  They are read through ctypes from
    the ``libscipy_openblas64_`` bundled with numpy's wheels; each is null
    where that library or function is missing.
    """
    openblas_config = openblas_threads = None
    numpy_dir = Path(np.__file__).parent
    bundled = sorted(numpy_dir.parent.glob("numpy.libs/libscipy_openblas64_*"))
    bundled += sorted(numpy_dir.glob(".dylibs/libscipy_openblas64_*"))
    try:
        lib = ctypes.CDLL(str(bundled[0])) if bundled else None
    except OSError:
        lib = None
    get_config = getattr(lib, "scipy_openblas_get_config64_", None)
    if get_config is not None:
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        openblas_config = get_config().decode()
    get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if get_threads is not None:
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        openblas_threads = get_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_config": openblas_config,
        "openblas_threads": openblas_threads,
    }


def _write_manifest(command: str, args: argparse.Namespace, inputs: list, outputs: list, seed, started: _Start) -> None:
    outputs = [Path(p) for p in outputs if p]
    if not outputs:
        return
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k not in ("command", "func")},
        "inputs": {str(p): _sha256(Path(p)) for p in inputs if p},
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "started": started.iso,
        "finished": _now(),
        "resources": _resources(started),
        "environment": _environment(),
    }
    path = Path(str(outputs[0]) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n", encoding="utf-8")


def _load_config(name: str | None) -> dict:
    if name is None:
        return {}
    path = Path(name)
    if not path.exists():
        raise UsageError("config file %s not found" % path)
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError("config file %s is not valid JSON: %s" % (path, exc)) from exc
    if not isinstance(config, dict):
        raise UsageError("config file %s must hold a JSON object" % path)
    return config


def _config_section(config: dict, name: str) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise UsageError("config section %r must be a JSON object" % name)
    return section


def _pool_instances(pool: CandidatePool, disentangle: bool, cap: int) -> list[MatchingInstance]:
    """One instance per candidate: its speaker's filtered thread, else the raw context tail."""
    instances = []
    for candidate, label in pool.candidates:
        if disentangle:
            filtered = filter_channel(pool.context, candidate.spoken_from)
            if filtered.utterances:
                instances.append(
                    instance_from_filtered(filtered, candidate, label, max_utterances=cap)
                )
                continue
        example = DialogueExample(context=pool.context[-cap:], response=candidate, label=label)
        instances.append(instance_from_example(example))
    return instances


def _load_instances(path: str, fmt: str, disentangle: bool, cap: int) -> list[MatchingInstance]:
    loaded = load_channel(path, fmt)
    if not loaded:
        raise CorpusError("%s holds no examples" % path)
    if fmt == "tsv":
        return [instance_from_example(replace(ex, context=ex.context[-cap:])) for ex in loaded]
    if isinstance(loaded[0], CandidatePool):
        instances = []
        for pool in loaded:
            instances.extend(_pool_instances(pool, disentangle, cap))
        return instances
    raise CorpusError("%s holds a bare utterance channel; need examples or candidate pools" % path)


def _load_instance_pools(path: str, disentangle: bool, cap: int) -> list[list[MatchingInstance]]:
    loaded = load_channel(path, "jsonl")
    if not loaded or not isinstance(loaded[0], CandidatePool):
        raise CorpusError("%s does not contain candidate pools" % path)
    return [_pool_instances(pool, disentangle, cap) for pool in loaded]


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
    started = _start()
    if args.max_size < 8:
        raise UsageError("--max-size must be at least 8 (7 specials + content)")
    vocab = build_vocab(_collect_texts(args.input, args.format), args.min_count, args.max_size)
    vocab.save(args.out)
    print("wrote vocabulary of %d tokens to %s" % (len(vocab), args.out))
    _write_manifest("build-vocab", args, args.input, [args.out], None, started)
    return EXIT_OK


def cmd_disentangle(args) -> int:
    started = _start()
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


# The sizes a config's "model" section must agree on with a --checkpoint-in.
_MODEL_SIZES = ("hidden_dim", "num_layers", "num_heads", "ffn_dim", "max_seq_len")


# settings a config section must not hold, with the flag that sets each
_FLAG_SETTINGS = {"seed": "--seed", "freeze_speaker_table": "--no-speaker-embeddings"}


def _prepare_training(args, phase: str):
    config = _load_config(args.config)
    for name in config:
        if name not in ("model", "train", "adapt", "finetune"):
            raise UsageError("unknown config section %r (expected model, train, adapt or finetune)" % name)
    train_section, model_section = _config_section(config, "train"), _config_section(config, "model")
    # Each phase section (e.g. "adapt": {"max_epochs": ...}) overrides "train".  Both are
    # checked whichever phase runs.  The seed and the speaker ablation come only from
    # their flags.
    for name in ("train", "adapt", "finetune"):
        for key, flag in _FLAG_SETTINGS.items():
            if key in _config_section(config, name):
                raise UsageError("config section %r sets %s; set it with %s only" % (name, key, flag))
    try:
        train_config = {
            name: TrainConfig(**{**train_section, **_config_section(config, name)}, seed=args.seed,
                              freeze_speaker_table=args.no_speaker_embeddings)
            for name in ("adapt", "finetune")
        }[phase]
    except (TypeError, ValueError) as exc:
        raise UsageError("bad train config: %s" % exc) from exc
    vocab = Vocabulary.load(args.vocab)

    # the "model" section is checked even when a checkpoint supplies the model
    try:
        model_config = ModelConfig(**{**model_section, "vocab_size": len(vocab)})
    except (TypeError, ValueError) as exc:
        raise UsageError("bad model config: %s" % exc) from exc

    if args.checkpoint_in:
        model_config, params = load_checkpoint(args.checkpoint_in)
        if model_config.vocab_size != len(vocab):
            raise CorpusError(
                "checkpoint vocab size %d does not match vocabulary %d"
                % (model_config.vocab_size, len(vocab))
            )
        for key in _MODEL_SIZES:
            if key in model_section and model_section[key] != getattr(model_config, key):
                raise UsageError(
                    "config sets model %s %d but checkpoint %s has %d"
                    % (key, model_section[key], args.checkpoint_in, getattr(model_config, key))
                )
    else:
        params = init_params(model_config, np.random.default_rng(train_config.seed))
    return vocab, model_config, train_config, params


def _run_phase(args, phase: str) -> int:
    started = _start()
    vocab, model_config, train_config, params = _prepare_training(args, phase)
    instances = _load_instances(args.data, args.format, disentangle=not args.no_disentangle, cap=args.cap)
    if phase == "adapt" and sum(inst.label == 1 for inst in instances) < 2:
        raise CorpusError("%s has fewer than 2 label-1 examples to adapt on" % args.data)
    validation = None
    if args.validation:
        if phase == "finetune":
            validation = _load_instance_pools(args.validation, disentangle=not args.no_disentangle, cap=args.cap)
            sizes = sorted({len(pool) for pool in validation})
            if len(sizes) > 1:
                raise CorpusError("validation pools in %s have mixed candidate counts %s" % (args.validation, sizes))
            if not any(inst.label == 1 for pool in validation for inst in pool):
                raise CorpusError("validation pools in %s hold no positive candidate" % args.validation)
        else:
            validation = [
                inst
                for inst in _load_instances(
                    args.validation, args.format, disentangle=not args.no_disentangle, cap=args.cap
                )
                if inst.label == 1
            ]
            if not validation:
                raise CorpusError("validation data in %s has no label-1 examples" % args.validation)
    result = train(phase, instances, params, model_config, train_config, vocab, validation=validation)
    save_checkpoint(args.checkpoint_out, model_config, result.params)
    if args.loss_log:
        write_loss_log(args.loss_log, result.log)
    last = result.log[-1]
    print("%s: %d steps, final loss %.6f" % (phase, last.step, last.loss))
    if result.best_epoch is not None:
        print("selected epoch %d checkpoint (validation metric %.6f)"
              % (result.best_epoch, result.validation_history[result.best_epoch]))
    inputs = [args.data, args.vocab, args.validation, args.checkpoint_in, args.config]
    _write_manifest(phase, args, inputs, [args.checkpoint_out, args.loss_log], train_config.seed, started)
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
    started = _start()
    vocab = Vocabulary.load(args.vocab)
    model_config, params = load_checkpoint(args.checkpoint)
    if model_config.vocab_size != len(vocab):
        raise CorpusError("checkpoint vocab size %d does not match vocabulary %d"
                          % (model_config.vocab_size, len(vocab)))
    pools = _load_instance_pools(args.pools, disentangle=not args.no_disentangle, cap=args.cap)
    scores = score_pools(pools, params, model_config, vocab)
    ranked = [rank_scores(s, [inst.label for inst in pool]) for s, pool in zip(scores, pools)]
    cutoffs = _parse_recall_cutoffs(args.recall, pools)
    threshold = None
    if args.threshold_sweep:
        threshold = select_threshold(ranked, DEFAULT_THRESHOLD_GRID)
    report = compute_report(ranked, cutoffs, threshold)
    text = format_report(report)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    _write_manifest("evaluate", args, [args.pools, args.checkpoint, args.vocab], [args.out], None, started)
    return EXIT_OK


def cmd_encode(args) -> int:
    started = _start()
    vocab = Vocabulary.load(args.vocab)
    instances = _load_instances(args.data, args.format, not args.no_disentangle, args.cap)
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


def _context_cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1, got %r" % text)
    return value


def _add_context_args(parser):
    parser.add_argument("--cap", type=_context_cap, default=DEFAULT_CONTEXT_CAP,
                        help="max context utterances kept per example (>= 1)")
    parser.add_argument("--no-disentangle", action="store_true",
                        help="use raw pool contexts instead of speaker filtering")


def _add_data_args(parser):
    parser.add_argument("--data", required=True, help="training data file")
    parser.add_argument("--format", choices=("tsv", "jsonl"), default="tsv",
                        help="data format (default tsv)")
    _add_context_args(parser)


def _add_train_args(parser):
    parser.add_argument("--vocab", required=True, help="vocabulary file")
    parser.add_argument("--config", help="JSON config file with 'model'/'train' sections")
    parser.add_argument("--checkpoint-in", help="checkpoint to continue from")
    parser.add_argument("--checkpoint-out", required=True, help="where to save the trained checkpoint")
    parser.add_argument("--loss-log", help="CSV file for per-step losses")
    parser.add_argument("--validation", help="validation data (pools for finetune)")
    parser.add_argument("--seed", type=int, default=0, help="seed for init, shuffling and sampling (default 0)")
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
    p.add_argument("--cap", type=_context_cap, default=DEFAULT_CONTEXT_CAP)
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
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="rank candidate pools and report metrics")
    p.add_argument("--pools", required=True, help="candidate pools JSONL")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--recall", help="comma-separated n:k cutoffs, e.g. 10:1,10:2,10:5,2:1")
    p.add_argument("--threshold-sweep", action="store_true",
                   help="report the no-answer threshold chosen on these pools (changes no metric)")
    _add_context_args(p)
    p.add_argument("--out", help="write the report to this file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("encode", help="inspect the encoded id tracks for one example")
    _add_data_args(p)
    p.add_argument("--vocab", required=True)
    p.add_argument("--row", type=int, default=0, help="which instance to show")
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--out", help="also write the dump to this file")
    p.set_defaults(func=cmd_encode)

    return parser


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, CheckpointError, VocabularyError, OSError, json.JSONDecodeError) as exc:
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

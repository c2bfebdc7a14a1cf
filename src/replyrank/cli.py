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
import warnings
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
# numpy loads numpy.random on first use, and zipfile loads the cp437 codec
# on the first checkpoint read.  Loading both with the CLI keeps those imports
# (numpy.random's is about 10 ms of file reads) out of the commands' own time.
import encodings.cp437  # noqa: F401
import numpy.random  # noqa: F401

from .corpus import CandidatePool, CorpusError, extract_spoken_to, load_channel, read_text, write_channel
from .disentangle import DEFAULT_CONTEXT_CAP, filter_channel
from .encoding import MatchingInstance, encode_instance, format_tracks, instance_from_example, speaker_role
from .evaluation import DEFAULT_THRESHOLD_GRID, RankedPool, compute_report, format_report, rank_scores, select_threshold
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
from .tokenizer import NUM_SPECIALS, Vocabulary, VocabularyError, build_vocab
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


def _minor_faults() -> tuple[int, int]:
    """Minor page faults so far: the process's own, and its children's that it has waited for."""
    return tuple(resource.getrusage(who).ru_minflt for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def _resources(clock: float, faults: tuple[int, int]) -> dict:
    """Wall time and minor faults since ``clock`` and ``faults`` (``_minor_faults``) were read, and peak RSS.

    The peak RSS is over the process's life.  ``peak_rss_mb`` is the
    process's own; ``children_peak_rss_mb`` is that of its largest child
    waited for, such as a scoring worker of ``score_batch``.
    ``children_minor_faults`` sums those of the children waited for since,
    such as a training phase's workers.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    rss_unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is bytes on macOS, KiB elsewhere
    return {
        "wall_s": time.monotonic() - clock,
        "peak_rss_mb": usage.ru_maxrss * rss_unit / 2**20,
        "children_peak_rss_mb": children.ru_maxrss * rss_unit / 2**20,
        "minor_faults": usage.ru_minflt - faults[0],
        "children_minor_faults": children.ru_minflt - faults[1],
    }


def _openblas_function(name: str, argtypes: tuple = (), restype=None):
    """Function ``openblas_<name>`` of the OpenBLAS bundled with numpy's wheels, or None where it is missing."""
    numpy_dir = Path(np.__file__).parent
    bundled = sorted(numpy_dir.parent.glob("numpy.libs/lib*openblas*"))
    bundled += sorted(numpy_dir.glob(".dylibs/lib*openblas*"))
    if not bundled:
        return None
    try:
        lib = ctypes.CDLL(str(bundled[0]))
    except OSError:
        return None
    # the file name carries the symbols' prefix and suffix:
    # lib<prefix>openblas64_-<hash>.so exports <prefix>openblas_get_config64_
    file_name = bundled[0].name
    prefix, suffix = file_name[3 : file_name.find("openblas")], "64_" if "openblas64_" in file_name else ""
    function = getattr(lib, prefix + "openblas_" + name + suffix, None)
    if function is not None:
        function.argtypes = list(argtypes)
        function.restype = restype
    return function


def _pin_blas_threads() -> None:
    """Run OpenBLAS on one thread, so a run's results do not depend on the machine's core count.

    GEMM sums split across threads differ in the last bits.  Where the
    bundled OpenBLAS is not found, nothing changes.
    """
    set_threads = _openblas_function("set_num_threads", (ctypes.c_int,))
    if set_threads is not None:
        set_threads(1)


def _environment() -> dict:
    """Library versions, and the OpenBLAS build and thread count numpy computes with.

    GEMM results can differ in the last bits between OpenBLAS kernels and
    thread counts, so a replay needs them.  They are read through ctypes from
    the OpenBLAS bundled with numpy's wheels; each is null where that library
    or function is missing.
    """
    get_config = _openblas_function("get_config", (), ctypes.c_char_p)
    get_threads = _openblas_function("get_num_threads", (), ctypes.c_int)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_config": None if get_config is None else get_config().decode(),
        "openblas_threads": None if get_threads is None else get_threads(),
    }


def _write_manifest(args, inputs: list, outputs: list, started: str, clock: float, faults: tuple[int, int]) -> None:
    """Record the run in ``<first output>.manifest.json``; a run that wrote no file gets none."""
    outputs = [Path(p) for p in outputs if p]
    if not outputs:
        return
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k not in ("command", "func")},
        "inputs": {str(p): _sha256(Path(p)) for p in inputs if p},
        "outputs": [str(p) for p in outputs],
        "seed": getattr(args, "seed", None),
        "started": started,
        "finished": _now(),
        "resources": _resources(clock, faults),
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
    if not path.is_file():
        raise UsageError("config file %s is not a file" % path)
    try:
        config = json.loads(read_text(path))
    except CorpusError as exc:
        raise UsageError("config file %s" % exc) from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise UsageError("config file %s is not valid JSON: %s" % (path, exc)) from exc
    if not isinstance(config, dict):
        raise UsageError("config file %s must hold a JSON object" % path)
    return config


def _config_section(config: dict, name: str) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise UsageError("config section %r must be a JSON object" % name)
    return section


def _load_pools(path: str, fmt: str, disentangle: bool, cap: int) -> list[list[MatchingInstance]]:
    """Every candidate pool in ``path``, one instance per candidate; a TSV line is a one-candidate pool.

    With ``disentangle``, a JSONL candidate's context is its speaker's
    filtered thread, or the raw context where that thread is empty; either
    is cut to its ``cap`` most recent utterances.  TSV contexts are never
    filtered: their utterances carry no addressee, so filtering would keep
    only the responder's own lines.
    """
    loaded = load_channel(path, fmt)
    if not loaded:
        raise CorpusError("%s holds no examples" % path)
    if not isinstance(loaded[0], CandidatePool):
        raise CorpusError("%s holds a bare utterance channel; need examples or candidate pools" % path)

    def context_of(context, candidate):
        if disentangle and fmt == "jsonl":
            return filter_channel(context, candidate.spoken_from).utterances or context
        return context

    return [
        [instance_from_example(context_of(pool.context, candidate)[-cap:], candidate, label)
         for candidate, label in pool.candidates]
        for pool in loaded
    ]


def _answered(pools: list[list[MatchingInstance]]) -> list[list[MatchingInstance]]:
    """The pools that hold a positive candidate; when only some do, one warning line counts the others."""
    answered = [pool for pool in pools if any(inst.label == 1 for inst in pool)]
    if answered and len(answered) < len(pools):
        print("warning: %d of %d pools have no positive candidate; every metric leaves them out"
              % (len(pools) - len(answered), len(pools)), file=sys.stderr)
    return answered


def _flat(pools: list[list[MatchingInstance]]) -> list[MatchingInstance]:
    return [inst for pool in pools for inst in pool]


def rank_pools(
    pools: list[list[MatchingInstance]], params, config: ModelConfig, vocab: Vocabulary
) -> list[RankedPool]:
    """Every pool's candidates scored with their matching probabilities and ranked, in pool order.

    All candidates are encoded, sorted by real length and scored in one
    ``score_batch`` call, whose row blocks then hold candidates of similar
    length.  The encodings are freed once stacked, before any block is
    scored.
    """
    encoded = [encode_instance(inst, vocab, config.max_seq_len) for pool in pools for inst in pool]
    if not encoded:
        return []
    order = sorted(range(len(encoded)), key=lambda i: len(encoded[i]))
    batch = stack_inputs([encoded[i] for i in order])
    del encoded
    scores = np.empty(len(order))
    scores[order] = score_batch(batch, params, config)
    flat = iter(scores.tolist())
    return [rank_scores([next(flat) for _ in pool], [inst.label for inst in pool]) for pool in pools]


def _collect_texts(paths: list[str], fmt: str) -> list[str]:
    texts = []
    for path in paths:
        if fmt == "text":
            texts.extend(read_text(path).splitlines())
            continue
        for item in load_channel(path, fmt):
            if isinstance(item, CandidatePool):
                texts.extend(u.text for u in item.context)
                texts.extend(c.text for c, _ in item.candidates)
            else:
                texts.append(item.text)
    return texts


# --- commands ---------------------------------------------------------------
# Each command returns the files it read and the files it wrote; main records them in the run's manifest.


def cmd_build_vocab(args) -> tuple[list, list]:
    vocab = build_vocab(_collect_texts(args.input, args.format), args.min_count, args.max_size)
    vocab.save(args.out)
    print("wrote vocabulary of %d tokens to %s" % (len(vocab), args.out))
    return args.input, [args.out]


def cmd_disentangle(args) -> tuple[list, list]:
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
    kept = filter_channel(loaded, args.speaker).utterances[-args.cap:]
    if not kept:
        print("warning: no utterances match speaker %r" % args.speaker, file=sys.stderr)
    roles = {utt.index: {"role": speaker_role(utt.spoken_from, args.speaker)} for utt in kept}
    write_channel(args.out, kept, extra=roles)
    print("kept %d of %d utterances for %s" % (len(kept), len(loaded), args.speaker))
    return [args.channel], [args.out]


# settings a config section must not hold, with the flag that sets each
_FLAG_SETTINGS = {"seed": "--seed", "freeze_speaker_table": "--no-speaker-embeddings", "vocab_size": "--vocab"}


def _load_model(path: str, vocab: Vocabulary):
    """The model config and parameters of checkpoint ``path``, whose vocabulary must be ``vocab``'s size."""
    model_config, params = load_checkpoint(path)
    if model_config.vocab_size != len(vocab):
        raise CorpusError("checkpoint vocab size %d does not match vocabulary %d"
                          % (model_config.vocab_size, len(vocab)))
    return model_config, params


def _prepare_training(args):
    phase = args.command
    config = _load_config(args.config)
    for name in config:
        if name not in ("model", "train", "adapt", "finetune"):
            raise UsageError("unknown config section %r (expected model, train, adapt or finetune)" % name)
    train_section, model_section = _config_section(config, "train"), _config_section(config, "model")
    # Each phase section (e.g. "adapt": {"max_epochs": ...}) overrides "train".  Both are
    # checked whichever phase runs.  The seed, the speaker ablation and the vocabulary
    # size come only from their flags.
    for name in ("model", "train", "adapt", "finetune"):
        for key, flag in _FLAG_SETTINGS.items():
            if key in _config_section(config, name):
                raise UsageError("config section %r sets %s, which comes from %s only" % (name, key, flag))
    try:
        train_config = {
            name: TrainConfig(**{**train_section, **_config_section(config, name)}, seed=args.seed,
                              freeze_speaker_table=args.no_speaker_embeddings)
            for name in ("adapt", "finetune")
        }[phase]
    except (TypeError, ValueError) as exc:
        raise UsageError("bad train config: %s" % exc) from exc
    vocab = Vocabulary.load(args.vocab)
    if phase == "adapt" and len(vocab) <= NUM_SPECIALS:
        raise VocabularyError("vocabulary %s holds only the %d special tokens; adapt draws replacement tokens "
                              "from its content tokens" % (args.vocab, NUM_SPECIALS))

    # the "model" section is checked even when a checkpoint supplies the model
    try:
        model_config = ModelConfig(**{**model_section, "vocab_size": len(vocab)})
    except (TypeError, ValueError) as exc:
        raise UsageError("bad model config: %s" % exc) from exc

    if args.checkpoint_in:
        model_config, params = _load_model(args.checkpoint_in, vocab)
        for key, size in model_section.items():
            if size != getattr(model_config, key):
                raise UsageError("config sets model %s %d but checkpoint %s has %d"
                                 % (key, size, args.checkpoint_in, getattr(model_config, key)))
    else:
        params = init_params(model_config, np.random.default_rng(train_config.seed))
    return vocab, model_config, train_config, params


def cmd_train(args) -> tuple[list, list]:
    """``adapt`` or ``finetune``, whichever ``args.command`` names."""
    phase = args.command
    vocab, model_config, train_config, params = _prepare_training(args)
    instances = _flat(_load_pools(args.data, args.format, not args.no_disentangle, args.cap))
    if phase == "adapt" and sum(inst.label == 1 for inst in instances) < 2:
        raise CorpusError("%s has fewer than 2 label-1 examples to adapt on" % args.data)
    validation = None
    if args.validation:
        if phase == "finetune":
            validation = _answered(_load_pools(args.validation, "jsonl", not args.no_disentangle, args.cap))
            if not validation:
                raise CorpusError("validation pools in %s hold no positive candidate" % args.validation)
            sizes = sorted({len(pool) for pool in validation})
            if len(sizes) > 1:
                raise CorpusError("validation pools in %s have mixed candidate counts %s" % (args.validation, sizes))
        else:
            validation = [
                inst
                for inst in _flat(_load_pools(args.validation, args.format, not args.no_disentangle, args.cap))
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
    return inputs, [args.checkpoint_out, args.loss_log]


def _parse_recall_cutoffs(arg: str | None, pools: list[list[MatchingInstance]]) -> list[tuple[int, int]]:
    """The R_n@k cutoffs to report: ``--recall``'s, else R@size,k for k in 1, 2, 5 and R@2,1.

    ``pools`` are the answered pools, the only ones the metrics read.
    R_n@k scores only pools with a positive among their first n candidates.
    An explicit cutoff whose n exceeds the size of a pool, or that no pool
    can score, is a data error, raised before any pool is scored; the
    default R@2,1 that no pool can score is left out with a warning.
    """
    def scorable(n: int) -> bool:
        return any(inst.label == 1 for pool in pools for inst in pool[:n])

    if arg is not None:
        smallest = min(len(pool) for pool in pools)
        cutoffs = []
        for piece in arg.split(","):
            try:
                n, k = (int(x) for x in piece.split(":"))
            except ValueError as exc:
                raise UsageError("bad --recall entry %r, expected n:k" % piece) from exc
            if not 1 <= k <= n:
                raise UsageError("bad --recall entry %r, need 1 <= k <= n" % piece)
            if n > smallest:
                raise CorpusError("R@%d,%d: a pool with a positive has only %d candidates" % (n, k, smallest))
            if not scorable(n):
                raise CorpusError("R@%d,%d: no pool has a positive among its first %d candidates" % (n, k, n))
            cutoffs.append((n, k))
        return cutoffs
    sizes = {len(pool) for pool in pools}
    if len(sizes) != 1:
        raise CorpusError("pools have mixed candidate counts %s; pass --recall explicitly" % sorted(sizes))
    pool_size = sizes.pop()
    cutoffs = [(pool_size, k) for k in (1, 2, 5) if k <= pool_size]
    if pool_size >= 2:
        if scorable(2):
            cutoffs.append((2, 1))
        else:
            print("warning: R@2,1 left out: no pool has a positive among its first 2 candidates", file=sys.stderr)
    return cutoffs


def cmd_evaluate(args) -> tuple[list, list]:
    vocab = Vocabulary.load(args.vocab)
    model_config, params = _load_model(args.checkpoint, vocab)
    pools = _load_pools(args.pools, "jsonl", not args.no_disentangle, args.cap)
    answered = _answered(pools)
    if not answered:
        raise CorpusError("no pool in %s has a positive candidate" % args.pools)
    cutoffs = _parse_recall_cutoffs(args.recall, answered)
    # the metrics are those of the answered pools; the no-answer threshold is chosen on every pool
    ranked = rank_pools(pools if args.threshold_sweep else answered, params, model_config, vocab)
    report = compute_report([pool for pool in ranked if pool.has_answer], cutoffs)
    if args.threshold_sweep:
        report["threshold"] = select_threshold(ranked, DEFAULT_THRESHOLD_GRID)
    text = format_report(report)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return [args.pools, args.checkpoint, args.vocab], [args.out]


def cmd_encode(args) -> tuple[list, list]:
    vocab = Vocabulary.load(args.vocab)
    instances = _flat(_load_pools(args.data, args.format, not args.no_disentangle, args.cap))
    if args.row >= len(instances):
        raise UsageError("--row %d out of range (have %d instances)" % (args.row, len(instances)))
    enc = encode_instance(instances[args.row], vocab, args.max_len)
    text = format_tracks(enc, vocab)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return [args.data, args.vocab], [args.out]


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


# --- argument wiring ---------------------------------------------------------


def _int_at_least(minimum: int):
    """An argparse type that takes integers >= ``minimum`` and names anything else a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError("must be an integer >= %d, got %r" % (minimum, text))
        return value
    return parse


def _add_context_args(parser):
    parser.add_argument("--cap", type=_int_at_least(1), default=DEFAULT_CONTEXT_CAP,
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
    parser.add_argument("--seed", type=_int_at_least(0), default=0,
                        help="seed for init, shuffling and sampling, >= 0 (default 0)")
    parser.add_argument("--no-speaker-embeddings", action="store_true",
                        help="zero and freeze the speaker embedding table")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="replyrank", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a vocabulary file from corpora")
    p.add_argument("--input", nargs="+", required=True, help="corpus file(s)")
    p.add_argument("--format", choices=("tsv", "jsonl", "text"), default="tsv")
    p.add_argument("--min-count", type=_int_at_least(1), default=1)
    p.add_argument("--max-size", type=_int_at_least(8), default=30000,
                   help="vocabulary size cap, >= 8 (7 specials + content)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("disentangle", help="filter an entangled channel for one speaker")
    p.add_argument("--channel", required=True, help="utterance channel JSONL")
    p.add_argument("--speaker", required=True, help="target (response) speaker")
    p.add_argument("--cap", type=_int_at_least(1), default=DEFAULT_CONTEXT_CAP)
    p.add_argument("--infer-addressees", action="store_true",
                   help="fill missing 'to' labels from name:/name, prefixes before filtering")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_disentangle)

    for phase, summary in (("adapt", "in-domain adaptation (corruption + next-utterance objectives)"),
                           ("finetune", "fine-tune the matching head")):
        p = sub.add_parser(phase, help=summary)
        _add_data_args(p)
        _add_train_args(p)
        p.set_defaults(func=cmd_train)

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
    p.add_argument("--row", type=_int_at_least(0), default=0, help="which instance to show")
    p.add_argument("--max-len", type=_int_at_least(8), default=64)
    p.add_argument("--out", help="also write the dump to this file")
    p.set_defaults(func=cmd_encode)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a library warning as one ``warning:`` line on stderr, without its source line."""
    print("warning: %s" % message, file=sys.stderr)


def main(argv=None) -> int:
    _keep_freed_memory()
    _pin_blas_threads()
    parser = build_parser()
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            args = parser.parse_args(argv)
            started, clock, faults = _now(), time.monotonic(), _minor_faults()
            inputs, outputs = args.func(args)
            _write_manifest(args, inputs, outputs, started, clock, faults)
            return EXIT_OK
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

"""Every malformed input ends as one error line with its documented exit code, and leaves no output behind.

The named cases pin one defect each; the Hypothesis test mutates the bytes of
each kind of input file and passes it to ``main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from replyrank.cli import main
from replyrank.model import ModelConfig, init_params, save_checkpoint
from replyrank.tokenizer import build_vocab

TINY_MODEL = {"hidden_dim": 4, "num_layers": 1, "num_heads": 2, "ffn_dim": 4, "max_seq_len": 16}
TINY_CONFIG = {"model": TINY_MODEL, "train": {"learning_rate": 3e-3, "batch_size": 4, "max_epochs": 1}}
TSV = "1\thi there\thello\n0\thow are you\tfine\n1\tgood day\tthanks a lot\n"
POOLS = [
    {"index": 0, "from": "a", "to": "b", "text": "how are you"},
    {"index": 1, "from": "b", "to": "a", "text": "good and you",
     "candidates": [{"text": "fine thanks", "from": "a", "label": 1}, {"text": "hi there", "from": "a", "label": 0}]},
    {"index": 0, "from": "c", "to": None, "text": "good day",
     "candidates": [{"text": "hello", "from": "d", "label": 1}, {"text": "a lot", "from": "d", "label": 0}]},
]
# what each exit code's one line starts with
PREFIXES = {1: "usage error: ", 2: "data error: ", 3: "numeric failure: "}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A well-formed input of every kind: TSV data, JSONL pools, a vocabulary, a config and a checkpoint."""
    root = tmp_path_factory.mktemp("inputs")
    paths = {name: root / name for name in ("train.tsv", "pools.jsonl", "vocab.txt", "config.json", "model.npz")}
    paths["train.tsv"].write_text(TSV, encoding="utf-8")
    paths["pools.jsonl"].write_text("".join(json.dumps(record) + "\n" for record in POOLS), encoding="utf-8")
    texts = [text for line in TSV.splitlines() for text in line.split("\t")[1:]] + [record["text"] for record in POOLS]
    vocab = build_vocab(texts)
    vocab.save(paths["vocab.txt"])
    paths["config.json"].write_text(json.dumps(TINY_CONFIG, separators=(",", ":")), encoding="utf-8")
    config = ModelConfig(vocab_size=len(vocab), **TINY_MODEL)
    save_checkpoint(paths["model.npz"], config, init_params(config, np.random.default_rng(0)))
    return paths


def run(*argv) -> tuple[int, str]:
    """Exit code and stderr of ``main`` on ``argv``; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _commands(files, target: Path, out: Path) -> list[list]:
    """The runs that read ``target`` in place of the input of its kind, each writing under ``out``."""
    kind = next(name for name, path in files.items() if path.name == target.name)
    inputs = {**files, kind: target}
    evaluate = ["evaluate", "--pools", inputs["pools.jsonl"], "--checkpoint", inputs["model.npz"],
                "--vocab", inputs["vocab.txt"], "--out", out / "report.txt"]
    return {
        "train.tsv": [["build-vocab", "--input", target, "--out", out / "vocab.txt"],
                      ["encode", "--data", target, "--vocab", files["vocab.txt"], "--out", out / "tracks.txt"]],
        "pools.jsonl": [evaluate, ["disentangle", "--channel", target, "--speaker", "a", "--out", out / "a.jsonl"]],
        "vocab.txt": [evaluate],
        "config.json": [["finetune", "--data", files["train.tsv"], "--vocab", files["vocab.txt"], "--config", target,
                         "--checkpoint-out", out / "model.npz"]],
        "model.npz": [evaluate],
    }[kind]


def _assert_one_error_line(code: int, err: str, out: Path) -> None:
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code:
        lines = err.splitlines()
        assert lines and lines[-1].startswith(PREFIXES[code]), err
        assert not any(line.startswith(tuple(PREFIXES.values())) for line in lines[:-1]), err
        assert list(out.iterdir()) == [], "a failed run left %s" % sorted(p.name for p in out.iterdir())


@pytest.mark.parametrize("kind", ["train.tsv", "pools.jsonl", "vocab.txt", "config.json", "model.npz"])
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_mutated_input_ends_in_a_documented_exit_code(files, tmp_path, kind, seed):
    # Hypothesis draws only the seed: its own integer draws repeat a few offsets and values, while
    # random.Random spreads the edits over the whole file.
    rng = random.Random(seed)
    content = bytearray(files[kind].read_bytes())
    # the 64 bytes from each zip record's "PK" signature, where a checkpoint keeps its archive structure
    headers = [i + offset for i in range(len(content)) if content.startswith(b"PK", i) for offset in range(64)]
    for _ in range(rng.randint(1, 4)):
        position = rng.choice(headers) if headers and rng.random() < 0.5 else rng.randrange(len(content))
        content[position % len(content)] = rng.randrange(256)
    if rng.random() < 0.2:
        content = content[: rng.randrange(len(content))]
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        target, out = Path(work) / kind, Path(work) / "out"
        target.write_bytes(bytes(content))
        out.mkdir()
        for argv in _commands(files, target, out):
            code, err = run(*argv)
            _assert_one_error_line(code, err, out)
            for path in out.iterdir():
                path.unlink()


def _rejected(code: int, message: str, argv, out: Path) -> None:
    """``argv`` exits with ``code`` and the one stderr line ``message``, and ``out`` does not exist."""
    assert run(*argv) == (code, message + "\n")
    assert not out.exists()


class TestNamedDefects:
    def test_vocab_size_in_model_section_is_usage_error_before_anything_loads(self, files, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {**TINY_MODEL, "vocab_size": 5}}))
        missing = tmp_path / "missing"
        out = tmp_path / "model.npz"
        _rejected(1, "usage error: config section 'model' sets vocab_size, which comes from --vocab only",
                  ["finetune", "--data", missing / "train.tsv", "--vocab", missing / "vocab.txt", "--config", config,
                   "--checkpoint-out", out], out)

    def test_non_utf8_tsv_is_data_error_naming_the_file(self, files, tmp_path):
        data = tmp_path / "bad.tsv"
        data.write_bytes(b"1\t\xffhello\tthere\n")
        message = "data error: %s: byte 2 is not UTF-8 (invalid start byte)" % data
        out = tmp_path / "model.npz"
        _rejected(2, message, ["adapt", "--data", data, "--vocab", files["vocab.txt"], "--config",
                               files["config.json"], "--checkpoint-out", out], out)
        _rejected(2, message, ["build-vocab", "--input", data, "--out", tmp_path / "vocab.txt"], tmp_path / "vocab.txt")

    def test_tsv_given_as_pools_is_data_error_naming_the_file(self, files, tmp_path):
        out = tmp_path / "report.txt"
        code, err = run("evaluate", "--pools", files["train.tsv"], "--checkpoint", files["model.npz"],
                        "--vocab", files["vocab.txt"], "--out", out)
        assert code == 2
        assert err.startswith("data error: %s: record 1: invalid JSON (" % files["train.tsv"])
        assert len(err.splitlines()) == 1 and not out.exists()
        # finetune reads --validation as pools, so a TSV there names the validation file
        out = tmp_path / "model.npz"
        code, err = run("finetune", "--data", files["train.tsv"], "--validation", files["train.tsv"],
                        "--vocab", files["vocab.txt"], "--config", files["config.json"], "--checkpoint-out", out)
        assert code == 2
        assert err.startswith("data error: %s: record 1: invalid JSON (" % files["train.tsv"])
        assert len(err.splitlines()) == 1 and not out.exists()

    def test_non_utf8_vocabulary_is_data_error_naming_the_file(self, files, tmp_path):
        vocab = tmp_path / "vocab.txt"
        vocab.write_bytes(files["vocab.txt"].read_bytes() + b"caf\xe9\n")
        offset = len(files["vocab.txt"].read_bytes()) + 3
        out = tmp_path / "tracks.txt"
        _rejected(2, "data error: %s: byte %d is not UTF-8 (invalid continuation byte)" % (vocab, offset),
                  ["encode", "--data", files["train.tsv"], "--vocab", vocab, "--out", out], out)

    def test_non_utf8_text_corpus_is_data_error_naming_the_file(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"hello\nw\x80rld\n")
        out = tmp_path / "vocab.txt"
        _rejected(2, "data error: %s: byte 7 is not UTF-8 (invalid start byte)" % corpus,
                  ["build-vocab", "--input", corpus, "--format", "text", "--out", out], out)

    def test_non_utf8_config_is_usage_error_naming_the_file(self, files, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xfe{}")
        out = tmp_path / "model.npz"
        _rejected(1, "usage error: config file %s: byte 0 is not UTF-8 (invalid start byte)" % config,
                  ["finetune", "--data", files["train.tsv"], "--vocab", files["vocab.txt"], "--config", config,
                   "--checkpoint-out", out], out)

    DEEP = "[" * 100_000

    def test_deeply_nested_jsonl_record_is_data_error(self, files, tmp_path):
        pools = tmp_path / "deep.jsonl"
        pools.write_text(self.DEEP + "\n")
        out = tmp_path / "report.txt"
        code, err = run("evaluate", "--pools", pools, "--checkpoint", files["model.npz"], "--vocab", files["vocab.txt"],
                        "--out", out)
        assert (code, err) == (2, "data error: %s: record 1: invalid JSON (maximum recursion depth exceeded "
                                  "while decoding a JSON array from a unicode string)\n" % pools)
        assert not out.exists()

    def test_deeply_nested_config_is_usage_error(self, files, tmp_path):
        config = tmp_path / "deep.json"
        config.write_text(self.DEEP)
        out = tmp_path / "model.npz"
        _rejected(1, "usage error: config file %s is not valid JSON: maximum recursion depth exceeded while "
                     "decoding a JSON array from a unicode string" % config,
                  ["finetune", "--data", files["train.tsv"], "--vocab", files["vocab.txt"], "--config", config,
                   "--checkpoint-out", out], out)

    def test_deeply_nested_checkpoint_metadata_is_data_error(self, files, tmp_path):
        with np.load(files["model.npz"]) as archive:
            entries = {name: archive[name] for name in archive.files}
        ckpt = tmp_path / "deep.npz"
        np.savez(ckpt, **{**entries, "__meta__": np.array(self.DEEP)})
        out = tmp_path / "report.txt"
        _rejected(2, "data error: checkpoint %s has unreadable metadata" % ckpt,
                  ["evaluate", "--pools", files["pools.jsonl"], "--checkpoint", ckpt, "--vocab", files["vocab.txt"],
                   "--out", out], out)

    @pytest.mark.parametrize(
        "record",
        [
            '{"index": 0, "from": "a", "to": null, "text": "x\\ud800"}',
            '{"index": 0, "from": "\\uDFFF", "to": null, "text": "x"}',
            '{"index": 0, "from": "a", "to": "b\\udc00", "text": "x"}',
            '{"index": 0, "from": "a", "text": "x", "candidates": [{"text": "\\ud83d", "from": "b", "label": 1}]}',
        ],
        ids=["text", "from", "to", "candidate-text"],
    )
    def test_unpaired_surrogate_is_data_error_naming_the_record(self, tmp_path, record):
        channel = tmp_path / "channel.jsonl"
        channel.write_text('{"index": -1, "from": "a", "to": null, "text": "fine"}\n' + record + "\n")
        message = "data error: %s: record 2: holds an unpaired UTF-16 surrogate" % channel
        vocab, filtered = tmp_path / "vocab.txt", tmp_path / "filtered.jsonl"
        _rejected(2, message, ["build-vocab", "--input", channel, "--format", "jsonl", "--out", vocab], vocab)
        _rejected(2, message, ["disentangle", "--channel", channel, "--speaker", "a", "--out", filtered], filtered)

    def test_surrogate_pair_is_one_character(self, tmp_path):
        channel = tmp_path / "channel.jsonl"
        channel.write_text('{"index": 0, "from": "a", "to": null, "text": "smile \\ud83d\\ude00"}\n')
        out = tmp_path / "filtered.jsonl"
        assert run("disentangle", "--channel", channel, "--speaker", "a", "--out", out)[0] == 0
        assert json.loads(out.read_text(encoding="utf-8"))["text"] == "smile \U0001f600"

    @pytest.mark.parametrize("offset, value", [(10, 99), (8, 1), (6, 99), (10, 12)],
                             ids=["compression-method", "encrypted-flag", "zip-version", "bzip2-method"])
    def test_unreadable_checkpoint_archive_is_data_error(self, files, tmp_path, offset, value):
        content = bytearray(files["model.npz"].read_bytes())
        content[content.index(b"PK\x01\x02") + offset] = value  # in the first central-directory entry
        ckpt = tmp_path / "unreadable.npz"
        ckpt.write_bytes(bytes(content))
        out = tmp_path / "report.txt"
        _rejected(2, "data error: checkpoint %s is not a valid .npz" % ckpt,
                  ["evaluate", "--pools", files["pools.jsonl"], "--checkpoint", ckpt, "--vocab", files["vocab.txt"],
                   "--out", out], out)

    def test_checkpoint_holding_an_object_array_is_data_error(self, files, tmp_path):
        ckpt, out = tmp_path / "objects.npz", tmp_path / "report.txt"
        with np.load(files["model.npz"]) as archive:
            entries = dict(archive)
        np.savez(ckpt, **entries, extra=np.array([{"a": 1}], dtype=object))  # loading it would unpickle
        _rejected(2, "data error: checkpoint %s is not a valid .npz" % ckpt,
                  ["evaluate", "--pools", files["pools.jsonl"], "--checkpoint", ckpt, "--vocab", files["vocab.txt"],
                   "--out", out], out)

    def test_missing_checkpoint_is_data_error_naming_it(self, files, tmp_path):
        ckpt, out = tmp_path / "missing.npz", tmp_path / "report.txt"
        _rejected(2, "data error: [Errno 2] No such file or directory: %r" % str(ckpt),
                  ["evaluate", "--pools", files["pools.jsonl"], "--checkpoint", ckpt, "--vocab", files["vocab.txt"],
                   "--out", out], out)

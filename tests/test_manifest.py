"""``main`` writes one manifest per run that wrote a file, from what the command returns."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from replyrank.cli import _collect_texts, main
from replyrank.model import ModelConfig, init_params, save_checkpoint
from replyrank.tokenizer import build_vocab

REPO = Path(__file__).resolve().parent.parent
DATA_DIR = REPO / "data" / "toy"
MINI_MODEL = {"hidden_dim": 8, "num_layers": 1, "num_heads": 2, "ffn_dim": 8, "max_seq_len": 32}
MINI_CONFIG = {"model": MINI_MODEL, "train": {"learning_rate": 3e-3, "batch_size": 8, "max_epochs": 1}}
MANIFEST_KEYS = {"command", "config", "inputs", "outputs", "seed", "started", "finished", "resources", "environment"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Every kind of input file, made without ``main`` so that the directory holds no manifest."""
    root = tmp_path_factory.mktemp("inputs")
    files = {name: root / name for name in ("train.tsv", "pools.jsonl", "channel.jsonl", "vocab.txt", "config.json",
                                            "model.npz")}
    files["train.tsv"].write_text("".join((DATA_DIR / "train.tsv").read_text().splitlines(True)[:16]))
    files["pools.jsonl"].write_text((DATA_DIR / "valid_pools.jsonl").read_text())
    records = [{"index": i, "from": "AB"[i % 2], "to": "AB"[1 - i % 2], "text": "turn %d" % i} for i in range(6)]
    files["channel.jsonl"].write_text("".join(json.dumps(record) + "\n" for record in records))
    vocab = build_vocab(_collect_texts([str(files["train.tsv"])], "tsv")
                        + _collect_texts([str(files["pools.jsonl"])], "jsonl"))
    vocab.save(files["vocab.txt"])
    files["config.json"].write_text(json.dumps(MINI_CONFIG))
    config = ModelConfig(vocab_size=len(vocab), **MINI_MODEL)
    save_checkpoint(files["model.npz"], config, init_params(config, np.random.default_rng(0)))
    return files


def _run(command: str, files: dict, out: Path, with_out: bool = True):
    """The argv of one ``command`` run, and the inputs, outputs and seed its manifest must record."""
    train, pools, vocab, config, model = (files[name] for name in ("train.tsv", "pools.jsonl", "vocab.txt",
                                                                   "config.json", "model.npz"))
    report = ["--out", out / "result.txt"] if with_out else []
    return {
        "build-vocab": (["--input", train, "--out", out / "vocab.txt"], [train], [out / "vocab.txt"], None),
        "disentangle": (["--channel", files["channel.jsonl"], "--speaker", "A", "--out", out / "a.jsonl"],
                        [files["channel.jsonl"]], [out / "a.jsonl"], None),
        "adapt": (["--data", train, "--vocab", vocab, "--config", config, "--validation", train,
                   "--checkpoint-out", out / "a.npz", "--loss-log", out / "a.csv", "--seed", "3"],
                  [train, vocab, config], [out / "a.npz", out / "a.csv"], 3),
        "finetune": (["--data", train, "--vocab", vocab, "--config", config, "--checkpoint-in", model,
                      "--validation", pools, "--checkpoint-out", out / "f.npz", "--seed", "4"],
                     [train, vocab, pools, model, config], [out / "f.npz"], 4),
        "evaluate": (["--pools", pools, "--checkpoint", model, "--vocab", vocab, *report], [pools, model, vocab],
                     [out / "result.txt"], None),
        "encode": (["--data", train, "--vocab", vocab, *report], [train, vocab], [out / "result.txt"], None),
    }[command]


def _main(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


def _manifests(*dirs: Path) -> list[str]:
    return sorted(path.name for directory in dirs for path in directory.glob("*.manifest.json"))


COMMANDS = ["build-vocab", "disentangle", "adapt", "finetune", "evaluate", "encode"]


@pytest.mark.parametrize("command", COMMANDS)
def test_run_writes_one_manifest_of_what_it_read_and_wrote(inputs, tmp_path, command):
    argv, read, wrote, seed = _run(command, inputs, tmp_path)
    assert _main(command, *argv) == 0
    assert _manifests(tmp_path, inputs["train.tsv"].parent) == [wrote[0].name + ".manifest.json"]
    manifest = json.loads(Path(str(wrote[0]) + ".manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == command
    # in the order the command passes them, each file once
    assert manifest["inputs"] == {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in read}
    assert list(manifest["inputs"]) == [str(path) for path in read]
    assert manifest["outputs"] == [str(path) for path in wrote]
    assert manifest["seed"] == seed
    assert "command" not in manifest["config"] and "func" not in manifest["config"]


@pytest.mark.parametrize("command", COMMANDS)
def test_failed_run_writes_no_manifest(inputs, tmp_path, command):
    argv, read, _, _ = _run(command, inputs, tmp_path)
    missing = tmp_path / "missing" / read[0].name
    assert _main(command, *[missing if arg == read[0] else arg for arg in argv]) == 2
    assert list(tmp_path.iterdir()) == []
    assert _manifests(inputs["train.tsv"].parent) == []


@pytest.mark.parametrize("command", ["evaluate", "encode"])
def test_run_without_out_writes_no_manifest(inputs, tmp_path, command):
    argv, _, _, _ = _run(command, inputs, tmp_path, with_out=False)
    assert _main(command, *argv) == 0
    assert list(tmp_path.iterdir()) == []
    assert _manifests(inputs["train.tsv"].parent) == []

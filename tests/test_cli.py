import io
import json
from pathlib import Path

import numpy as np
import pytest

from replyrank.cli import main
from replyrank.model import load_checkpoint
from replyrank.tokenizer import SPECIAL_TOKENS

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "toy"

MINI_CONFIG = {
    "model": {
        "hidden_dim": 16,
        "num_layers": 1,
        "num_heads": 2,
        "ffn_dim": 24,
        "max_seq_len": 48,
        "num_speaker_roles": 3,
    },
    "train": {"learning_rate": 3e-3, "batch_size": 8, "max_epochs": 2},
}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(MINI_CONFIG))
    train = tmp_path / "train.tsv"
    train.write_text("".join((DATA_DIR / "train.tsv").read_text().splitlines(True)[:24]))
    pools = tmp_path / "pools.jsonl"
    pool_lines = (DATA_DIR / "valid_pools.jsonl").read_text().splitlines(True)
    pools.write_text("".join(pool_lines))
    return tmp_path


def _npy_bytes() -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.arange(3.0))
    return buffer.getvalue()


NPY_BYTES = _npy_bytes()  # a single .npy array, not an .npz archive


def run(*argv):
    return main([str(a) for a in argv])


class TestBuildVocab:
    def test_writes_specials_first(self, workdir):
        out = workdir / "vocab.txt"
        assert run("build-vocab", "--input", workdir / "train.tsv", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[:7] == list(SPECIAL_TOKENS)
        assert (workdir / "vocab.txt.manifest.json").exists()

    def test_missing_input_is_data_error(self, workdir):
        assert run("build-vocab", "--input", workdir / "nope.tsv", "--out", workdir / "v.txt") == 2

    def test_small_max_size_is_usage_error(self, workdir):
        assert run("build-vocab", "--input", workdir / "train.tsv",
                   "--max-size", "7", "--out", workdir / "v.txt") == 1

    def test_unknown_flag_is_usage_error(self):
        assert run("build-vocab", "--frobnicate") == 1


class TestDisentangle:
    def test_filters_and_annotates_roles(self, tmp_path):
        channel = tmp_path / "chan.jsonl"
        records = [
            {"index": 0, "from": "A", "to": None, "text": "first"},
            {"index": 1, "from": "B", "to": "A", "text": "second"},
            {"index": 2, "from": "C", "to": "D", "text": "third"},
        ]
        channel.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        out = tmp_path / "filtered.jsonl"
        assert run("disentangle", "--channel", channel, "--speaker", "A", "--out", out) == 0
        kept = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["index"], r["role"]) for r in kept] == [(0, 1), (1, 2)]

    def test_empty_selection_warns_but_succeeds(self, tmp_path, capsys):
        channel = tmp_path / "chan.jsonl"
        channel.write_text(json.dumps({"index": 0, "from": "B", "to": None, "text": "x"}) + "\n")
        out = tmp_path / "filtered.jsonl"
        assert run("disentangle", "--channel", channel, "--speaker", "A", "--out", out) == 0
        assert out.read_text() == ""
        assert "no utterances match" in capsys.readouterr().err

    def test_cap_applied(self, tmp_path):
        channel = tmp_path / "chan.jsonl"
        lines = [json.dumps({"index": i, "from": "A", "to": None, "text": "u%d" % i}) for i in range(10)]
        channel.write_text("\n".join(lines) + "\n")
        out = tmp_path / "filtered.jsonl"
        assert run("disentangle", "--channel", channel, "--speaker", "A", "--cap", "4", "--out", out) == 0
        kept = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["index"] for r in kept] == [6, 7, 8, 9]

    def test_infer_addressees_from_prefix(self, tmp_path):
        channel = tmp_path / "chan.jsonl"
        records = [
            {"index": 0, "from": "alice", "to": None, "text": "anyone around"},
            {"index": 1, "from": "bob", "to": None, "text": "alice: sure am"},
            {"index": 2, "from": "carol", "to": None, "text": "dave: unrelated"},
        ]
        channel.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        out = tmp_path / "filtered.jsonl"
        assert run("disentangle", "--channel", channel, "--speaker", "alice",
                   "--infer-addressees", "--out", out) == 0
        kept = [json.loads(line) for line in out.read_text().splitlines()]
        # bob's line is picked up as addressed to alice, with the prefix stripped
        assert [(r["index"], r["role"]) for r in kept] == [(0, 1), (1, 2)]
        assert kept[1]["to"] == "alice"
        assert kept[1]["text"] == "sure am"
        # "dave:" names no known participant, so carol's line stays unselected
        # and without the flag the address prefix is plain text
        out2 = tmp_path / "filtered2.jsonl"
        assert run("disentangle", "--channel", channel, "--speaker", "alice", "--out", out2) == 0
        kept2 = [json.loads(line) for line in out2.read_text().splitlines()]
        assert [r["index"] for r in kept2] == [0]


class TestTrainingCommands:
    def _vocab(self, workdir):
        out = workdir / "vocab.txt"
        assert run("build-vocab", "--input", workdir / "train.tsv", "--out", out) == 0
        return out

    def test_adapt_then_finetune_compose(self, workdir):
        vocab = self._vocab(workdir)
        adapted = workdir / "adapted.npz"
        assert run("adapt", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--config", workdir / "config.json", "--checkpoint-out", adapted,
                   "--loss-log", workdir / "adapt.csv", "--seed", "0") == 0
        assert adapted.exists() and (workdir / "adapt.csv").exists()
        assert (str(adapted) + ".manifest.json") in [str(p) for p in workdir.iterdir()]

        final = workdir / "final.npz"
        assert run("finetune", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--config", workdir / "config.json", "--checkpoint-in", adapted,
                   "--checkpoint-out", final, "--seed", "0") == 0
        config, params = load_checkpoint(final)
        assert config.hidden_dim == 16

        # starting point was the adapted checkpoint: speaker rows differ from
        # a fresh seed-0 init once adaptation has moved them
        _, adapted_params = load_checkpoint(adapted)
        assert not np.array_equal(params["token_table"], adapted_params["token_table"])

    def test_no_adaptation_equals_fresh_init_run(self, workdir):
        vocab = self._vocab(workdir)
        adapted = workdir / "adapted.npz"
        assert run("adapt", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--config", workdir / "config.json", "--checkpoint-out", adapted,
                   "--seed", "0") == 0
        ignoring = workdir / "ignoring.npz"
        assert run("finetune", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--config", workdir / "config.json", "--checkpoint-in", adapted,
                   "--no-adaptation", "--checkpoint-out", ignoring, "--seed", "3") == 0
        fresh = workdir / "fresh.npz"
        assert run("finetune", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--config", workdir / "config.json", "--checkpoint-out", fresh,
                   "--seed", "3") == 0
        _, a = load_checkpoint(ignoring)
        _, b = load_checkpoint(fresh)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_no_speaker_embeddings_zeroes_table(self, workdir):
        vocab = self._vocab(workdir)
        out = workdir / "ablated.npz"
        assert run("finetune", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--config", workdir / "config.json", "--checkpoint-out", out,
                   "--no-speaker-embeddings", "--seed", "0") == 0
        config, params = load_checkpoint(out)
        assert np.all(params["speaker_table"] == 0.0)

        # ablation identity end to end: swapping the speaker tracks of an
        # otherwise identical input cannot move the trained model's score
        from replyrank.corpus import parse_tsv_example
        from replyrank.encoding import MatchingInstance, encode_instance, instance_from_example
        from replyrank.model import score
        from replyrank.tokenizer import Vocabulary

        vv = Vocabulary.load(vocab)
        example = parse_tsv_example((workdir / "train.tsv").read_text().splitlines()[0])
        inst = instance_from_example(example)
        swapped = MatchingInstance(
            context=tuple((u, 3 - role) for u, role in inst.context),
            response=inst.response,
            response_role=3 - inst.response_role,
            label=inst.label,
        )
        a = score(encode_instance(inst, vv, config.max_seq_len), params, config)
        b = score(encode_instance(swapped, vv, config.max_seq_len), params, config)
        assert a == b  # bitwise

    def test_seeded_runs_bit_identical(self, workdir):
        vocab = self._vocab(workdir)
        outs = []
        for name in ("a.npz", "b.npz"):
            out = workdir / name
            assert run("finetune", "--data", workdir / "train.tsv", "--vocab", vocab,
                       "--config", workdir / "config.json", "--checkpoint-out", out,
                       "--loss-log", workdir / (name + ".csv"), "--seed", "11") == 0
            outs.append(out)
        _, a = load_checkpoint(outs[0])
        _, b = load_checkpoint(outs[1])
        for name in a:
            assert np.array_equal(a[name], b[name]), name
        assert (workdir / "a.npz.csv").read_text() == (workdir / "b.npz.csv").read_text()

    def test_dropout_config_trains_and_replays(self, workdir):
        config = json.loads((workdir / "config.json").read_text())
        config["model"]["dropout_rate"] = 0.1
        (workdir / "dropout.json").write_text(json.dumps(config))
        vocab = self._vocab(workdir)
        outs = [workdir / "d1.npz", workdir / "d2.npz"]
        for out in outs:
            assert run("finetune", "--data", workdir / "train.tsv", "--vocab", vocab,
                       "--config", workdir / "dropout.json", "--checkpoint-out", out,
                       "--validation", workdir / "pools.jsonl", "--seed", "0",
                       "--loss-log", str(out) + ".csv") == 0
        _, a = load_checkpoint(outs[0])
        _, b = load_checkpoint(outs[1])
        for name in a:
            assert np.array_equal(a[name], b[name]), name
        assert (workdir / "d1.npz.csv").read_text() == (workdir / "d2.npz.csv").read_text()
        assert run("evaluate", "--pools", workdir / "pools.jsonl", "--checkpoint", outs[0],
                   "--vocab", vocab) == 0

    def test_malformed_tsv_is_data_error(self, workdir):
        vocab = self._vocab(workdir)
        bad = workdir / "bad.tsv"
        bad.write_text("1\tonly-two-fields\n")
        assert run("finetune", "--data", bad, "--vocab", vocab,
                   "--config", workdir / "config.json",
                   "--checkpoint-out", workdir / "x.npz") == 2

    def test_no_disentangle_uses_raw_pool_contexts(self, workdir):
        vocab = self._vocab(workdir)
        out = workdir / "raw.npz"
        assert run("finetune", "--data", workdir / "pools.jsonl", "--format", "jsonl",
                   "--vocab", vocab, "--config", workdir / "config.json",
                   "--checkpoint-out", out, "--no-disentangle", "--seed", "0") == 0
        assert out.exists()

    def test_config_dir_env_resolution(self, workdir, monkeypatch):
        configs = workdir / "cfgdir"
        configs.mkdir()
        (configs / "mini.json").write_text((workdir / "config.json").read_text())
        monkeypatch.setenv("REPLYRANK_CONFIG_DIR", str(configs))
        monkeypatch.chdir(workdir)
        vocab = self._vocab(workdir)
        out = workdir / "env.npz"
        assert run("finetune", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--config", "mini.json", "--checkpoint-out", out, "--seed", "0") == 0
        assert out.exists()

    def test_manifest_records_inputs_and_seed(self, workdir):
        vocab = self._vocab(workdir)
        out = workdir / "m.npz"
        assert run("finetune", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--config", workdir / "config.json", "--checkpoint-out", out,
                   "--seed", "5") == 0
        manifest = json.loads((workdir / "m.npz.manifest.json").read_text())
        assert manifest["command"] == "finetune"
        assert manifest["seed"] == 5
        assert str(workdir / "train.tsv") in manifest["inputs"]
        assert all(len(h) == 64 for h in manifest["inputs"].values())


class TestEvaluate:
    def _trained(self, workdir):
        vocab = workdir / "vocab.txt"
        assert run("build-vocab", "--input", workdir / "train.tsv", "--out", vocab) == 0
        ckpt = workdir / "model.npz"
        assert run("finetune", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--config", workdir / "config.json", "--checkpoint-out", ckpt,
                   "--seed", "0") == 0
        return vocab, ckpt

    def test_report_matches_direct_invocation(self, workdir, capsys):
        vocab, ckpt = self._trained(workdir)
        out = workdir / "report.txt"
        assert run("evaluate", "--pools", workdir / "pools.jsonl", "--checkpoint", ckpt,
                   "--vocab", vocab, "--out", out) == 0
        report_lines = out.read_text().strip().splitlines()
        values = dict(line.split("=") for line in report_lines)

        from replyrank.cli import _load_instance_pools
        from replyrank.encoding import encode_instance
        from replyrank.evaluation import mean_reciprocal_rank, rank_scores, recall_at_k
        from replyrank.model import score_batch, stack_inputs
        from replyrank.tokenizer import Vocabulary

        vv = Vocabulary.load(vocab)
        config, params = load_checkpoint(ckpt)
        ranked = []
        for pool in _load_instance_pools(str(workdir / "pools.jsonl"), 3, True, 25):
            batch = stack_inputs([encode_instance(i, vv, config.max_seq_len) for i in pool])
            ranked.append(rank_scores(score_batch(batch, params, config).tolist(),
                                      [i.label for i in pool]))
        assert float(values["R@10,1"]) == pytest.approx(recall_at_k(ranked, 10, 1), abs=1e-6)
        assert float(values["MRR"]) == pytest.approx(mean_reciprocal_rank(ranked), abs=1e-6)

    def test_threshold_sweep_reports_grid_value(self, workdir):
        vocab, ckpt = self._trained(workdir)
        out = workdir / "report.txt"
        assert run("evaluate", "--pools", workdir / "pools.jsonl", "--checkpoint", ckpt,
                   "--vocab", vocab, "--threshold-sweep", "--out", out) == 0
        values = dict(line.split("=") for line in out.read_text().strip().splitlines())
        assert float(values["threshold"]) in {0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95}

    def test_custom_recall_cutoffs(self, workdir, capsys):
        vocab, ckpt = self._trained(workdir)
        assert run("evaluate", "--pools", workdir / "pools.jsonl", "--checkpoint", ckpt,
                   "--vocab", vocab, "--recall", "10:3") == 0
        assert "R@10,3=" in capsys.readouterr().out


    @staticmethod
    def _untrained(workdir, pools):
        """A vocabulary built from ``pools`` and a freshly initialised checkpoint."""
        from replyrank.model import ModelConfig, init_params, save_checkpoint
        from replyrank.tokenizer import Vocabulary

        vocab = workdir / "pool_vocab.txt"
        assert run("build-vocab", "--input", pools, "--format", "jsonl", "--out", vocab) == 0
        config = ModelConfig(vocab_size=len(Vocabulary.load(vocab)), **MINI_CONFIG["model"])
        ckpt = workdir / "untrained.npz"
        save_checkpoint(ckpt, config, init_params(config))
        return vocab, ckpt

    @staticmethod
    def _write_pools(path, sizes, candidate_text="fine thanks"):
        lines = []
        for size in sizes:
            candidates = [{"text": candidate_text if i == 0 else "other reply %d" % i, "from": "a", "label": int(i == 0)}
                          for i in range(size)]
            lines.append({"index": 0, "from": "a", "to": "b", "text": "how are you"})
            lines.append({"index": 1, "from": "b", "to": "a", "text": "good and you", "candidates": candidates})
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))

    def test_mixed_pool_sizes_with_explicit_recall(self, workdir, capsys):
        pools = workdir / "mixed.jsonl"
        self._write_pools(pools, [2, 3])
        vocab, ckpt = self._untrained(workdir, pools)
        capsys.readouterr()
        assert run("evaluate", "--pools", pools, "--checkpoint", ckpt, "--vocab", vocab,
                   "--recall", "2:1") == 0
        assert "R@2,1=" in capsys.readouterr().out
        # default cutoffs need one pool size
        assert run("evaluate", "--pools", pools, "--checkpoint", ckpt, "--vocab", vocab) == 2
        assert "mixed candidate counts" in capsys.readouterr().err

    def test_non_string_candidate_is_data_error(self, workdir, capsys):
        pools = workdir / "good.jsonl"
        self._write_pools(pools, [2])
        vocab, ckpt = self._untrained(workdir, pools)
        bad = workdir / "bad.jsonl"
        bad.write_text(pools.read_text().replace('"fine thanks"', "42"))
        capsys.readouterr()
        assert run("evaluate", "--pools", bad, "--checkpoint", ckpt, "--vocab", vocab) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: record 2: candidate 'text'")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("content", [b"not an archive", b"PK\x03\x04truncated", b"", NPY_BYTES])
    def test_corrupt_checkpoint_is_data_error(self, workdir, capsys, content):
        pools = workdir / "good.jsonl"
        self._write_pools(pools, [2])
        vocab, _ = self._untrained(workdir, pools)
        ckpt = workdir / "corrupt.npz"
        ckpt.write_bytes(content)
        capsys.readouterr()
        assert run("evaluate", "--pools", pools, "--checkpoint", ckpt, "--vocab", vocab) == 2
        err = capsys.readouterr().err
        assert err == "data error: checkpoint %s is not a valid .npz\n" % ckpt


class TestEncode:
    def test_prints_aligned_tracks(self, workdir, capsys):
        vocab = workdir / "vocab.txt"
        assert run("build-vocab", "--input", workdir / "train.tsv", "--out", vocab) == 0
        capsys.readouterr()
        assert run("encode", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--row", "0", "--max-len", "32", "--inspect") == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["pos", "token", "id", "seg", "spk", "mask"]
        # one line per real position, within the --max-len budget; no padding rows
        assert 1 < len(lines) <= 33
        assert "[CLS]" in lines[1]
        assert lines[-1].split()[1] == "[SEP]"
        assert all(line.split()[-1] == "1" for line in lines[1:])

    def test_row_out_of_range(self, workdir):
        vocab = workdir / "vocab.txt"
        assert run("build-vocab", "--input", workdir / "train.tsv", "--out", vocab) == 0
        assert run("encode", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--row", "9999") == 1

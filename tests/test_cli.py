import ctypes
import hashlib
import io
import json
import resource
from pathlib import Path

import numpy as np
import pytest

from replyrank.cli import _prepare_training, build_parser, main
from replyrank.model import CHECKPOINT_FORMAT, load_checkpoint
from replyrank.tokenizer import SPECIAL_TOKENS

REPO = Path(__file__).resolve().parent.parent
DATA_DIR = REPO / "data" / "toy"

MINI_CONFIG = {
    "model": {
        "hidden_dim": 16,
        "num_layers": 1,
        "num_heads": 2,
        "ffn_dim": 24,
        "max_seq_len": 48,
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
        from replyrank.model import score_batch, stack_inputs
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
        a = score_batch(stack_inputs([encode_instance(inst, vv, config.max_seq_len)]), params, config)[0]
        b = score_batch(stack_inputs([encode_instance(swapped, vv, config.max_seq_len)]), params, config)[0]
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

    def test_malformed_tsv_is_data_error(self, workdir):
        vocab = self._vocab(workdir)
        bad = workdir / "bad.tsv"
        bad.write_text("1\tonly-two-fields\n")
        assert run("finetune", "--data", bad, "--vocab", vocab,
                   "--config", workdir / "config.json",
                   "--checkpoint-out", workdir / "x.npz") == 2

    def test_empty_tsv_response_is_data_error(self, workdir, capsys):
        vocab = self._vocab(workdir)
        bad = workdir / "bad.tsv"
        bad.write_text("1\thow are you\tfine\n0\thow are you\t \n")
        capsys.readouterr()
        assert run("finetune", "--data", bad, "--vocab", vocab,
                   "--config", workdir / "config.json",
                   "--checkpoint-out", workdir / "x.npz") == 2
        assert capsys.readouterr().err == "data error: line 2: the response is empty\n"

    def test_no_disentangle_uses_raw_pool_contexts(self, workdir):
        vocab = self._vocab(workdir)
        out = workdir / "raw.npz"
        assert run("finetune", "--data", workdir / "pools.jsonl", "--format", "jsonl",
                   "--vocab", vocab, "--config", workdir / "config.json",
                   "--checkpoint-out", out, "--no-disentangle", "--seed", "0") == 0
        assert out.exists()

    def test_mixed_validation_pool_sizes_is_data_error(self, workdir, capsys):
        vocab = self._vocab(workdir)
        validation = workdir / "mixed.jsonl"
        TestEvaluate._write_pools(validation, [2, 3])
        out = workdir / "model.npz"
        capsys.readouterr()
        assert run("finetune", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--config", workdir / "config.json", "--checkpoint-out", out,
                   "--validation", validation) == 2
        assert capsys.readouterr().err == (
            "data error: validation pools in %s have mixed candidate counts [2, 3]\n" % validation
        )
        assert not out.exists()  # rejected before any training step

    def _rejected_before_training(self, workdir, capsys, phase, data, *flags):
        """Run ``phase`` on ``data``; return its exit code and stderr, checking no checkpoint was written."""
        vocab = self._vocab(workdir)
        out = workdir / "model.npz"
        capsys.readouterr()
        code = run(phase, "--data", data, "--vocab", vocab, "--config", workdir / "config.json",
                   "--checkpoint-out", out, *flags)
        assert not out.exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            {"train": [1]},
            {"train": 5},
            {"adapt": [1]},
            {"model": [1]},
            {"train": {"batch_size": 2.5}},
            {"train": {"max_epochs": 1.5}},
            {"train": {"seed": "x"}},
            {"model": {"max_seq_len": 128.5}},
            {"model": {"num_speaker_roles": 3}},
            {"train": {"weight_decay": "x"}},
            {"adapt": {"mlm_weight": 1.0}},
            {"model": {"seed": 5}},
            {"model": {"dropout_rate": 0.1}},
            {"train": {"batch_size": True}},
            {"model": {"num_layers": True}},
            {"train": {"freeze_speaker_table": "false"}},
            {"train": {"learning_rate": True}},
            {"adapt": {"seed": 5}},
            {"finetune": {"freeze_speaker_table": True}},
            {"train": {"mask_fraction": 0.15}},
            {"train": {"weight_decay": 0.01}},
            {"train": {"learning_rate": float("nan")}},
            {"train": {"learning_rate": float("inf")}},
            {"train": {"max_epochs": 1}, "fintune": {"max_epochs": 40}},
        ],
        ids=["train-list", "train-int", "adapt-list", "model-list", "batch-size", "max-epochs", "seed",
             "max-seq-len", "speaker-roles", "weight-decay", "mlm-weight", "model-seed", "dropout-rate",
             "batch-size-bool", "num-layers-bool", "freeze-flag-string", "learning-rate-bool",
             "adapt-seed", "finetune-freeze-flag", "mask-fraction", "weight-decay-default",
             "learning-rate-nan", "learning-rate-infinity", "fintune"],
    )
    def test_malformed_config_is_usage_error(self, workdir, capsys, config):
        (workdir / "config.json").write_text(json.dumps(config))
        code, err = self._rejected_before_training(workdir, capsys, "adapt", workdir / "train.tsv")
        assert code == 1
        assert err.startswith("usage error: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_unknown_section_is_named_before_data_loads(self, workdir, capsys):
        (workdir / "config.json").write_text(json.dumps({"train": {"max_epochs": 1}, "fintune": {"max_epochs": 40}}))
        code, err = self._rejected_before_training(workdir, capsys, "finetune", workdir / "missing.tsv")
        assert code == 1
        assert err.startswith("usage error: unknown config section 'fintune'")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "section, key, value, flag",
        [("adapt", "seed", 5, "--seed"), ("train", "freeze_speaker_table", True, "--no-speaker-embeddings")],
    )
    def test_flag_setting_in_config_names_its_flag(self, workdir, capsys, section, key, value, flag):
        (workdir / "config.json").write_text(json.dumps({section: {key: value}}))
        code, err = self._rejected_before_training(workdir, capsys, "adapt", workdir / "train.tsv")
        assert code == 1
        assert err.startswith("usage error: ")
        assert key in err and flag in err
        assert len(err.strip().splitlines()) == 1

    def test_no_adaptation_flag_is_usage_error(self, workdir, capsys):
        code, err = self._rejected_before_training(
            workdir, capsys, "finetune", workdir / "train.tsv", "--no-adaptation"
        )
        assert code == 1
        assert err == "usage error: unrecognized arguments: --no-adaptation\n"

    def test_adapt_validation_without_positives_is_data_error(self, workdir, capsys):
        negatives = workdir / "negatives.tsv"
        lines = (workdir / "train.tsv").read_text().splitlines(True)
        negatives.write_text("".join(line for line in lines if line.startswith("0\t")))
        code, err = self._rejected_before_training(
            workdir, capsys, "adapt", workdir / "train.tsv", "--validation", negatives
        )
        assert code == 2
        assert err == "data error: validation data in %s has no label-1 examples\n" % negatives

    def test_finetune_validation_without_positives_is_data_error(self, workdir, capsys):
        negatives = workdir / "negative_pools.jsonl"
        negatives.write_text((workdir / "pools.jsonl").read_text().replace('"label": 1', '"label": 0'))
        code, err = self._rejected_before_training(
            workdir, capsys, "finetune", workdir / "train.tsv", "--validation", negatives
        )
        assert code == 2
        assert err == "data error: validation pools in %s hold no positive candidate\n" % negatives

    @pytest.mark.parametrize("phase", ["adapt", "finetune"])
    def test_empty_data_file_is_data_error(self, workdir, capsys, phase):
        empty = workdir / "empty.tsv"
        empty.write_text("")
        code, err = self._rejected_before_training(workdir, capsys, phase, empty)
        assert code == 2
        assert err == "data error: %s holds no examples\n" % empty

    def test_adapt_with_one_positive_is_data_error(self, workdir, capsys):
        data = workdir / "one_positive.tsv"
        lines = (workdir / "train.tsv").read_text().splitlines(True)
        data.write_text("".join([line for line in lines if line.startswith("1\t")][:1]
                                + [line for line in lines if line.startswith("0\t")]))
        code, err = self._rejected_before_training(workdir, capsys, "adapt", data)
        assert code == 2
        assert err == "data error: %s has fewer than 2 label-1 examples to adapt on\n" % data

    def test_missing_config_file_is_usage_error(self, workdir, capsys, monkeypatch):
        # a bare name is looked up only relative to the working directory
        (workdir / "configs").mkdir()
        (workdir / "configs" / "mini.json").write_text((workdir / "config.json").read_text())
        monkeypatch.chdir(workdir)
        vocab = self._vocab(workdir)
        out = workdir / "model.npz"
        capsys.readouterr()
        assert run("finetune", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--config", "mini.json", "--checkpoint-out", out) == 1
        assert capsys.readouterr().err == "usage error: config file mini.json not found\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "model, message",
        [
            ({"num_speaker_roles": 3, "hidden_dim": 999}, "bad model config"),
            ({"dropout_rate": 0.0}, "bad model config"),
            ({"num_layers": True}, "bad model config"),
            ({"hidden_dim": 32}, "config sets model hidden_dim 32 but checkpoint"),
            ({**MINI_CONFIG["model"], "max_seq_len": 64}, "config sets model max_seq_len 64 but checkpoint"),
        ],
        ids=["retired-key-and-size", "dropout-rate", "bool-size", "hidden-dim-differs", "max-seq-len-differs"],
    )
    def test_model_section_checked_against_checkpoint_in(self, workdir, capsys, model, message):
        vocab = self._vocab(workdir)
        adapted = workdir / "adapted.npz"
        assert run("adapt", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--config", workdir / "config.json", "--checkpoint-out", adapted, "--seed", "0") == 0
        (workdir / "config.json").write_text(json.dumps({**MINI_CONFIG, "model": model}))
        code, err = self._rejected_before_training(
            workdir, capsys, "finetune", workdir / "train.tsv", "--checkpoint-in", adapted
        )
        assert code == 1
        assert err.startswith("usage error: " + message)
        assert len(err.strip().splitlines()) == 1

    def test_manifest_records_inputs_and_seed(self, workdir):
        vocab = self._vocab(workdir)
        out = workdir / "m.npz"
        configs = []
        for _ in range(2):
            assert run("finetune", "--data", workdir / "train.tsv", "--vocab", vocab,
                       "--config", workdir / "config.json", "--checkpoint-out", out,
                       "--seed", "5") == 0
            manifest = json.loads((workdir / "m.npz.manifest.json").read_text())
            configs.append(manifest["config"])
        assert manifest["command"] == "finetune"
        assert manifest["seed"] == 5
        assert str(workdir / "train.tsv") in manifest["inputs"]
        assert all(len(h) == 64 for h in manifest["inputs"].values())
        assert "func" not in configs[0]
        assert configs[0] == configs[1]
        # the config file's content is an input of both phases
        config_hash = hashlib.sha256((workdir / "config.json").read_bytes()).hexdigest()
        assert manifest["inputs"][str(workdir / "config.json")] == config_hash
        assert run("adapt", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--config", workdir / "config.json", "--checkpoint-out", out, "--seed", "5") == 0
        manifest = json.loads((workdir / "m.npz.manifest.json").read_text())
        assert manifest["inputs"][str(workdir / "config.json")] == config_hash

    def test_manifest_records_resources(self, workdir):
        vocab = self._vocab(workdir)
        out = workdir / "a.npz"
        assert run("adapt", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--config", workdir / "config.json", "--checkpoint-out", out,
                   "--loss-log", workdir / "a.csv", "--seed", "1") == 0
        resources = json.loads((workdir / "a.npz.manifest.json").read_text())["resources"]
        assert set(resources) == {"wall_s", "peak_rss_mb", "minor_faults"}
        assert isinstance(resources["wall_s"], float) and resources["wall_s"] > 0
        assert isinstance(resources["peak_rss_mb"], float) and resources["peak_rss_mb"] > 0
        assert isinstance(resources["minor_faults"], int) and resources["minor_faults"] >= 0
        assert (workdir / "a.csv").read_text().splitlines()[0] == "step,phase,loss,lr"

    def test_manifest_records_environment(self, workdir):
        vocab = self._vocab(workdir)
        out = workdir / "a.npz"
        assert run("adapt", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--config", workdir / "config.json", "--checkpoint-out", out, "--seed", "1") == 0
        environment = json.loads((workdir / "a.npz.manifest.json").read_text())["environment"]
        assert set(environment) == {"python", "numpy", "scipy", "openblas_config", "openblas_threads"}
        assert environment["numpy"] == np.__version__
        assert all(isinstance(environment[key], str) and environment[key] for key in ("python", "numpy", "scipy"))
        assert environment["openblas_config"] is None or environment["openblas_config"].startswith("OpenBLAS")
        threads = environment["openblas_threads"]
        assert threads is None or (isinstance(threads, int) and threads >= 1)


class TestShippedConfigs:
    @pytest.mark.parametrize("phase", ["adapt", "finetune"])
    @pytest.mark.parametrize("config", sorted((REPO / "configs").glob("*.json")), ids=lambda path: path.name)
    def test_builds_model_and_train_config(self, tmp_path, config, phase):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(SPECIAL_TOKENS + ("hello",)) + "\n")
        args = build_parser().parse_args([phase, "--data", "unused.tsv", "--vocab", str(vocab),
                                          "--config", str(config), "--checkpoint-out", "unused.npz"])
        _, model_config, train_config, _ = _prepare_training(args, phase)
        sections = json.loads(config.read_text())
        train = {**sections["train"], **sections.get(phase, {})}
        assert {key: getattr(train_config, key) for key in train} == train
        assert {key: getattr(model_config, key) for key in sections["model"]} == sections["model"]

    def test_default_config_adapts_then_finetunes(self, tmp_path):
        # about 150 positions a row: at the default dimensions each step runs in 1-row blocks
        rng = np.random.default_rng(0)
        words = ["w%02d" % i for i in range(40)]

        def utterance():
            return " ".join(rng.choice(words, 12))

        data = tmp_path / "long.tsv"
        data.write_text("".join("%d\t%s\t%s\n" % (label, "\t".join(utterance() for _ in range(10)), utterance())
                                for label in (1, 1, 0, 1)))
        vocab, adapted, final = tmp_path / "vocab.txt", tmp_path / "adapted.npz", tmp_path / "final.npz"
        config = REPO / "configs" / "default.json"
        assert run("build-vocab", "--input", data, "--out", vocab) == 0
        assert run("adapt", "--data", data, "--vocab", vocab, "--config", config,
                   "--checkpoint-out", adapted, "--loss-log", tmp_path / "adapt.csv") == 0
        assert run("finetune", "--data", data, "--vocab", vocab, "--config", config, "--checkpoint-in", adapted,
                   "--checkpoint-out", final, "--loss-log", tmp_path / "finetune.csv") == 0
        epochs = json.loads(config.read_text())["train"]["max_epochs"]
        for log in ("adapt.csv", "finetune.csv"):
            assert len((tmp_path / log).read_text().splitlines()) == 1 + epochs  # one step per epoch
        assert load_checkpoint(final)[0].max_seq_len == 512


class TestAllocator:
    @staticmethod
    def _build_vocab(workdir):
        return run("build-vocab", "--input", workdir / "train.tsv", "--out", workdir / "vocab.txt")

    @pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None, reason="C library has no mallopt")
    def test_freed_arrays_fault_nothing_after_first_round(self, workdir):
        assert self._build_vocab(workdir) == 0

        def round_faults():
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            arrays = [np.ones(1 << 20) for _ in range(12)]  # 12 x 8 MB
            del arrays
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        round_faults()
        assert [round_faults() for _ in range(3)] == [0, 0, 0]

    def test_missing_mallopt_is_a_no_op(self, workdir, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert self._build_vocab(workdir) == 0


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
        for pool in _load_instance_pools(str(workdir / "pools.jsonl"), True, 25):
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
        save_checkpoint(ckpt, config, init_params(config, np.random.default_rng(0)))
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

    @pytest.mark.parametrize("text", ["", "   "])
    def test_empty_candidate_text_is_data_error(self, workdir, capsys, text):
        pools = workdir / "good.jsonl"
        self._write_pools(pools, [2])
        vocab, ckpt = self._untrained(workdir, pools)
        bad = workdir / "bad.jsonl"
        bad.write_text(pools.read_text().replace('"fine thanks"', json.dumps(text)))
        capsys.readouterr()
        assert run("evaluate", "--pools", bad, "--checkpoint", ckpt, "--vocab", vocab) == 2
        assert capsys.readouterr().err == "data error: record 2: candidate 'text' is empty\n"

    @pytest.mark.parametrize(
        "meta, message",
        [
            ({"format": CHECKPOINT_FORMAT, "config": {"vocab_size": 10, "bogus": 1}},
             "unexpected keyword argument 'bogus'"),
            ({"format": CHECKPOINT_FORMAT}, "metadata has no model config"),
            ({"format": CHECKPOINT_FORMAT, "config": {"vocab_size": 10, "hidden_dim": 10, "num_heads": 3}},
             "hidden_dim 10 not divisible by num_heads 3"),
            ({"format": CHECKPOINT_FORMAT, "config": {"vocab_size": 10, "seed": "x"}},
             "unexpected keyword argument 'seed'"),
        ],
        ids=["unknown-key", "missing-config", "invalid-value", "string-seed"],
    )
    def test_bad_checkpoint_metadata_is_data_error(self, workdir, capsys, meta, message):
        pools = workdir / "good.jsonl"
        self._write_pools(pools, [2])
        vocab, _ = self._untrained(workdir, pools)
        ckpt = workdir / "bad_meta.npz"
        np.savez(ckpt, __meta__=np.array(json.dumps(meta)))
        capsys.readouterr()
        assert run("evaluate", "--pools", pools, "--checkpoint", ckpt, "--vocab", vocab) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: checkpoint %s" % ckpt)
        assert message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda entries: entries.pop("token_table"),
             "parameter keys mismatch: missing ['token_table']"),
            (lambda entries: entries.update(bogus=np.zeros(2)),
             "parameter keys mismatch: missing [], extra ['bogus']"),
            (lambda entries: entries.update({"match_head.b": np.zeros(3)}),
             "parameter match_head.b has shape (3,), expected (1,)"),
            (lambda entries: entries.update({"match_head.b": np.array(["x"])}),
             "could not convert string to float"),
        ],
        ids=["missing-tensor", "extra-tensor", "wrong-shape", "string-tensor"],
    )
    def test_malformed_checkpoint_tensors_are_data_error(self, workdir, capsys, change, message):
        pools = workdir / "good.jsonl"
        self._write_pools(pools, [2])
        vocab, ckpt = self._untrained(workdir, pools)
        with np.load(ckpt) as archive:
            entries = {name: archive[name] for name in archive.files}
        change(entries)
        bad = workdir / "bad_tensors.npz"
        np.savez(bad, **entries)
        capsys.readouterr()
        assert run("evaluate", "--pools", pools, "--checkpoint", bad, "--vocab", vocab) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: checkpoint %s: %s" % (bad, message))
        assert len(err.strip().splitlines()) == 1

    def test_format_1_checkpoint_is_data_error(self, workdir, capsys):
        pools = workdir / "good.jsonl"
        self._write_pools(pools, [2])
        vocab, ckpt = self._untrained(workdir, pools)
        with np.load(ckpt) as archive:
            entries = {name: archive[name] for name in archive.files}
        meta = json.loads(str(entries.pop("__meta__")))
        old = workdir / "format1.npz"
        np.savez(old, __meta__=np.array(json.dumps({**meta, "format": 1})), **entries)
        capsys.readouterr()
        assert run("evaluate", "--pools", pools, "--checkpoint", old, "--vocab", vocab) == 2
        assert capsys.readouterr().err == "data error: unsupported checkpoint format 1\n"

    def test_records_after_last_pool_are_data_error(self, workdir, capsys):
        pools = workdir / "good.jsonl"
        self._write_pools(pools, [2])
        vocab, ckpt = self._untrained(workdir, pools)
        trailing = workdir / "trailing.jsonl"
        extra = [{"index": 2, "from": "a", "text": "still here"}, {"index": 3, "from": "b", "text": "me too"}]
        trailing.write_text(pools.read_text() + "".join(json.dumps(r) + "\n" for r in extra))
        capsys.readouterr()
        assert run("evaluate", "--pools", trailing, "--checkpoint", ckpt, "--vocab", vocab) == 2
        assert capsys.readouterr().err == (
            "data error: record 3: follows the last candidate record and belongs to no pool\n"
        )

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


class TestVocabularyFile:
    @pytest.mark.parametrize(
        "content, message",
        [("foo\nbar\n", "does not start with the 7 special tokens"),
         ("\n".join(SPECIAL_TOKENS) + "\nx\ny\nx\n", "lists a token more than once")],
        ids=["no-specials", "repeated-token"],
    )
    @pytest.mark.parametrize("command", ["evaluate", "encode"])
    def test_malformed_vocabulary_is_data_error(self, workdir, capsys, command, content, message):
        vocab = workdir / "bad_vocab.txt"
        vocab.write_text(content)
        argv = {
            "evaluate": ["--pools", workdir / "pools.jsonl", "--checkpoint", workdir / "m.npz"],
            "encode": ["--data", workdir / "train.tsv"],
        }[command]
        assert run(command, *argv, "--vocab", vocab) == 2
        assert capsys.readouterr().err == "data error: vocabulary file %s %s\n" % (vocab, message)


class TestEncode:
    def test_prints_aligned_tracks(self, workdir, capsys):
        vocab = workdir / "vocab.txt"
        assert run("build-vocab", "--input", workdir / "train.tsv", "--out", vocab) == 0
        capsys.readouterr()
        assert run("encode", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--row", "0", "--max-len", "32") == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["pos", "token", "id", "seg", "spk"]
        # one line per real position, within the --max-len budget; no padding rows
        assert 1 < len(lines) <= 33
        assert "[CLS]" in lines[1]
        assert lines[-1].split()[1] == "[SEP]"
        assert all(len(line.split()) == 5 for line in lines[1:])

    def test_row_out_of_range(self, workdir):
        vocab = workdir / "vocab.txt"
        assert run("build-vocab", "--input", workdir / "train.tsv", "--out", vocab) == 0
        assert run("encode", "--data", workdir / "train.tsv", "--vocab", vocab,
                   "--row", "9999") == 1


class TestContextCap:
    @pytest.mark.parametrize("cap", [2, 30])
    def test_cap_applies_to_tsv_context(self, tmp_path, capsys, cap):
        data = tmp_path / "long.tsv"
        data.write_text("1\t" + "\t".join("turn %d" % i for i in range(30)) + "\treply\n")
        vocab = tmp_path / "vocab.txt"
        assert run("build-vocab", "--input", data, "--out", vocab) == 0
        capsys.readouterr()
        assert run("encode", "--data", data, "--vocab", vocab, "--max-len", "512", "--cap", cap) == 0
        tokens = [line.split()[1] for line in capsys.readouterr().out.splitlines()[1:]]
        assert tokens.count("[EOU]") == cap
        # the kept utterances are the most recent ones
        assert tokens[1:3] == ["turn", str(30 - cap)]

    @pytest.mark.parametrize("flags, utterances", [([], 1), (["--no-disentangle"], 3), (["--no-disentangle", "--cap", "2"], 2)])
    def test_encode_pool_context(self, tmp_path, capsys, flags, utterances):
        data = tmp_path / "pool.jsonl"
        records = [
            {"index": 0, "from": "bob", "to": "amy", "text": "hi amy"},
            {"index": 1, "from": "cat", "to": "dan", "text": "hello dan"},
            {"index": 2, "from": "dan", "to": "cat", "text": "hey cat",
             "candidates": [{"text": "how are you", "from": "amy", "label": 1}]},
        ]
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        vocab = tmp_path / "vocab.txt"
        assert run("build-vocab", "--input", data, "--format", "jsonl", "--out", vocab) == 0
        capsys.readouterr()
        assert run("encode", "--data", data, "--format", "jsonl", "--vocab", vocab, *flags) == 0
        tokens = [line.split()[1] for line in capsys.readouterr().out.splitlines()[1:]]
        # speaker filtering keeps only bob's line to amy; the raw tail keeps up to --cap lines
        assert tokens.count("[EOU]") == utterances

    @pytest.mark.parametrize("cap", ["0", "-1", "two"])
    @pytest.mark.parametrize("command", ["encode", "evaluate", "disentangle"])
    def test_cap_below_one_is_usage_error(self, workdir, capsys, command, cap):
        argv = {
            "encode": ["--data", workdir / "train.tsv", "--vocab", workdir / "vocab.txt"],
            "evaluate": ["--pools", workdir / "pools.jsonl", "--checkpoint", workdir / "m.npz",
                         "--vocab", workdir / "vocab.txt"],
            "disentangle": ["--channel", workdir / "pools.jsonl", "--speaker", "a", "--out", workdir / "o.jsonl"],
        }[command]
        assert run(command, *argv, "--cap", cap) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --cap: must be an integer >= 1")
        assert len(err.strip().splitlines()) == 1

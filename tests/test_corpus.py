import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from replyrank.corpus import (
    CandidatePool,
    CorpusError,
    Utterance,
    alternating_speaker,
    extract_spoken_to,
    load_channel,
    parse_tsv_example,
)


class TestParseTsvExample:
    def test_basic_line(self):
        pool = parse_tsv_example("1\thello\thi there\tgood, you?")
        [(response, label)] = pool.candidates
        assert label == 1
        assert [(u.spoken_from, u.text) for u in pool.context] == [
            ("spk_A", "hello"),
            ("spk_B", "hi there"),
        ]
        assert (response.spoken_from, response.text) == ("spk_A", "good, you?")
        assert all(u.spoken_to is None for u in pool.context)

    def test_single_context_utterance(self):
        pool = parse_tsv_example("0\thow are you\tfine")
        assert [label for _, label in pool.candidates] == [0]
        assert len(pool.context) == 1

    def test_too_few_fields(self):
        with pytest.raises(CorpusError, match="line 7"):
            parse_tsv_example("1\thello", line_number=7)

    def test_bad_label(self):
        with pytest.raises(CorpusError, match="label"):
            parse_tsv_example("2\ta\tb")

    @pytest.mark.parametrize("response", ["", "  ", " \u3000"])
    def test_empty_response_rejected(self, response):
        with pytest.raises(CorpusError, match="line 4: the response is empty"):
            parse_tsv_example("1\thello\t" + response, line_number=4)

    def test_alternation_property(self, rng):
        # even context indices share one speaker, odd the other; the response
        # continues the pattern
        for _ in range(50):
            m = int(rng.integers(1, 12))
            line = "1\t" + "\t".join("u%d" % i for i in range(m + 1))
            pool = parse_tsv_example(line)
            for u in pool.context:
                assert u.spoken_from == ("spk_A" if u.index % 2 == 0 else "spk_B")
            [(response, _)] = pool.candidates
            assert (response.index, response.spoken_from) == (m, alternating_speaker(m))
            assert [u.index for u in pool.context] == list(range(m))


class TestExtractSpokenTo:
    def test_known_speaker_prefix(self):
        assert extract_spoken_to("alice: try rebooting", {"alice", "bob"}) == ("alice", "try rebooting")

    def test_no_prefix(self):
        assert extract_spoken_to("try rebooting", {"alice"}) == (None, "try rebooting")

    def test_unknown_name_rejected(self):
        assert extract_spoken_to("carol: hi", {"alice", "bob"}) == (None, "carol: hi")

    def test_comma_separator(self):
        assert extract_spoken_to("bob, got a sec?", {"bob"}) == ("bob", "got a sec?")

    def test_name_with_space_not_an_address(self):
        assert extract_spoken_to("well alice: no", {"alice"}) == (None, "well alice: no")

    def test_none_result_never_alters_text(self, rng):
        speakers = {"alice", "bob"}
        pieces = ["carol:", "hello", "alice", ", there", ":", "x,y"]
        for _ in range(200):
            text = " ".join(pieces[i] for i in rng.integers(0, len(pieces), size=3))
            name, rest = extract_spoken_to(text, speakers)
            if name is None:
                assert rest == text


class TestLoadChannel:
    def test_tsv_count(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("1\ta\tb\n0\tc\td\n1\te\tf\tg\n")
        pools = load_channel(path, "tsv")
        assert len(pools) == 3
        assert all(isinstance(pool, CandidatePool) and len(pool.candidates) == 1 for pool in pools)
        assert [label for pool in pools for _, label in pool.candidates] == [1, 0, 1]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_channel(path, "jsonl") == []

    def test_jsonl_utterances(self, tmp_path):
        path = tmp_path / "chan.jsonl"
        records = [
            {"index": 0, "from": "alice", "to": None, "text": "hi"},
            {"index": 3, "from": "bob", "to": "alice", "text": "hello"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        utts = load_channel(path, "jsonl")
        assert [u.index for u in utts] == [0, 3]
        assert utts[1].spoken_to == "alice"

    def test_jsonl_out_of_order_indices(self, tmp_path):
        path = tmp_path / "chan.jsonl"
        path.write_text(
            json.dumps({"index": 5, "from": "a", "text": "x"}) + "\n"
            + json.dumps({"index": 2, "from": "b", "text": "y"}) + "\n"
        )
        with pytest.raises(CorpusError, match="record 2"):
            load_channel(path, "jsonl")

    def test_jsonl_missing_field_names_record(self, tmp_path):
        path = tmp_path / "chan.jsonl"
        path.write_text(json.dumps({"index": 0, "text": "x"}) + "\n")
        with pytest.raises(CorpusError, match="record 1"):
            load_channel(path, "jsonl")

    def test_pool_records(self, tmp_path):
        path = tmp_path / "pools.jsonl"
        lines = [
            {"index": 0, "from": "alice", "text": "anyone around"},
            {"index": 1, "from": "bob", "to": "alice", "text": "sure",
             "candidates": [
                 {"text": "thanks", "from": "alice", "label": 1},
                 {"text": "unrelated", "from": "carol", "label": 0},
             ]},
            {"index": 0, "from": "dan", "text": "new question",
             "candidates": [{"text": "answer", "from": "erin", "label": 0}]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in lines) + "\n")
        pools = load_channel(path, "jsonl")
        assert len(pools) == 2
        assert isinstance(pools[0], CandidatePool)
        assert len(pools[0].context) == 2
        assert [label for _, label in pools[0].candidates] == [1, 0]
        assert [label for _, label in pools[1].candidates] == [0]
        # candidates sit one step past the closing context utterance
        assert pools[0].candidates[0][0].index == 2
        # the accumulator resets between pools, so indices may restart
        assert pools[1].context[0].index == 0

    def test_records_after_last_pool_rejected(self, tmp_path):
        path = tmp_path / "pools.jsonl"
        lines = [
            {"index": 0, "from": "alice", "text": "anyone around",
             "candidates": [{"text": "sure", "from": "bob", "label": 1}]},
            {"index": 1, "from": "carol", "text": "left over"},
            {"index": 2, "from": "dan", "text": "also left over"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in lines) + "\n")
        message = "^%s: record 2: follows the last candidate record and belongs to no pool$" % re.escape(str(path))
        with pytest.raises(CorpusError, match=message):
            load_channel(path, "jsonl")

    @staticmethod
    def _load_one_candidate(tmp_path, **candidate):
        entry = {"text": "thanks", "from": "alice", "label": 1, **candidate}
        path = tmp_path / "pools.jsonl"
        path.write_text(json.dumps({"index": 0, "from": "bob", "text": "hi", "candidates": [entry]}) + "\n")
        return load_channel(path, "jsonl")

    def test_candidate_text_must_be_string(self, tmp_path):
        with pytest.raises(CorpusError, match="record 1: candidate 'text'"):
            self._load_one_candidate(tmp_path, text=["not", "text"])

    @pytest.mark.parametrize("text", ["", " \t\n"])
    def test_candidate_text_must_not_be_empty(self, tmp_path, text):
        with pytest.raises(CorpusError, match="record 1: candidate 'text' is empty"):
            self._load_one_candidate(tmp_path, text=text)
        assert self._load_one_candidate(tmp_path, text="?")[0].candidates[0][0].text == "?"

    def test_candidate_from_must_be_string(self, tmp_path):
        with pytest.raises(CorpusError, match="record 1: candidate 'from'"):
            self._load_one_candidate(tmp_path, **{"from": 7})

    def test_candidate_to_must_be_string_or_null(self, tmp_path):
        with pytest.raises(CorpusError, match="record 1: candidate 'to'"):
            self._load_one_candidate(tmp_path, to={"name": "bob"})
        assert self._load_one_candidate(tmp_path, to=None)[0].candidates[0][0].spoken_to is None

    def test_candidate_label_rejects_booleans(self, tmp_path):
        with pytest.raises(CorpusError, match="candidate label"):
            self._load_one_candidate(tmp_path, label=True)

    def test_candidate_must_be_object(self, tmp_path):
        path = tmp_path / "pools.jsonl"
        path.write_text(json.dumps({"index": 0, "from": "bob", "text": "hi", "candidates": ["thanks"]}) + "\n")
        with pytest.raises(CorpusError, match="record 1: each candidate"):
            load_channel(path, "jsonl")

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "x"
        path.write_text("")
        with pytest.raises(ValueError):
            load_channel(path, "csv")


class TestRoundTrip:
    """A one-candidate pool written as literal JSONL parses to the same pool as its TSV line."""

    @staticmethod
    def _load_pool(tmp_path, lines):
        path = tmp_path / "pool.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        pools = load_channel(path, "jsonl")
        assert len(pools) == 1
        return pools[0]

    def test_example_jsonl_round_trip(self, tmp_path):
        fixtures = {
            "1\thello\thi there\tgood, you?": [
                '{"index": 0, "from": "spk_A", "to": null, "text": "hello"}',
                '{"index": 1, "from": "spk_B", "to": null, "text": "hi there", '
                '"candidates": [{"text": "good, you?", "from": "spk_A", "label": 1}]}',
            ],
            "0\thow are you\tfine": [
                '{"index": 0, "from": "spk_A", "to": null, "text": "how are you", '
                '"candidates": [{"text": "fine", "from": "spk_B", "label": 0}]}',
            ],
        }
        for line, records in fixtures.items():
            assert self._load_pool(tmp_path, records) == parse_tsv_example(line)

    def test_random_examples_round_trip(self, tmp_path, rng):
        for trial in range(20):
            m = int(rng.integers(1, 8))
            texts = ["token %d here" % i for i in range(m + 1)]
            from_tsv = parse_tsv_example("%d\t" % (trial % 2) + "\t".join(texts))
            records = [{"index": i, "from": "spk_" + "AB"[i % 2], "text": text} for i, text in enumerate(texts[:-1])]
            records[-1]["candidates"] = [{"text": texts[-1], "from": "spk_" + "AB"[m % 2], "label": trial % 2}]
            pool = self._load_pool(tmp_path, [json.dumps(record) for record in records])
            assert len(pool.context) == m
            assert pool == from_tsv

    def test_pool_records_preserve_spoken_to(self, tmp_path):
        pool = self._load_pool(tmp_path, [
            '{"index": 0, "from": "a", "to": null, "text": "q", '
            '"candidates": [{"text": "r", "from": "b", "to": "a", "label": 1}, '
            '{"text": "s", "from": "c", "label": 0}]}',
        ])
        assert [(utt.spoken_to, label) for utt, label in pool.candidates] == [("a", 1), (None, 0)]


class TestInvariants:
    def test_empty_speaker_rejected(self):
        with pytest.raises(CorpusError):
            Utterance(index=0, spoken_from="", spoken_to=None, text="x")

    def test_bad_label_rejected(self, tmp_path):
        # a label outside {0, 1} is rejected with its line or record in either format
        tsv = tmp_path / "data.tsv"
        tsv.write_text("1\ta\tb\n2\tc\td\n")
        with pytest.raises(CorpusError, match="^%s: line 2: label must be '0' or '1', got '2'$" % re.escape(str(tsv))):
            load_channel(tsv, "tsv")
        jsonl = tmp_path / "pools.jsonl"
        jsonl.write_text(json.dumps({"index": 0, "from": "a", "text": "c",
                                     "candidates": [{"text": "d", "from": "b", "label": 2}]}) + "\n")
        message = "^%s: record 1: candidate label must be 0 or 1, got 2$" % re.escape(str(jsonl))
        with pytest.raises(CorpusError, match=message):
            load_channel(jsonl, "jsonl")

    def test_pool_requires_candidates(self):
        utt = Utterance(index=0, spoken_from="a", spoken_to=None, text="x")
        with pytest.raises(CorpusError):
            CandidatePool(context=(utt,), candidates=())


def test_shipped_toy_corpus_is_what_its_generator_writes(tmp_path):
    repo = Path(__file__).resolve().parent.parent
    subprocess.run([sys.executable, str(repo / "scripts" / "make_toy_corpus.py"), "--out-dir", str(tmp_path)],
                   check=True, capture_output=True)
    shipped = repo / "data" / "toy"
    names = sorted(path.name for path in shipped.iterdir())
    assert names == ["test_pools.jsonl", "train.tsv", "valid.tsv", "valid_pools.jsonl"]
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name

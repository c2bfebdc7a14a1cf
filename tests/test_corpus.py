import json

import pytest

from replyrank.corpus import (
    CandidatePool,
    CorpusError,
    DialogueExample,
    Utterance,
    alternating_speaker,
    example_to_pool,
    extract_spoken_to,
    load_channel,
    parse_tsv_example,
    pool_to_example,
    pool_to_records,
    write_pools,
)


class TestParseTsvExample:
    def test_basic_line(self):
        ex = parse_tsv_example("1\thello\thi there\tgood, you?")
        assert ex.label == 1
        assert [(u.spoken_from, u.text) for u in ex.context] == [
            ("spk_A", "hello"),
            ("spk_B", "hi there"),
        ]
        assert (ex.response.spoken_from, ex.response.text) == ("spk_A", "good, you?")
        assert all(u.spoken_to is None for u in ex.context)

    def test_single_context_utterance(self):
        ex = parse_tsv_example("0\thow are you\tfine")
        assert ex.label == 0
        assert len(ex.context) == 1

    def test_too_few_fields(self):
        with pytest.raises(CorpusError, match="line 7"):
            parse_tsv_example("1\thello", line_number=7)

    def test_bad_label(self):
        with pytest.raises(CorpusError, match="label"):
            parse_tsv_example("2\ta\tb")

    def test_alternation_property(self, rng):
        # even context indices share one speaker, odd the other; the response
        # continues the pattern
        for _ in range(50):
            m = int(rng.integers(1, 12))
            line = "1\t" + "\t".join("u%d" % i for i in range(m + 1))
            ex = parse_tsv_example(line)
            for u in ex.context:
                assert u.spoken_from == ("spk_A" if u.index % 2 == 0 else "spk_B")
            assert ex.response.spoken_from == alternating_speaker(m)
            assert [u.index for u in ex.context] == list(range(m))


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
        examples = load_channel(path, "tsv")
        assert len(examples) == 3
        assert all(isinstance(ex, DialogueExample) for ex in examples)

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
        assert pools[0].has_answer and not pools[1].has_answer
        # candidates sit one step past the closing context utterance
        assert pools[0].candidates[0][0].index == 2
        # the accumulator resets between pools, so indices may restart
        assert pools[1].context[0].index == 0

    @staticmethod
    def _load_one_candidate(tmp_path, **candidate):
        entry = {"text": "thanks", "from": "alice", "label": 1, **candidate}
        path = tmp_path / "pools.jsonl"
        path.write_text(json.dumps({"index": 0, "from": "bob", "text": "hi", "candidates": [entry]}) + "\n")
        return load_channel(path, "jsonl")

    def test_candidate_text_must_be_string(self, tmp_path):
        with pytest.raises(CorpusError, match="record 1: candidate 'text'"):
            self._load_one_candidate(tmp_path, text=["not", "text"])

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
    def test_example_jsonl_round_trip(self, tmp_path):
        for line in ["1\thello\thi there\tgood, you?", "0\thow are you\tfine"]:
            example = parse_tsv_example(line)
            path = tmp_path / "ex.jsonl"
            write_pools(path, [example_to_pool(example)])
            loaded = load_channel(path, "jsonl")
            assert len(loaded) == 1
            assert pool_to_example(loaded[0]) == example

    def test_random_examples_round_trip(self, tmp_path, rng):
        for trial in range(20):
            m = int(rng.integers(1, 8))
            line = "%d\t" % (trial % 2) + "\t".join("token %d here" % i for i in range(m + 1))
            example = parse_tsv_example(line)
            path = tmp_path / "ex.jsonl"
            write_pools(path, [example_to_pool(example)])
            assert pool_to_example(load_channel(path, "jsonl")[0]) == example

    def test_pool_records_preserve_spoken_to(self):
        utt = Utterance(index=0, spoken_from="a", spoken_to=None, text="q")
        cand = Utterance(index=1, spoken_from="b", spoken_to="a", text="r")
        pool = CandidatePool(context=(utt,), candidates=((cand, 1),))
        records = pool_to_records(pool)
        assert records[-1]["candidates"][0]["to"] == "a"


class TestInvariants:
    def test_empty_speaker_rejected(self):
        with pytest.raises(CorpusError):
            Utterance(index=0, spoken_from="", spoken_to=None, text="x")

    def test_bad_label_rejected(self):
        utt = Utterance(index=0, spoken_from="a", spoken_to=None, text="x")
        with pytest.raises(CorpusError):
            DialogueExample(context=(utt,), response=utt, label=2)

    def test_pool_requires_candidates(self):
        utt = Utterance(index=0, spoken_from="a", spoken_to=None, text="x")
        with pytest.raises(CorpusError):
            CandidatePool(context=(utt,), candidates=())

    def test_has_answer_tracks_labels(self):
        utt = Utterance(index=0, spoken_from="a", spoken_to=None, text="x")
        cand = Utterance(index=1, spoken_from="b", spoken_to=None, text="y")
        assert CandidatePool(context=(utt,), candidates=((cand, 1),)).has_answer
        assert not CandidatePool(context=(utt,), candidates=((cand, 0),)).has_answer

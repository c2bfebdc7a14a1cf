from dataclasses import fields

import pytest

from replyrank.encoding import (
    assign_roles_by_appearance,
    build_input,
    format_tracks,
    instance_from_example,
    instance_from_filtered,
    mark_turns,
    trim_to_budget,
)
from replyrank.corpus import parse_tsv_example
from replyrank.disentangle import filter_channel
from replyrank.tokenizer import CLS, EOT, EOU, PAD, SEP, build_vocab, tokenize
from helpers import VOCAB, WORDS, random_encoded, utt


def make_context(speaker_texts, roles=None):
    context = []
    for i, (speaker, text) in enumerate(speaker_texts):
        role = roles[i] if roles else 1
        context.append((utt(i, speaker, text=text), role))
    return context


class TestMarkTurns:
    def setup_method(self):
        self.vocab = build_vocab(["one two three four"], 1, 100)

    def test_same_speaker_run_is_one_turn(self):
        context = make_context([("A", "one"), ("A", "two"), ("B", "three")])
        marked = mark_turns(context, self.vocab)
        assert marked[0][0][-1] == EOU
        assert marked[1][0][-2:] == [EOU, EOT]
        assert marked[2][0][-2:] == [EOU, EOT]

    def test_single_utterance(self):
        marked = mark_turns(make_context([("A", "one")]), self.vocab)
        assert marked[0][0][-2:] == [EOU, EOT]

    def test_alternating_speakers_all_singleton_turns(self):
        context = make_context([("A", "one"), ("B", "two"), ("A", "three")])
        for tokens, _ in mark_turns(context, self.vocab):
            assert tokens[-2:] == [EOU, EOT]

    def test_markers_inherit_roles(self):
        context = make_context([("A", "one"), ("B", "two")], roles=[1, 2])
        marked = mark_turns(context, self.vocab)
        assert [role for _, role in marked] == [1, 2]


class TestTrimToBudget:
    def test_front_of_context_dropped(self):
        context = list(range(507))
        response = list(range(1000, 1010))
        ctx, resp = trim_to_budget(context, response, 512)
        assert len(ctx) == 499 and ctx == context[8:]
        assert resp == response

    def test_within_budget_unchanged(self):
        ctx, resp = trim_to_budget([1, 2], [3, 4], 32)
        assert (ctx, resp) == ([1, 2], [3, 4])

    def test_response_tail_cut_after_context_exhausted(self):
        ctx, resp = trim_to_budget([1, 2], list(range(40)), 20)
        assert ctx == []
        assert resp == list(range(17))

    def test_response_floor(self):
        with pytest.raises(ValueError):
            trim_to_budget([], list(range(40)), 10)

    def test_preserves_context_suffix(self, rng):
        for _ in range(50):
            context = list(range(int(rng.integers(0, 80))))
            response = list(range(500, 500 + int(rng.integers(1, 30))))
            max_len = int(rng.integers(11, 64))
            ctx, resp = trim_to_budget(context, response, max_len)
            assert len(ctx) + len(resp) + 3 <= max_len
            assert context[len(context) - len(ctx):] == ctx
            assert resp == response[: len(resp)]


class TestBuildInput:
    def test_hand_assembled_layout(self):
        vocab = build_vocab(["hi hello"], 1, 100)
        hi, hello = vocab.token_to_id["hi"], vocab.token_to_id["hello"]
        context = [(utt(0, "A", text="hi"), 1)]
        response = utt(1, "B", text="hello")
        enc = build_input(context, response, 2, vocab, max_len=10)
        assert enc.token_ids == (CLS, hi, EOU, EOT, SEP, hello, SEP)
        assert enc.speaker_ids == (0, 1, 1, 1, 0, 2, 0)
        assert enc.segment_ids == (0, 0, 0, 0, 0, 1, 1)
        assert [f.name for f in fields(enc)] == ["token_ids", "segment_ids", "speaker_ids"]

    def test_empty_context_rejected(self):
        vocab = build_vocab(["x"], 1, 100)
        with pytest.raises(ValueError):
            build_input([], utt(0, "A", text="x"), 1, vocab, 16)

    def test_long_context_trimmed_to_recent_suffix(self):
        vocab = build_vocab([" ".join(WORDS)], 1, 100)
        text = " ".join(WORDS[i % len(WORDS)] for i in range(60))
        context = [(utt(i, "A" if i % 2 == 0 else "B", text=text), 1 + i % 2) for i in range(10)]
        response = utt(10, "A", text="w00 w01 w02")
        enc = build_input(context, response, 1, vocab, max_len=512)
        # the budget is filled exactly, with real positions only
        assert len(enc) == 512
        assert PAD not in enc.token_ids
        assert enc.token_ids[0] == CLS
        assert enc.token_ids[-1] == SEP
        # response survives intact between the two separators
        resp_ids = tokenize("w00 w01 w02", vocab)
        sep_positions = [i for i, t in enumerate(enc.token_ids) if t == SEP]
        assert list(enc.token_ids[sep_positions[-2] + 1 : sep_positions[-1]]) == resp_ids
        # the kept context is a contiguous suffix of the full marked stream
        full_pairs = []
        from replyrank.encoding import mark_turns

        for tokens, role in mark_turns(context, vocab):
            full_pairs.extend(tokens)
        kept = list(enc.token_ids[1 : sep_positions[-2]])
        assert kept == full_pairs[len(full_pairs) - len(kept):]

    def test_max_len_floor(self):
        vocab = build_vocab(["x"], 1, 100)
        with pytest.raises(ValueError):
            build_input([(utt(0, "A", text="x"), 1)], utt(1, "B", text="x"), 1, vocab, 7)

    def test_track_invariants_random(self, rng):
        for _ in range(100):
            enc = random_encoded(rng)
            L = len(enc)
            assert len(enc.token_ids) == len(enc.segment_ids) == len(enc.speaker_ids) == L
            assert enc.token_ids[0] == CLS
            assert enc.token_ids[-1] == SEP
            assert PAD not in enc.token_ids
            for i in range(L):
                if enc.token_ids[i] in (CLS, SEP):
                    assert enc.speaker_ids[i] == 0
                else:
                    assert enc.speaker_ids[i] != 0
            eou_count = sum(1 for t in enc.token_ids if t == EOU)
            eot_count = sum(1 for t in enc.token_ids if t == EOT)
            assert eou_count >= eot_count >= 1

    def test_eot_count_equals_turns(self):
        vocab = build_vocab(["a b c"], 1, 100)
        context = make_context([("A", "a"), ("A", "b"), ("B", "c"), ("A", "a")])
        enc = build_input(context, utt(4, "B", text="b"), 2, vocab, 64)
        assert sum(1 for t in enc.token_ids if t == EOT) == 3
        assert sum(1 for t in enc.token_ids if t == EOU) == 4

    def test_deterministic(self, rng):
        context = make_context([("A", "w01 w02"), ("B", "w03")], roles=[1, 2])
        response = utt(2, "A", text="w04 w05")
        a = build_input(context, response, 1, VOCAB, 24)
        b = build_input(context, response, 1, VOCAB, 24)
        assert a == b


class TestRoleAssignment:
    def test_appearance_order(self):
        roles = assign_roles_by_appearance(["bob", "amy", "bob", "amy"])
        assert roles == {"bob": 1, "amy": 2}

    def test_cycles_when_table_exhausted(self):
        roles = assign_roles_by_appearance(["a", "b", "c"])
        assert roles == {"a": 1, "b": 2, "c": 1}

    def test_instance_from_example_alternation(self):
        example = parse_tsv_example("1\thello\thi there\tgood, you?")
        inst = instance_from_example(example)
        assert [role for _, role in inst.context] == [1, 2]
        assert inst.response_role == 1
        assert inst.label == 1

    def test_instance_from_filtered_roles(self):
        channel = [utt(0, "A"), utt(1, "B", spoken_to="A"), utt(2, "C")]
        filtered = filter_channel(channel, "A")
        inst = instance_from_filtered(filtered, utt(3, "A", text="w01"), label=1)
        assert [role for _, role in inst.context] == [1, 2]
        assert inst.response_role == 1


class TestFormatTracks:
    def test_alignment_header(self):
        enc = build_input([(utt(0, "A", text="w01"), 1)], utt(1, "B", text="w02"), 2, VOCAB, 12)
        dump = format_tracks(enc, VOCAB)
        lines = dump.splitlines()
        assert lines[0].split() == ["pos", "token", "id", "seg", "spk"]
        # [CLS] w01 [EOU] [EOT] [SEP] w02 [SEP]: one line per real position
        assert len(lines) == 8
        assert "[CLS]" in lines[1]
        assert [line.split()[0] for line in lines[1:]] == [str(i) for i in range(7)]
        assert all(len(line.split()) == 5 for line in lines[1:])

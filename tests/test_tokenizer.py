import pytest

from replyrank.tokenizer import (
    CLS,
    EOT,
    EOU,
    MASK,
    NUM_SPECIALS,
    PAD,
    SEP,
    SPECIAL_TOKENS,
    UNK,
    Vocabulary,
    build_vocab,
    tokenize,
)
from helpers import detokenize


class TestSpecials:
    def test_fixed_ids(self):
        assert (PAD, UNK, CLS, SEP, MASK, EOU, EOT) == (0, 1, 2, 3, 4, 5, 6)
        assert SPECIAL_TOKENS == ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[EOU]", "[EOT]")

    def test_specials_head_every_vocab(self):
        vocab = build_vocab(["some words"], 1, 100)
        assert vocab.id_to_token[:NUM_SPECIALS] == SPECIAL_TOKENS


class TestBuildVocab:
    def test_frequency_order(self):
        vocab = build_vocab(["a b a"], min_count=1, max_size=100)
        assert vocab.token_to_id["a"] == NUM_SPECIALS
        assert vocab.token_to_id["b"] == NUM_SPECIALS + 1

    def test_min_count_filters_everything(self):
        with pytest.warns(UserWarning):
            vocab = build_vocab(["a"], min_count=2, max_size=100)
        assert len(vocab) == NUM_SPECIALS

    def test_max_size_keeps_most_frequent(self):
        # counts: t0,t1 -> 3; t2,t3,t4 -> 2; t5..t9 -> 1
        corpus = ["t0 t0 t0 t1 t1 t1", "t2 t2 t3 t3 t4 t4", "t5 t6 t7 t8 t9"]
        vocab = build_vocab(corpus, min_count=1, max_size=NUM_SPECIALS + 5)
        kept = set(vocab.id_to_token[NUM_SPECIALS:])
        assert kept == {"t0", "t1", "t2", "t3", "t4"}

    def test_tie_break_by_first_occurrence(self):
        vocab = build_vocab(["zebra apple zebra apple"], 1, 100)
        assert vocab.token_to_id["zebra"] < vocab.token_to_id["apple"]

    def test_deterministic(self):
        corpus = ["one two three two", "three three four"]
        assert build_vocab(corpus, 1, 50) == build_vocab(corpus, 1, 50)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_vocab([], min_count=0, max_size=100)
        with pytest.raises(ValueError):
            build_vocab([], min_count=1, max_size=7)

    def test_special_literals_never_counted(self):
        vocab = build_vocab(["[CLS] [CLS] [CLS] word"], 1, 100)
        assert set(vocab.id_to_token[NUM_SPECIALS:]) == {"word"}


class TestTokenize:
    def setup_method(self):
        self.vocab = build_vocab(["hello , world hi"], 1, 100)

    def test_punctuation_split(self):
        ids = tokenize("Hello, world", self.vocab)
        assert ids == [
            self.vocab.token_to_id["hello"],
            self.vocab.token_to_id[","],
            self.vocab.token_to_id["world"],
        ]

    def test_unknown_token(self):
        assert tokenize("zzz", self.vocab) == [UNK]

    def test_special_literal_maps_to_unk(self):
        assert tokenize("[CLS]", self.vocab) == [UNK]
        assert tokenize("[sep]", self.vocab) == [UNK]

    def test_never_emits_structural_ids(self, rng):
        corpus_words = ["hello", ",", "world", "[MASK]", "[PAD]", "[EOU]", "x!y"]
        structural = {PAD, CLS, SEP, MASK, EOU, EOT}
        for _ in range(200):
            text = " ".join(corpus_words[i] for i in rng.integers(0, len(corpus_words), size=5))
            assert not structural.intersection(tokenize(text, self.vocab))

    def test_empty_text(self):
        assert tokenize("", self.vocab) == []


class TestDetokenize:
    def setup_method(self):
        self.vocab = build_vocab(["hi there"], 1, 100)

    def test_simple(self):
        assert detokenize([self.vocab.token_to_id["hi"]], self.vocab) == "hi"

    def test_specials_render(self):
        assert detokenize([2, 3], self.vocab) == "[CLS] [SEP]"

    def test_out_of_range_names_id(self):
        with pytest.raises(ValueError, match="1000000000"):
            detokenize([10**9], self.vocab)

    def test_round_trip_normalized(self, rng):
        words = ["alpha", "beta", "gamma", ",", "!"]
        vocab = build_vocab([" ".join(words)], 1, 100)
        for _ in range(50):
            tokens = [words[i] for i in rng.integers(0, len(words), size=6)]
            text = " ".join(tokens)
            assert detokenize(tokenize(text, vocab), vocab) == text


class TestVocabularyFile:
    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocab(["round trip tokens here"], 1, 100)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        assert Vocabulary.load(path) == vocab

    def test_line_number_is_id(self, tmp_path):
        vocab = build_vocab(["alpha beta"], 1, 100)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        lines = path.read_text().splitlines()
        assert lines[:NUM_SPECIALS] == list(SPECIAL_TOKENS)
        assert lines[vocab.token_to_id["alpha"]] == "alpha"

    def test_load_rejects_missing_specials(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("foo\nbar\n")
        with pytest.raises(ValueError):
            Vocabulary.load(path)

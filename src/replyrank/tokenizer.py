"""Whitespace/punctuation tokenizer with a frequency-built vocabulary.

Intentionally simple and fully deterministic: lowercase, split words from
punctuation, no subword merging.  Seven structural specials occupy the first
ids so [PAD]=0 lines up with zero-initialized padding.  Literal occurrences
of special-token strings inside user text are mapped to [UNK] so structural
ids can never be forged from content.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

PAD, UNK, CLS, SEP, MASK, EOU, EOT = range(7)
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[EOU]", "[EOT]")
NUM_SPECIALS = len(SPECIAL_TOKENS)

_SPECIAL_RE = re.compile("|".join(re.escape(tok) for tok in SPECIAL_TOKENS), re.IGNORECASE)
_WORD_RE = re.compile(r"\w+|[^\w\s]")


class VocabularyError(ValueError):
    """A vocabulary file that is not a valid replyrank vocabulary."""


@dataclass(frozen=True)
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.id_to_token) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        tokens = Path(path).read_text(encoding="utf-8").splitlines()
        if tuple(tokens[:NUM_SPECIALS]) != SPECIAL_TOKENS:
            raise VocabularyError(
                "vocabulary file %s does not start with the %d special tokens" % (path, NUM_SPECIALS)
            )
        vocab = _from_tokens(tokens)
        if len(vocab.token_to_id) != len(tokens):
            raise VocabularyError("vocabulary file %s lists a token more than once" % path)
        return vocab


def _from_tokens(tokens: list[str]) -> Vocabulary:
    return Vocabulary(token_to_id={tok: i for i, tok in enumerate(tokens)}, id_to_token=tuple(tokens))


def _split(text: str) -> list[str | None]:
    """Split normalized text into tokens; None marks a special-token literal."""
    pieces: list[str | None] = []
    pos = 0
    for match in _SPECIAL_RE.finditer(text):
        pieces.extend(_WORD_RE.findall(text[pos : match.start()].lower()))
        pieces.append(None)
        pos = match.end()
    pieces.extend(_WORD_RE.findall(text[pos:].lower()))
    return pieces


def build_vocab(texts: Iterable[str], min_count: int = 1, max_size: int = 30000) -> Vocabulary:
    """Collect the most frequent tokens; ties broken by first occurrence.

    The seven specials always occupy ids 0-6, so at most ``max_size - 7``
    content tokens are kept.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1, got %d" % min_count)
    if max_size <= NUM_SPECIALS:
        raise ValueError("max_size must exceed %d, got %d" % (NUM_SPECIALS, max_size))
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    order = 0
    for text in texts:
        for token in _split(text):
            if token is None:
                continue
            if token not in counts:
                counts[token] = 0
                first_seen[token] = order
                order += 1
            counts[token] += 1
    kept = sorted(
        (tok for tok, count in counts.items() if count >= min_count),
        key=lambda tok: (-counts[tok], first_seen[tok]),
    )[: max_size - NUM_SPECIALS]
    if not kept:
        warnings.warn("vocabulary contains no content tokens (empty or too-sparse corpus)")
    return _from_tokens(list(SPECIAL_TOKENS) + kept)


def tokenize(text: str, vocab: Vocabulary) -> list[int]:
    """Map text to ids; unknown tokens and special-token literals become [UNK]."""
    return [
        UNK if token is None else vocab.token_to_id.get(token, UNK)
        for token in _split(text)
    ]

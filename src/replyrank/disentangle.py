"""Heuristic speaker-based filtering of entangled multi-party channels.

Given the speaker who produced a response, keep only the channel utterances
that speaker produced or was addressed by, in original chronological order.
Kept utterances are tagged with how they matched so the two speaker-role
embeddings can be assigned downstream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .corpus import Utterance

DEFAULT_CONTEXT_CAP = 25


class MatchRole(enum.Enum):
    """Why an utterance was kept: produced by the target, or addressed to them."""

    FROM_MATCH = 1
    TO_MATCH = 2


@dataclass(frozen=True)
class FilteredContext:
    utterances: tuple[tuple[Utterance, MatchRole], ...]
    target_speaker: str

    def __len__(self) -> int:
        return len(self.utterances)


def filter_channel(channel: Sequence[Utterance], response_speaker: str) -> FilteredContext:
    """Select utterances spoken from or to ``response_speaker``, in channel order.

    When an utterance matches both predicates (a speaker addressing
    themselves), speaker identity wins: the role is FROM_MATCH.
    """
    if not response_speaker:
        raise ValueError("response_speaker must be non-empty")
    kept = []
    for utt in channel:
        if utt.spoken_from == response_speaker:
            kept.append((utt, MatchRole.FROM_MATCH))
        elif utt.spoken_to is not None and utt.spoken_to == response_speaker:
            kept.append((utt, MatchRole.TO_MATCH))
    return FilteredContext(utterances=tuple(kept), target_speaker=response_speaker)


def cap_context(filtered: FilteredContext, max_utterances: int = DEFAULT_CONTEXT_CAP) -> FilteredContext:
    """Keep only the most recent ``max_utterances`` entries, order preserved."""
    if max_utterances < 1:
        raise ValueError("max_utterances must be >= 1, got %d" % max_utterances)
    if len(filtered.utterances) <= max_utterances:
        return filtered
    return FilteredContext(
        utterances=filtered.utterances[-max_utterances:],
        target_speaker=filtered.target_speaker,
    )

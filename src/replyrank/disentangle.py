"""Heuristic speaker-based filtering of entangled multi-party channels.

Given the speaker who produced a response, keep only the channel utterances
that speaker produced or was addressed by, in original chronological order.
Speaker-role ids are assigned downstream, by ``encoding.speaker_role``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .corpus import Utterance

DEFAULT_CONTEXT_CAP = 25


@dataclass(frozen=True)
class FilteredContext:
    utterances: tuple[Utterance, ...]


def filter_channel(channel: Sequence[Utterance], response_speaker: str) -> FilteredContext:
    """Select utterances spoken from or to ``response_speaker``, in channel order."""
    if not response_speaker:
        raise ValueError("response_speaker must be non-empty")
    return FilteredContext(utterances=tuple(
        utt for utt in channel if utt.spoken_from == response_speaker or utt.spoken_to == response_speaker
    ))

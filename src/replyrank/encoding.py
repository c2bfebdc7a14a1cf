"""Assembly of model inputs: token, segment and speaker tracks.

Layout is ``[CLS] <context with [EOU]/[EOT] markers> [SEP] <response> [SEP]``
within a length budget.  Each context utterance ends with [EOU]; the last
utterance of a turn (a maximal run of consecutive same-speaker utterances)
additionally gets [EOT].  Speaker-role ids annotate every content token,
with 0 reserved for [CLS], [SEP] and padding.  An encoding is three tracks
of real positions only: the position of a token is its index, and padding
and the attention mask exist only in the batch ``model.stack_inputs`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import Utterance
from .disentangle import FilteredContext, cap_context
from .tokenizer import CLS, EOT, EOU, SEP, Vocabulary, tokenize

RESPONSE_FLOOR = 8  # response tail-truncation never goes below this many tokens

# Speaker-role ids: 0 is reserved for [CLS], [SEP] and padding; 1 and 2 are the two roles.
NUM_SPEAKER_ROLES = 3


@dataclass(frozen=True)
class EncodedInput:
    """Three equal-length id tracks for one context-response pair.

    Every position is real, so the position of a token is its index; there
    is no position or mask track.
    """

    token_ids: tuple[int, ...]
    segment_ids: tuple[int, ...]
    speaker_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.token_ids)

    @property
    def attention_mask(self) -> tuple[int, ...]:
        """All ones: kept only for the benchmark's token counter."""
        return (1,) * len(self.token_ids)


@dataclass(frozen=True)
class MatchingInstance:
    """A role-annotated (context, response, label) triple ready for encoding."""

    context: tuple[tuple[Utterance, int], ...]
    response: Utterance
    response_role: int
    label: int


def assign_roles_by_appearance(speakers: Iterable[str]) -> dict[str, int]:
    """Map speakers to role ids 1 and 2 by first appearance, alternating.

    Used for corpora without explicit addressing: the first speaker gets
    role 1, the second role 2, the third role 1 again, and so on.
    """
    roles: dict[str, int] = {}
    for speaker in speakers:
        if speaker not in roles:
            roles[speaker] = len(roles) % (NUM_SPEAKER_ROLES - 1) + 1
    return roles


def instance_from_example(example) -> MatchingInstance:
    """Role-annotate a DialogueExample by speaker appearance order."""
    speakers = [utt.spoken_from for utt in example.context] + [example.response.spoken_from]
    roles = assign_roles_by_appearance(speakers)
    context = tuple((utt, roles[utt.spoken_from]) for utt in example.context)
    return MatchingInstance(
        context=context,
        response=example.response,
        response_role=roles[example.response.spoken_from],
        label=example.label,
    )


def instance_from_filtered(
    filtered: FilteredContext,
    response: Utterance,
    label: int,
    max_utterances: int | None = None,
) -> MatchingInstance:
    """Build an instance from a disentangled context.

    Match roles carry over directly (spoken-from = 1, spoken-to = 2); the
    response always takes role 1 since its speaker is the filtering target.
    """
    if max_utterances is not None:
        filtered = cap_context(filtered, max_utterances)
    context = tuple((utt, role.value) for utt, role in filtered.utterances)
    return MatchingInstance(context=context, response=response, response_role=1, label=label)


def mark_turns(
    context: Sequence[tuple[Utterance, int]], vocab: Vocabulary
) -> list[tuple[list[int], int]]:
    """Tokenize context utterances, appending [EOU] per utterance and [EOT] per turn.

    The markers inherit the utterance's speaker-role id.
    """
    marked = []
    for i, (utt, role) in enumerate(context):
        tokens = tokenize(utt.text, vocab)
        tokens.append(EOU)
        last_of_turn = i + 1 == len(context) or context[i + 1][0].spoken_from != utt.spoken_from
        if last_of_turn:
            tokens.append(EOT)
        marked.append((tokens, role))
    return marked


def trim_to_budget(
    context_tokens: Sequence, response_tokens: Sequence, max_len: int
) -> tuple[list, list]:
    """Fit ``len(context) + len(response) + 3`` into ``max_len``.

    Drops from the front of the context first (recent utterances carry the
    matching signal); only once the context is exhausted is the response tail
    cut, never below RESPONSE_FLOOR tokens.
    """
    budget = max_len - 3  # [CLS] and two [SEP]s
    context = list(context_tokens)
    response = list(response_tokens)
    if len(context) + len(response) <= budget:
        return context, response
    drop = min(len(context), len(context) + len(response) - budget)
    context = context[drop:]
    if len(context) + len(response) > budget:
        if budget < RESPONSE_FLOOR:
            raise ValueError(
                "infeasible length budget: max_len %d cannot hold a %d-token response floor"
                % (max_len, RESPONSE_FLOOR)
            )
        response = response[:budget]
    return context, response


def build_input(
    context: Sequence[tuple[Utterance, int]],
    response: Utterance,
    response_role: int,
    vocab: Vocabulary,
    max_len: int,
) -> EncodedInput:
    """Assemble the three-track input for one context-response pair.

    The result holds at most ``max_len`` positions, all of them real.
    """
    if not context:
        raise ValueError("context must contain at least one utterance")
    if max_len < 8:
        raise ValueError("max_len must be >= 8, got %d" % max_len)
    context_pairs = [
        (token, role) for tokens, role in mark_turns(context, vocab) for token in tokens
    ]
    response_tokens = tokenize(response.text, vocab)
    if not response_tokens:
        raise ValueError("response %r produced no tokens" % response.text)
    context_pairs, response_tokens = trim_to_budget(context_pairs, response_tokens, max_len)

    tokens = [CLS] + [tok for tok, _ in context_pairs] + [SEP] + response_tokens + [SEP]
    speakers = [0] + [role for _, role in context_pairs] + [0] + [response_role] * len(response_tokens) + [0]
    first_sep = 1 + len(context_pairs)
    segments = [0] * (first_sep + 1) + [1] * (len(response_tokens) + 1)
    return EncodedInput(
        token_ids=tuple(tokens),
        segment_ids=tuple(segments),
        speaker_ids=tuple(speakers),
    )


def encode_instance(instance: MatchingInstance, vocab: Vocabulary, max_len: int) -> EncodedInput:
    return build_input(instance.context, instance.response, instance.response_role, vocab, max_len)


def format_tracks(enc: EncodedInput, vocab: Vocabulary) -> str:
    """Render the id tracks as aligned columns for inspection, one row per position."""
    rows = [("pos", "token", "id", "seg", "spk")]
    for i, token_id in enumerate(enc.token_ids):
        rows.append(
            (
                str(i),
                vocab.id_to_token[token_id],
                str(token_id),
                str(enc.segment_ids[i]),
                str(enc.speaker_ids[i]),
            )
        )
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in rows
    )

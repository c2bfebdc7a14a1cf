import pytest

from replyrank.disentangle import (
    DEFAULT_CONTEXT_CAP,
    FilteredContext,
    MatchRole,
    cap_context,
    filter_channel,
)
from helpers import random_channel, utt


def brute_force_selection(channel, target):
    """Independent predicate scan: (index, role-int) pairs in channel order."""
    selected = []
    for u in channel:
        from_hit = u.spoken_from == target
        to_hit = u.spoken_to == target if u.spoken_to is not None else False
        if from_hit:
            selected.append((u.index, 1))
        elif to_hit:
            selected.append((u.index, 2))
    return selected


class TestFilterChannel:
    def test_spec_example(self):
        channel = [
            utt(0, "A"),
            utt(1, "B", spoken_to="A"),
            utt(2, "C", spoken_to="D"),
        ]
        filtered = filter_channel(channel, "A")
        assert [u.index for u, _ in filtered.utterances] == [0, 1]
        assert [r for _, r in filtered.utterances] == [MatchRole.FROM_MATCH, MatchRole.TO_MATCH]

    def test_no_matches(self):
        channel = [utt(0, "B"), utt(1, "C", spoken_to="B")]
        filtered = filter_channel(channel, "A")
        assert filtered.utterances == ()

    def test_self_address_prefers_from_match(self):
        channel = [utt(0, "A", spoken_to="A")]
        filtered = filter_channel(channel, "A")
        assert [r for _, r in filtered.utterances] == [MatchRole.FROM_MATCH]

    def test_none_spoken_to_matches_nothing(self):
        channel = [utt(0, "B", spoken_to=None)]
        assert filter_channel(channel, "A").utterances == ()

    def test_empty_speaker_rejected(self):
        with pytest.raises(ValueError):
            filter_channel([], "")

    def test_oracle_equivalence(self, rng):
        for _ in range(300):
            channel, speakers = random_channel(rng)
            target = speakers[int(rng.integers(len(speakers)))]
            filtered = filter_channel(channel, target)
            got = [(u.index, role.value) for u, role in filtered.utterances]
            assert got == brute_force_selection(channel, target)

    def test_idempotent(self, rng):
        for _ in range(50):
            channel, speakers = random_channel(rng)
            target = speakers[0]
            once = filter_channel(channel, target)
            twice = filter_channel([u for u, _ in once.utterances], target)
            assert twice.utterances == once.utterances

    def test_removing_unselected_changes_nothing(self, rng):
        for _ in range(50):
            channel, speakers = random_channel(rng, max_len=30)
            target = speakers[0]
            baseline = filter_channel(channel, target)
            kept = {u.index for u, _ in baseline.utterances}
            rejected = [u for u in channel if u.index not in kept]
            if not rejected:
                continue
            victim = rejected[int(rng.integers(len(rejected)))]
            thinner = [u for u in channel if u.index != victim.index]
            assert filter_channel(thinner, target).utterances == baseline.utterances


class TestCapContext:
    def test_keeps_most_recent(self):
        filtered = FilteredContext(
            utterances=tuple((utt(i, "A"), MatchRole.FROM_MATCH) for i in range(30)),
            target_speaker="A",
        )
        capped = cap_context(filtered, 25)
        assert len(capped) == 25
        assert [u.index for u, _ in capped.utterances] == list(range(5, 30))

    def test_under_cap_unchanged(self):
        filtered = FilteredContext(
            utterances=tuple((utt(i, "A"), MatchRole.FROM_MATCH) for i in range(3)),
            target_speaker="A",
        )
        assert cap_context(filtered, 25) is filtered

    def test_cap_one(self):
        filtered = FilteredContext(
            utterances=tuple((utt(i, "A"), MatchRole.FROM_MATCH) for i in range(4)),
            target_speaker="A",
        )
        capped = cap_context(filtered, 1)
        assert [u.index for u, _ in capped.utterances] == [3]

    def test_cap_below_one_rejected(self):
        filtered = FilteredContext(utterances=(), target_speaker="A")
        with pytest.raises(ValueError):
            cap_context(filtered, 0)

    def test_default_cap(self):
        assert DEFAULT_CONTEXT_CAP == 25

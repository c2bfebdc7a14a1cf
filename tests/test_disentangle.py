import pytest

from replyrank.disentangle import DEFAULT_CONTEXT_CAP, filter_channel
from replyrank.encoding import speaker_role
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
        assert [(u.index, speaker_role(u.spoken_from, "A")) for u in filtered.utterances] == [(0, 1), (1, 2)]

    def test_no_matches(self):
        channel = [utt(0, "B"), utt(1, "C", spoken_to="B")]
        filtered = filter_channel(channel, "A")
        assert filtered.utterances == ()

    def test_self_address_is_the_responder_role(self):
        channel = [utt(0, "A", spoken_to="A")]
        filtered = filter_channel(channel, "A")
        assert [speaker_role(u.spoken_from, "A") for u in filtered.utterances] == [1]

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
            got = [(u.index, speaker_role(u.spoken_from, target)) for u in filtered.utterances]
            assert got == brute_force_selection(channel, target)

    def test_idempotent(self, rng):
        for _ in range(50):
            channel, speakers = random_channel(rng)
            target = speakers[0]
            once = filter_channel(channel, target)
            twice = filter_channel(once.utterances, target)
            assert twice.utterances == once.utterances

    def test_removing_unselected_changes_nothing(self, rng):
        for _ in range(50):
            channel, speakers = random_channel(rng, max_len=30)
            target = speakers[0]
            baseline = filter_channel(channel, target)
            kept = {u.index for u in baseline.utterances}
            rejected = [u for u in channel if u.index not in kept]
            if not rejected:
                continue
            victim = rejected[int(rng.integers(len(rejected)))]
            thinner = [u for u in channel if u.index != victim.index]
            assert filter_channel(thinner, target).utterances == baseline.utterances


def test_default_context_cap():
    assert DEFAULT_CONTEXT_CAP == 25

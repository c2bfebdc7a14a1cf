"""Seeded input generator for the benchmark workloads.

Every file the program reads is written here from ``--seed`` alone: the same
seed gives byte-identical files.  Besides the files, ``generate`` returns the
input properties that tell the workloads apart (vocabulary, sequence length,
pool shape, channel shape, addressed share), computed from what was
generated rather than measured inside the program.

Three workloads:

* ``train-short``: two-speaker dialogues from the toy-corpus distribution
  (six topics of five words plus ten fillers, two to four four-word
  utterances).  About 25 real tokens per 128-slot sequence, about 50
  vocabulary entries.
* ``train-long``: two-speaker dialogues long enough that the encoded
  sequence fills ``max_seq_len``, over a lexicon of 2,000 words split into
  topics, with Zipf-distributed background words.
* ``rank-multiparty``: multi-party channels, several speakers in a few
  topic threads, about half the utterances addressed with ``to``, longer
  than the default 25-utterance context cap, each closed by a pool of ten
  candidates from several speakers.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("train-short", "train-long", "rank-multiparty")
POOL_SIZE = 10
CONTEXT_CAP = 25  # the program's default --cap for pool contexts

# train-short: the toy-corpus distribution
TOY_TOPICS = (
    ("kernel", "grub", "bios", "restart", "firmware"),
    ("wifi", "router", "dns", "ethernet", "ping"),
    ("partition", "mount", "filesystem", "backup", "sector"),
    ("volume", "driver", "speaker", "mixer", "mute"),
    ("bash", "alias", "script", "prompt", "cron"),
    ("window", "theme", "icon", "desktop", "cursor"),
)
TOY_FILLERS = ("the", "my", "is", "not", "try", "again", "please", "help", "it", "now")

_SYLLABLES = ("ka", "lo", "mi", "ne", "pu", "ri", "so", "ta", "vu", "ze", "bo", "di", "fe", "gu", "ha", "jo")


@dataclass(frozen=True)
class Sizes:
    """How much of each input a workload generates."""

    train: int  # TSV lines, or training pools for rank-multiparty
    test_pools: int


SIZES = {
    "train-short": Sizes(train=200, test_pools=60),
    "train-long": Sizes(train=100, test_pools=40),
    "rank-multiparty": Sizes(train=25, test_pools=80),
}


def _lexicon(size: int) -> list[str]:
    """Fixed pseudo-words; the same list for every seed."""
    words = []
    n = len(_SYLLABLES)
    for i in range(size):
        a, b, c = i % n, (i // n) % n, (i // (n * n)) % n
        words.append(_SYLLABLES[a] + _SYLLABLES[b] + _SYLLABLES[c])
    return words


class _Topics:
    """Topic word banks plus background words; sentences mix the two."""

    def __init__(self, banks, background, background_weights, topic_share, words):
        self.banks = banks
        self.background = background
        self.cum_weights = None
        if background_weights is not None:
            total = 0.0
            self.cum_weights = []
            for w in background_weights:
                total += w
                self.cum_weights.append(total)
        self.topic_share = topic_share
        self.words = words  # (low, high) inclusive words per utterance

    def sentence(self, topic: int, rng: random.Random) -> str:
        bank = self.banks[topic]
        picked = []
        for _ in range(rng.randint(*self.words)):
            if rng.random() < self.topic_share:
                picked.append(bank[rng.randrange(len(bank))])
            elif self.cum_weights is None:
                picked.append(self.background[rng.randrange(len(self.background))])
            else:
                picked.append(rng.choices(self.background, cum_weights=self.cum_weights)[0])
        return " ".join(picked)

    def other(self, topic: int, rng: random.Random) -> int:
        return (topic + 1 + rng.randrange(len(self.banks) - 1)) % len(self.banks)


def _short_topics() -> _Topics:
    return _Topics(TOY_TOPICS, TOY_FILLERS, None, 0.7, (4, 4))


def _long_topics() -> _Topics:
    lexicon = _lexicon(2000)
    banks = [tuple(lexicon[i::50]) for i in range(50)]  # 50 topics of 40 words
    zipf = [1.0 / rank for rank in range(1, len(lexicon) + 1)]
    return _Topics(banks, lexicon, zipf, 0.5, (10, 13))


def _multiparty_topics() -> _Topics:
    lexicon = _lexicon(400)
    banks = [tuple(lexicon[i::20]) for i in range(20)]  # 20 topics of 20 words
    zipf = [1.0 / rank for rank in range(1, len(lexicon) + 1)]
    return _Topics(banks, lexicon, zipf, 0.6, (4, 7))


def _encoded_length(context_words: list[int], turn_ends: list[bool], response_words: int, max_len: int) -> int:
    """Real tokens the program's layout gives one (context, response) pair.

    ``[CLS] ctx [SEP] response [SEP]``, an [EOU] after every context
    utterance and an [EOT] after the last utterance of each turn, cut to
    ``max_len``.
    """
    context = sum(n + 1 + int(end) for n, end in zip(context_words, turn_ends))
    return min(max_len, context + response_words + 3)


def _two_speaker_line(topics: _Topics, rng: random.Random, n_context: tuple[int, int], label: int):
    topic = rng.randrange(len(topics.banks))
    utterances = [topics.sentence(topic, rng) for _ in range(rng.randint(*n_context))]
    response = topics.sentence(topic if label else topics.other(topic, rng), rng)
    return utterances, response


def _two_speaker_pool(topics: _Topics, rng: random.Random, n_context: tuple[int, int]):
    topic = rng.randrange(len(topics.banks))
    utterances = [topics.sentence(topic, rng) for _ in range(rng.randint(*n_context))]
    responder = "spk_A" if len(utterances) % 2 == 0 else "spk_B"
    answer = rng.randrange(POOL_SIZE)
    candidates = []
    for slot in range(POOL_SIZE):
        label = int(slot == answer)
        text = topics.sentence(topic if label else topics.other(topic, rng), rng)
        candidates.append({"text": text, "from": responder, "label": label})
    # in the channel format each turn of a two-party dialogue is addressed to the other party
    records = [
        {"index": i, "from": "spk_A" if i % 2 == 0 else "spk_B", "to": "spk_B" if i % 2 == 0 else "spk_A",
         "text": text}
        for i, text in enumerate(utterances)
    ]
    records[-1]["candidates"] = candidates
    return records


def _word_count(text: str) -> int:
    return len(text.split())


def _generate_two_speaker(workload: str, rng: random.Random, out: Path, max_len: int) -> dict:
    topics = _short_topics() if workload == "train-short" else _long_topics()
    n_context = (2, 4) if workload == "train-short" else (10, 12)
    sizes = SIZES[workload]
    lengths = []
    context_sizes = []
    with open(out / "train.tsv", "w", encoding="utf-8") as fh:
        for i in range(sizes.train):
            utterances, response = _two_speaker_line(topics, rng, n_context, label=i % 2)
            fh.write("%d\t%s\t%s\n" % (i % 2, "\t".join(utterances), response))
            words = [_word_count(u) for u in utterances]
            lengths.append(_encoded_length(words, [True] * len(words), _word_count(response), max_len))
            context_sizes.append(len(utterances))
    with open(out / "test_pools.jsonl", "w", encoding="utf-8") as fh:
        for _ in range(sizes.test_pools):
            records = _two_speaker_pool(topics, rng, n_context)
            words = [_word_count(r["text"]) for r in records]
            for cand in records[-1]["candidates"]:
                lengths.append(_encoded_length(words, [True] * len(words), _word_count(cand["text"]), max_len))
            context_sizes.append(len(records))
            for record in records:
                fh.write(json.dumps(record) + "\n")
    return {
        "train_examples": sizes.train,
        "adapt_instances": sum(1 for i in range(sizes.train) if i % 2 == 1),
        "finetune_instances": sizes.train,
        "pools": sizes.test_pools,
        "candidates_per_pool": POOL_SIZE,
        "mean_real_tokens": statistics.fmean(lengths),
        "max_real_tokens": max(lengths),
        "speakers_per_channel": 2.0,
        "utterances_per_channel": statistics.fmean(context_sizes),
        "addressed_share": 1.0,  # pool contexts; the TSV format carries no addressee
    }


def _multiparty_channel(topics: _Topics, rng: random.Random):
    """One channel of interleaved topic threads closed by a candidate pool.

    Returns the JSONL records (the last one carries the candidates) and the
    channel's speakers.
    """
    n_threads = rng.randint(2, 3)
    thread_topics = rng.sample(range(len(topics.banks)), n_threads)
    speakers = []
    thread_of = {}
    for t in range(n_threads):
        for _ in range(rng.randint(2, 3)):
            name = "user%d" % len(speakers)
            speakers.append(name)
            thread_of[name] = t
    members = {t: [s for s in speakers if thread_of[s] == t] for t in range(n_threads)}
    records = []
    for i in range(rng.randint(30, 45)):
        speaker = rng.choice(speakers)
        peers = [s for s in members[thread_of[speaker]] if s != speaker]
        to = rng.choice(peers) if rng.random() < 0.5 else None
        records.append({
            "index": i,
            "from": speaker,
            "to": to,
            "text": topics.sentence(thread_topics[thread_of[speaker]], rng),
        })
    responder = records[-1]["to"] or rng.choice(
        [s for s in members[thread_of[records[-1]["from"]]] if s != records[-1]["from"]]
    )
    topic = thread_topics[thread_of[responder]]
    answer = rng.randrange(POOL_SIZE)
    candidates = []
    for slot in range(POOL_SIZE):
        if slot == answer:
            candidates.append({"text": topics.sentence(topic, rng), "from": responder, "label": 1})
        else:
            speaker = rng.choice(speakers)
            # a distractor is off-topic for its own speaker's thread too
            own = thread_topics[thread_of[speaker]]
            wrong = topics.other(topic, rng)
            while wrong == own:
                wrong = topics.other(topic, rng)
            candidates.append({"text": topics.sentence(wrong, rng), "from": speaker, "label": 0})
    records[-1]["candidates"] = candidates
    return records, speakers


def _disentangled_lengths(records: list[dict], max_len: int) -> list[int]:
    """Encoded length per candidate after the program's from/to filtering and cap."""
    lengths = []
    for cand in records[-1]["candidates"]:
        target = cand["from"]
        kept = [r for r in records if r["from"] == target or r["to"] == target][-CONTEXT_CAP:]
        if not kept:  # the program falls back to the raw channel
            kept = records[-CONTEXT_CAP:]
        words = [_word_count(r["text"]) for r in kept]
        ends = [i + 1 == len(kept) or kept[i + 1]["from"] != kept[i]["from"] for i in range(len(kept))]
        lengths.append(_encoded_length(words, ends, _word_count(cand["text"]), max_len))
    return lengths


def _generate_multiparty(rng: random.Random, out: Path, max_len: int) -> dict:
    topics = _multiparty_topics()
    sizes = SIZES["rank-multiparty"]
    lengths = []
    speakers_per = []
    utterances_per = []
    addressed = 0
    for name, count in (("train_pools.jsonl", sizes.train), ("test_pools.jsonl", sizes.test_pools)):
        with open(out / name, "w", encoding="utf-8") as fh:
            for _ in range(count):
                records, speakers = _multiparty_channel(topics, rng)
                if name == "test_pools.jsonl":
                    lengths.extend(_disentangled_lengths(records, max_len))
                    speakers_per.append(len(speakers))
                    utterances_per.append(len(records))
                    addressed += sum(1 for r in records if r["to"] is not None)
                for record in records:
                    fh.write(json.dumps(record) + "\n")
    return {
        "train_pools": sizes.train,
        "adapt_instances": sizes.train,
        "finetune_instances": sizes.train * POOL_SIZE,
        "pools": sizes.test_pools,
        "candidates_per_pool": POOL_SIZE,
        "mean_real_tokens": statistics.fmean(lengths),
        "max_real_tokens": max(lengths),
        "speakers_per_channel": statistics.fmean(speakers_per),
        "utterances_per_channel": statistics.fmean(utterances_per),
        "addressed_share": addressed / sum(utterances_per),
    }


def generate(workload: str, seed: int, out: Path, max_len: int) -> dict:
    """Write the workload's input files under ``out``; return their properties."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (choose from %s)" % (workload, ", ".join(WORKLOADS)))
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "rank-multiparty":
        return _generate_multiparty(rng, out, max_len)
    return _generate_two_speaker(workload, rng, out, max_len)

"""Dialogue corpus ingestion: TSV example files and JSONL channel/pool files.

Two on-disk formats are supported:

* TSV: ``label<TAB>utt_1<TAB>...<TAB>utt_m<TAB>response`` with a binary
  label, loaded as a one-candidate pool.  Two-speaker corpora carry no
  speaker names, so synthetic ids ``spk_A``/``spk_B`` are assigned by strict
  alternation.
* JSONL: one object per line with fields ``index`` (int), ``from`` (str),
  ``to`` (str or null) and ``text`` (str).  A record may additionally carry
  ``candidates`` (list of ``{text, from, label}``, optionally ``to``), which
  closes a candidate pool whose context is every utterance accumulated since
  the previous pool record, the carrying record included.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

SPEAKER_A = "spk_A"
SPEAKER_B = "spk_B"

# A JSON "\ud800" escape decodes to a lone UTF-16 surrogate, which UTF-8 cannot
# encode; an escaped pair decodes to one character.  UTF-8 text holds no
# surrogates, so only a line with such an escape can yield one.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


class CorpusError(Exception):
    """Malformed corpus data (bad TSV line, JSONL schema violation)."""


@dataclass(frozen=True)
class Utterance:
    """One message: channel position, speaker, optional addressee, text."""

    index: int
    spoken_from: str
    spoken_to: str | None
    text: str

    def __post_init__(self) -> None:
        if not self.spoken_from:
            raise CorpusError("utterance %d has an empty spoken_from speaker" % self.index)


@dataclass(frozen=True)
class CandidatePool:
    """One context with its labelled candidate responses; a TSV line is a pool of one."""

    context: tuple[Utterance, ...]
    candidates: tuple[tuple[Utterance, int], ...]

    def __post_init__(self) -> None:
        if not self.candidates:
            raise CorpusError("candidate pool has no candidates")


def alternating_speaker(position: int) -> str:
    """Synthetic speaker id for utterance ``position`` in a two-speaker dialogue."""
    return SPEAKER_A if position % 2 == 0 else SPEAKER_B


def parse_tsv_example(line: str, line_number: int = 1) -> CandidatePool:
    """Parse one ``label \\t utt_1 ... utt_m \\t response`` line into a one-candidate pool.

    Speakers alternate ``spk_A``/``spk_B`` from the first utterance; the
    response continues the alternation.  ``spoken_to`` is unknown in this
    format and left as None.
    """
    fields = line.rstrip("\n").split("\t")
    if len(fields) < 3:
        raise CorpusError(
            "line %d: expected label, >=1 context utterance and a response, got %d field(s)"
            % (line_number, len(fields))
        )
    if fields[0] not in ("0", "1"):
        raise CorpusError("line %d: label must be '0' or '1', got %r" % (line_number, fields[0]))
    label = int(fields[0])
    texts = fields[1:]
    context = tuple(
        Utterance(index=i, spoken_from=alternating_speaker(i), spoken_to=None, text=text)
        for i, text in enumerate(texts[:-1])
    )
    if not texts[-1].strip():
        raise CorpusError("line %d: the response is empty" % line_number)
    m = len(context)
    response = Utterance(index=m, spoken_from=alternating_speaker(m), spoken_to=None, text=texts[-1])
    return CandidatePool(context=context, candidates=((response, label),))


def extract_spoken_to(text: str, known_speakers: set[str]) -> tuple[str | None, str]:
    """Pull an addressee off the front of ``text`` using the ``name:``/``name,`` convention.

    The prefix only counts when the name is a known channel participant; the
    address is stripped from the returned text so the label does not leak
    into the token stream.  Returns ``(None, text)`` unchanged otherwise.
    """
    head, sep, rest = _split_address_prefix(text)
    if sep and head in known_speakers:
        return head, rest.lstrip()
    return None, text


def _split_address_prefix(text: str) -> tuple[str, str, str]:
    for i, ch in enumerate(text):
        if ch in ":,":
            return text[:i], ch, text[i + 1 :]
        if ch.isspace():
            break
    return text, "", ""


# --- JSONL channel format -------------------------------------------------


def _require(record: dict, key: str, record_number: int):
    if key not in record:
        raise CorpusError("record %d: missing field %r" % (record_number, key))
    return record[key]


def _checked_utterance(index: int, spoken_from, spoken_to, text, where: str) -> Utterance:
    if not isinstance(spoken_from, str) or not spoken_from:
        raise CorpusError("%s 'from' must be a non-empty string" % where)
    if not isinstance(text, str):
        raise CorpusError("%s 'text' must be a string" % where)
    if spoken_to is not None and not isinstance(spoken_to, str):
        raise CorpusError("%s 'to' must be a string or null" % where)
    return Utterance(index=index, spoken_from=spoken_from, spoken_to=spoken_to, text=text)


def record_to_utterance(record: dict, record_number: int) -> Utterance:
    index = _require(record, "index", record_number)
    spoken_from = _require(record, "from", record_number)
    text = _require(record, "text", record_number)
    if not isinstance(index, int) or isinstance(index, bool):
        raise CorpusError("record %d: 'index' must be an integer" % record_number)
    return _checked_utterance(index, spoken_from, record.get("to"), text, "record %d:" % record_number)


def _candidate_to_utterance(entry, index: int, record_number: int) -> tuple[Utterance, int]:
    if not isinstance(entry, dict):
        raise CorpusError("record %d: each candidate must be a JSON object" % record_number)
    text = _require(entry, "text", record_number)
    spoken_from = _require(entry, "from", record_number)
    label = _require(entry, "label", record_number)
    if not isinstance(label, int) or isinstance(label, bool) or label not in (0, 1):
        raise CorpusError("record %d: candidate label must be 0 or 1, got %r" % (record_number, label))
    where = "record %d: candidate" % record_number
    utt = _checked_utterance(index, spoken_from, entry.get("to"), text, where)
    if not text.strip():
        raise CorpusError("%s 'text' is empty" % where)
    return utt, label


def _parse_jsonl_records(lines: Iterable[str]) -> Iterator[tuple[int, dict]]:
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise CorpusError("record %d: invalid JSON (%s)" % (number, exc)) from exc
        if not isinstance(record, dict):
            raise CorpusError("record %d: expected a JSON object" % number)
        if _SURROGATE_ESCAPE.search(line) and _SURROGATE.search(json.dumps(record, ensure_ascii=False)):
            raise CorpusError("record %d: holds an unpaired UTF-16 surrogate" % number)
        yield number, record


def read_text(path: str | Path) -> str:
    """The text of the UTF-8 file ``path``; bytes that are not UTF-8 are a CorpusError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError("%s: byte %d is not UTF-8 (%s)" % (path, exc.start, exc.reason)) from exc


def load_channel(path: str | Path, format: str = "jsonl"):
    """Load a corpus file in declared ``format``; every CorpusError it raises starts with ``path``.

    * ``tsv`` -> list of CandidatePool, one per line, each of one candidate.
    * ``jsonl`` without candidate records -> list of Utterance, indices
      validated as strictly increasing.
    * ``jsonl`` with candidate records -> list of CandidatePool; the context
      accumulator resets after each pool so independent pools can share one
      file, and records after the last pool, which belong to none, are an
      error.
    """
    text = read_text(path)
    try:
        return _parse_channel(text, format)
    except CorpusError as exc:
        raise CorpusError("%s: %s" % (path, exc)) from exc


def _parse_channel(text: str, format: str):
    if format == "tsv":
        return [
            parse_tsv_example(line, number)
            for number, line in enumerate(text.splitlines(), start=1)
            if line.strip()
        ]
    if format != "jsonl":
        raise ValueError("unknown corpus format %r" % format)

    utterances: list[Utterance] = []
    pools: list[CandidatePool] = []
    segment: list[Utterance] = []
    segment_start = 0  # record number of the segment's first utterance
    last_index: int | None = None
    for number, record in _parse_jsonl_records(text.splitlines()):
        utt = record_to_utterance(record, number)
        if not segment:
            segment_start = number
        if last_index is not None and utt.index <= last_index:
            raise CorpusError(
                "record %d: index %d is not strictly increasing (previous %d)"
                % (number, utt.index, last_index)
            )
        last_index = utt.index
        utterances.append(utt)
        segment.append(utt)
        if "candidates" in record:
            entries = record["candidates"]
            if not isinstance(entries, list) or not entries:
                raise CorpusError("record %d: 'candidates' must be a non-empty list" % number)
            candidates = tuple(
                _candidate_to_utterance(entry, utt.index + 1, number) for entry in entries
            )
            pools.append(CandidatePool(context=tuple(segment), candidates=candidates))
            segment = []
            last_index = None
    if pools and segment:
        raise CorpusError("record %d: follows the last candidate record and belongs to no pool" % segment_start)
    if pools:
        return pools
    return utterances


def write_channel(path: str | Path, utterances: Iterable[Utterance], extra: dict | None = None) -> None:
    """Write utterance records as JSONL; ``extra`` maps index -> extra fields."""
    with open(path, "w", encoding="utf-8") as fh:
        for utt in utterances:
            record = {"index": utt.index, "from": utt.spoken_from, "to": utt.spoken_to, "text": utt.text}
            if extra and utt.index in extra:
                record.update(extra[utt.index])
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")

"""Sentence segmentation for normalized Persian documents.

`segment_by_notation` is the deliberately naive baseline: it breaks after
every occurrence of the boundary notations (؟ ? ! . :), which shreds
abbreviations and decimal numbers. `segment_true` repairs those breaks
with an abbreviation lexicon and local character rules, optionally defers
borderline cases to a pluggable adjudicator, and merges fragments that
are too short to stand as sentences.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

from .errors import AdjudicatorError, ConfigError, DataError
from .lineio import read_text

BOUNDARY_CHARS = frozenset("؟?!.:")

# Two or more letter-dot units at a word start, e.g. ق.م. or U.S.
_LETTER_RUN = re.compile(r"(?:(?<=\s)|^)(?:[^\W\d_]\.){2,}")

_CONTEXT_TOKENS = 3


class BoundaryAdjudicator(Protocol):
    """Judges one candidate split given its local context.

    ``left`` holds up to a few whitespace tokens ending at the boundary
    character, ``right`` the tokens after it. Return True to split.
    """

    def accept(self, left: list[str], right: list[str]) -> bool: ...


def load_abbreviations(path: str | Path) -> frozenset[str]:
    """Read an abbreviation lexicon: one entry per line, '#' comments."""
    entries = (line.split("#", 1)[0].strip() for line in read_text(path).splitlines())
    return frozenset(entry for entry in entries if entry)


DEFAULT_ABBREVIATIONS = load_abbreviations(Path(__file__).parent / "data" / "abbreviations.txt")


@dataclass(frozen=True)
class SegmenterConfig:
    boundary_chars: frozenset[str] = BOUNDARY_CHARS
    abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS
    min_tokens: int = 3
    tagger: BoundaryAdjudicator | None = None

    def __post_init__(self):
        if not self.boundary_chars:
            raise ConfigError("boundary_chars must be nonempty")
        if self.min_tokens < 1:
            raise ConfigError(f"min_tokens must be at least 1, got {self.min_tokens}")


@dataclass(frozen=True)
class Sentence:
    text: str
    doc_id: str = ""
    index: int = 0

    def __post_init__(self):
        if not self.text.strip():
            raise DataError("sentence text is empty")
        if "\n" in self.text:
            raise DataError("sentence text contains a newline")


class RuleAdjudicator:
    """Shipped adjudicator that re-judges a boundary from its left token.

    Rejects the split when that token is a known abbreviation, a
    letter-dot run, or ends mid-number; accepts otherwise. It exists so
    the adjudicator seam has a working reference occupant; a
    part-of-speech model could slot in the same way.
    """

    def __init__(self, abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS):
        self.abbreviations = frozenset(abbreviations)

    def accept(self, left: list[str], right: list[str]) -> bool:
        if not left:
            return True
        last = left[-1]
        if last in self.abbreviations:
            return False
        if re.fullmatch(r"(?:[^\W\d_]\.){2,}", last):
            return False
        if right and last and last[-1] in ".:" and len(last) >= 2:
            if last[-2].isdigit() and right[0][:1].isdigit():
                return False
        return True


def _emit(fragments: list[str], doc_id: str) -> list[Sentence]:
    sentences = []
    for fragment in fragments:
        text = fragment.strip()
        if text:
            sentences.append(Sentence(text=text, doc_id=doc_id, index=len(sentences)))
    return sentences


def _split_after(text: str, positions: list[int]) -> list[str]:
    fragments = []
    start = 0
    for pos in positions:
        fragments.append(text[start : pos + 1])
        start = pos + 1
    fragments.append(text[start:])
    return fragments


def segment_by_notation(
    text: str, config: SegmenterConfig = SegmenterConfig(), doc_id: str = ""
) -> list[Sentence]:
    """Split after every boundary character, keeping it with its sentence.

    Empty fragments are dropped; nothing else is filtered or repaired.
    """
    positions = [i for i, ch in enumerate(text) if ch in config.boundary_chars]
    return _emit(_split_after(text, positions), doc_id)


def _suppressed_positions(text: str, config: SegmenterConfig) -> set[int]:
    suppressed: set[int] = set()
    for abbr in config.abbreviations:
        for match in re.finditer(rf"(?<!\S){re.escape(abbr)}(?!\w)", text):
            suppressed.update(range(match.start(), match.end()))
    for match in _LETTER_RUN.finditer(text):
        suppressed.update(range(match.start(), match.end()))
    for i, ch in enumerate(text):
        if ch in ".:" and 0 < i < len(text) - 1:
            if text[i - 1].isdigit() and text[i + 1].isdigit():
                suppressed.add(i)
    return suppressed


def _context(text: str, pos: int) -> tuple[list[str], list[str]]:
    left = text[: pos + 1].split()[-_CONTEXT_TOKENS:]
    right = text[pos + 1 :].split()[:_CONTEXT_TOKENS]
    return left, right


def segment_true(
    text: str,
    config: SegmenterConfig = SegmenterConfig(),
    doc_id: str = "",
    lenient: bool = False,
) -> list[Sentence]:
    """Segment into True Sentences.

    Boundary dots inside abbreviations, decimal numbers and letter-dot
    runs are ignored; a colon splits only before whitespace. A configured
    adjudicator then confirms each surviving candidate. Fragments shorter
    than ``min_tokens`` merge into the sentence after them; a short
    leftover at the document end is kept only when it is the whole output.
    """
    suppressed = _suppressed_positions(text, config)
    positions = []
    for i, ch in enumerate(text):
        if ch not in config.boundary_chars or i in suppressed:
            continue
        if ch == ":" and i + 1 < len(text) and not text[i + 1].isspace():
            continue
        if config.tagger is not None:
            left, right = _context(text, i)
            try:
                accepted = config.tagger.accept(left, right)
            except Exception as exc:
                if not lenient:
                    raise AdjudicatorError(
                        f"boundary adjudicator failed at offset {i}: {exc}"
                    ) from exc
                accepted = True
            if not accepted:
                continue
        positions.append(i)

    merged: list[str] = []
    pending = ""
    for fragment in _split_after(text, positions):
        # fragments are contiguous slices, so plain concatenation restores
        # the original spacing between a short fragment and its successor
        pending += fragment
        if len(pending.split()) >= config.min_tokens:
            merged.append(pending)
            pending = ""
    if pending.strip() and not merged:
        merged.append(pending)
    return _emit(merged, doc_id)


def sentence_records(sentences: list[Sentence]) -> list[dict]:
    """Line-record form of segmenter output: {doc_id, index, text}."""
    return [{"doc_id": s.doc_id, "index": s.index, "text": s.text} for s in sentences]

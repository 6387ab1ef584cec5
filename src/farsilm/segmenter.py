"""Sentence segmentation for normalized Persian documents.

`segment_by_notation` is the deliberately naive baseline: it breaks after
every occurrence of the boundary notations (؟ ? ! . :), which shreds
abbreviations and decimal numbers. `segment_true` repairs those breaks
with an abbreviation lexicon and local character rules, and merges
fragments that are too short to stand as sentences.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, DataError
from .lineio import read_text

BOUNDARY_CHARS = frozenset("؟?!.:")
# the splitters visit only the boundary characters, found by this one scan
_BOUNDARY = re.compile(f"[{re.escape(''.join(sorted(BOUNDARY_CHARS)))}]")

# Two or more letter-dot units at a word start, e.g. ق.م. or U.S.; without
# MULTILINE, (?<!\S) holds where (?<=\s) or ^ does, and is cheaper to scan
_LETTER_RUN = re.compile(r"(?<!\S)(?:[^\W\d_]\.){2,}")


def load_abbreviations(path: str | Path) -> frozenset[str]:
    """Read an abbreviation lexicon: one entry per line, '#' comments."""
    entries = (line.split("#", 1)[0].strip() for line in read_text(path).splitlines())
    return frozenset(entry for entry in entries if entry)


DEFAULT_ABBREVIATIONS = load_abbreviations(Path(__file__).parent / "data" / "abbreviations.txt")


@dataclass(frozen=True)
class SegmenterConfig:
    min_tokens: int = 3

    def __post_init__(self):
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
    ``config`` is unused; it keeps the two splitters interchangeable.
    """
    positions = [match.start() for match in _BOUNDARY.finditer(text)]
    return _emit(_split_after(text, positions), doc_id)


def _suppressed_positions(text: str) -> set[int]:
    """Every position inside a lexicon abbreviation or a letter-dot run,
    and every dot or colon between two ``str.isdigit`` characters."""
    suppressed: set[int] = set()
    for abbr in DEFAULT_ABBREVIATIONS:
        if abbr not in text:  # the pattern below matches abbr literally
            continue
        for match in re.finditer(rf"(?<!\S){re.escape(abbr)}(?!\w)", text):
            suppressed.update(range(match.start(), match.end()))
    for match in _LETTER_RUN.finditer(text):
        suppressed.update(range(match.start(), match.end()))
    for match in _BOUNDARY.finditer(text):
        i = match.start()
        if text[i] in ".:" and 0 < i < len(text) - 1:
            if text[i - 1].isdigit() and text[i + 1].isdigit():
                suppressed.add(i)
    return suppressed


def segment_true(
    text: str, config: SegmenterConfig = SegmenterConfig(), doc_id: str = ""
) -> list[Sentence]:
    """Segment into True Sentences.

    Boundary dots inside abbreviations, decimal numbers and letter-dot
    runs are ignored; a colon splits only before whitespace. Fragments
    shorter than ``min_tokens`` merge into the sentence after them; a short
    leftover at the document end is kept only when it is the whole output.
    """
    suppressed = _suppressed_positions(text)
    positions = []
    for match in _BOUNDARY.finditer(text):
        i = match.start()
        if i in suppressed:
            continue
        if text[i] == ":" and i + 1 < len(text) and not text[i + 1].isspace():
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


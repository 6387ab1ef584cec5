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
# the splitters cut only after the boundary characters, found by this scan
_BOUNDARY = re.compile(f"[{re.escape(''.join(sorted(BOUNDARY_CHARS)))}]")

# Two or more letter-dot units at a word start, e.g. ق.م. or U.S.; a match
# begins at the first dot, a literal ``re`` skips to, one after the run
_LETTER_RUN = re.compile(r"\.(?<=(?<!\S)[^\W\d_]\.)(?:[^\W\d_]\.)+")
# a dot or colon between word characters, as every str.isdigit one is
_WORD_SEPARATOR = re.compile(r"[.:](?<=\w[.:])(?=\w)")
# a whitespace run that holds a line break, which a sentence spans as one space
_LINE_BREAK = re.compile(r"\s*\n\s*")


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
        if "\n" in text:
            text = _LINE_BREAK.sub(" ", text)
        if text:
            sentences.append(Sentence(text, doc_id, len(sentences)))  # keywords cost more
    return sentences


def segment_by_notation(
    text: str, config: SegmenterConfig = SegmenterConfig(), doc_id: str = ""
) -> list[Sentence]:
    """Split after every boundary character, keeping it with its sentence.

    Empty fragments are dropped; nothing else is filtered or repaired.
    ``config`` is unused; it keeps the two splitters interchangeable.
    """
    return _emit(re.split(f"(?<={_BOUNDARY.pattern})", text), doc_id)


def _letter_runs(text: str) -> list[tuple[int, int]]:
    """The (start, end) span of every letter-dot run in ``text``."""
    return [(match.start() - 1, match.end()) for match in _LETTER_RUN.finditer(text)]


def _suppressed_positions(text: str) -> set[int]:
    """Every position inside a lexicon abbreviation or a letter-dot run,
    and every dot or colon between two ``str.isdigit`` characters."""
    suppressed: set[int] = set()
    for abbr in DEFAULT_ABBREVIATIONS:
        if abbr in text:  # the entry, then a look back past it for a word start
            entry = re.escape(abbr)
            for match in re.finditer(rf"{entry}(?<!\S{entry})(?!\w)", text):
                suppressed.update(range(match.start(), match.end()))
    for start, end in _letter_runs(text):
        suppressed.update(range(start, end))
    for match in _WORD_SEPARATOR.finditer(text):
        i = match.start()
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
    merged: list[str] = []
    start = 0  # where the pending text begins: short fragments pile up in it
    for match in _BOUNDARY.finditer(text):
        i = match.start()
        if i in suppressed or (text[i] == ":" and i + 1 < len(text) and not text[i + 1].isspace()):
            continue
        pending = text[start : i + 1]
        if len(pending.split()) >= config.min_tokens:
            merged.append(pending)
            start = i + 1
    pending = text[start:]
    if len(pending.split()) >= config.min_tokens or (pending.strip() and not merged):
        merged.append(pending)
    return _emit(merged, doc_id)


"""A seeded, junk-bearing JSONL corpus for the prep workload.

Clean documents come from ``farsilm.synthetic.generate_mlm_corpus``. Each
document then independently receives each kind of junk below with the
stated probability. Every injection is one that ``normalize`` is meant to
undo: markup, URLs, emails, emoji and zero-width characters are removed,
and Arabic letter variants, Arabic-Indic digits, tatweel and diacritics
fold back onto the letters they replaced. So the normalized raw text must
equal the normalized clean text, and no junk pattern may survive.

Diacritics and tatweel go only after Arabic-script letters, where real
text carries them. Wedged inside an ASCII URL or email they break the
match on the first pass and leave a remnant such as a bare "https://",
which this corpus does not exercise.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass

import numpy as np

from farsilm.synthetic import generate_mlm_corpus

# probability that a document receives each kind of junk
RATES = {
    "html": 0.5,
    "url": 0.3,
    "email": 0.2,
    "emoji": 0.3,
    "zero_width": 0.3,
    "arabic_letters": 0.4,
    "arabic_digits": 0.5,
    "diacritics": 0.3,
}

_ZERO_WIDTH = "​‍‎‏⁠﻿"
_EMOJI = "\U0001f600\U0001f642\U0001f44d\U0001f525\U0001f339❤"
_DIACRITICS = "".join(chr(c) for c in range(0x064B, 0x0652 + 1))
_TATWEEL = "ـ"
# canonical Persian letter -> Arabic variants that normalize folds back
_LETTER_VARIANTS = {"ی": "يى", "ک": "ك", "ه": "ة", "ا": "أإٱ"}
_PERSIAN_DIGITS = "۰۱۲۳۴۵۶۷۸۹"
_ARABIC_INDIC_DIGITS = "٠١٢٣٤٥٦٧٨٩"

# Anything matching here after normalize is injected junk that survived.
SURVIVOR = re.compile(
    "<[A-Za-z/!]|https?://|www\\.|@"
    f"|[{_ZERO_WIDTH}{_EMOJI}{_DIACRITICS}{_TATWEEL}{_ARABIC_INDIC_DIGITS}"
    + "".join(v for vs in _LETTER_VARIANTS.values() for v in vs)
    + "]"
)


@dataclass(frozen=True)
class JunkDocument:
    doc_id: str
    raw: str
    clean: str
    kinds: tuple[str, ...]


def _insert_token(rng, words: list[str], token: str) -> None:
    words.insert(int(rng.integers(0, len(words) + 1)), token)


def _inside_word(rng, words: list[str], piece: str) -> None:
    i = int(rng.integers(0, len(words)))
    word = words[i]
    at = int(rng.integers(1, len(word))) if len(word) > 1 else 1
    words[i] = word[:at] + piece + word[at:]


def _after_letters(rng, text: str, marks: list[str]) -> str:
    """Insert each combining mark or tatweel after a random Arabic-script letter."""
    spots = [i + 1 for i, ch in enumerate(text) if unicodedata.name(ch, "").startswith("ARABIC LETTER")]
    picks = sorted((spots[int(rng.integers(0, len(spots)))], mark) for mark in marks)
    for at, mark in reversed(picks):
        text = text[:at] + mark + text[at:]
    return text


def _dirty(rng, clean: str, kinds: list[str]) -> str:
    words = clean.split(" ")
    if "url" in kinds:
        _insert_token(rng, words, f"https://www.example{int(rng.integers(0, 100))}.com/p?id={int(rng.integers(0, 1000))}")
    if "email" in kinds:
        _insert_token(rng, words, f"user{int(rng.integers(0, 1000))}@mail.example.ir")
    if "emoji" in kinds:
        for _ in range(int(rng.integers(1, 4))):
            emoji = _EMOJI[int(rng.integers(0, len(_EMOJI)))]
            if rng.random() < 0.5:
                _insert_token(rng, words, emoji)
            else:
                i = int(rng.integers(0, len(words)))
                words[i] += emoji
    if "zero_width" in kinds:
        for _ in range(int(rng.integers(1, 4))):
            _inside_word(rng, words, _ZERO_WIDTH[int(rng.integers(0, len(_ZERO_WIDTH)))])
    text = " ".join(words)
    marks = []
    if "diacritics" in kinds:
        marks += [_DIACRITICS[int(rng.integers(0, len(_DIACRITICS)))] for _ in range(int(rng.integers(1, 6)))]
    if "arabic_letters" in kinds:
        marks.append(_TATWEEL)
    if marks:
        text = _after_letters(rng, text, marks)
    if "arabic_letters" in kinds:
        chars = list(text)
        for i, ch in enumerate(chars):
            if ch in _LETTER_VARIANTS and rng.random() < 0.5:
                variants = _LETTER_VARIANTS[ch]
                chars[i] = variants[int(rng.integers(0, len(variants)))]
        text = "".join(chars)
    if "arabic_digits" in kinds:
        text = text.translate(str.maketrans(_PERSIAN_DIGITS, _ARABIC_INDIC_DIGITS))
    if "html" in kinds:
        sentences = text.split(". ")
        text = '<div class="post">' + ".<br/> ".join(sentences) + "</div>"
        if rng.random() < 0.5:
            text = "<!-- saved page --> <p>" + text + "</p>"
    return text


def junk_corpus(seed: int, n_docs: int) -> list[JunkDocument]:
    """Clean synthetic documents and their junk-bearing raw forms."""
    rng = np.random.default_rng((seed, 7))
    out = []
    for doc in generate_mlm_corpus(seed=seed, n_docs=n_docs):
        kinds = [kind for kind, rate in RATES.items() if rng.random() < rate]
        clean = doc.text
        raw = _dirty(rng, clean, kinds) if kinds else clean
        out.append(JunkDocument(doc.doc_id, raw, clean, tuple(kinds)))
    return out


def write_jsonl(path, documents: list[JunkDocument]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for doc in documents:
            record = {"id": doc.doc_id, "source": "synthetic-web", "text": doc.raw}
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")

"""Persian text normalization in two steps: junk removal, then character
standardization.

Step one strips markup, URLs, emails, control characters, emoji and
zero-width junk. Step two folds Arabic presentation variants onto
canonical Persian letters, unifies digit families, strips diacritics,
tidies ZWNJ and collapses whitespace. ZWNJ (U+200C) is deliberately kept
inside words; deleting it would merge distinct Persian words.

The rule inventory lives in a :class:`NormalizationRules` value, so a
caller can audit it or pass its own rules to every step.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from .errors import DataError

ZWNJ = "‌"

JUNK_KINDS = ("control-char", "zero-width-junk", "emoji", "html-tag", "url", "email")

# Tatweel and the Arabic diacritics are deleted by the character step, so
# the URL and email rules match across them: a rule that matched only the
# part after a wedged-in mark would leave the part before it behind.
_MARKS = "\u0640\u064b-\u0652"
_M = f"[{_MARKS}]*"

# Ordered so later, coarser patterns see text already freed of characters
# that would split their matches (a zero-width char inside a URL, say).
_DEFAULT_JUNK: tuple[tuple[str, str, str], ...] = (
    # Control characters become a space, never the empty string: "a\tb"
    # must not collapse into a single word.
    ("control-char", r"[\x00-\x09\x0b-\x1f\x7f-\x9f]", " "),
    ("zero-width-junk", "[​‍‎‏⁠-⁤­؜᠎﻿]", ""),
    ("emoji", "[☀-➿⬀-⯿︀-️\U0001f000-\U0001faff]", ""),
    ("html-tag", r"<!--.*?-->|</?[A-Za-z][^<>]*>", ""),
    ("url", f"(?:h{_M}t{_M}t{_M}p{_M}(?:s{_M})?:{_M}/{_M}/|w{_M}w{_M}w{_M}\\.)\\S+", ""),
    ("email", f"[A-Za-z0-9._%+{_MARKS}-]+@[A-Za-z0-9.{_MARKS}-]+\\.{_M}(?:[A-Za-z]{_M}){{2,}}", ""),
)

# Arabic presentation variants folded onto the Persian letters they render as.
_VARIANT_FOLDS = {
    "ي": "ی",  # ي -> ی
    "ى": "ی",  # ى -> ی
    "ك": "ک",  # ك -> ک
    "ة": "ه",  # ة -> ه
    "أ": "ا",  # أ -> ا
    "إ": "ا",  # إ -> ا
    "ٱ": "ا",  # ٱ -> ا
    "ـ": "",  # tatweel carries no meaning
}

_PERSIAN_DIGITS = "۰۱۲۳۴۵۶۷۸۹"
_ARABIC_INDIC_DIGITS = "٠١٢٣٤٥٦٧٨٩"
_ASCII_DIGITS = "0123456789"

# Arabic diacritics: fathatan through sukun.
_DEFAULT_STRIP_MARKS = frozenset(range(0x064B, 0x0652 + 1))


def _default_char_map() -> dict[int, str]:
    table = {ord(src): dst for src, dst in _VARIANT_FOLDS.items()}
    for other in (_ARABIC_INDIC_DIGITS, _ASCII_DIGITS):
        for src, dst in zip(other, _PERSIAN_DIGITS):
            table[ord(src)] = dst
    return table


@dataclass(frozen=True)
class NormalizationRules:
    """The complete, ordered rule inventory for one normalization profile.

    The rules are read once, when the value is built: each junk pattern
    is compiled there, and ``strip_marks`` is folded into the
    ``char_map`` translation table (a mark maps to nothing, and marks are
    removed from every mapped value), so one ``str.translate`` does
    exactly "translate, then strip". One character class over the
    table's keys tells whether a text holds anything to translate.
    """

    junk_patterns: tuple[tuple[str, str, str], ...]
    char_map: dict[int, str]
    strip_marks: frozenset[int]

    def __post_init__(self):
        compiled = []
        for kind, pattern, replacement in self.junk_patterns:
            if kind not in JUNK_KINDS:
                raise DataError(f"unknown junk rule kind {kind!r}")
            try:
                compiled.append((re.compile(pattern), replacement))
            except re.error as exc:
                raise DataError(f"junk rule {kind!r} has a bad pattern: {exc}") from exc
        for src, dst in self.char_map.items():
            for ch in dst:
                if ord(ch) in self.char_map:
                    raise DataError(
                        f"char_map is not closed: U+{src:04X} maps into mapped "
                        f"codepoint U+{ord(ch):04X}"
                    )
        table: dict[int, str | None] = dict.fromkeys(self.strip_marks)
        for src, dst in self.char_map.items():
            table[src] = "".join(ch for ch in dst if ord(ch) not in self.strip_marks)
        # a key that is no code point can never be met, so the class omits it
        folded = "".join(re.escape(chr(c)) for c in sorted(table) if 0 <= c <= sys.maxunicode)
        # derived, not fields: set past the frozen dataclass's __setattr__
        object.__setattr__(self, "_compiled_junk", tuple(compiled))
        object.__setattr__(self, "_fold_table", table)
        object.__setattr__(self, "_foldable", re.compile(f"[{folded}]") if folded else None)


DEFAULT_RULES = NormalizationRules(
    junk_patterns=_DEFAULT_JUNK,
    char_map=_default_char_map(),
    strip_marks=_DEFAULT_STRIP_MARKS,
)


_ZWNJ_RUN = re.compile(f"{ZWNJ}+")
_ZWNJ_AFTER_SPACE = re.compile(f"(?:(?<=\\s)|^){ZWNJ}")
_ZWNJ_BEFORE_SPACE = re.compile(f"{ZWNJ}(?=\\s|$)")


def clean_junk(text: str, rules: NormalizationRules = DEFAULT_RULES) -> str:
    """Remove trivial and junk content: markup, URLs, emails, control
    characters, emoji and zero-width characters other than ZWNJ."""
    for pattern, replacement in rules._compiled_junk:
        text = pattern.sub(replacement, text)
    return text


def standardize_chars(text: str, rules: NormalizationRules = DEFAULT_RULES) -> str:
    """Fold character variants, strip diacritics and tidy spacing.

    ZWNJ runs collapse to one ZWNJ, and a ZWNJ touching whitespace or a
    string edge is dropped since it no longer joins anything. Whitespace
    runs then become one space, and the ends are trimmed; ``str.split``
    and ``re``'s ``\\s`` agree on what whitespace is.
    """
    if rules._foldable and rules._foldable.search(text):
        text = text.translate(rules._fold_table)
    if ZWNJ in text:
        text = _ZWNJ_RUN.sub(ZWNJ, text)
        text = _ZWNJ_AFTER_SPACE.sub("", text)
        text = _ZWNJ_BEFORE_SPACE.sub("", text)
    return " ".join(text.split())


_MAX_PASSES = 16


def normalize(text: str, rules: NormalizationRules = DEFAULT_RULES) -> str:
    """Run both steps until the text stops changing.

    One pass is `standardize_chars(clean_junk(text))`. Stripping marks or
    zero-width junk can expose new junk (a URL with a diacritic wedged in
    survives pass one), so passes repeat to a fixed point; clean input
    converges on the first pass.
    """
    prev = text
    for _ in range(_MAX_PASSES):
        cur = standardize_chars(clean_junk(prev, rules), rules)
        if cur == prev:
            return cur
        prev = cur
    return prev

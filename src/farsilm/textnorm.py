"""Persian text normalization in two steps: junk removal, then character
standardization.

Step one strips markup, URLs, emails, control characters, emoji and
zero-width junk. Step two folds Arabic presentation variants onto
canonical Persian letters, unifies digit families, strips diacritics,
tidies ZWNJ and collapses whitespace. ZWNJ (U+200C) is deliberately kept
inside words; deleting it would merge distinct Persian words.

The rules are one fixed inventory, compiled once at import;
``DEFAULT_RULES`` lists them for audit.
"""

from __future__ import annotations

import re
from typing import NamedTuple

ZWNJ = "‌"

# Tatweel and the Arabic diacritics are deleted by the character step, so
# the URL and email rules match across them: a rule that matched only the
# part after a wedged-in mark would leave the part before it behind.
_MARKS = "\u0640\u064b-\u0652"
_M = f"[{_MARKS}]*"

# Ordered so later, coarser patterns see text already freed of characters
# that would split their matches (a zero-width char inside a URL, say).
_JUNK: tuple[tuple[str, str, str], ...] = (
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
_STRIP_MARKS = frozenset(range(0x064B, 0x0652 + 1))


class _RuleInventory(NamedTuple):
    """The built-in rules, kept readable so they can be audited."""

    junk_patterns: tuple[tuple[str, str, str], ...]
    char_map: dict[int, str]
    strip_marks: frozenset[int]


DEFAULT_RULES = _RuleInventory(
    junk_patterns=_JUNK,
    char_map={
        **{ord(src): dst for src, dst in _VARIANT_FOLDS.items()},
        **{ord(src): dst for src, dst in zip(_ARABIC_INDIC_DIGITS, _PERSIAN_DIGITS)},
        **{ord(src): dst for src, dst in zip(_ASCII_DIGITS, _PERSIAN_DIGITS)},
    },
    strip_marks=_STRIP_MARKS,
)

# The rules as they run. Each junk pattern is compiled once with two
# literals, one of which is in every match it can make, and runs only on a
# text that holds one ("" is in any). The fold table maps each mark to "";
# one ``str.replace`` per key a text holds gives one ``str.translate``'s
# bytes in any order, as no value holds a key (TestRulesValidation checks it).
_NEEDED_LITERALS = {"html-tag": ("<", "<"), "url": ("/", "w"), "email": ("@", "@")}
_COMPILED_JUNK = tuple((*_NEEDED_LITERALS.get(kind, ("", "")), re.compile(p), r) for kind, p, r in _JUNK)
_FOLD_TABLE = {**dict.fromkeys(_STRIP_MARKS, ""), **DEFAULT_RULES.char_map}
_FOLD_PAIRS = tuple((chr(src), dst) for src, dst in _FOLD_TABLE.items())


_ZWNJ_RUN = re.compile(f"{ZWNJ}+")
_ZWNJ_AFTER_SPACE = re.compile(f"(?:(?<=\\s)|^){ZWNJ}")
_ZWNJ_BEFORE_SPACE = re.compile(f"{ZWNJ}(?=\\s|$)")


def clean_junk(text: str) -> str:
    """Remove trivial and junk content: markup, URLs, emails, control
    characters, emoji and zero-width characters other than ZWNJ."""
    for first, second, pattern, replacement in _COMPILED_JUNK:
        if first in text or second in text:
            text = pattern.sub(replacement, text)
    return text


def standardize_chars(text: str) -> str:
    """Fold character variants, strip diacritics and tidy spacing.

    ZWNJ runs collapse to one ZWNJ, and a ZWNJ touching whitespace or a
    string edge is dropped since it no longer joins anything. Whitespace
    runs then become one space, and the ends are trimmed; ``str.split``
    and ``re``'s ``\\s`` agree on what whitespace is.
    """
    for src, dst in _FOLD_PAIRS:
        if src in text:
            text = text.replace(src, dst)
    if ZWNJ in text:
        text = _ZWNJ_RUN.sub(ZWNJ, text)
        text = _ZWNJ_AFTER_SPACE.sub("", text)
        text = _ZWNJ_BEFORE_SPACE.sub("", text)
    return " ".join(text.split())


_MAX_PASSES = 16


def normalize(text: str) -> str:
    """Run both steps until the text stops changing.

    One pass is `standardize_chars(clean_junk(text))`. Stripping marks or
    zero-width junk can expose new junk (a URL with a diacritic wedged in
    survives pass one), so passes repeat to a fixed point; clean input
    converges on the first pass.
    """
    prev = text
    for _ in range(_MAX_PASSES):
        cur = standardize_chars(clean_junk(prev))
        if cur == prev:
            return cur
        prev = cur
    return prev

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farsilm.textnorm import (
    DEFAULT_RULES,
    ZWNJ,
    clean_junk,
    normalize,
    standardize_chars,
)

# Corpus-flavored fragments that exercise every rule class, including
# characters that only misbehave in combination.
FRAGMENTS = [
    "سلام",
    "علي",
    "كتاب",
    "می" + ZWNJ + "روم",
    "<b>",
    "</div>",
    "<!--x-->",
    "http://مثال.ir/a",
    "www.example.com",
    "user@mail.co",
    "​",
    ZWNJ,
    "ّ",
    "ً",
    "١٢٣",
    "456",
    "۷۸",
    "\t",
    "  ",
    "😊",
    "«quote»",
    ".",
    "؟",
]

fragment_texts = st.lists(
    st.sampled_from(FRAGMENTS) | st.text(max_size=3), max_size=12
).map("".join)
any_texts = fragment_texts | st.text(max_size=60)


class TestCleanJunk:
    def test_html_tags_removed(self):
        assert clean_junk("<b>سلام</b>") == "سلام"

    def test_url_removed_before_whitespace_collapse(self):
        assert clean_junk("see https://x.y now") == "see  now"

    def test_clean_input_is_identity(self):
        assert clean_junk("abc") == "abc"

    def test_email_removed(self):
        assert clean_junk("بنویسید به a.b@mail.ir لطفا") == "بنویسید به  لطفا"

    def test_control_chars_become_spaces(self):
        assert clean_junk("a\tb\x00c") == "a b c"

    def test_newline_survives(self):
        assert clean_junk("a\nb") == "a\nb"

    def test_zero_width_junk_removed_but_zwnj_kept(self):
        word = "می" + ZWNJ + "روم"
        assert clean_junk("​﻿" + word + "‍") == word

    def test_emoji_removed(self):
        assert clean_junk("سلام 😊🎉") == "سلام "


class TestStandardizeChars:
    def test_arabic_yeh_folds(self):
        assert standardize_chars("علي") == "علی"

    def test_arabic_kaf_folds(self):
        assert standardize_chars("كتاب") == "کتاب"

    def test_arabic_indic_digits_fold(self):
        assert standardize_chars("١٢٣") == "۱۲۳"

    def test_ascii_digits_fold(self):
        assert standardize_chars("123") == "۱۲۳"

    def test_whitespace_collapses(self):
        assert standardize_chars("a  b\t c") == "a b c"

    def test_diacritics_stripped(self):
        assert standardize_chars("عَلِی") == "علی"

    def test_tatweel_removed(self):
        assert standardize_chars("بـــله") == "بله"

    def test_zwnj_kept_inside_word(self):
        word = "می" + ZWNJ + "روم"
        assert standardize_chars(word) == word

    def test_zwnj_runs_collapse(self):
        assert standardize_chars("می" + ZWNJ * 3 + "روم") == "می" + ZWNJ + "روم"

    def test_zwnj_next_to_whitespace_dropped(self):
        assert standardize_chars("می" + ZWNJ + " روم") == "می روم"
        assert standardize_chars(ZWNJ + "سلام" + ZWNJ) == "سلام"

    def test_trim(self):
        assert standardize_chars("  سلام  ") == "سلام"


class TestNormalize:
    def test_empty(self):
        assert normalize("") == ""

    def test_composition_of_both_steps(self):
        assert normalize("<i>علي</i>") == "علی"

    def test_matches_single_pass_on_plain_text(self):
        text = "او می" + ZWNJ + "گفت: <b>كتاب ١٢</b> خوب است."
        assert normalize(text) == standardize_chars(clean_junk(text))

    def test_junk_exposed_by_mark_stripping_is_still_removed(self):
        # A diacritic inside the scheme hides the URL from the first pass;
        # the fixed-point loop catches it after the mark is stripped.
        assert normalize("htّtp://x.ir/a") == ""

    @pytest.mark.parametrize(
        "junk",
        [
            "ـuser12@mail.com",  # tatweel at the start
            "usـer12@mail.com",  # tatweel in the local part
            "user1َ2@mail.com",  # diacritic between digits
            "userـ@mail.com",  # tatweel before the @
            "user@ًmail.com",  # diacritic after the @
            "user@mail.example.iـr",  # tatweel inside the top-level domain
            "ُhttps://www.example.com/p",  # diacritic at the start
            "htـtps://www.example.com/p",  # tatweel inside the scheme
            "https:/ّ/example.com",  # diacritic between the slashes
            "wwـw.example.com",  # tatweel inside www
        ],
    )
    def test_mark_inside_email_or_url_leaves_no_remnant(self, junk):
        assert normalize(f"سلام {junk} ب") == "سلام ب"

    @given(any_texts)
    @settings(max_examples=300)
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @given(any_texts)
    def test_no_junk_or_mapped_codepoints_survive(self, text):
        out = normalize(text)
        for kind, pattern, _ in DEFAULT_RULES.junk_patterns:
            assert not re.search(pattern, out), (kind, out)
        assert all(ord(ch) not in DEFAULT_RULES.char_map for ch in out)
        assert all(ord(ch) not in DEFAULT_RULES.strip_marks for ch in out)

    @given(any_texts)
    def test_no_foreign_codepoints_introduced(self, text):
        allowed = set(text) | {" "}
        for target in DEFAULT_RULES.char_map.values():
            allowed.update(target)
        assert set(normalize(text)) <= allowed

    @given(any_texts)
    def test_whitespace_is_single_spaces_only(self, text):
        out = normalize(text)
        assert "  " not in out
        assert not re.search(r"[^\S ]", out)
        assert out == out.strip()


class TestRulesValidation:
    """The built-in rules hold the conditions a single ``str.translate``
    needs to do "fold, then strip"."""

    def test_char_map_must_be_closed(self):
        for src, dst in DEFAULT_RULES.char_map.items():
            assert not any(ord(ch) in DEFAULT_RULES.char_map for ch in dst), hex(src)

    def test_no_mark_in_a_mapped_value(self):
        for src, dst in DEFAULT_RULES.char_map.items():
            assert not any(ord(ch) in DEFAULT_RULES.strip_marks for ch in dst), hex(src)
        assert not set(DEFAULT_RULES.char_map) & DEFAULT_RULES.strip_marks

    def test_default_char_map_twice_equals_once(self):
        text = "عليكتاب١٢3" * 3
        once = text.translate(DEFAULT_RULES.char_map)
        assert once.translate(DEFAULT_RULES.char_map) == once

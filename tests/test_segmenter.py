import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farsilm.errors import ConfigError, DataError
from farsilm.segmenter import (
    DEFAULT_ABBREVIATIONS,
    SegmenterConfig,
    Sentence,
    load_abbreviations,
    segment_by_notation,
    segment_true,
)

LOOSE = SegmenterConfig(min_tokens=1)


def texts_of(sentences):
    return [s.text for s in sentences]


class TestSegmentByNotation:
    def test_splits_after_each_boundary(self):
        assert texts_of(segment_by_notation("A? B! C.")) == ["A?", "B!", "C."]

    def test_no_boundary_one_sentence(self):
        assert texts_of(segment_by_notation("no boundary here")) == ["no boundary here"]

    def test_oversplits_abbreviation(self):
        assert texts_of(segment_by_notation("ق.م. سال ۵۰")) == ["ق.", "م.", "سال ۵۰"]

    def test_empty_input(self):
        assert segment_by_notation("") == []

    def test_persian_question_mark(self):
        assert texts_of(segment_by_notation("چرا؟ چون.")) == ["چرا؟", "چون."]

    def test_sentence_spans_a_line_break(self):
        got = segment_by_notation("A \n\t b.\nC!\n")
        assert texts_of(got) == ["A b.", "C!"]

    def test_indices_consecutive(self):
        sentences = segment_by_notation("A? B! C.", doc_id="d9")
        assert [s.index for s in sentences] == [0, 1, 2]
        assert all(s.doc_id == "d9" for s in sentences)


class TestSegmentTrue:
    def test_abbreviation_dot_not_boundary(self):
        got = segment_true("ق.م. سال ۵۰ شروع شد.")
        assert texts_of(got) == ["ق.م. سال ۵۰ شروع شد."]

    def test_decimal_dot_not_boundary(self):
        # min_tokens=2 keeps the two-token second sentence observable
        config = SegmenterConfig(min_tokens=2)
        got = segment_true("نرخ ۳.۵ درصد است. بعد رفت.", config)
        assert texts_of(got) == ["نرخ ۳.۵ درصد است.", "بعد رفت."]

    def test_short_final_fragment_dropped_at_default_min_tokens(self):
        got = segment_true("نرخ ۳.۵ درصد است. بعد رفت.")
        assert texts_of(got) == ["نرخ ۳.۵ درصد است."]

    def test_matches_notation_when_rules_vacuous(self):
        text = "A? B! C."
        assert texts_of(segment_true(text, LOOSE)) == texts_of(segment_by_notation(text))

    def test_short_fragments_merge_forward(self):
        config = SegmenterConfig(min_tokens=3)
        got = segment_true("بله. او به خانه رفت و خوابید.", config)
        assert texts_of(got) == ["بله. او به خانه رفت و خوابید."]

    def test_whole_short_document_kept(self):
        got = segment_true("سلام دوست.")
        assert texts_of(got) == ["سلام دوست."]

    def test_colon_splits_only_before_whitespace(self):
        config = SegmenterConfig(min_tokens=1)
        assert texts_of(segment_true("ساعت ۱۲:۳۰ رسید", config)) == ["ساعت ۱۲:۳۰ رسید"]
        assert texts_of(segment_true("گفت: بیا اینجا", config)) == ["گفت:", "بیا اینجا"]
        assert texts_of(segment_true("نسبت ۱:۲ است", config)) == ["نسبت ۱:۲ است"]

    def test_sentence_spans_a_line_break(self):
        got = segment_true("این یک جمله است\nو ادامه دارد. جمله دوم هم\r\n\nهست.\n")
        assert texts_of(got) == ["این یک جمله است و ادامه دارد.", "جمله دوم هم هست."]

    def test_whitespace_without_a_line_break_kept(self):
        got = segment_true("او\tبه  خانه\r\nرفت.", LOOSE)
        assert texts_of(got) == ["او\tبه  خانه رفت."]

    def test_single_letter_run_not_boundary(self):
        got = segment_true("او در ع.ج.م زندگی کرد", LOOSE)
        assert texts_of(got) == ["او در ع.ج.م زندگی کرد"]

    def test_latin_decimal(self):
        config = SegmenterConfig(min_tokens=2)
        got = segment_true("قیمت 3.5 دلار شد. بازار بست.", config)
        assert texts_of(got) == ["قیمت 3.5 دلار شد.", "بازار بست."]

    def test_shipped_lexicon_covers_calendar_eras(self):
        got = segment_true("در سال ۴۴ ق.م. سزار کشته شد.")
        assert texts_of(got) == ["در سال ۴۴ ق.م. سزار کشته شد."]

    def test_abbreviation_then_real_boundary(self):
        got = segment_true("در سال ۴۴ ق.م. سزار کشته شد. سپس جنگ داخلی آغاز شد.")
        assert texts_of(got) == ["در سال ۴۴ ق.م. سزار کشته شد.", "سپس جنگ داخلی آغاز شد."]


class TestConfigAndTypes:
    def test_min_tokens_below_one_rejected(self):
        with pytest.raises(ConfigError, match="min_tokens"):
            SegmenterConfig(min_tokens=0)

    def test_empty_sentence_rejected(self):
        with pytest.raises(DataError, match="empty"):
            Sentence(text="   ")

    def test_newline_in_sentence_rejected(self):
        with pytest.raises(DataError, match="newline"):
            Sentence(text="a\nb")


class TestLexiconFile:
    def test_load_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "abbr.txt"
        path.write_text("# header\nق.م.\n\nه.ش. # era\n", encoding="utf-8")
        assert load_abbreviations(path) == frozenset({"ق.م.", "ه.ش."})

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_abbreviations(tmp_path / "nope.txt")

    def test_shipped_default_nonempty(self):
        assert "ق.م." in DEFAULT_ABBREVIATIONS


WORDS = ["سلام", "کتاب", "خانه", "رفت", "آمد", "ق.م.", "۳.۵", "بزرگ", "با"]
PUNCT = [".", "؟", "!", ":"]

doc_texts = st.lists(
    st.tuples(st.sampled_from(WORDS), st.sampled_from(PUNCT + ["", ""])),
    min_size=0,
    max_size=30,
).map(lambda pairs: " ".join(w + p for w, p in pairs))


def nonws(s):
    return "".join(s.split())


class TestProperties:
    @given(doc_texts)
    @settings(max_examples=200)
    def test_notation_preserves_codepoints(self, text):
        joined = " ".join(texts_of(segment_by_notation(text)))
        assert nonws(joined) == nonws(text)

    @given(doc_texts)
    @settings(max_examples=200)
    def test_true_preserves_codepoints_or_prefix(self, text):
        joined = " ".join(texts_of(segment_true(text)))
        assert nonws(text).startswith(nonws(joined))

    @given(doc_texts)
    @settings(max_examples=200)
    def test_min_tokens_respected(self, text):
        sentences = segment_true(text)
        if len(sentences) == 1 and len(text.split()) < 3:
            return
        for s in sentences:
            assert len(s.text.split()) >= 3

    @given(doc_texts)
    @settings(max_examples=200)
    def test_true_equals_notation_on_plain_input(self, text):
        # scope: no abbreviations, no digit-adjacent dots, no colons
        if any(tok.count(".") > 1 for tok in text.split()):
            return
        if "۳.۵" in text or ":" in text or "ق.م." in text:
            return
        assert texts_of(segment_true(text, LOOSE)) == texts_of(segment_by_notation(text))

    @given(doc_texts)
    @settings(max_examples=200)
    def test_indices_consecutive_from_zero(self, text):
        sentences = segment_true(text, doc_id="d")
        assert [s.index for s in sentences] == list(range(len(sentences)))

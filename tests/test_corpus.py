import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from farsilm.corpus import (
    CorpusStats,
    Document,
    SourceCount,
    corpus_stats,
    format_stats_table,
    load_documents,
    stats_records,
)
from farsilm.errors import DataError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadLineRecords:
    def test_empty_file_yields_nothing(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert list(load_documents(path)) == []

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", ['{"text": "a"}', "", "   ", '{"text": "b"}'])
        docs = list(load_documents(path))
        assert [d.text for d in docs] == ["a", "b"]

    def test_three_records_in_order(self, tmp_path):
        lines = [
            json.dumps({"id": "d1", "source": "news", "text": "اول"}, ensure_ascii=False),
            json.dumps({"id": "d2", "source": "news", "text": "دوم"}, ensure_ascii=False),
            json.dumps({"id": "d3", "source": "wiki", "text": "سوم"}, ensure_ascii=False),
        ]
        path = write_lines(tmp_path / "c.jsonl", lines)
        docs = list(load_documents(path))
        assert [d.id for d in docs] == ["d1", "d2", "d3"]
        assert [d.source for d in docs] == ["news", "news", "wiki"]
        assert [d.text for d in docs] == ["اول", "دوم", "سوم"]

    def test_missing_text_field_names_line(self, tmp_path):
        lines = ['{"text": "ok"}', '{"id": "broken"}', '{"text": "ok2"}']
        path = write_lines(tmp_path / "c.jsonl", lines)
        with pytest.raises(DataError, match="line 2"):
            list(load_documents(path))

    def test_malformed_json_names_line(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", ['{"text": "ok"}', "{not json"])
        with pytest.raises(DataError, match="line 2"):
            list(load_documents(path))

    def test_non_object_record_rejected(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", ['["text"]'])
        with pytest.raises(DataError, match="line 1"):
            list(load_documents(path))

    def test_invalid_utf8_names_byte_offset(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"text": "ok"}\n\xff\xfe\n')
        with pytest.raises(DataError, match="byte offset 15"):
            list(load_documents(path))

    def test_id_and_source_are_synthesized(self, tmp_path):
        path = write_lines(tmp_path / "corpus.jsonl", ['{"text": "x"}', '{"text": "y"}'])
        docs = list(load_documents(path))
        assert docs[0].id == "corpus.jsonl#1"
        assert docs[1].id == "corpus.jsonl#2"
        assert docs[0].source == "corpus"

    def test_null_id_and_source_are_synthesized(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", ['{"id": null, "source": null, "text": "x"}'])
        (doc,) = load_documents(path)
        assert doc == Document(id="c.jsonl#1", source="c", text="x")

    @pytest.mark.parametrize(
        "field, value, shown",
        [("id", 7, "7"), ("id", [1], "[1]"), ("source", False, "false"),
         ("source", {"a": 1}, '{"a": 1}')],
        ids=["id-number", "id-list", "source-boolean", "source-object"],
    )
    def test_id_or_source_that_is_not_a_string_names_line_and_field(
        self, tmp_path, field, value, shown
    ):
        lines = ['{"text": "ok"}', json.dumps({field: value, "text": "x"})]
        path = write_lines(tmp_path / "c.jsonl", lines)
        with pytest.raises(DataError, match=re.escape(f"line 2 holds {shown} in {field}, not a")):
            list(load_documents(path))

    def test_unknown_fields_are_ignored(self, tmp_path):
        path = write_lines(
            tmp_path / "c.jsonl", ['{"id": "a", "text": "x", "lang": "fa", "year": [1399]}']
        )
        (doc,) = load_documents(path)
        assert doc == Document(id="a", source="c", text="x")

    def test_unknown_format_rejected(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", ['{"text": "x"}'])
        with pytest.raises(DataError, match="format"):
            list(load_documents(path, format="parquet"))


class TestLoadPlain:
    def test_whole_file_is_one_document(self, tmp_path):
        path = tmp_path / "story.txt"
        path.write_text("خط اول\nخط دوم\n", encoding="utf-8")
        (doc,) = load_documents(path, format="plain")
        assert doc.text == "خط اول\nخط دوم\n"
        assert doc.source == "story"
        assert doc.id == "story.txt#1"


class TestDocument:
    def test_nul_bytes_rejected(self):
        with pytest.raises(DataError, match="NUL"):
            Document(id="d", source="s", text="a\x00b")


class TestCorpusStats:
    def doc(self, source):
        return Document(id=f"{source}-{id(object())}", source=source, text="t")

    def test_known_totals(self):
        # [TRIVIAL] source A contributes 2 documents with 3 and 5 sentences,
        # source B contributes 1 document with 2 sentences.
        pairs = [(self.doc("A"), 3), (self.doc("A"), 5), (self.doc("B"), 2)]
        stats = corpus_stats(pairs)
        assert stats.per_source["A"] == SourceCount(documents=2, sentences=8)
        assert stats.per_source["B"] == SourceCount(documents=1, sentences=2)
        assert stats.totals == SourceCount(documents=3, sentences=10)

    def test_empty_input(self):
        stats = corpus_stats([])
        assert stats.per_source == {}
        assert stats.totals == SourceCount(0, 0)

    def test_negative_sentence_count_rejected(self):
        with pytest.raises(DataError, match="negative"):
            corpus_stats([(self.doc("A"), -1)])

    @given(
        st.lists(
            st.tuples(st.sampled_from(["A", "B", "C"]), st.integers(0, 50)),
            max_size=40,
        ),
        st.randoms(use_true_random=False),
    )
    def test_order_invariance(self, items, rng):
        pairs = [(Document(id=str(i), source=s, text="t"), n) for i, (s, n) in enumerate(items)]
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert corpus_stats(pairs) == corpus_stats(shuffled)

    @given(
        st.lists(
            st.tuples(st.sampled_from(["A", "B", "C"]), st.integers(0, 50)),
            max_size=40,
        )
    )
    def test_totals_equal_sum_of_sources(self, items):
        pairs = [(Document(id=str(i), source=s, text="t"), n) for i, (s, n) in enumerate(items)]
        stats = corpus_stats(pairs)
        assert stats.totals.documents == sum(c.documents for c in stats.per_source.values())
        assert stats.totals.sentences == sum(c.sentences for c in stats.per_source.values())


class TestStatsRendering:
    def stats(self):
        return corpus_stats(
            [
                (Document(id="1", source="news", text="t"), 4),
                (Document(id="2", source="wiki", text="t"), 1),
            ]
        )

    def test_table_has_total_row(self):
        table = format_stats_table(self.stats())
        assert "TOTAL" in table
        assert "news" in table and "wiki" in table

    def test_records_mirror_table(self):
        records = stats_records(self.stats())
        assert records[-1] == {"source": "__total__", "documents": 2, "sentences": 5}
        assert records[0] == {"source": "news", "documents": 1, "sentences": 4}

    def test_empty_stats_render(self):
        table = format_stats_table(CorpusStats(per_source={}, totals=SourceCount(0, 0)))
        assert "TOTAL" in table

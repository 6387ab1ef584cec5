import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farsilm.errors import DataError
from farsilm.metrics import (
    AVERAGING_NOTE,
    EntitySpan,
    accuracy,
    entity_f1,
    entity_score_records,
    eval_report_records,
    extract_entities,
    f1_report,
    format_entity_score,
    format_eval_report,
)

TAGS = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC", "B-ORG", "I-ORG"]


def parse(tag):
    return ("O", None) if tag == "O" else (tag[0], tag[2:])


def brute_force_spans(tags):
    """Independent oracle: enumerate every (category, start, end) triple
    and keep those satisfying the span definition directly."""
    n = len(tags)
    spans = set()
    for s in range(n):
        kind_s, cat = parse(tags[s])
        if cat is None:
            continue
        for e in range(s, n):
            if not all(parse(tags[k]) == ("I", cat) for k in range(s + 1, e + 1)):
                continue
            if kind_s == "I" and s > 0:
                prev_kind, prev_cat = parse(tags[s - 1])
                if prev_cat == cat:
                    continue
            if e + 1 < n and parse(tags[e + 1]) == ("I", cat):
                continue
            spans.add((cat, s, e))
    return spans


def brute_force_score(gold_seqs, pred_seqs):
    tp = fp = fn = 0
    for gold_tags, pred_tags in zip(gold_seqs, pred_seqs):
        g, p = brute_force_spans(gold_tags), brute_force_spans(pred_tags)
        tp += len(g & p)
        fp += len(p - g)
        fn += len(g - p)
    if tp == fp == fn == 0:
        return 1.0, 1.0, 1.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0

    def test_three_quarters(self):
        assert accuracy(["a", "b", "a", "b"], ["a", "b", "b", "b"]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            accuracy([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="mismatch"):
            accuracy(["a"], ["a", "b"])


class TestF1Report:
    def test_hand_computed_two_class(self):
        # class a: tp=1 fp=0 fn=1 -> p=1, r=.5, f1=2/3
        # class b: tp=1 fp=1 fn=0 -> p=.5, r=1, f1=2/3
        report = f1_report(["a", "a", "b"], ["a", "b", "b"], ["a", "b"])
        a, b = report.per_class["a"], report.per_class["b"]
        assert (a.precision, a.recall) == (1.0, 0.5)
        assert a.f1 == pytest.approx(2 / 3)
        assert (b.precision, b.recall) == (0.5, 1.0)
        assert b.f1 == pytest.approx(2 / 3)
        assert a.support == 2 and b.support == 1
        assert report.accuracy == pytest.approx(2 / 3)
        assert report.macro_f1 == pytest.approx(2 / 3)
        assert report.weighted_f1 == pytest.approx(2 / 3)

    def test_perfect_predictions(self):
        report = f1_report(["x", "y", "x"], ["x", "y", "x"], ["x", "y"])
        assert report.macro_f1 == 1.0
        assert report.weighted_f1 == 1.0
        assert all(s.f1 == 1.0 for s in report.per_class.values())

    def test_zero_support_class_convention(self):
        report = f1_report(["a", "a"], ["a", "a"], ["a", "c"])
        assert report.per_class["c"].f1 == 0.0
        assert report.per_class["c"].support == 0
        assert report.weighted_f1 == 1.0  # zero weight excludes c
        assert report.macro_f1 == 0.5  # macro still averages over the inventory

    def test_unseen_label_rejected(self):
        with pytest.raises(DataError, match="outside the inventory"):
            f1_report(["a"], ["z"], ["a", "b"])
        with pytest.raises(DataError, match="outside the inventory"):
            f1_report(["z"], ["a"], ["a", "b"])

    @given(
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=60).flatmap(
            lambda gold: st.tuples(
                st.just(gold),
                st.lists(
                    st.sampled_from(["a", "b", "c"]),
                    min_size=len(gold),
                    max_size=len(gold),
                ),
            )
        )
    )
    def test_weighted_f1_bounded_by_supported_classes(self, pair):
        gold, pred = pair
        report = f1_report(gold, pred, ["a", "b", "c"])
        supported = [s.f1 for s in report.per_class.values() if s.support > 0]
        assert min(supported) - 1e-12 <= report.weighted_f1 <= max(supported) + 1e-12


class TestExtractEntities:
    def test_basic_spans(self):
        got = extract_entities(["B-LOC", "I-LOC", "O", "B-PER"])
        assert got == [EntitySpan("LOC", 0, 1), EntitySpan("PER", 3, 3)]

    def test_lenient_i_start(self):
        assert extract_entities(["I-LOC", "I-LOC"]) == [EntitySpan("LOC", 0, 1)]

    def test_all_outside(self):
        assert extract_entities(["O", "O", "O"]) == []

    def test_category_change_closes_span(self):
        got = extract_entities(["B-LOC", "I-PER"])
        assert got == [EntitySpan("LOC", 0, 0), EntitySpan("PER", 1, 1)]

    def test_adjacent_b_tags_are_two_spans(self):
        got = extract_entities(["B-LOC", "B-LOC"])
        assert got == [EntitySpan("LOC", 0, 0), EntitySpan("LOC", 1, 1)]

    def test_underscore_separator_accepted(self):
        assert extract_entities(["B_ORG", "I_ORG"]) == [EntitySpan("ORG", 0, 1)]

    def test_invalid_tag_rejected(self):
        for bad in ["X-LOC", "B", "B-", "i-LOC", "BLOC", ""]:
            with pytest.raises(DataError, match="invalid IOB tag"):
                extract_entities(["O", bad])

    def test_span_bounds_validated(self):
        with pytest.raises(DataError, match="start <= end"):
            EntitySpan("LOC", 2, 1)

    @given(st.lists(st.sampled_from(TAGS), max_size=25))
    @settings(max_examples=300)
    def test_matches_brute_force_oracle(self, tags):
        got = extract_entities(tags)
        assert {(s.category, s.start, s.end) for s in got} == brute_force_spans(tags)

    @given(st.lists(st.sampled_from(TAGS), max_size=25))
    def test_spans_sorted_and_disjoint(self, tags):
        spans = extract_entities(tags)
        for earlier, later in zip(spans, spans[1:]):
            assert earlier.end < later.start


class TestEntityF1:
    def test_exact_match_scores_one(self):
        score = entity_f1([["B-LOC", "I-LOC"]], [["B-LOC", "I-LOC"]])
        assert score.f1 == 1.0

    def test_boundary_error_scores_zero(self):
        score = entity_f1([["B-LOC", "I-LOC"]], [["B-LOC", "O"]])
        assert score.f1 == 0.0
        assert score.precision == 0.0 and score.recall == 0.0

    def test_both_empty_convention(self):
        score = entity_f1([["O", "O"]], [["O", "O"]])
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)
        assert score.per_category == {}

    def test_item_length_mismatch_named(self):
        with pytest.raises(DataError, match="item 1"):
            entity_f1([["O"], ["O", "O"]], [["O"], ["O"]])

    def test_corpus_length_mismatch(self):
        with pytest.raises(DataError, match="corpus mismatch"):
            entity_f1([["O"]], [])

    def test_empty_corpus_rejected(self):
        # as f1_report and accuracy: no sequences is no score, not a perfect one
        with pytest.raises(DataError, match="entity_f1 is undefined on empty inputs"):
            entity_f1([], [])

    def test_per_category_breakdown(self):
        gold = [["B-LOC", "O", "B-PER"]]
        pred = [["B-LOC", "O", "O"]]
        score = entity_f1(gold, pred)
        assert score.per_category["LOC"].f1 == 1.0
        assert score.per_category["PER"].f1 == 0.0
        assert score.per_category["PER"].support == 1

    @staticmethod
    def random_corpus(rng, items):
        gold, pred = [], []
        for _ in range(items):
            n = int(rng.integers(0, 12))
            gold.append([TAGS[i] for i in rng.integers(0, len(TAGS), n)])
            pred.append([TAGS[i] for i in rng.integers(0, len(TAGS), n)])
        return gold, pred

    def test_matches_brute_force_on_random_corpora(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            gold, pred = self.random_corpus(rng, items=int(rng.integers(1, 6)))
            score = entity_f1(gold, pred)
            assert (score.precision, score.recall, score.f1) == brute_force_score(gold, pred)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            gold, pred = self.random_corpus(rng, items=3)
            fwd = entity_f1(gold, pred)
            rev = entity_f1(pred, gold)
            assert fwd.precision == rev.recall
            assert fwd.recall == rev.precision
            assert fwd.f1 == rev.f1


class TestRendering:
    def test_eval_report_table_and_records(self):
        report = f1_report(["a", "b"], ["a", "b"], ["a", "b"])
        table = format_eval_report(report)
        assert "accuracy" in table and "weighted f1" in table and "note:" in table
        records = eval_report_records(report)
        assert records[-1]["macro_f1"] == 1.0
        assert "note" in records[-1]

    def test_entity_score_table_and_records(self):
        score = entity_f1([["B-LOC"]], [["B-LOC"]])
        table = format_entity_score(score)
        assert "LOC" in table and "ALL" in table
        records = entity_score_records(score)
        assert records[-1]["category"] == "__all__"
        assert records[-1]["f1"] == 1.0

    def test_tables_and_records_are_pinned(self):
        # the text and records the two renderers wrote before they shared a helper
        report = f1_report(
            ["pos", "neg", "pos", "neutral-long"],
            ["pos", "pos", "neg", "neutral-long"],
            ["pos", "neg", "neutral-long", "x"],
        )
        assert format_eval_report(report).splitlines() == [
            "class         precision     recall         f1  support",
            "------------------------------------------------------",
            "pos              0.5000     0.5000     0.5000        2",
            "neg              0.0000     0.0000     0.0000        1",
            "neutral-long     1.0000     1.0000     1.0000        1",
            "x                0.0000     0.0000     0.0000        0",
            "------------------------------------------------------",
            "accuracy    0.5000",
            "macro f1    0.3750",
            "weighted f1 0.5000",
            f"note: {AVERAGING_NOTE}",
        ]
        assert eval_report_records(report)[:-1] == [
            {"class": "pos", "precision": 0.5, "recall": 0.5, "f1": 0.5, "support": 2},
            {"class": "neg", "precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 1},
            {"class": "neutral-long", "precision": 1.0, "recall": 1.0, "f1": 1.0, "support": 1},
            {"class": "x", "precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 0},
        ]
        score = entity_f1(
            [["B-PER", "I-PER", "O", "B-LOC"], ["B-ORGANIZATION", "O"]],
            [["B-PER", "O", "O", "B-LOC"], ["B-ORGANIZATION", "B-LOC"]],
        )
        assert format_entity_score(score).splitlines() == [
            "category      precision     recall         f1  support",
            "------------------------------------------------------",
            "LOC              0.5000     1.0000     0.6667        1",
            "ORGANIZATION     1.0000     1.0000     1.0000        1",
            "PER              0.0000     0.0000     0.0000        1",
            "ALL              0.5000     0.6667     0.5714         ",
            "note: exact-match micro-averaged entity scoring",
        ]
        assert entity_score_records(score) == [
            {"category": "LOC", "precision": 0.5, "recall": 1.0, "f1": 2 / 3, "support": 1},
            {"category": "ORGANIZATION", "precision": 1.0, "recall": 1.0, "f1": 1.0, "support": 1},
            {"category": "PER", "precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 1},
            {"category": "__all__", "precision": 0.5, "recall": 2 / 3, "f1": 0.5714285714285715},
        ]
        empty = entity_f1([["O"]], [["O"]])
        assert format_entity_score(empty).splitlines()[2] == (
            "ALL          1.0000     1.0000     1.0000         "
        )
        assert entity_score_records(empty) == [
            {"category": "__all__", "precision": 1.0, "recall": 1.0, "f1": 1.0}
        ]

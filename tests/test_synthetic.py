"""Generator tests: construction guarantees, determinism, pinned bytes,
and pipeline fit."""

import hashlib
import json
import re
from bisect import bisect_right

import numpy as np
import pytest

from farsilm.errors import ConfigError
from farsilm.metrics import extract_entities
from farsilm.segmenter import SegmenterConfig, segment_by_notation, segment_true
from farsilm.synthetic import (
    ABBREVIATIONS,
    CLASS_MARKERS,
    ORG_NAMES,
    PERSON_NAMES,
    PLACE_NAMES,
    classification_labels,
    generate_classification,
    generate_mlm_corpus,
    generate_ner,
    generate_round_trip_sentences,
    lexicon,
    ner_tag_inventory,
    theme_words,
)
from farsilm.synthetic import _ENTITY_COUNT_CDF, _SHARED_WORDS, _TOPICS, _tables
from farsilm.textnorm import ZWNJ, normalize
from farsilm.wordpiece import TokenizerTrainConfig, decode, encode, train_wordpiece

BOUNDARIES = set("؟?!.:")


class TestLexicon:
    def test_size_and_uniqueness(self):
        words = lexicon()
        assert len(words) == len(set(words)) == 532

    def test_holds_zwnj_compounds(self):
        assert sum(1 for w in lexicon() if ZWNJ in w) == 8

    def test_dictionary_words_stay_out_of_the_lexicon(self):
        words = set(lexicon())
        outsiders = set(CLASS_MARKERS) | set(PERSON_NAMES) | set(PLACE_NAMES)
        for entry in ORG_NAMES:
            outsiders |= set(entry)
        assert not (words & outsiders)
        # the guarantee is structural: every outsider uses a letter that no
        # syllable word can contain
        alphabet = set("".join(words))
        assert all(set(word) - alphabet for word in outsiders)

    def test_theme_vocabulary_is_reserved(self):
        themes = theme_words()
        assert len(themes) == len(set(themes)) == 16
        alphabet = set("".join(lexicon()))
        outsiders = set(CLASS_MARKERS) | set(PERSON_NAMES) | set(PLACE_NAMES)
        for entry in ORG_NAMES:
            outsiders |= set(entry)
        words = set(lexicon())
        for theme in themes:
            # the consonants are letters no syllable word contains, so a
            # theme is always a plant, never a random draw
            assert set(theme) - alphabet
            assert theme not in outsiders and theme not in words


class TestMlmCorpus:
    def test_deterministic_by_seed(self):
        assert generate_mlm_corpus(5, 20) == generate_mlm_corpus(5, 20)
        assert generate_mlm_corpus(5, 20) != generate_mlm_corpus(6, 20)

    def test_shapes_and_terminals(self):
        docs = generate_mlm_corpus(1, 40)
        assert len(docs) == 40
        for doc in docs:
            assert 4 <= len(doc.sentences) <= 9
            for sentence in doc.sentences:
                assert sentence[-1] in BOUNDARIES
                assert len(sentence.split()) >= 4

    def test_planted_tokens_never_sentence_final(self):
        docs = generate_mlm_corpus(2, 120)
        planted = set(ABBREVIATIONS)
        for doc in docs:
            for sentence in doc.sentences:
                words = sentence.split()
                final = words[-1]
                assert final not in planted
                assert not re.match(r"^[۰-۹]", final)

    def test_abbreviation_flag_is_accurate(self):
        docs = generate_mlm_corpus(3, 120)
        for doc in docs:
            present = any(a in doc.text for a in ABBREVIATIONS)
            assert present == doc.has_abbreviation
        assert any(d.has_abbreviation for d in docs)
        assert any(not d.has_abbreviation for d in docs)

    def test_every_sentence_carries_the_document_theme_three_times(self):
        themes = set(theme_words())
        seen = set()
        for doc in generate_mlm_corpus(7, 80):
            doc_themes = set()
            for sentence in doc.sentences:
                words = [w.rstrip("؟!.") for w in sentence.split()]
                carried = [w for w in words if w in themes]
                assert len(carried) == 3
                assert len(set(carried)) == 1
                doc_themes.add(carried[0])
            assert len(doc_themes) == 1
            seen |= doc_themes
        assert len(seen) > 8

    def test_segmenter_recovers_planted_sentences(self):
        config = SegmenterConfig()
        for doc in generate_mlm_corpus(4, 60):
            got = tuple(s.text for s in segment_true(doc.text, config, doc_id=doc.doc_id))
            assert got == doc.sentences

    def test_notation_oversplits_abbreviation_documents(self):
        config = SegmenterConfig()
        docs = [d for d in generate_mlm_corpus(5, 80) if d.has_abbreviation]
        assert docs
        for doc in docs:
            assert len(segment_by_notation(doc.text, config, doc_id=doc.doc_id)) > len(
                doc.sentences
            )

    def test_normalization_is_identity_on_generated_text(self):
        for doc in generate_mlm_corpus(6, 30):
            assert normalize(doc.text) == doc.text

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            generate_mlm_corpus(1, 0)


class TestRoundTripSentences:
    def test_deterministic(self):
        assert generate_round_trip_sentences(7, 50) == generate_round_trip_sentences(7, 50)

    def test_tokenizer_round_trip_holds(self):
        docs = generate_mlm_corpus(1, 150)
        tokenizer = train_wordpiece(
            [s for d in docs for s in d.sentences],
            TokenizerTrainConfig(vocab_size=600, min_frequency=3, alphabet_limit=1500),
        )
        for sentence in generate_round_trip_sentences(8, 300):
            collapsed = re.sub(r"\s+", " ", sentence).strip()
            assert decode(tokenizer, encode(tokenizer, sentence)) == collapsed

    def test_rejects_zero_count(self):
        with pytest.raises(ConfigError):
            generate_round_trip_sentences(1, 0)


class TestClassification:
    def test_counts_and_label_coverage(self):
        items = generate_classification(1, 250, n_classes=2)
        assert len(items) == 250
        assert {i.label for i in items} == set(classification_labels(2))

    def test_marker_determines_label_everywhere(self):
        items = generate_classification(1, 250, n_classes=3)
        labels = classification_labels(3)
        for item in items:
            words = set(item.text.split())
            cls = labels.index(item.label)
            assert CLASS_MARKERS[cls] in words
            for other in range(3):
                if other != cls:
                    assert CLASS_MARKERS[other] not in words

    def test_deterministic(self):
        assert generate_classification(9, 40) == generate_classification(9, 40)

    def test_size_minimums(self):
        with pytest.raises(ConfigError, match="at least 2"):
            generate_classification(1, 10, n_classes=1)
        with pytest.raises(ConfigError, match="at most"):
            generate_classification(1, 100, n_classes=99)
        with pytest.raises(ConfigError, match="every class"):
            generate_classification(1, 1, n_classes=2)


class TestNer:
    def test_tags_are_valid_iob_and_length_matched(self):
        inventory = set(ner_tag_inventory())
        for seq in generate_ner(1, 200):
            assert len(seq.tokens) == len(seq.tags)
            assert set(seq.tags) <= inventory
            for prev, tag in zip(("O",) + tuple(seq.tags), seq.tags):
                if tag.startswith("I-"):
                    assert prev in ("B" + tag[1:], tag), seq.tags

    def test_entities_come_from_the_dictionaries(self):
        entries = {("PER", (n,)) for n in PERSON_NAMES}
        entries |= {("LOC", (n,)) for n in PLACE_NAMES}
        entries |= {("ORG", tuple(e)) for e in ORG_NAMES}
        found = set()
        for seq in generate_ner(2, 300):
            for span in extract_entities(list(seq.tags)):
                words = tuple(seq.tokens[span.start : span.end + 1])
                assert (span.category, words) in entries
                found.add(span.category)
        assert found == {"PER", "LOC", "ORG"}

    def test_non_entity_tokens_are_plain_lexicon_words(self):
        outsiders = set(PERSON_NAMES) | set(PLACE_NAMES)
        for entry in ORG_NAMES:
            outsiders |= set(entry)
        for seq in generate_ner(3, 150):
            for token, tag in zip(seq.tokens, seq.tags):
                if tag == "O":
                    assert token not in outsiders

    def test_deterministic(self):
        assert generate_ner(4, 60) == generate_ner(4, 60)

    def test_rejects_zero_count(self):
        with pytest.raises(ConfigError):
            generate_ner(1, 0)


def _digest(rows) -> str:
    blob = json.dumps(rows, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _proper_words() -> set[str]:
    words = set(PERSON_NAMES) | set(PLACE_NAMES) | set(CLASS_MARKERS)
    for entry in ORG_NAMES:
        words |= set(entry)
    return words


class TestPinnedBytes:
    """Generator output by hash: a change in any draw, or in their order,
    moves it. The sizes are large enough that every entity count and the
    proper-noun injection occur."""

    @pytest.mark.parametrize("seed, n_classes, digest", [
        (4, 2, "d8d3423549e98784d210591c05fd03b211b8cc7795f7c8fa3a073b15364b786b"),
        (11, 8, "b257fffa7a1d7aac92f88a4e4ae39b7e18f77e78d859ef3fed36845c40f12b01"),
    ])
    def test_classification(self, seed, n_classes, digest):
        items = generate_classification(seed, 240, n_classes)
        assert _digest([[item.text, item.label] for item in items]) == digest

    @pytest.mark.parametrize("seed, digest", [
        (4, "86b84a90b39d24d6c9da77944208c0b33cb94c1ffe59d78edaa3b62e062a599e"),
        (11, "2104c0adcf6306e00fa03a27bf361b59bb046ceaa1844e9276edaa77af07f8cb"),
    ])
    def test_ner(self, seed, digest):
        sequences = generate_ner(seed, 300)
        counts = {sum(tag.startswith("B-") for tag in seq.tags) for seq in sequences}
        assert counts == {0, 1, 2}
        assert _digest([[list(seq.tokens), list(seq.tags)] for seq in sequences]) == digest

    @pytest.mark.parametrize("seed, digest", [
        (4, "c2d5d74bd7e7025502d75b79ed640357067cf8e933e5aa974fc8d6b83b00ba20"),
        (11, "308650d47c8221164e44c385b200085805934ca9172bfb63d0f43a3640506e23"),
    ])
    def test_round_trip_sentences(self, seed, digest):
        assert _digest(generate_round_trip_sentences(seed, 300)) == digest

    @pytest.mark.parametrize("seed, digest", [
        (4, "dcf7707dc3425ee393ea55f6a57a482875da56db29680c2b26a5ef74dcbf2579"),
        (11, "e0c606d9b3cd01b86947710217b77b83388021c743ed8f567fc736fed0722abe"),
    ])
    def test_mlm_corpus(self, seed, digest):
        docs = generate_mlm_corpus(seed, 150)
        proper = _proper_words()
        injected = [
            word for doc in docs for sentence in doc.sentences
            for word in sentence.split() if word.rstrip("".join(BOUNDARIES)) in proper
        ]
        assert injected
        rows = [
            [doc.doc_id, doc.topic, list(doc.sentences), doc.has_abbreviation, doc.has_decimal]
            for doc in docs
        ]
        assert _digest(rows) == digest


def _numpy_tables():
    """The cumulative word tables as NumPy arrays, built as the generator
    built them when it drew with np.searchsorted."""
    weights = 1.0 / (np.arange(len(lexicon())) + 2.0)
    shared = np.cumsum(weights[:_SHARED_WORDS])
    shared /= shared[-1]
    topics = []
    for topic in range(_TOPICS):
        members = [i for i in range(_SHARED_WORDS, len(weights)) if i % _TOPICS == topic]
        cum = np.cumsum(weights[members])
        topics.append(cum / cum[-1])
    return [shared] + topics


class TestSamplerEquivalence:
    """A word draw bisects one rng.random() into a list table; it must pick
    what np.searchsorted(..., side="right") picks on the array table."""

    def test_list_tables_hold_the_array_tables_floats(self):
        _, shared_cum, _, topic_cums, _ = _tables()
        for got, want in zip([shared_cum] + list(topic_cums), _numpy_tables(), strict=True):
            assert isinstance(got, list)
            assert np.array_equal(np.array(got), want)

    def test_bisect_matches_searchsorted_at_the_edges(self):
        _, shared_cum, _, topic_cums, _ = _tables()
        largest_below_one = float(np.nextafter(1.0, 0.0))
        for table, array in zip([shared_cum] + list(topic_cums), _numpy_tables(), strict=True):
            for u in [0.0, largest_below_one, *table]:
                assert bisect_right(table, u) == int(np.searchsorted(array, u, side="right"))

    def test_entity_count_draw_matches_rng_choice(self):
        ours, theirs = np.random.default_rng(19), np.random.default_rng(19)
        for _ in range(10_000):
            got = bisect_right(_ENTITY_COUNT_CDF, ours.random())
            assert got == int(theirs.choice([0, 1, 2], p=[0.2, 0.55, 0.25]))
        assert ours.bit_generator.state == theirs.bit_generator.state

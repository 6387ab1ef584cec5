"""Generator tests: construction guarantees, determinism, and pipeline fit."""

import re

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

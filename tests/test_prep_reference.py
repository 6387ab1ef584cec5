"""Normalization, segmentation, word counting and example building are
held to their earlier implementations in ``prep_reference``: equal
outputs, and equal generator state after every call that draws from a
generator it is given or makes with ``default_rng``."""

import sys
from contextlib import contextmanager
from unittest import mock

import numpy as np
import prep_reference as ref
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from farsilm.pretrain_data import (
    ExampleTable,
    MaskingPolicy,
    PackingConfig,
    PretrainExample,
    apply_mlm_mask,
    assemble_input,
    build_nsp_pairs,
    build_pretrain_examples,
    mask_examples,
    pack_pairs,
)
from farsilm.segmenter import (
    BOUNDARY_CHARS,
    DEFAULT_ABBREVIATIONS,
    SegmenterConfig,
    _letter_runs,
    _suppressed_positions,
    segment_by_notation,
    segment_true,
)
from farsilm.synthetic import generate_mlm_corpus
from farsilm.textnorm import DEFAULT_RULES, ZWNJ, clean_junk, normalize, standardize_chars
from farsilm.wordpiece import (
    SPECIAL_TOKENS,
    TokenizerTrainConfig,
    WordPieceModel,
    _word_counts,
    train_wordpiece,
)
from perfbench.junk import junk_corpus

TATWEEL = "ـ"
# all 29 characters str.isspace accepts, \x1c-\x1f, \x85, U+2028 and U+2029 among them
WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
# every char_map key, every strip mark, ZWNJ and tatweel, every kind of
# whitespace and runs of it, the boundary characters, digits that pass
# str.isdigit without being decimal, abbreviations, letter-dot runs and junk
PIECES = (
    [chr(c) for c in sorted(DEFAULT_RULES.char_map)]
    + [chr(c) for c in sorted(DEFAULT_RULES.strip_marks)]
    + [ZWNJ, ZWNJ * 2, TATWEEL]
    + WHITESPACE
    + ["  ", "\t\n", " \u3000"]
    + sorted(BOUNDARY_CHARS)
    + ["²", "³", "①", "۵", "٣", "7"]
    + sorted(DEFAULT_ABBREVIATIONS)
    + ["U.S.", "a.b.", "۳.۵", "3:45", "²:³", "².³"]
    + ["سلام", "کتاب", "خانه", "word", "x", "q", "«", "»", "-"]
    + ["<b>", "</div>", "<!--x-->", "http://مثال.ir/a", "www.example.com", "user@mail.co"]
    + ["​", "‍", "\x00", "\x7f", "😊", "☀"]
    # the literals clean_junk checks for before it runs a pattern, on their
    # own, and junk that a mark splits until the first pass strips it
    + ["@", "<", ">", "/", "//", "w", "www", "http:"]
    + ["us\u064ber@mail.co", "h\u064bttp://x.ir"]
)

texts = st.lists(st.sampled_from(PIECES), max_size=40).map("".join)

# abbreviations at the string edges, touching boundaries and digits
EDGE_CASES = [
    "ق.م.",
    "ق.م. سال ۵۰",
    "سال ۵۰ ق.م.",
    "².³ و ۱:۲ و 1.",
    ":" + ZWNJ + "ب",
    ZWNJ + " " + ZWNJ,
]

# letters, dots, digits, ZWNJ, NBSP and line breaks, for the letter-run scan
LETTER_RUN_PIECES = ["a", "Z", "ق", "م", "é", ".", "..", "7", "۵", "_", ZWNJ, "\xa0", " ",
                     "\n", "\r\n", "\u2028", "\t", "-"]

SEGMENTER_CONFIGS = {
    "default": SegmenterConfig(),
    "min-1": SegmenterConfig(min_tokens=1),
    "custom": SegmenterConfig(min_tokens=2),
}


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # the reference must raise the same
        return "raised", type(exc), str(exc)


class TestNormalization:
    @given(texts)
    @settings(max_examples=300)
    @example(":" + ZWNJ + "ب")
    @example(ZWNJ + " " + ZWNJ)
    def test_default_rules(self, text):
        assert clean_junk(text) == ref.clean_junk(text, DEFAULT_RULES)
        assert standardize_chars(text) == ref.standardize_chars(text, DEFAULT_RULES)
        assert normalize(text) == ref.normalize(text, DEFAULT_RULES)

    def test_zwnj_from_the_char_map_is_tidied(self):
        # deleting tatweel and marks joins ZWNJ runs and brings ZWNJ to word edges
        text = "a" + ZWNJ + TATWEEL + "ً" + ZWNJ + "b " + TATWEEL + ZWNJ + "c" + ZWNJ + "ـ"
        assert standardize_chars(text) == "a" + ZWNJ + "b c"
        assert standardize_chars(text) == ref.standardize_chars(text, DEFAULT_RULES)


class TestSegmentation:
    @pytest.mark.parametrize("name", sorted(SEGMENTER_CONFIGS))
    @given(text=texts)
    @settings(max_examples=200)
    def test_matches_reference(self, name, text):
        self._check(SEGMENTER_CONFIGS[name], text)

    @pytest.mark.parametrize("text", EDGE_CASES)
    @pytest.mark.parametrize("name", sorted(SEGMENTER_CONFIGS))
    def test_edge_cases(self, name, text):
        self._check(SEGMENTER_CONFIGS[name], text)

    @given(st.lists(st.sampled_from(LETTER_RUN_PIECES), max_size=30).map("".join))
    @settings(max_examples=500)
    # runs at a string edge, after a space, in a word, cut short, and after
    # NBSP, a line separator, an ideographic space and ZWNJ (no word start)
    @example(" a.b. x")
    @example("ق.م.")
    @example("U.S.")
    @example("xa.b.")
    @example("a.b.c")
    @example("\xa0a.b.")
    @example("x\u2028ق.م. y")
    @example("\u3000U.S.")
    @example(ZWNJ + "a.b.")
    def test_letter_runs_match_reference(self, text):
        # the spans _suppressed_positions marks, not the pattern's own matches
        assert _letter_runs(text) == [match.span() for match in ref._LETTER_RUN.finditer(text)]

    @staticmethod
    def _check(config, text):
        assert _suppressed_positions(text) == ref.suppressed_positions(text)
        for new, old in (
            (segment_true, ref.segment_true),
            (segment_by_notation, ref.segment_by_notation),
        ):
            assert outcome(new, text, config, "d") == outcome(old, text, config, "d")


@given(st.lists(texts, max_size=12))
@settings(max_examples=200)
def test_word_counts_and_their_order(sentences):
    assert list(_word_counts(sentences).items()) == list(ref.word_counts(sentences).items())


LETTERS = list("abcdefghij")
VOCAB = tuple(SPECIAL_TOKENS) + tuple(LETTERS) + ("##a", "##b")
MODEL = WordPieceModel(vocab=VOCAB, token_to_id={t: i for i, t in enumerate(VOCAB)})


@contextmanager
def generators_made():
    """The bit generator of every generator ``np.random.default_rng`` makes
    inside the block. Masking makes none: it draws from Philox by counter,
    one generator per block of rows, and is held to the reference by its
    bytes."""
    made = []
    default_rng = np.random.default_rng

    def record(seed):
        made.append(default_rng(seed).bit_generator)
        return np.random.Generator(made[-1])

    with mock.patch.object(np.random, "default_rng", record):
        yield made


def _states(bit_generators):
    return [b.state for b in bit_generators]


def _composed(documents, model, packing, policy):
    """build_pretrain_examples through the public per-example assembly and
    masking calls, each example masked from a fresh generator over its
    stream."""
    pairs = build_nsp_pairs(documents, np.random.default_rng((packing.rng_seed, 0)))
    return [
        apply_mlm_mask(
            assemble_input(pair, model, packing),
            model,
            policy,
            ref.masking_generator(packing.rng_seed, idx, packing.max_len),
        )
        for idx, pair in enumerate(pairs)
    ]


def _check_build(documents, model, packing, policy=MaskingPolicy()):
    with generators_made() as made:
        got = outcome(build_pretrain_examples, documents, model, packing, policy)
    with generators_made() as made_ref:
        want = outcome(ref.build_pretrain_examples, documents, model, packing, policy)
    with generators_made() as made_composed:
        composed = outcome(_composed, documents, model, packing, policy)
    assert got == want == composed
    assert _states(made) == _states(made_ref) == _states(made_composed)
    return got


# words of letters, with a chance of [UNK] from a letter outside the vocab
words = st.text(alphabet="abcdefghijz", min_size=1, max_size=4)
sentences = st.lists(words, min_size=1, max_size=12).map(" ".join)
documents = st.lists(st.lists(sentences, min_size=1, max_size=5), min_size=1, max_size=5).filter(
    lambda docs: sum(len(d) for d in docs) >= 2 and any(len(d) >= 2 for d in docs)
)


class TestExampleBuilding:
    @given(documents, st.integers(8, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_and_composition(self, docs, max_len, seed):
        _check_build(docs, MODEL, PackingConfig(max_len=max_len, rng_seed=seed))

    @given(
        st.lists(st.sampled_from(range(len(VOCAB))), min_size=8, max_size=24),
        st.data(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200)
    def test_mask_on_any_attention_pattern(self, ids, data, seed):
        # attention holes and special tokens anywhere, which packing never makes
        n = len(ids)
        attention = data.draw(st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n))
        unmasked = PretrainExample(
            input_ids=tuple(ids),
            segment_ids=(0,) * n,
            attention_mask=tuple(attention),
            mlm_labels=(-100,) * n,
            nsp_label=1,
        )
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = apply_mlm_mask(unmasked, MODEL, MaskingPolicy(), rng)
        assert got == ref.apply_mlm_mask(unmasked, MODEL, MaskingPolicy(), rng_ref)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


def _check_mask_stage(table, seed):
    """mask_examples against the reference masking each row with a fresh
    generator over its stream, ``ref.masking_generator(seed, row, L)``."""
    got = mask_examples(table, MODEL, seed)
    want = [
        ref.apply_mlm_mask(
            ex, MODEL, MaskingPolicy(), ref.masking_generator(seed, i, table.max_len))
        for i, ex in enumerate(table)
    ]
    assert got == want
    return got


# both sides longer than 8 tokens, so max_len 8 truncates A and B
LONG = "a b c d e f g h i j", "j i h g f e d c b a"
# a row without candidates: specials only, or real tokens under no attention
NO_CANDIDATES = [
    PretrainExample((2, 4, 3, 0), (0, 0, 0, 0), (1, 1, 1, 0), (-100,) * 4, 1),
    PretrainExample((2, 9, 10, 11), (0, 0, 0, 0), (1, 0, 0, 0), (-100,) * 4, 0),
]
# 30 and 70 candidates: 15% is 4.5 and 10.5, which round half up to 5 and 11
HALF_WAY = [
    PretrainExample(
        tuple(len(SPECIAL_TOKENS) + i % len(LETTERS) for i in range(70)), (0,) * 70,
        (1,) * n + (0,) * (70 - n), (-100,) * 70, 1,
    )
    for n in (30, 70)
]


class TestStages:
    @given(st.lists(st.tuples(sentences, sentences, st.sampled_from((0, 1))), max_size=8),
           st.integers(8, 40))
    @example([(*LONG, 1)], 8)
    @settings(max_examples=150, deadline=None)
    def test_pack_pairs_matches_reference(self, pairs, max_len):
        packing = PackingConfig(max_len=max_len)
        got = outcome(pack_pairs, pairs, MODEL, packing)
        want = outcome(lambda: [ref.assemble_input(pair, MODEL, packing) for pair in pairs])
        assert got == want

    @given(
        st.integers(1, 24).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.lists(st.sampled_from(range(len(VOCAB))), min_size=n, max_size=n),
                    st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n),
                    # labels already set, which a masked row's labels replace
                    st.lists(st.sampled_from((-100, -100, 5, 12)), min_size=n, max_size=n),
                ),
                max_size=6,
            )
        ),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_mask_examples_on_any_attention_pattern(self, rows, seed):
        table = ExampleTable.of(
            [PretrainExample(tuple(ids), (0,) * len(ids), tuple(attention), tuple(labels), 1)
             for ids, attention, labels in rows]
        )
        _check_mask_stage(table, seed)

    @pytest.mark.parametrize("seed", [0, 611, 2**32 - 1])
    @pytest.mark.parametrize("rows", ["truncated", "half-way", "no-candidates", "empty"])
    def test_mask_examples_on_edge_tables(self, rows, seed):
        if rows == "truncated":
            packing = PackingConfig(max_len=8, rng_seed=seed)
            table = pack_pairs([(*LONG, 1), (LONG[1], LONG[0], 0)], MODEL, packing)
            assert table.columns["attention_mask"].all()
        else:
            table = ExampleTable.of({"half-way": HALF_WAY, "no-candidates": NO_CANDIDATES,
                                     "empty": []}[rows])
        got = _check_mask_stage(table, seed)
        if rows == "half-way":
            assert (got.columns["mlm_labels"] != -100).sum(axis=1).tolist() == [5, 11]
        elif rows != "truncated":
            assert got == table


_JUNK = (
    ["<b>", "</div>", "<!-- x -->", "<span dir='rtl'>", "https://example.com/a?b=1"]
    + ["www.example.ir/page", "user.name@example.com", "usـer@mail.com", "😀", "⚡"]
    + ["​", "‎", "\x00", "\t", "  ", ZWNJ, "ي", "ك", "ة", "١٢", "456", "ً", "ّ", TATWEEL]
)


def _junk_corpus(seed, n_docs):
    """Synthetic documents with junk pieces planted between their words."""
    rng = np.random.default_rng((seed, 99))
    corpus = []
    for doc in generate_mlm_corpus(seed, n_docs):
        words = doc.text.split(" ")
        for _ in range(int(rng.integers(1, 8))):
            piece = _JUNK[int(rng.integers(0, len(_JUNK)))]
            words.insert(int(rng.integers(0, len(words) + 1)), piece)
        corpus.append(" ".join(words))
    return corpus


@pytest.mark.parametrize("seed", [611, 7012])
def test_benchmark_junk_corpus_normalizes_and_segments_as_the_reference(seed):
    """The prep benchmark's own generator, on which the text layers are timed."""
    config = SegmenterConfig()
    for doc in junk_corpus(seed, 300):
        text = normalize(doc.raw)
        assert text == ref.normalize(doc.raw, DEFAULT_RULES)
        for case in (text, doc.raw):
            assert _suppressed_positions(case) == ref.suppressed_positions(case)
            assert outcome(segment_true, case) == outcome(ref.segment_true, case, config)


@pytest.mark.parametrize("seed", [3, 17, 401])
def test_junk_corpus_through_every_step(seed):
    raw = _junk_corpus(seed, 40)
    texts = [normalize(text) for text in raw]
    assert texts == [ref.normalize(text, DEFAULT_RULES) for text in raw]
    config = SegmenterConfig()
    per_doc = []
    for text in texts:
        assert _suppressed_positions(text) == ref.suppressed_positions(text)
        assert segment_by_notation(text) == ref.segment_by_notation(text, config)
        sentences = segment_true(text)
        assert sentences == ref.segment_true(text, config)
        per_doc.append([s.text for s in sentences])
    flat = [s for doc in per_doc for s in doc]
    assert list(_word_counts(flat).items()) == list(ref.word_counts(flat).items())
    model = train_wordpiece(flat, TokenizerTrainConfig(vocab_size=300, min_frequency=1))
    for max_len in (16, 64):
        packing = PackingConfig(max_len=max_len, rng_seed=seed)
        assert _check_build(per_doc, model, packing)[0] == "returned"

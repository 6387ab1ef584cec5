import hashlib
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from farsilm.errors import ConfigError, DataError
from farsilm.pretrain_data import PackingConfig, assemble_input
from farsilm.synthetic import generate_mlm_corpus
from farsilm.wordpiece import (
    CLS,
    CONTINUATION_PREFIX,
    MASK,
    MAX_WORD_CHARS,
    PAD,
    SEP,
    SPECIAL_TOKENS,
    UNK,
    TokenizerTrainConfig,
    WordPieceModel,
    decode,
    encode,
    encode_to_pieces,
    load_vocab,
    pretokenize,
    save_vocab,
    train_wordpiece,
)
from farsilm.wordpiece import _apply_merge, _decompose, _MergeCounts, _strip_prefix


def model_from(tokens):
    vocab = tuple(SPECIAL_TOKENS) + tuple(tokens)
    return WordPieceModel(
        vocab=vocab, token_to_id={t: i for i, t in enumerate(vocab)}
    )


class TestPretokenize:
    def test_whitespace_split(self):
        assert pretokenize("سلام دنیا") == ["سلام", "دنیا"]

    def test_punctuation_isolated(self):
        assert pretokenize("رفت.") == ["رفت", "."]
        assert pretokenize("(سلام)") == ["(", "سلام", ")"]
        assert pretokenize("چرا؟!") == ["چرا", "؟", "!"]

    def test_zwnj_kept_word_internal(self):
        assert pretokenize("می‌روم و") == ["می‌روم", "و"]

    def test_empty(self):
        assert pretokenize("") == []
        assert pretokenize("   ") == []


def reference_train(sentences, config):
    """train_wordpiece's vocab as it was computed before merge counts were
    kept up to date: every piece and pair recounted on every merge."""
    word_freq = Counter()
    for sentence in sentences:
        word_freq.update(pretokenize(sentence))
    if not word_freq:
        raise DataError("training corpus is empty")

    char_freq = Counter()
    for word, freq in word_freq.items():
        for ch in word:
            char_freq[ch] += freq
    ranked = sorted(char_freq.items(), key=lambda item: (-item[1], ord(item[0])))
    alphabet = {ch for ch, _ in ranked[: config.alphabet_limit]}

    prefix = CONTINUATION_PREFIX
    words = Counter()
    initial_chars, continuation_chars = set(), set()
    for word, freq in word_freq.items():
        if any(ch not in alphabet for ch in word):
            continue
        words[_decompose(word)] += freq
        initial_chars.add(word[0])
        continuation_chars.update(word[1:])

    seed_pieces = [ch for ch, _ in ranked[: config.alphabet_limit] if ch in initial_chars]
    seed_pieces += [
        prefix + ch for ch, _ in ranked[: config.alphabet_limit] if ch in continuation_chars
    ]
    needed = len(SPECIAL_TOKENS) + len(seed_pieces)
    if config.vocab_size < needed:
        raise ConfigError(
            f"vocab_size {config.vocab_size} cannot hold {len(SPECIAL_TOKENS)} "
            f"special tokens plus {len(seed_pieces)} alphabet pieces; "
            f"short by {needed - config.vocab_size}"
        )

    vocab = list(SPECIAL_TOKENS) + seed_pieces
    in_vocab = set(vocab)
    while len(vocab) < config.vocab_size:
        piece_freq, pair_freq = Counter(), Counter()
        for pieces, freq in words.items():
            for piece in pieces:
                piece_freq[piece] += freq
            for a, b in zip(pieces, pieces[1:]):
                pair_freq[(a, b)] += freq
        eligible = [
            (pair, freq) for pair, freq in pair_freq.items() if freq >= config.min_frequency
        ]
        if not eligible:
            break

        def rank(item):
            (a, b), freq = item
            score = freq / (piece_freq[a] * piece_freq[b])
            merged = a + _strip_prefix(b)
            return (-score, -freq, _strip_prefix(merged), merged)

        (best_a, best_b), _ = min(eligible, key=rank)
        merged = best_a + _strip_prefix(best_b)
        if merged not in in_vocab:
            vocab.append(merged)
            in_vocab.add(merged)
        words = Counter(
            {_apply_merge(pieces, best_a, best_b, merged): f for pieces, f in words.items()}
        )
    return tuple(vocab)


def training_outcome(train, sentences, config):
    try:
        return train(sentences, config)
    except (ConfigError, DataError) as exc:
        return type(exc), str(exc)


# words over four letters, so pairs repeat and scores tie often; the
# punctuation marks become one-character words
training_corpora = st.lists(
    st.lists(st.text("abcd.", min_size=1, max_size=6), min_size=1, max_size=6).map(" ".join),
    max_size=8,
)


class TestTrainingMatchesRecount:
    @given(training_corpora, st.integers(6, 60), st.integers(1, 4), st.integers(1, 5))
    @example(["ab ab ab"], 100, 3, 1500)  # pair exactly at min_frequency
    @example(["ab ab"], 100, 3, 1500)  # pair one below it
    @example(["aaab"] * 3, 12, 1, 1500)  # score and frequency ties
    @example(["ab ba ab ba"], 100, 1, 1500)  # ties down to the merged string
    @example(["  "], 10, 1, 5)  # empty corpus
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_same_vocab(self, sentences, vocab_size, min_frequency, alphabet_limit):
        config = TokenizerTrainConfig(
            vocab_size=vocab_size, min_frequency=min_frequency, alphabet_limit=alphabet_limit
        )
        got = training_outcome(train_wordpiece, sentences, config)
        if isinstance(got, WordPieceModel):
            got = got.vocab
        assert got == training_outcome(reference_train, sentences, config)

    @pytest.mark.parametrize(
        "words, expected",
        [
            ({("ab", "##c"): 2, ("a", "##bc"): 2}, ("ab", "##c")),
            ({("a", "##bc"): 2, ("ab", "##c"): 2}, ("a", "##bc")),
        ],
    )
    def test_equal_rank_goes_to_first_seen_pair(self, words, expected):
        # both pairs merge to "abc" with frequency 2 and score 2/(2*2);
        # a full recount lists pairs in first-seen word order
        assert _MergeCounts(Counter(words), 1).best() == expected


class TestTraining:
    def test_hand_traced_merge_sequence(self):
        # Oracle: hand-run of the score formula on ["aaab"] x 3.
        # Seeds: a:9 occurrences, b:3. Pair scores round one:
        #   (a,##a)=3/(3*6), (##a,##a)=3/(6*6), (##a,##b)=3/(6*3)
        # tie between (a,##a) and (##a,##b) at 1/6 and frequency 3 ->
        # merged strings "aa" vs "ab" (prefix ignored) -> "aa" first.
        # Round two ties "aaa" vs "ab" -> "aaa"; round three "aaab".
        config = TokenizerTrainConfig(vocab_size=12, min_frequency=3, alphabet_limit=1500)
        model = train_wordpiece(["aaab", "aaab", "aaab"], config)
        assert list(model.vocab) == [
            PAD, UNK, CLS, SEP, MASK,
            "a", "##a", "##b",
            "aa", "aaa", "aaab",
        ]

    def test_vocabulary_pinned(self):
        """A trained vocabulary by hash: a change in any merge, or in their
        order, moves it."""
        docs = generate_mlm_corpus(7, 300)
        model = train_wordpiece(
            [s for d in docs for s in d.sentences],
            TokenizerTrainConfig(vocab_size=800, min_frequency=2),
        )
        assert hashlib.sha256("\n".join(model.vocab).encode("utf-8")).hexdigest() == (
            "0591864dc43745476356942f14cd21851a4a100b4be1772cb051baa9ba12af3d"
        )

    def test_no_frequent_pair_keeps_alphabet_only(self):
        config = TokenizerTrainConfig(vocab_size=100, min_frequency=3)
        model = train_wordpiece(["ab", "cd"], config)
        assert list(model.vocab) == [PAD, UNK, CLS, SEP, MASK, "a", "c", "##b", "##d"]

    def test_min_frequency_boundary(self):
        config = TokenizerTrainConfig(vocab_size=100, min_frequency=3)
        merged = train_wordpiece(["ab"] * 3, config)
        assert "ab" in merged.vocab
        unmerged = train_wordpiece(["ab"] * 2, config)
        assert "ab" not in unmerged.vocab

    def test_score_prefers_rare_pieces(self):
        # (c,##d) scores 3/9, (a,##b) scores 4/16; higher score merges first
        config = TokenizerTrainConfig(vocab_size=100, min_frequency=3)
        model = train_wordpiece(["ab"] * 4 + ["cd"] * 3, config)
        assert model.token_to_id["cd"] < model.token_to_id["ab"]

    def test_score_tie_broken_by_pair_frequency(self):
        # both pairs score 0.25; (b,##a) is twice as frequent and wins
        # even though "ab" sorts before "ba"
        config = TokenizerTrainConfig(vocab_size=100, min_frequency=1)
        model = train_wordpiece(["ba"] * 4 + ["ab"] * 2 + ["a"] * 2, config)
        assert model.token_to_id["ba"] < model.token_to_id["ab"]

    def test_full_tie_broken_lexicographically(self):
        config = TokenizerTrainConfig(vocab_size=100, min_frequency=1)
        model = train_wordpiece(["ab", "ba"] * 2, config)
        assert model.token_to_id["ab"] < model.token_to_id["ba"]

    def test_vocab_size_cap_respected(self):
        config = TokenizerTrainConfig(vocab_size=9, min_frequency=1)
        model = train_wordpiece(["aaab"] * 3, config)
        assert len(model.vocab) == 9

    def test_vocab_prefix_monotone_in_vocab_size(self):
        small = train_wordpiece(
            ["aaab"] * 3, TokenizerTrainConfig(vocab_size=10, min_frequency=1)
        )
        large = train_wordpiece(
            ["aaab"] * 3, TokenizerTrainConfig(vocab_size=12, min_frequency=1)
        )
        assert list(large.vocab[: len(small.vocab)]) == list(small.vocab)

    def test_alphabet_limit_by_frequency_then_codepoint(self):
        config = TokenizerTrainConfig(vocab_size=100, min_frequency=3, alphabet_limit=3)
        model = train_wordpiece(["aa bb cc"] * 5 + ["zz"], config)
        assert "z" not in "".join(model.vocab)
        assert encode_to_pieces(model, "zz") == [UNK]

    def test_alphabet_tie_goes_to_smaller_codepoint(self):
        config = TokenizerTrainConfig(vocab_size=100, min_frequency=99, alphabet_limit=1)
        model = train_wordpiece(["b a"], config)
        assert "a" in model.vocab and "b" not in model.vocab

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError, match="empty"):
            train_wordpiece([], TokenizerTrainConfig())
        with pytest.raises(DataError, match="empty"):
            train_wordpiece(["   ", ""], TokenizerTrainConfig())

    def test_vocab_size_deficit_reported(self):
        config = TokenizerTrainConfig(vocab_size=6, min_frequency=1)
        with pytest.raises(ConfigError, match="short by"):
            train_wordpiece(["abcdef"] * 3, config)

    def test_training_is_deterministic(self, tmp_path):
        corpus = ["سلام دنیای بزرگ", "سلام بر دنیا", "دنیای ما بزرگ است"] * 4
        config = TokenizerTrainConfig(vocab_size=60, min_frequency=2)
        first = train_wordpiece(corpus, config)
        second = train_wordpiece(corpus, config)
        assert first.vocab == second.vocab
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_vocab(first, a)
        save_vocab(second, b)
        assert a.read_bytes() == b.read_bytes()


class TestEncode:
    @pytest.mark.parametrize(
        "text, ids",
        [("aaaa bbbb, aa", [5, 6, 6, 6, 7, 8, 8, 8, 1, 5, 6]), ("aaaaaa", [5, 6, 6, 6, 6, 6])],
    )
    def test_truncation_leaves_memo_intact(self, text, ids):
        model = model_from(["a", "##a", "b", "##b"])
        first = encode(model, text)
        example = assemble_input((text, "b", 1), model, PackingConfig(max_len=8))
        assert example.input_ids[1:5] == tuple(ids[:4])  # A was cut to fit
        first.clear()
        assert encode(model, text) == ids

    def test_memo_is_per_model(self):
        text = "ab ab"
        assert encode(model_from(["a", "##b"]), text) == [5, 6, 5, 6]
        assert encode(model_from(["ab"]), text) == [5, 5]

    def test_special_id_tables(self):
        model = model_from(["x", "y"])
        assert model.special_ids == frozenset(range(len(SPECIAL_TOKENS)))
        assert model.non_special_ids == (5, 6)

    def test_greedy_longest_match(self):
        model = model_from(["un", "##aff", "##able", "u", "##n", "##a"])
        assert encode_to_pieces(model, "unaffable") == ["un", "##aff", "##able"]

    def test_unknown_character_yields_unk(self):
        model = model_from(["un"])
        assert encode_to_pieces(model, "unz") == [UNK]

    def test_empty_text(self):
        model = model_from(["a"])
        assert encode(model, "") == []

    def test_word_over_max_chars_is_unk(self):
        model = model_from(["a", "##a"])
        longest = "a" * MAX_WORD_CHARS
        assert encode_to_pieces(model, longest) == ["a"] + ["##a"] * (MAX_WORD_CHARS - 1)
        assert encode_to_pieces(model, longest + "a") == [UNK]

    def test_missing_continuation_form_falls_back_to_unk(self):
        model = model_from(["x"])
        assert encode_to_pieces(model, "x") == ["x"]
        assert encode_to_pieces(model, "xx") == [UNK]

    def test_trained_model_encodes_training_word_whole(self):
        config = TokenizerTrainConfig(vocab_size=12, min_frequency=3)
        model = train_wordpiece(["aaab"] * 3, config)
        assert encode_to_pieces(model, "aaab") == ["aaab"]
        assert encode_to_pieces(model, "aab") == ["aa", "##b"]

    def test_ids_always_in_range(self):
        config = TokenizerTrainConfig(vocab_size=30, min_frequency=1)
        model = train_wordpiece(["ab ba aab"] * 3, config)
        for text in ["ab", "ba ab", "zzz", "a b ab", "", "؟"]:
            for i in encode(model, text):
                assert 0 <= i < len(model.vocab)


class TestDecode:
    def test_glues_continuations(self):
        model = model_from(["un", "##aff", "##able"])
        ids = [model.token_to_id[t] for t in ["un", "##aff", "##able"]]
        assert decode(model, ids) == "unaffable"

    def test_specials_dropped_except_unk(self):
        model = model_from(["hi"])
        ids = [model.token_to_id[CLS], model.token_to_id["hi"], model.token_to_id[SEP]]
        assert decode(model, ids) == "hi"
        assert decode(model, [model.token_to_id[UNK]]) == UNK

    def test_out_of_range_id_named(self):
        model = model_from(["a"])
        with pytest.raises(DataError, match="99"):
            decode(model, [99])
        with pytest.raises(DataError, match="-1"):
            decode(model, [-1])

    def test_round_trip_every_vocab_word(self):
        config = TokenizerTrainConfig(vocab_size=40, min_frequency=1)
        model = train_wordpiece(["سلام دنیا خوب"] * 3, config)
        for word in ["سلام", "دنیا", "خوب"]:
            assert decode(model, encode(model, word)) == word


CORPUS_WORDS = ["سلام", "دنیا", "کتاب", "می‌روم", "خوب", "بزرگ"]


@st.composite
def corpus_sentences(draw):
    words = draw(
        st.lists(st.sampled_from(CORPUS_WORDS + [".", "؟", "!"]), min_size=1, max_size=8)
    )
    return " ".join(words)


class TestRoundTripProperty:
    @classmethod
    def setup_class(cls):
        corpus = [" ".join(CORPUS_WORDS) + " . ؟ !"] * 3
        cls.model = train_wordpiece(
            corpus, TokenizerTrainConfig(vocab_size=400, min_frequency=1)
        )

    @given(corpus_sentences())
    @settings(max_examples=150)
    def test_round_trip_on_in_alphabet_text(self, text):
        ids = encode(self.model, text)
        assert self.model.unk_id not in ids
        assert decode(self.model, ids) == " ".join(text.split())


class TestConfigValidation:
    def test_duplicate_specials_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(SPECIAL_TOKENS + ("a", UNK)) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            load_vocab(path)

    def test_pad_must_lead(self):
        assert SPECIAL_TOKENS[0] == PAD and model_from(["a"]).pad_id == 0
        swapped = (UNK, PAD) + SPECIAL_TOKENS[2:]
        with pytest.raises(DataError, match="special tokens"):
            WordPieceModel(vocab=swapped, token_to_id={t: i for i, t in enumerate(swapped)})

    def test_vocab_size_must_exceed_specials(self):
        with pytest.raises(ConfigError, match="vocab_size"):
            TokenizerTrainConfig(vocab_size=5)

    def test_model_rejects_misplaced_specials(self):
        with pytest.raises(DataError, match="special tokens"):
            WordPieceModel(vocab=("a", PAD), token_to_id={"a": 0, PAD: 1})


class TestVocabFile:
    def test_save_load_round_trip(self, tmp_path):
        config = TokenizerTrainConfig(vocab_size=12, min_frequency=3)
        model = train_wordpiece(["aaab"] * 3, config)
        path = tmp_path / "vocab.txt"
        save_vocab(model, path)
        loaded = load_vocab(path, config)
        assert loaded.vocab == model.vocab
        assert loaded.token_to_id == model.token_to_id

    def test_line_number_is_id(self, tmp_path):
        config = TokenizerTrainConfig(vocab_size=12, min_frequency=3)
        model = train_wordpiece(["aaab"] * 3, config)
        path = tmp_path / "vocab.txt"
        save_vocab(model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[model.token_to_id["aaab"]] == "aaab"
        assert lines[0] == PAD

    def test_lf_endings(self, tmp_path):
        model = model_from(["a"])
        path = tmp_path / "vocab.txt"
        save_vocab(model, path)
        assert b"\r" not in path.read_bytes()

    def test_a_vocabulary_above_the_default_cap_loads(self, tmp_path):
        cap = TokenizerTrainConfig.vocab_size
        tokens = [f"t{i}" for i in range(cap + 1)]
        config = TokenizerTrainConfig(vocab_size=cap + 6)
        vocab = SPECIAL_TOKENS + tuple(tokens)
        model = WordPieceModel(vocab, {t: i for i, t in enumerate(vocab)}, config)
        path = tmp_path / "vocab.txt"
        save_vocab(model, path)
        loaded = load_vocab(path)
        assert len(loaded.vocab) == cap + 6
        assert loaded.vocab == model.vocab

    def test_duplicate_lines_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(SPECIAL_TOKENS + ("a", "a")) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            load_vocab(path)

    @given(
        st.lists(
            st.lists(st.text("abcd.؟سلم\u200c", min_size=1, max_size=6), min_size=1, max_size=6)
            .map(" ".join),
            min_size=1,
            max_size=8,
        ),
        st.integers(30, 80),
        st.integers(1, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_file_alone_reproduces_the_model(self, sentences, vocab_size, min_frequency):
        model = train_wordpiece(
            sentences, TokenizerTrainConfig(vocab_size=vocab_size, min_frequency=min_frequency)
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "vocab.txt"
            save_vocab(model, path)
            loaded = load_vocab(path)
        assert loaded.vocab == model.vocab
        for sentence in sentences:
            ids = encode(model, sentence)
            assert encode(loaded, sentence) == ids
            assert decode(loaded, ids) == decode(model, ids)

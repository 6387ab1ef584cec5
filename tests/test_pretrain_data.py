import hashlib
import json
import struct
import time
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from farsilm.errors import ConfigError, DataError
from farsilm import pretrain_data
from farsilm.lineio import write_container
from farsilm.pretrain_data import (
    IGNORE_INDEX,
    IS_NEXT,
    NOT_NEXT,
    ExampleTable,
    MaskingPolicy,
    PackingConfig,
    PretrainExample,
    apply_mlm_mask,
    assemble_input,
    build_nsp_pairs,
    build_pretrain_examples,
    collate,
    mask_examples,
    pack_pairs,
    read_examples,
    write_examples,
)
from farsilm.synthetic import generate_mlm_corpus
from farsilm.training import _batch_for_step
from farsilm.wordpiece import (
    CLS,
    MASK,
    PAD,
    SEP,
    SPECIAL_TOKENS,
    TokenizerTrainConfig,
    WordPieceModel,
    train_wordpiece,
)
import prep_reference as ref
from mutation import mutate, mutations, split_container


def model_from(tokens):
    vocab = tuple(SPECIAL_TOKENS) + tuple(tokens)
    return WordPieceModel(vocab=vocab, token_to_id={t: i for i, t in enumerate(vocab)})


LETTERS = list("abcdefghijklmnopqrst")
MODEL = model_from(LETTERS)


def sent(letters):
    return " ".join(letters)


class StubRng:
    """Fixed-coin stand-in for a Generator: forces the NSP branch."""

    def __init__(self, coin):
        self.coin = coin

    def random(self):
        return self.coin

    def integers(self, low, high):
        return low


def reference_nsp_pairs(documents, rng):
    """build_nsp_pairs as it was before its pool went arithmetic: the pool
    of candidates is listed in full for every negative, O(n) each."""
    doc_of, flat = [], []
    for d, sentences in enumerate(documents):
        for sentence in sentences:
            doc_of.append(d)
            flat.append(sentence)
    if len(flat) < 2:
        raise DataError("insufficient sentences for NSP")
    pairs = []
    for d, sentences in enumerate(documents):
        for i in range(len(sentences) - 1):
            first, true_next = sentences[i], sentences[i + 1]
            if rng.random() < 0.5:
                pairs.append((first, true_next, IS_NEXT))
                continue
            pool = [j for j in range(len(flat)) if doc_of[j] != d and flat[j] != true_next]
            if not pool:
                pool = [j for j in range(len(flat)) if flat[j] != true_next]
            if not pool:
                raise DataError("no negative candidate distinct from the true next sentence")
            candidate = flat[pool[int(rng.integers(0, len(pool)))]]
            pairs.append((first, candidate, NOT_NEXT))
    return pairs


def outcome(build, documents, seed):
    """Pairs or the DataError message, plus where the generator was left."""
    rng = np.random.default_rng(seed)
    try:
        result = build(documents, rng)
    except DataError as exc:
        result = str(exc)
    return result, rng.bit_generator.state


# few distinct sentences, so duplicates within and across documents are
# the rule; empty and one-sentence documents included
nsp_corpora = st.lists(
    st.lists(st.sampled_from("abcd"), max_size=6), min_size=1, max_size=5
)


class TestNspMatchesFullPool:
    @given(nsp_corpora, st.integers(0, 2**32 - 1))
    @example([["a", "b", "a", "c", "a", "b"]], 0)  # one document: fallback pool
    @example([["a", "a"], ["a"], []], 0)  # every sentence alike: no candidate
    @example([["a", "b"], ["b", "b", "b"], ["c", "b"]], 5)  # others hold only true_next
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_same_pairs_and_draws(self, documents, seed):
        assert outcome(build_nsp_pairs, documents, seed) == outcome(
            reference_nsp_pairs, documents, seed
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_long_document_among_short_ones(self, seed):
        docs = [["a", "b"] * 40 + ["c"], ["b", "a", "d"], ["c"] * 5, ["a", "e"]]
        assert outcome(build_nsp_pairs, docs, seed) == outcome(reference_nsp_pairs, docs, seed)

    def test_scale_is_not_quadratic(self):
        docs = [[f"d{d} s{i}" for i in range(10)] for d in range(2_000)]
        started = time.monotonic()
        pairs = build_nsp_pairs(docs, np.random.default_rng(4))
        elapsed = time.monotonic() - started
        assert len(pairs) == 2_000 * 9
        assert elapsed < 3.0


class TestBuildNspPairs:
    def test_forced_positive_single_pair(self):
        pairs = build_nsp_pairs([["a", "b"]], StubRng(0.0))
        assert pairs == [("a", "b", IS_NEXT)]

    def test_forced_negative_prefers_other_document(self):
        pairs = build_nsp_pairs([["a", "b"], ["c", "d"]], StubRng(0.9))
        first, second = pairs
        assert first[0] == "a" and first[2] == NOT_NEXT and first[1] in {"c", "d"}
        assert second[0] == "c" and second[1] in {"a", "b"}

    def test_single_sentence_rejected(self):
        with pytest.raises(DataError, match="insufficient sentences"):
            build_nsp_pairs([["only"]], np.random.default_rng(0))

    def test_label_fraction_near_half_with_seed_one(self):
        docs = [[f"s{i}" for i in range(10_001)], ["x0", "x1"]]
        pairs = build_nsp_pairs(docs, np.random.default_rng(1))
        assert len(pairs) == 10_001
        frac = sum(p[2] == IS_NEXT for p in pairs) / len(pairs)
        assert 0.48 <= frac <= 0.52

    def test_corpus_order_preserved(self):
        docs = [["a", "b", "c"], ["d", "e"]]
        pairs = build_nsp_pairs(docs, np.random.default_rng(3))
        assert [p[0] for p in pairs] == ["a", "b", "d"]

    def test_negative_never_true_next(self):
        docs = [[f"d{d}s{i}" for i in range(5)] for d in range(4)]
        for seed in range(30):
            for first, second, label in build_nsp_pairs(docs, np.random.default_rng(seed)):
                if label == NOT_NEXT:
                    doc, i = int(first[1]), int(first[3])
                    assert second != f"d{doc}s{i + 1}"

    def test_all_identical_sentences_rejected_on_negative(self):
        with pytest.raises(DataError, match="no negative candidate"):
            build_nsp_pairs([["x", "x"], ["x"]], StubRng(0.9))

    def test_deterministic_given_seed(self):
        docs = [[f"s{i}" for i in range(50)], [f"t{i}" for i in range(50)]]
        a = build_nsp_pairs(docs, np.random.default_rng(11))
        b = build_nsp_pairs(docs, np.random.default_rng(11))
        assert a == b


class TestAssembleInput:
    def test_small_pair_layout(self):
        packing = PackingConfig(max_len=16)
        ex = assemble_input((sent("abc"), sent("de"), IS_NEXT), MODEL, packing)
        ids = ex.input_ids
        assert len(ids) == 16
        assert sum(ex.attention_mask) == 8
        assert ids[0] == MODEL.token_to_id[CLS]
        assert [MODEL.vocab[i] for i in ids[:8]] == [CLS, "a", "b", "c", SEP, "d", "e", SEP]
        assert ex.segment_ids == (0,) * 5 + (1,) * 3 + (0,) * 8
        assert ex.attention_mask == (1,) * 8 + (0,) * 8
        assert all(MODEL.vocab[i] == PAD for i in ids[8:])
        assert ex.mlm_labels == (IGNORE_INDEX,) * 16

    def test_longest_first_truncation(self):
        packing = PackingConfig(max_len=512)
        long_a = sent(["a"] * 300)
        long_b = sent(["b"] * 300)
        ex = assemble_input((long_a, long_b, NOT_NEXT), MODEL, packing)
        assert sum(ex.attention_mask) == 512
        # ties trim side A first, so B keeps one more token
        assert ex.segment_ids.count(0) == 2 + 254
        assert sum(ex.segment_ids) == 255 + 1

    def test_exactly_two_separators(self):
        ex = assemble_input((sent("ab"), sent("cd"), IS_NEXT), MODEL, PackingConfig(max_len=12))
        sep_id = MODEL.token_to_id[SEP]
        assert ex.input_ids.count(sep_id) == 2

    def test_segment_switch_after_first_sep(self):
        ex = assemble_input((sent("ab"), sent("cd"), IS_NEXT), MODEL, PackingConfig(max_len=12))
        first_sep = ex.input_ids.index(MODEL.token_to_id[SEP])
        assert ex.segment_ids[first_sep] == 0
        assert ex.segment_ids[first_sep + 1] == 1

    def test_empty_side_rejected(self):
        with pytest.raises(DataError, match="untokenizable"):
            assemble_input(("", "a b", IS_NEXT), MODEL, PackingConfig(max_len=16))

    def test_max_len_floor(self):
        with pytest.raises(ConfigError, match="max_len"):
            PackingConfig(max_len=4)


def assemble(n_a, n_b, max_len=32):
    pair = (sent(LETTERS[:n_a]), sent(LETTERS[n_a : n_a + n_b]), IS_NEXT)
    return assemble_input(pair, MODEL, PackingConfig(max_len=max_len))


class TestApplyMlmMask:
    def test_twenty_candidates_select_exactly_three(self):
        # fifteen percent of twenty candidates -> three labeled positions
        ex = apply_mlm_mask(assemble(10, 10), MODEL, MaskingPolicy(), np.random.default_rng(5))
        assert sum(l != IGNORE_INDEX for l in ex.mlm_labels) == 3

    def test_rounding_half_up_and_floor_one(self):
        cases = {(2, 1): 1, (5, 5): 2, (2, 2): 1, (6, 7): 2}  # candidates: 3->1, 10->2, 4->1, 13->2
        for (n_a, n_b), expect in cases.items():
            ex = apply_mlm_mask(
                assemble(n_a, n_b), MODEL, MaskingPolicy(), np.random.default_rng(0)
            )
            assert sum(l != IGNORE_INDEX for l in ex.mlm_labels) == expect

    def test_specials_never_selected(self):
        base = assemble(10, 10)
        cls_sep_pad = {
            i
            for i, tok in enumerate(base.input_ids)
            if MODEL.vocab[tok] in SPECIAL_TOKENS
        }
        for seed in range(200):
            ex = apply_mlm_mask(base, MODEL, MaskingPolicy(), np.random.default_rng(seed))
            for pos in cls_sep_pad:
                assert ex.mlm_labels[pos] == IGNORE_INDEX
                if MODEL.vocab[base.input_ids[pos]] != MASK:
                    assert ex.input_ids[pos] == base.input_ids[pos]

    def test_labels_hold_original_ids(self):
        base = assemble(10, 10)
        ex = apply_mlm_mask(base, MODEL, MaskingPolicy(), np.random.default_rng(9))
        for pos, label in enumerate(ex.mlm_labels):
            if label != IGNORE_INDEX:
                assert label == base.input_ids[pos]
            else:
                assert ex.input_ids[pos] == base.input_ids[pos]

    def test_branch_fractions_loose(self):
        base = assemble(10, 10)
        mask_id = MODEL.token_to_id[MASK]
        masked = randomized = kept = 0
        for seed in range(1500):
            ex = apply_mlm_mask(base, MODEL, MaskingPolicy(), np.random.default_rng(seed))
            for pos, label in enumerate(ex.mlm_labels):
                if label == IGNORE_INDEX:
                    continue
                if ex.input_ids[pos] == mask_id:
                    masked += 1
                elif ex.input_ids[pos] == base.input_ids[pos]:
                    kept += 1
                else:
                    randomized += 1
        total = masked + randomized + kept
        assert total == 3 * 1500
        assert abs(masked / total - 0.80) < 0.03
        # the random branch can draw the original token, which tallies as
        # kept here, so allow that drift in the loose check
        assert abs(randomized / total - 0.10) < 0.03
        assert abs(kept / total - 0.10) < 0.03

    def test_random_replacement_never_special(self):
        base = assemble(10, 10)
        special_ids = {MODEL.token_to_id[t] for t in SPECIAL_TOKENS if t != MASK}
        for seed in range(300):
            ex = apply_mlm_mask(base, MODEL, MaskingPolicy(), np.random.default_rng(seed))
            for pos, label in enumerate(ex.mlm_labels):
                if label != IGNORE_INDEX:
                    assert ex.input_ids[pos] not in special_ids

    def test_deterministic(self):
        base = assemble(10, 10)
        a = apply_mlm_mask(base, MODEL, MaskingPolicy(), np.random.default_rng(42))
        b = apply_mlm_mask(base, MODEL, MaskingPolicy(), np.random.default_rng(42))
        assert a == b

    def test_the_recipe_is_fixed(self):
        policy = MaskingPolicy()
        assert (policy.select_fraction, policy.mask_prob, policy.random_prob,
                policy.keep_prob) == (0.15, 0.80, 0.10, 0.10)
        with pytest.raises(TypeError):
            MaskingPolicy(select_fraction=0.5)


DOCS = [
    [sent("abc"), sent("def"), sent("ghi")],
    [sent("jkl"), sent("mno"), sent("pqr")],
]


class TestPipelineAndFiles:
    def test_build_examples_deterministic(self):
        packing = PackingConfig(max_len=16, rng_seed=7)
        a = build_pretrain_examples(DOCS, MODEL, packing)
        b = build_pretrain_examples(DOCS, MODEL, packing)
        assert a == b

    def test_write_read_round_trip(self, tmp_path):
        packing = PackingConfig(max_len=16, rng_seed=7)
        examples = build_pretrain_examples(DOCS, MODEL, packing)
        path = tmp_path / "ex.bin"
        n = write_examples(examples, path, vocab_size=len(MODEL.vocab))
        assert n == len(examples)
        loaded, vocab_size = read_examples(path)
        assert loaded == examples
        assert vocab_size == len(MODEL.vocab)

    def test_same_seed_byte_identical_files(self, tmp_path):
        packing = PackingConfig(max_len=16, rng_seed=3)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_examples(build_pretrain_examples(DOCS, MODEL, packing), p1, len(MODEL.vocab))
        write_examples(build_pretrain_examples(DOCS, MODEL, packing), p2, len(MODEL.vocab))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file_round_trip(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_examples([], path, vocab_size=9)
        header, payload = split_container(path.read_bytes())
        assert payload == b"" and header["max_len"] == 0
        loaded, vocab_size = read_examples(path)
        assert loaded == [] and vocab_size == 9

    def test_corrupted_record_named(self, tmp_path):
        packing = PackingConfig(max_len=16, rng_seed=7)
        examples = list(build_pretrain_examples(DOCS, MODEL, packing)) * 3
        path = tmp_path / "ex.bin"
        write_examples(examples, path, vocab_size=len(MODEL.vocab))
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[12:16])
        # the first column, attention_mask, holds 16 bytes a record
        path.write_bytes(blob[: 16 + header_len + 5 * 16 + 7])  # cut inside record 5
        with pytest.raises(DataError, match="attention_mask, at row 5"):
            read_examples(path)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("ids", len(MODEL.vocab), "token id outside"),
            ("ids", -1, "token id outside"),
            ("labels", len(MODEL.vocab), "MLM label"),
            ("labels", -3, "MLM label"),
            ("segments", 2, "segment byte"),
            ("attention", -1, "attention byte"),
            ("nsp", 2, "NSP byte"),
        ],
    )
    def test_out_of_range_value_named_with_record(self, tmp_path, field, value, match):
        """A value written in a whole container with its CRC, past the
        example writer's own checks, so only the reader's range checks can
        refuse it."""
        name = {"ids": "input_ids", "segments": "segment_ids", "attention": "attention_mask",
                "labels": "mlm_labels", "nsp": "nsp_label"}[field]
        examples = build_pretrain_examples(DOCS, MODEL, PackingConfig(max_len=16))
        columns = {key: column.copy() for key, column in examples.columns.items()}
        columns[name][(2,) if field == "nsp" else (2, 3)] = value  # record 2
        path = tmp_path / "ex.bin"
        write_container(path, {"max_len": 16, "vocab_size": len(MODEL.vocab)}, columns)
        with pytest.raises(DataError, match=f"record 2: {match}"):
            read_examples(path)

    @pytest.mark.parametrize(
        "vocab_size, match",
        [
            (-1, "not an integer of 0 or more"),
            (25.0, "not an integer"),
            ("25", "not an integer"),
            (True, "not an integer"),
            (None, "not an integer"),
            ("top", "is not above id"),
        ],
    )
    def test_bad_vocab_size_refused_before_the_file_is_opened(self, tmp_path, vocab_size,
                                                               match):
        examples = build_pretrain_examples(DOCS, MODEL, PackingConfig(max_len=16))
        if vocab_size == "top":  # the largest id, which a vocabulary must exceed
            columns = examples.columns
            vocab_size = int(max(columns["input_ids"].max(), columns["mlm_labels"].max()))
        with pytest.raises(DataError, match=match):
            write_examples(examples, tmp_path / "ex.bin", vocab_size)
        assert list(tmp_path.iterdir()) == []

    def test_numpy_integer_vocab_size_writes_an_int(self, tmp_path):
        examples = build_pretrain_examples(DOCS, MODEL, PackingConfig(max_len=16))
        write_examples(examples, tmp_path / "np.bin", np.int64(len(MODEL.vocab)))
        write_examples(examples, tmp_path / "int.bin", len(MODEL.vocab))
        assert (tmp_path / "np.bin").read_bytes() == (tmp_path / "int.bin").read_bytes()
        _, vocab_size = read_examples(tmp_path / "np.bin")
        assert type(vocab_size) is int and vocab_size == len(MODEL.vocab)

    def test_empty_file_takes_any_vocab_size(self, tmp_path):
        write_examples([], tmp_path / "empty.bin", np.uint8(0))
        assert read_examples(tmp_path / "empty.bin")[1] == 0

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "ex.bin"
        write_examples([], path, vocab_size=9)
        blob = bytearray(path.read_bytes())
        blob[4] = 3
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version 3"):
            read_examples(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(DataError, match="magic"):
            read_examples(path)

    def test_collate_shapes(self):
        examples = build_pretrain_examples(DOCS, MODEL, PackingConfig(max_len=16))
        batch = collate(examples)
        n = len(examples)
        assert batch["input_ids"].shape == (n, 16)
        assert batch["nsp_labels"].shape == (n,)
        assert batch["input_ids"].dtype == np.int64


def reference_write_examples(examples, path, vocab_size):
    """write_examples spelled out field by field: the container's prefix
    and JSON header, then each column, name by name, one example at a time."""
    max_len = len(examples[0].input_ids) if examples else 0
    n = len(examples)
    columns = [  # name order, the order the container keeps
        ("attention_mask", "|i1", "b"), ("input_ids", "<i4", "i"), ("mlm_labels", "<i4", "i"),
        ("nsp_label", "|u1", "B"), ("segment_ids", "|i1", "b"),
    ]
    header = {"max_len": max_len, "vocab_size": vocab_size, "tensors": [
        {"name": name, "shape": [n] if name == "nsp_label" else [n, max_len], "dtype": dtype}
        for name, dtype, _ in columns
    ]}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [struct.pack("<I", len(blob)), blob]
    for name, _, code in columns:
        for ex in examples:
            values = getattr(ex, name)
            values = values if isinstance(values, tuple) else (values,)
            parts.append(struct.pack(f"<{len(values)}{code}", *values))
    body = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(b"FLCP" + struct.pack("<II", 2, zlib.crc32(body)) + body)


def built_table(max_len=24):
    docs = [[sent(LETTERS[i : i + 3 + i % 4]) for i in range(j, j + 6)] for j in range(12)]
    return build_pretrain_examples(docs, MODEL, PackingConfig(max_len=max_len, rng_seed=5))


def many_examples(max_len, count):
    """A list of ``count`` examples cycled from a small corpus's table."""
    examples = list(built_table(max_len))
    return (examples * (count // len(examples) + 1))[:count]


class TestWriterMatchesReference:
    @pytest.mark.parametrize("max_len", [16, 64])
    def test_bytes_equal_reference(self, tmp_path, max_len):
        examples = many_examples(max_len, 2100)
        write_examples(examples, tmp_path / "got.ptex", len(MODEL.vocab))
        reference_write_examples(examples, tmp_path / "want.ptex", len(MODEL.vocab))
        assert (tmp_path / "got.ptex").read_bytes() == (tmp_path / "want.ptex").read_bytes()

    def test_empty_list_equals_reference(self, tmp_path):
        write_examples([], tmp_path / "got.ptex", 9)
        reference_write_examples([], tmp_path / "want.ptex", 9)
        assert (tmp_path / "got.ptex").read_bytes() == (tmp_path / "want.ptex").read_bytes()

    def test_mixed_lengths_name_the_record(self, tmp_path):
        examples = many_examples(16, 1030) + many_examples(20, 1)
        with pytest.raises(DataError, match="record 1030: length 20 differs from header 16"):
            write_examples(examples, tmp_path / "mixed.ptex", len(MODEL.vocab))


class TestExampleTable:
    def test_written_bytes_equal_reference(self, tmp_path):
        table = built_table()
        for part in (table, table[:0], table[::-3]):
            write_examples(part, tmp_path / "got.ptex", len(MODEL.vocab))
            reference_write_examples(list(part), tmp_path / "want.ptex", len(MODEL.vocab))
            assert (tmp_path / "got.ptex").read_bytes() == (tmp_path / "want.ptex").read_bytes()

    def test_read_back_equals_table_both_ways(self, tmp_path):
        table = built_table()
        write_examples(table, tmp_path / "ex.ptex", len(MODEL.vocab))
        read, _ = read_examples(tmp_path / "ex.ptex")
        assert isinstance(read, ExampleTable)
        assert read == table and table == read
        assert read == list(table) and list(table) == read
        assert not read != table
        assert read != table[1:] and table[1:] != read
        assert read != list(table)[::-1]
        assert read != "not examples" and read != [1] * len(read)

    def test_slices_and_integer_arrays_give_equal_tables(self):
        table = built_table()
        examples = list(table)
        picks = np.array([5, 0, 5, len(table) - 1, 2])
        assert table[3:9] == examples[3:9]
        assert table[::-2] == examples[::-2]
        assert table[picks] == [examples[i] for i in picks]
        assert isinstance(table[picks], ExampleTable)
        assert table[-1] == examples[-1] and table[np.int64(4)] == examples[4]
        with pytest.raises(IndexError):
            table[len(table)]

    def test_table_is_read_only(self):
        table = built_table()
        with pytest.raises(ValueError):
            table.columns["nsp_label"][0] = 1
        with pytest.raises(ValueError):
            table[2:4].columns["input_ids"][0, 0] = 1

    def test_collate_of_table_equals_collate_of_list(self):
        table = built_table()
        picks = np.random.default_rng(3).integers(0, len(table), 40)
        got = collate(table[picks])
        want = collate([table[int(i)] for i in picks])
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].dtype == want[key].dtype == np.int64, key
            assert np.array_equal(got[key], want[key]), key

    def test_batches_equal_list_collate(self):
        """The batches pretrain() draws, against the per-example collate
        of the same picks from a list."""
        table = built_table()
        examples = list(table)
        for step in range(1, 21):
            picks = np.random.default_rng((9, 2, step)).integers(0, len(examples), 8)
            want = {
                "input_ids": np.array([examples[i].input_ids for i in picks], dtype=np.int64),
                "segment_ids": np.array([examples[i].segment_ids for i in picks], dtype=np.int64),
                "attention_mask": np.array(
                    [examples[i].attention_mask for i in picks], dtype=np.int64
                ),
                "mlm_labels": np.array([examples[i].mlm_labels for i in picks], dtype=np.int64),
                "nsp_labels": np.array([examples[i].nsp_label for i in picks], dtype=np.int64),
            }
            got = _batch_for_step(table, 8, 9, step)
            assert got.keys() == want.keys()
            for key in want:
                assert got[key].dtype == np.int64 and np.array_equal(got[key], want[key]), key

    def test_failed_write_leaves_earlier_file(self, tmp_path):
        """A write that fails partway, here at a file-size limit, leaves the
        earlier file byte for byte and no temporary file behind."""
        resource = pytest.importorskip("resource")
        path = tmp_path / "ex.ptex"
        write_examples(built_table(16), path, len(MODEL.vocab))
        before = path.read_bytes()
        assert list(tmp_path.iterdir()) == [path]
        larger = many_examples(64, 2100)  # about 1.4 MB
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, hard))
        try:
            with pytest.raises(OSError):
                write_examples(larger, path, len(MODEL.vocab))
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


def small_example_file(work):
    docs = [[sent("abcde"), sent("fgh")], [sent("ijk"), sent("lmnop"), sent("qrst")]]
    examples = build_pretrain_examples(docs, MODEL, PackingConfig(max_len=12, rng_seed=3))
    write_examples(examples, work / "good.ptex", len(MODEL.vocab))
    return (work / "good.ptex").read_bytes()


class TestExampleFileMutation:
    def test_every_mutation_is_a_data_error(self, tmp_path_factory):
        """The container's CRC32 covers every byte after it, and its prefix
        and sizes cover the rest, so no flipped, cut or appended byte reads
        back as another valid file."""
        work = tmp_path_factory.mktemp("mutation")
        data = small_example_file(work)
        header_end = 16 + struct.unpack("<I", data[12:16])[0]

        @given(mutations(len(data), header_end))
        @example(("truncate", 16))  # the prefix alone
        @example(("truncate", len(data) - 12))  # the last record's segment ids
        @settings(max_examples=400, derandomize=True, deadline=None)
        def check(mutation):
            path = work / "mutated.ptex"
            path.write_bytes(mutate(data, mutation))
            with pytest.raises(DataError):
                read_examples(path)

        check()

    def test_every_truncation_and_bit_flip_is_a_data_error(self, tmp_path):
        data = small_example_file(tmp_path)
        path = tmp_path / "mutated.ptex"
        mutated = [data[:size] for size in range(len(data))]
        for at in range(len(data)):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[at] ^= 1 << bit
                mutated.append(bytes(flipped))
        assert len(mutated) == 9 * len(data)
        for blob in mutated:
            path.write_bytes(blob)
            with pytest.raises(DataError):
                read_examples(path)


class TestExampleValidation:
    def test_field_length_mismatch(self):
        with pytest.raises(DataError, match="lengths"):
            PretrainExample(
                input_ids=(1, 2),
                segment_ids=(0,),
                attention_mask=(1, 1),
                mlm_labels=(IGNORE_INDEX, IGNORE_INDEX),
                nsp_label=IS_NEXT,
            )

    def test_bad_nsp_label(self):
        with pytest.raises(DataError, match="nsp_label"):
            PretrainExample(
                input_ids=(1,),
                segment_ids=(0,),
                attention_mask=(1,),
                mlm_labels=(IGNORE_INDEX,),
                nsp_label=7,
            )


def _unmasked_table(count):
    """``count`` packed pairs of random letter sentences, 2 to 14 letters a
    side at max_len 24, so rows hold from 4 to 21 candidates."""
    rng = np.random.default_rng(5)
    pairs = [
        (sent(rng.choice(LETTERS, int(rng.integers(2, 15)))),
         sent(rng.choice(LETTERS, int(rng.integers(2, 15)))), IS_NEXT)
        for _ in range(count)
    ]
    return pack_pairs(pairs, MODEL, PackingConfig(max_len=24))


class TestMaskingStates:
    """Row i of mask_examples draws the first 3L uniforms of a fresh Philox
    keyed by SeedSequence((seed, 1)) and started at counter i * ceil(3L / 4)."""

    SEEDS = [0, 1, 611, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3, 2**100 + 7]
    TABLE = _unmasked_table(600)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equal_to_a_fresh_generator(self, seed):
        got = mask_examples(self.TABLE, MODEL, seed)
        for i, example in enumerate(self.TABLE):
            want = ref.apply_mlm_mask(
                example, MODEL, MaskingPolicy(), ref.masking_generator(seed, i, 24))
            assert got[i] == want, i

    @pytest.mark.parametrize("block", [1, 7, 10**6])
    def test_block_size_moves_no_byte(self, block, monkeypatch):
        # every block draws from a fresh generator at its first row's
        # counter, so one row a block, blocks that end mid-table and one
        # block for the whole table all give the same rows
        want = mask_examples(self.TABLE, MODEL, 611)
        monkeypatch.setattr(pretrain_data, "MASK_BLOCK", block)
        assert mask_examples(self.TABLE, MODEL, 611) == want

    def test_a_row_does_not_depend_on_earlier_rows(self):
        got = mask_examples(self.TABLE, MODEL, 611)
        columns = {name: column.copy() for name, column in self.TABLE.columns.items()}
        # the first 100 rows lose every candidate, or gain ones they lacked
        columns["attention_mask"][:50] = 0
        columns["input_ids"][50:100, 1:-1] = columns["input_ids"][50:100, 1:2]
        columns["attention_mask"][50:100] = 1
        changed = mask_examples(ExampleTable(columns), MODEL, 611)
        assert changed[:100] != got[:100]
        assert changed[100:] == got[100:]

    def test_no_examples(self):
        assert mask_examples(ExampleTable.of([]), MODEL, 7) == []


class ChosenDraws:
    """A generator stand-in whose ``random(shape)`` returns the selection
    keys, action draws and replacement draws it was given, one run of L
    each."""

    def __init__(self, keys, actions, picks):
        self.draws = np.concatenate([keys, actions, picks])[None, :]

    def random(self, shape):
        assert shape == self.draws.shape
        return self.draws


class TestChosenDraws:
    def test_tied_keys_select_the_lowest_columns(self):
        # 60 candidates at columns 1-60, of which 9 are selected; an
        # unstable sort of these tied keys selects column 12 for column 9
        letters = [MODEL.token_to_id[LETTERS[i % len(LETTERS)]] for i in range(60)]
        base = PretrainExample(
            (MODEL.token_to_id[CLS], *letters, MODEL.token_to_id[SEP], MODEL.pad_id, MODEL.pad_id),
            (0,) * 64, (1,) * 62 + (0, 0), (IGNORE_INDEX,) * 64, IS_NEXT,
        )
        zeros = np.zeros(64)
        ex = apply_mlm_mask(base, MODEL, MaskingPolicy(), ChosenDraws(zeros, zeros, zeros))
        selected = [pos for pos, label in enumerate(ex.mlm_labels) if label != IGNORE_INDEX]
        assert selected == list(range(1, 10))
        assert [ex.input_ids[pos] for pos in selected] == [MODEL.token_to_id[MASK]] * 9
        assert [ex.mlm_labels[pos] for pos in selected] == letters[:9]

    def test_top_replacement_draw_stays_in_range(self):
        base = assemble(10, 10)
        width = len(base.input_ids)
        keys = np.linspace(1.0, 0.0, width, endpoint=False)  # the last columns win
        actions = np.linspace(0.8, 0.9, width, endpoint=False)
        picks = np.full(width, 1 - 2**-53)
        ex = apply_mlm_mask(base, MODEL, MaskingPolicy(), ChosenDraws(keys, actions, picks))
        selected = [pos for pos, label in enumerate(ex.mlm_labels) if label != IGNORE_INDEX]
        assert selected == [19, 20, 21]
        assert [ex.input_ids[pos] for pos in selected] == [MODEL.non_special_ids[-1]] * 3


def test_acceptance_example_file_pinned(tmp_path):
    """The example file of the 2000-step acceptance fixture's recipe, by
    hash: a change in any draw, or in their order, moves it."""
    docs = generate_mlm_corpus(seed=1, n_docs=900)
    tokenizer = train_wordpiece(
        [s for d in docs for s in d.sentences],
        TokenizerTrainConfig(vocab_size=1000, min_frequency=3, alphabet_limit=1500),
    )
    examples = build_pretrain_examples(
        [d.sentences for d in docs],
        tokenizer,
        PackingConfig(max_len=64, rng_seed=0),
        MaskingPolicy(),
    )
    path = tmp_path / "examples.ptex"
    write_examples(examples, path, len(tokenizer.vocab))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "f537495176749ea3301a373b52c258d08959d5d29c91912d282c059b380d73bd"
    )

"""Fine-tuning tests: alignment, data files, learning, and head gradients.

The head backward passes are verified against central differences where
the numeric side uses nothing but forward passes, mirroring the encoder
gradient tests.
"""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from farsilm import finetune as finetune_module
from farsilm import model as model_module
from farsilm import wordpiece as wp
from farsilm.errors import ConfigError, DataError
from farsilm.finetune import (
    FinetuneConfig,
    HeadModel,
    LabeledText,
    TaggedSequence,
    _encode_texts,
    _encode_token_rows,
    _pad_batch,
    finetune_sequence,
    finetune_tokens,
    load_head_model,
    load_labeled,
    load_tagged,
    predict,
    save_head_model,
    write_labeled,
    write_tagged,
)
from farsilm.metrics import entity_f1
from farsilm.model import ModelConfig, forward, head_gradients, init_params, pack
from farsilm.training import (
    Checkpoint,
    OptimizerConfig,
    init_adam_state,
    load_checkpoint,
    save_checkpoint,
)
from farsilm.wordpiece import TokenizerTrainConfig, train_wordpiece
from mutation import join_container, split_container

WORDS = ["ab", "abc", "bcd", "cab", "dab", "bad", "cad", "add", "dba", "cba"]


def build_tokenizer():
    rng = np.random.default_rng(0)
    sents = [" ".join(WORDS[int(i)] for i in rng.integers(0, 10, 6)) for _ in range(40)]
    return train_wordpiece(
        sents + ["zz yy"],
        TokenizerTrainConfig(vocab_size=80, min_frequency=1, alphabet_limit=40),
    )


@pytest.fixture(scope="module")
def setup():
    tokenizer = build_tokenizer()
    config = ModelConfig(
        layers=1, heads=2, hidden=32, intermediate=64,
        vocab_size=len(tokenizer.vocab), max_positions=32,
    )
    params = init_params(config, seed=3)
    checkpoint = Checkpoint(config, OptimizerConfig(max_steps=0), params, init_adam_state(params))
    return tokenizer, config, checkpoint


def float64_checkpoint(checkpoint):
    """The checkpoint with float64 parameters, for tests whose bounds are
    float64's: fine-tuning runs the same code in the parameters' dtype."""
    params = pack(checkpoint.params, np.float64, values=checkpoint.params)
    return Checkpoint(checkpoint.model_config, checkpoint.opt_config, params,
                      init_adam_state(params))


def make_cls(n, seed):
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(n):
        words = [WORDS[int(i)] for i in rng.integers(0, 10, 5)]
        if rng.random() < 0.5:
            words.insert(int(rng.integers(0, 5)), "zz")
            items.append(LabeledText(" ".join(words), "pos"))
        else:
            items.append(LabeledText(" ".join(words), "neg"))
    return items


def make_ner(n, seed):
    rng = np.random.default_rng(seed)
    seqs = []
    for _ in range(n):
        words = [WORDS[int(i)] for i in rng.integers(0, 10, 5)]
        tags = ["O"] * 5
        if rng.random() < 0.7:
            k = int(rng.integers(0, 5))
            words[k] = "yy"
            tags[k] = "B-PER"
        seqs.append(TaggedSequence(tuple(words), tuple(tags)))
    return seqs


def make_split_ner(n, seed):
    """Tagged sequences of compound words such as "yyab" that split into
    several pieces; a word holding "yy" is a person."""
    rng = np.random.default_rng(seed)
    parts = WORDS + ["yy"]
    seqs = []
    for _ in range(n):
        words = ["".join(parts[int(i)] for i in rng.integers(0, 11, int(rng.integers(1, 3))))
                 for _ in range(4)]
        seqs.append(TaggedSequence(tuple(words), tuple("B-PER" if "yy" in w else "O" for w in words)))
    return seqs


class TestTypes:
    def test_tag_count_must_match_token_count(self):
        with pytest.raises(DataError, match="tokens but"):
            TaggedSequence(("a", "b"), ("O",))

    def test_tokens_cannot_hold_whitespace(self):
        with pytest.raises(DataError, match="whitespace"):
            TaggedSequence(("a b",), ("O",))

    def test_a_token_is_refused_exactly_when_a_character_of_it_is_whitespace(self):
        # every code point but the surrogates, wedged between two letters
        chars = [chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
        spaces = [ch for ch in chars if ch.isspace()]
        words = tuple(f"a{ch}b" for ch in chars if not ch.isspace())
        TaggedSequence(words, ("O",) * len(words))
        for token in ["", *(f"a{ch}b" for ch in spaces)]:
            with pytest.raises(DataError, match="empty or holds whitespace"):
                TaggedSequence((token,), ("O",))

    @pytest.mark.parametrize("tag", ["", "B-LOC\t", "B-X\nO", "B-X\rO"])
    def test_a_tag_its_file_cannot_hold_is_rejected(self, tag):
        with pytest.raises(DataError, match=re.escape(f"tag {tag!r} is empty or holds a tab")):
            TaggedSequence(("a",), (tag,))

    def test_empty_sequence_rejected(self):
        with pytest.raises(DataError, match="at least one"):
            TaggedSequence((), ())

    def test_config_rejects_duplicate_labels(self):
        with pytest.raises(ConfigError, match="duplicates"):
            FinetuneConfig(("a", "a"))

    def test_config_rejects_empty_inventory(self):
        with pytest.raises(ConfigError, match="nonempty"):
            FinetuneConfig(())

    @pytest.mark.parametrize("inventory", ["pos", "", "B-PER"])
    def test_config_rejects_a_string_inventory(self, inventory):
        # iterating a string would make each character a label
        with pytest.raises(ConfigError, match=re.escape(f"the string {inventory!r}")):
            FinetuneConfig(inventory)

    @pytest.mark.parametrize("inventory, bad", [
        ((1, 2), 1), (("",), ""), (("pos", None), None), (("O", b"B-PER"), b"B-PER"),
    ])
    def test_config_rejects_a_label_that_is_not_a_nonempty_string(self, inventory, bad):
        with pytest.raises(ConfigError, match=re.escape(f"label {bad!r} is not a non-empty string")):
            FinetuneConfig(inventory)

    @pytest.mark.parametrize("rate", [0.0, float("inf"), float("nan")])
    def test_config_rejects_a_rate_that_is_not_finite_and_positive(self, rate):
        with pytest.raises(ConfigError, match="learning_rate must be a finite positive number"):
            FinetuneConfig(("a",), learning_rate=rate)


class TestDataFiles:
    def test_labeled_round_trip(self, tmp_path):
        path = str(tmp_path / "cls.jsonl")
        items = [LabeledText("سلام دنیا", "greeting"), LabeledText("خبر بد", "news")]
        assert write_labeled(path, items) == 2
        assert load_labeled(path) == items

    def test_labeled_missing_field_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "a", "label": "x"}\n{"text": "b"}\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_labeled(str(path))

    @pytest.mark.parametrize("field, value, shown", [
        ("text", None, "null"), ("text", 12, "12"), ("label", 1, "1"), ("label", ["x"], '["x"]'),
    ])
    def test_labeled_non_string_field_names_file_and_line(self, tmp_path, field, value, shown):
        path = tmp_path / "bad.jsonl"
        record = {"text": "b", "label": "x", field: value}
        path.write_text('{"text": "a", "label": "x"}\n' + json.dumps(record) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_labeled(str(path))
        assert str(info.value) == f"{path}: record on line 2 holds {shown} in {field}, not a string"

    def test_tagged_round_trip(self, tmp_path):
        path = str(tmp_path / "ner.tsv")
        seqs = [
            TaggedSequence(("سارا", "به", "تهران"), ("B-PER", "O", "B-LOC")),
            TaggedSequence(("خانه",), ("O",)),
        ]
        assert write_tagged(path, seqs) == 2
        assert load_tagged(path) == seqs

    def test_the_tags_entity_scoring_accepts_write_and_load_back(self, tmp_path):
        path = str(tmp_path / "ner.tsv")
        tags = ("O", "B-LOC", "I_LOC", "B-A B", "B-X\xa0", "I-x-y")
        seqs = [TaggedSequence(tuple("abcdef"), tags)]
        assert entity_f1([list(tags)], [list(tags)]).f1 == 1.0
        write_tagged(path, seqs)
        assert load_tagged(path) == seqs

    def test_tagged_malformed_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tO\nb O\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_tagged(str(path))

    def test_tagged_final_sequence_without_trailing_blank(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tO\n\nb\tB-LOC\n", encoding="utf-8")
        assert len(load_tagged(str(path))) == 2


class TestAlignment:
    def test_multi_piece_word_gets_one_first_position(self, setup):
        tokenizer, config, _ = setup
        # no-merge tokenizer splits every word into single characters
        splitter = train_wordpiece(
            ["x y z xyz"] * 3,
            TokenizerTrainConfig(vocab_size=40, min_frequency=99, alphabet_limit=10),
        )
        rows, firsts = _encode_token_rows([("xyz",)], splitter, config.max_positions)
        assert len(rows[0]) == 2 + 3  # CLS + three pieces + SEP
        assert firsts[0] == [1]

    def test_first_piece_rule_in_labels(self, setup):
        # the word's tag lands on its first piece; continuations are ignored,
        # which is exactly what the loss mask sees
        tokenizer, config, checkpoint = setup
        splitter = train_wordpiece(
            ["x y z xyz"] * 3,
            TokenizerTrainConfig(vocab_size=40, min_frequency=99, alphabet_limit=10),
        )
        small = ModelConfig(
            layers=1, heads=2, hidden=32, intermediate=64,
            vocab_size=len(splitter.vocab), max_positions=16,
        )
        rows, firsts = _encode_token_rows([("xyz", "x")], splitter, small.max_positions)
        assert firsts[0] == [1, 4]

    def test_sequence_beyond_capacity_is_an_error(self, setup):
        tokenizer, config, _ = setup
        with pytest.raises(DataError, match="capacity"):
            _encode_token_rows([tuple(WORDS * 5)], tokenizer, config.max_positions)

    def test_tagger_output_length_equals_word_count(self, setup):
        tokenizer, config, checkpoint = setup
        out = finetune_tokens(
            checkpoint, tokenizer, make_ner(20, 1), [],
            FinetuneConfig(("O", "B-PER", "I-PER"), epochs=1, seed=0),
        )
        for tokens in [("ab",), ("ab", "yy", "cab", "dba"), tuple(WORDS)]:
            tags = predict(out.model, tokenizer, [tokens])[0]
            assert len(tags) == len(tokens)


class TestErrors:
    def test_unseen_label_named(self, setup):
        tokenizer, _, checkpoint = setup
        items = [LabeledText("ab abc", "mystery")]
        with pytest.raises(DataError, match="mystery"):
            finetune_sequence(checkpoint, tokenizer, items, [],
                              FinetuneConfig(("pos", "neg"), epochs=1))

    def test_empty_training_set(self, setup):
        tokenizer, _, checkpoint = setup
        with pytest.raises(DataError, match="empty"):
            finetune_sequence(checkpoint, tokenizer, [], [],
                              FinetuneConfig(("pos",), epochs=1))

    def test_malformed_tag_names_sequence_and_position(self, setup):
        tokenizer, _, checkpoint = setup
        seqs = [
            TaggedSequence(("ab",), ("O",)),
            TaggedSequence(("ab", "cd"), ("O", "Z-LOC")),
        ]
        with pytest.raises(DataError, match="sequence 1 at position 1"):
            finetune_tokens(checkpoint, tokenizer, seqs, [],
                            FinetuneConfig(("O", "B-LOC"), epochs=1))

    @pytest.mark.parametrize("tag", ["B-A B", "B-X\xa0"])
    def test_fine_tuning_accepts_the_tags_entity_scoring_accepts(self, setup, tag):
        tokenizer, _, checkpoint = setup
        seqs = [TaggedSequence(("ab", "cab"), (tag, "O"))]
        assert entity_f1([list(s.tags) for s in seqs], [[tag, "O"]]).f1 == 1.0
        out = finetune_tokens(checkpoint, tokenizer, seqs, seqs,
                              FinetuneConfig(("O", tag), epochs=1))
        assert len(out.dev_trace) == 1

    @pytest.mark.parametrize("tag", ["Z-LOC", "B-", "BLOC", "b-LOC"])
    def test_both_surfaces_reject_a_tag_that_is_not_iob(self, setup, tag):
        tokenizer, _, checkpoint = setup
        with pytest.raises(DataError, match="invalid IOB tag"):
            entity_f1([[tag]], [["O"]])
        seqs = [TaggedSequence(("ab",), (tag,))]
        with pytest.raises(DataError, match="malformed tag .* in train sequence 0 at position 0"):
            finetune_tokens(checkpoint, tokenizer, seqs, [], FinetuneConfig(("O", tag), epochs=1))

    def test_tokenizer_vocab_mismatch(self, setup):
        tokenizer, _, checkpoint = setup
        other = ModelConfig(layers=1, heads=2, hidden=32, intermediate=64,
                            vocab_size=len(tokenizer.vocab) + 5, max_positions=32)
        bad = Checkpoint(other, OptimizerConfig(max_steps=0),
                         init_params(other, 0), init_adam_state(init_params(other, 0)))
        with pytest.raises(ConfigError, match="vocabulary"):
            finetune_sequence(bad, tokenizer, make_cls(4, 0), [],
                              FinetuneConfig(("pos", "neg"), epochs=1))

    @pytest.mark.parametrize("kind", ["cls", "ner"])
    def test_non_finite_gradient_aborts_before_the_update(self, setup, monkeypatch, kind):
        tokenizer, _, checkpoint = setup
        calls, updates = [], []

        def poisoned(*args):
            real_backprop(*args)
            calls.append(1)
            if len(calls) == 3:
                args[-1]["layer0.ffn_w1"][2, 5] = np.nan

        def counted(*args):
            updates.append(1)
            real_adam(*args)

        real_backprop, real_adam = model_module.backprop_encoder, finetune_module.adam_step
        monkeypatch.setattr(model_module, "backprop_encoder", poisoned)
        monkeypatch.setattr(finetune_module, "adam_step", counted)
        train, run, labels = {
            "cls": (make_cls(8, 1), finetune_sequence, ("pos", "neg")),
            "ner": (make_ner(8, 1), finetune_tokens, ("O", "B-PER", "I-PER")),
        }[kind]
        # four items a batch: epoch 1 takes steps 1 and 2, epoch 2 steps 3 and 4
        with pytest.raises(DataError, match="epoch 2 step 3: gradient of layer0.ffn_w1 is not"):
            run(checkpoint, tokenizer, train, [], FinetuneConfig(labels, epochs=2, batch_size=4))
        assert len(calls) == 3 and len(updates) == 2


class TestTraining:
    def test_zero_epochs_leaves_encoder_untouched(self, setup):
        tokenizer, _, checkpoint = setup
        out = finetune_sequence(checkpoint, tokenizer, make_cls(8, 1), [],
                                FinetuneConfig(("pos", "neg"), epochs=0))
        for name, value in checkpoint.params.items():
            assert np.array_equal(out.model.params[name], value)
        assert out.dev_trace == ()

    def test_same_seed_same_trace(self, setup):
        tokenizer, _, checkpoint = setup
        config = FinetuneConfig(("pos", "neg"), epochs=2, learning_rate=2e-3, seed=9)
        a = finetune_sequence(checkpoint, tokenizer, make_cls(30, 1), make_cls(10, 2), config)
        b = finetune_sequence(checkpoint, tokenizer, make_cls(30, 1), make_cls(10, 2), config)
        assert a.dev_trace == b.dev_trace
        assert np.array_equal(a.model.head_w, b.model.head_w)

    def test_single_class_inventory_gives_full_accuracy(self, setup):
        tokenizer, _, checkpoint = setup
        items = [LabeledText(" ".join(WORDS[:3]), "only")] * 6
        out = finetune_sequence(checkpoint, tokenizer, items, items,
                                FinetuneConfig(("only",), epochs=1))
        assert out.dev_trace == (1.0,)

    def test_marker_classification_learns(self, setup):
        tokenizer, _, checkpoint = setup
        out = finetune_sequence(
            checkpoint, tokenizer, make_cls(120, 1), make_cls(40, 2),
            FinetuneConfig(("pos", "neg"), epochs=5, learning_rate=5e-3, seed=0),
        )
        assert max(out.dev_trace) >= 0.95

    def test_marker_tagging_learns(self, setup):
        tokenizer, _, checkpoint = setup
        out = finetune_tokens(
            checkpoint, tokenizer, make_ner(120, 3), make_ner(40, 4),
            FinetuneConfig(("O", "B-PER", "I-PER"), epochs=6, learning_rate=5e-3, seed=0),
        )
        assert max(out.dev_trace) >= 0.9

    def test_all_o_corpus_converges_to_perfect_score(self, setup):
        tokenizer, _, checkpoint = setup
        seqs = [TaggedSequence(tuple(WORDS[:4]), ("O",) * 4) for _ in range(12)]
        out = finetune_tokens(
            checkpoint, tokenizer, seqs, seqs,
            FinetuneConfig(("O", "B-PER", "I-PER"), epochs=3, learning_rate=5e-3, seed=1),
        )
        assert out.dev_trace[-1] == 1.0


class TestPredict:
    def test_empty_inputs(self, setup):
        tokenizer, _, checkpoint = setup
        out = finetune_sequence(checkpoint, tokenizer, make_cls(8, 1), [],
                                FinetuneConfig(("pos", "neg"), epochs=0))
        assert predict(out.model, tokenizer, []) == []

    def test_labels_come_from_inventory(self, setup):
        tokenizer, _, checkpoint = setup
        out = finetune_sequence(checkpoint, tokenizer, make_cls(20, 1), [],
                                FinetuneConfig(("pos", "neg"), epochs=1))
        preds = predict(out.model, tokenizer, ["ab abc", "zz ab"])
        assert set(preds) <= {"pos", "neg"}

    def test_adding_constant_logit_shift_keeps_predictions(self, setup):
        tokenizer, _, checkpoint = setup
        out = finetune_sequence(checkpoint, tokenizer, make_cls(30, 1), [],
                                FinetuneConfig(("pos", "neg"), epochs=1, seed=2))
        texts = [item.text for item in make_cls(15, 5)]
        base = predict(out.model, tokenizer, texts)
        shifted = dataclasses.replace(out.model, head_b=out.model.head_b + 37.5)
        assert predict(shifted, tokenizer, texts) == base

    def test_unknown_head_kind(self, setup):
        tokenizer, _, checkpoint = setup
        out = finetune_sequence(checkpoint, tokenizer, make_cls(8, 1), [],
                                FinetuneConfig(("pos", "neg"), epochs=0))
        broken = dataclasses.replace(out.model, kind="ranker")
        with pytest.raises(ConfigError, match="ranker"):
            predict(broken, tokenizer, ["ab"])


class TestTaggerReads:
    """The tagger's last encoder layer runs only on [CLS] and the first
    pieces it scores, with the predictions of a run over every attended
    row. Their weight gradients sum other L-row blocks, so the parameters
    agree to rounding."""

    def _run(self, setup):
        tokenizer, _, checkpoint = setup
        out = finetune_tokens(
            float64_checkpoint(checkpoint), tokenizer, make_split_ner(24, 5), make_split_ner(12, 6),
            FinetuneConfig(("O", "B-PER", "I-PER"), epochs=4, learning_rate=5e-3,
                           batch_size=8, seed=1),
        )
        inputs = [seq.tokens for seq in make_split_ner(40, 7)]
        model = out.model
        params = dict(model.params, head_w=model.head_w, head_b=model.head_b)
        return params, out.dev_trace, predict(model, tokenizer, inputs)

    def test_first_piece_reads_give_the_bytes_of_every_row_reads(self, setup, monkeypatch):
        tokenizer, config, _ = setup
        rows, firsts = _encode_token_rows(
            [seq.tokens for seq in make_split_ner(24, 5)], tokenizer, config.max_positions)
        assert any(len(row) - 2 > len(first) for row, first in zip(rows, firsts))
        row_counts = []

        def counted(*args, **kwargs):
            outputs, cache = real_encode(*args, **kwargs)
            row_counts.append((cache["read"].flat.size, cache["rows"].flat.size))
            return outputs, cache

        def every_row(params, config, batch, reads=None, backward=True):
            return real_encode(params, config, batch, None, backward)

        real_encode = model_module._encode
        with monkeypatch.context() as patch:
            patch.setattr(model_module, "_encode", counted)
            params, trace, tags = self._run(setup)
        assert all(read < attended for read, attended in row_counts)
        # the reference reads every attended row, in training and in prediction
        with monkeypatch.context() as patch:
            patch.setattr(model_module, "_encode", every_row)
            ref_params, ref_trace, ref_tags = self._run(setup)
        assert (trace, tags) == (ref_trace, ref_tags)
        assert set(params) == set(ref_params)
        # 1.5e-14 of the largest parameter after these 12 steps
        scale = max(np.abs(ref).max() for ref in ref_params.values())
        for name, ref in ref_params.items():
            assert np.abs(params[name] - ref).max() <= 1e-10 * scale, name
        assert trace[-1] > 0.5  # the head learned to find entities

    def test_a_lone_one_piece_word_runs_two_rows(self, setup, monkeypatch):
        tokenizer, _, checkpoint = setup
        model = finetune_tokens(checkpoint, tokenizer, make_ner(8, 1), [],
                                FinetuneConfig(("O", "B-PER", "I-PER"), epochs=1)).model
        assert len(wp.encode(tokenizer, "ab")) == 1
        seen = []

        def recorded(*args, **kwargs):
            outputs, cache = real_encode(*args, **kwargs)
            seen.append((cache["read"].flat.tolist(), outputs["sequence"]))
            return outputs, cache

        real_encode = model_module._encode
        monkeypatch.setattr(model_module, "_encode", recorded)
        tags = predict(model, tokenizer, [("ab",)])
        [(read, sequence)] = seen
        assert read == [0, 1]  # [CLS] and the word, not [SEP]
        assert np.flatnonzero(np.abs(sequence[0]).sum(-1)).tolist() == [0, 1]
        assert len(tags) == 1 and len(tags[0]) == 1 and tags[0][0] in model.labels


class TestDtypes:
    """Fine-tuning runs in the encoder's dtype, head included: float32 from
    a checkpoint of float32 parameters, float64 from one of float64."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_heads_and_backward_products_take_the_encoder_s_dtype(
        self, setup, dtype, tmp_path, monkeypatch
    ):
        tokenizer, config, checkpoint = setup
        assert {p.dtype for p in checkpoint.params.values()} == {np.dtype(np.float32)}
        if dtype is np.float64:
            # a float64 checkpoint file, as every run wrote before float32
            wide = float64_checkpoint(checkpoint)
            save_checkpoint(str(tmp_path / "wide.ckpt"), config, wide.opt_config, wide.params,
                            wide.adam_state)
            checkpoint = load_checkpoint(str(tmp_path / "wide.ckpt"))
        products = []
        real_matmul = np.matmul

        def matmul(a, b, **kwargs):
            products.append((a.dtype, b.dtype))
            return real_matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", matmul)
        models = [
            finetune_sequence(checkpoint, tokenizer, make_cls(12, 1), [],
                              FinetuneConfig(("pos", "neg"), epochs=1, batch_size=4)).model,
            finetune_tokens(checkpoint, tokenizer, make_ner(12, 1), [],
                            FinetuneConfig(("O", "B-PER", "I-PER"), epochs=1,
                                           batch_size=4)).model,
        ]
        monkeypatch.undo()
        assert products and set(products) == {(np.dtype(dtype), np.dtype(dtype))}
        for model in models:
            path = str(tmp_path / f"{model.kind}.ckpt")
            save_head_model(path, model)
            for held in (model, load_head_model(path)):
                arrays = [*held.params.values(), held.head_w, held.head_b]
                assert {a.dtype for a in arrays} == {np.dtype(dtype)}


class TestHeadCheckpoints:
    def test_round_trip_preserves_predictions(self, setup, tmp_path):
        tokenizer, _, checkpoint = setup
        out = finetune_sequence(checkpoint, tokenizer, make_cls(30, 1), [],
                                FinetuneConfig(("pos", "neg"), epochs=1, seed=4))
        path = str(tmp_path / "cls.ckpt")
        save_head_model(path, out.model)
        loaded = load_head_model(path)
        assert loaded.kind == "classifier"
        assert loaded.labels == ("pos", "neg")
        texts = [item.text for item in make_cls(10, 7)]
        assert predict(loaded, tokenizer, texts) == predict(out.model, tokenizer, texts)

    def _classifier(self, setup):
        tokenizer, _, checkpoint = setup
        return finetune_sequence(checkpoint, tokenizer, make_cls(8, 1), [],
                                 FinetuneConfig(("pos", "neg"), epochs=1)).model

    @staticmethod
    def _same_size_vocabulary(tokenizer):
        """The tokenizer's vocabulary with two ordinary tokens swapped."""
        vocab = list(tokenizer.vocab)
        i, j = tokenizer.non_special_ids[:2]
        vocab[i], vocab[j] = vocab[j], vocab[i]
        return wp.WordPieceModel(tuple(vocab), {tok: k for k, tok in enumerate(vocab)},
                                 tokenizer.config)

    def test_a_head_records_the_digest_of_its_vocabulary_file(self, setup, tmp_path):
        tokenizer = setup[0]
        model = self._classifier(setup)
        wp.save_vocab(tokenizer, tmp_path / "vocab.txt")
        digest = hashlib.sha256((tmp_path / "vocab.txt").read_bytes()).hexdigest()
        assert model.vocab_sha256 == tokenizer.vocab_sha256 == digest
        save_head_model(str(tmp_path / "cls.flcp"), model)
        assert load_head_model(str(tmp_path / "cls.flcp")).vocab_sha256 == digest

    def test_predict_with_another_vocabulary_of_the_same_size_is_refused(self, setup,
                                                                         monkeypatch):
        tokenizer = setup[0]
        model = self._classifier(setup)
        other = self._same_size_vocabulary(tokenizer)
        assert len(other.vocab) == len(tokenizer.vocab)
        monkeypatch.setattr(wp, "encode", lambda *args: pytest.fail("an input was encoded"))
        with pytest.raises(ConfigError) as info:
            predict(model, other, ["ab abc"])
        assert tokenizer.vocab_sha256 in str(info.value)
        assert other.vocab_sha256 in str(info.value)

    def test_a_head_file_without_the_digest_loads_and_predicts(self, setup, tmp_path):
        legacy = dataclasses.replace(self._classifier(setup), vocab_sha256=None)
        path = str(tmp_path / "legacy.flcp")
        save_head_model(path, legacy)
        loaded = load_head_model(path)
        assert loaded.vocab_sha256 is None
        other = self._same_size_vocabulary(setup[0])
        assert predict(loaded, other, ["ab abc"]) == predict(legacy, other, ["ab abc"])

    def test_the_digest_moves_head_file_bytes_by_its_header_key_only(self, setup, tmp_path):
        model = self._classifier(setup)
        files = {}
        for name, digest in (("with", model.vocab_sha256), ("without", None)):
            path = tmp_path / f"{name}.flcp"
            save_head_model(str(path), dataclasses.replace(model, vocab_sha256=digest))
            files[name] = split_container(path.read_bytes())
        header, payload = files["with"]
        assert header.pop("vocab_sha256") == model.vocab_sha256
        assert (header, payload) == files["without"]

    @pytest.mark.parametrize("digest", ["A" * 64, "0" * 63, 7])
    def test_a_bad_digest_is_refused_on_save_and_load(self, setup, tmp_path, digest):
        model = self._classifier(setup)
        path = tmp_path / "cls.flcp"
        with pytest.raises(DataError, match="bad vocab_sha256"):
            save_head_model(str(path), dataclasses.replace(model, vocab_sha256=digest))
        assert not path.exists()
        save_head_model(str(path), model)
        header, payload = split_container(path.read_bytes())
        header["vocab_sha256"] = digest
        path.write_bytes(join_container(header, payload))
        with pytest.raises(DataError, match="bad vocab_sha256"):
            load_head_model(str(path))

    def test_headless_checkpoint_rejected(self, setup, tmp_path):
        tokenizer, config, checkpoint = setup
        path = str(tmp_path / "plain.ckpt")
        save_checkpoint(path, config, OptimizerConfig(max_steps=0),
                        checkpoint.params, checkpoint.adam_state)
        with pytest.raises(DataError, match="no fine-tuned head"):
            load_head_model(path)


class TestHeadGradients:
    """head_gradients, the backward pass fine-tuning runs, against float64
    central differences."""

    def _numeric_cls_loss(self, full, config, batch, gold):
        outputs = forward(full, config, batch)
        logits = outputs["pooled"] @ full["head_w"] + full["head_b"]
        shifted = logits - logits.max(-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(-1, keepdims=True))
        return -logp[np.arange(len(gold)), gold].mean()

    def test_classifier_backward_matches_central_differences(self, setup):
        tokenizer, config, checkpoint = setup
        rng = np.random.default_rng(2)
        # float64: central differences at h = 1e-5 need it
        full = float64_checkpoint(checkpoint).params
        full["head_w"] = rng.normal(0, 0.05, (config.hidden, 2))
        full["head_b"] = np.zeros(2)
        rows, _ = _encode_texts(["ab zz abc", "cab dab"], tokenizer, config.max_positions)
        batch = _pad_batch(rows, tokenizer.pad_id)
        gold = np.array([0, 1])
        grads = head_gradients(full, config, batch, gold)

        h = 1e-5
        crng = np.random.default_rng(6)
        for name in ("head_w", "head_b", "pool_w", "layer0.q_w", "tok_emb", "emb_ln_g"):
            flat_index = int(crng.integers(0, full[name].size))
            perturbed = {k: v.copy() for k, v in full.items()}
            view = perturbed[name].reshape(-1)
            view[flat_index] += h
            up = self._numeric_cls_loss(perturbed, config, batch, gold)
            view[flat_index] -= 2 * h
            down = self._numeric_cls_loss(perturbed, config, batch, gold)
            numeric = (up - down) / (2 * h)
            analytic = grads[name].reshape(-1)[flat_index]
            assert abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8) < 1e-4

    def test_tagger_backward_matches_central_differences(self, setup):
        from farsilm.pretrain_data import IGNORE_INDEX

        tokenizer, config, checkpoint = setup
        rng = np.random.default_rng(3)
        full = float64_checkpoint(checkpoint).params
        full["head_w"] = rng.normal(0, 0.05, (config.hidden, 3))
        full["head_b"] = np.zeros(3)
        rows, firsts = _encode_token_rows(
            [("ab", "yy", "cab"), ("dba", "bad")], tokenizer, config.max_positions
        )
        batch = _pad_batch(rows, tokenizer.pad_id)
        width = batch["input_ids"].shape[1]
        aligned = np.full((2, width), IGNORE_INDEX, dtype=np.int64)
        tag_rows = [[0, 1, 0], [0, 0]]
        for b in range(2):
            for pos, tag in zip(firsts[b], tag_rows[b]):
                aligned[b, pos] = tag

        def numeric_loss(full_params):
            outputs = forward(full_params, config, batch)
            logits = outputs["sequence"] @ full_params["head_w"] + full_params["head_b"]
            shifted = logits - logits.max(-1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(-1, keepdims=True))
            sel = np.where(aligned != IGNORE_INDEX)
            return -logp[sel[0], sel[1], aligned[sel]].mean()

        grads = head_gradients(full, config, batch, aligned)

        h = 1e-5
        crng = np.random.default_rng(8)
        for name in ("head_w", "head_b", "layer0.ffn_w1", "layer0.v_w", "pos_emb"):
            flat_index = int(crng.integers(0, full[name].size))
            perturbed = {k: v.copy() for k, v in full.items()}
            view = perturbed[name].reshape(-1)
            view[flat_index] += h
            up = numeric_loss(perturbed)
            view[flat_index] -= 2 * h
            down = numeric_loss(perturbed)
            numeric = (up - down) / (2 * h)
            analytic = grads[name].reshape(-1)[flat_index]
            assert abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8) < 1e-4

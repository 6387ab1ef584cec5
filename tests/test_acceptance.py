"""The release gate: nine measured checks over the assembled pipeline.

Every check pins one requirement at a stated tolerance and time budget,
from masking statistics through end-to-end byte determinism. The heavy
pre-training run is shared by the convergence and transfer checks via a
session fixture; all inputs are seeded, so each check reproduces its
numbers exactly on one machine. Each test prints the quantities it
measured, so a red line names the number that moved.
"""

import filecmp
import hashlib
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from farsilm.finetune import FinetuneConfig, LabeledText, finetune_sequence, finetune_tokens
from farsilm.metrics import entity_f1, f1_report
from farsilm.model import (
    compute_losses,
    desk_config,
    finite_difference_check,
    forward,
    init_params,
    pack,
)
from farsilm.pretrain_data import (
    IGNORE_INDEX,
    MaskingPolicy,
    PackingConfig,
    PretrainExample,
    apply_mlm_mask,
    assemble_input,
    build_nsp_pairs,
    build_pretrain_examples,
    collate,
    write_examples,
)
from farsilm.segmenter import DEFAULT_ABBREVIATIONS, segment_by_notation, segment_true
from farsilm.synthetic import (
    _sentence_words,
    classification_labels,
    generate_classification,
    generate_mlm_corpus,
    generate_ner,
    generate_round_trip_sentences,
    lexicon,
)
from farsilm.textnorm import DEFAULT_RULES, normalize
from farsilm.training import OptimizerConfig, load_checkpoint, pretrain
from farsilm.wordpiece import (
    CLS,
    MASK,
    PAD,
    SEP,
    TokenizerTrainConfig,
    decode,
    encode,
    pretokenize,
    save_vocab,
    train_wordpiece,
)

ROOT = Path(__file__).resolve().parents[1]

# The pre-training recipe shared by checks 6 and 7. Batch size, step count
# and the Adam betas are contract terms; the learning rate and warmup are
# the calibrated artifact choice for this corpus scale.
_CORPUS_SEED = 1
_CORPUS_DOCS = 900
_VOCAB_SIZE = 1000
_MAX_LEN = 64
_LEARNING_RATE = 1e-3
_WARMUP_STEPS = 100
_TRAIN_SEED = 42
_STEPS = 2000


@pytest.fixture(scope="session")
def pretrain_run(tmp_path_factory):
    """Corpus, tokenizer, examples and a completed 2000-step checkpoint."""
    started = time.monotonic()
    work = tmp_path_factory.mktemp("pretrain")
    docs = generate_mlm_corpus(seed=_CORPUS_SEED, n_docs=_CORPUS_DOCS)
    tokenizer = train_wordpiece(
        [s for d in docs for s in d.sentences],
        TokenizerTrainConfig(vocab_size=_VOCAB_SIZE, min_frequency=3, alphabet_limit=1500),
    )
    examples = build_pretrain_examples(
        [d.sentences for d in docs],
        tokenizer,
        PackingConfig(max_len=_MAX_LEN, rng_seed=0),
        MaskingPolicy(),
    )
    examples_path = work / "examples.ptex"
    write_examples(examples, examples_path, vocab_size=len(tokenizer.vocab))
    config = desk_config(vocab_size=len(tokenizer.vocab))
    opt = OptimizerConfig(
        learning_rate=_LEARNING_RATE,
        batch_size=32,
        max_steps=_STEPS,
        warmup_steps=_WARMUP_STEPS,
    )
    pretrain(
        str(examples_path), config, opt, seed=_TRAIN_SEED,
        checkpoint_path=str(work / "model.flcp"), trace_path=str(work / "trace.csv"),
    )
    return SimpleNamespace(
        tokenizer=tokenizer,
        examples=examples,
        examples_path=examples_path,
        config=config,
        checkpoint=load_checkpoint(str(work / "model.flcp")),
        elapsed=time.monotonic() - started,
    )


def test_01_masking_statistics():
    """80/10/10 split within 0.01 over 100k selected positions; the
    per-example count is exactly round-half-up of 0.15x candidates and
    structural tokens are never touched."""
    started = time.monotonic()
    model = train_wordpiece(
        generate_round_trip_sentences(seed=301, count=400),
        TokenizerTrainConfig(vocab_size=600, min_frequency=1),
    )
    special_ids = {model.token_to_id[t] for t in model.config.special_tokens}
    pool = [i for i in range(len(model.vocab)) if i not in special_ids]
    cls_id, sep_id, pad_id, mask_id = (
        model.token_to_id[t] for t in (CLS, SEP, PAD, MASK)
    )
    policy = MaskingPolicy()
    rng = np.random.default_rng(101)

    n_selected = 0
    tally = Counter()
    row = 0
    while n_selected < 100_000:
        len_a = int(rng.integers(4, 40))
        len_b = int(rng.integers(4, 61 - len_a))
        used = 3 + len_a + len_b
        body = [int(pool[j]) for j in rng.integers(0, len(pool), len_a + len_b)]
        ids = (
            [cls_id] + body[:len_a] + [sep_id] + body[len_a:] + [sep_id]
            + [pad_id] * (_MAX_LEN - used)
        )
        segments = [0] * (2 + len_a) + [1] * (len_b + 1) + [0] * (_MAX_LEN - used)
        attention = [1] * used + [0] * (_MAX_LEN - used)
        bare = PretrainExample(
            input_ids=tuple(ids),
            segment_ids=tuple(segments),
            attention_mask=tuple(attention),
            mlm_labels=(IGNORE_INDEX,) * _MAX_LEN,
            nsp_label=int(rng.integers(0, 2)),
        )
        masked = apply_mlm_mask(bare, model, policy, np.random.default_rng((101, row)))
        row += 1

        # ground truth from the construction, not from the module
        candidates = len_a + len_b
        structural = {0, 1 + len_a, 2 + len_a + len_b} | set(range(used, _MAX_LEN))
        expected = max(1, math.floor(0.15 * candidates + 0.5))
        selected = [i for i, lab in enumerate(masked.mlm_labels) if lab != IGNORE_INDEX]
        assert len(selected) == expected
        assert not (set(selected) & structural)
        for i in selected:
            assert masked.mlm_labels[i] == ids[i]
            got = masked.input_ids[i]
            if got == mask_id:
                tally["mask"] += 1
            elif got == ids[i]:
                tally["keep"] += 1
            else:
                assert got not in special_ids
                tally["random"] += 1
        n_selected += len(selected)

    fractions = {k: tally[k] / n_selected for k in ("mask", "random", "keep")}
    assert abs(fractions["mask"] - 0.80) <= 0.01
    assert abs(fractions["random"] - 0.10) <= 0.01
    assert abs(fractions["keep"] - 0.10) <= 0.01
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(
        f"check 1: {n_selected} selected positions over {row} examples, "
        f"mask {fractions['mask']:.4f} random {fractions['random']:.4f} "
        f"keep {fractions['keep']:.4f} ({elapsed:.1f}s)"
    )


def test_02_tokenizer_round_trip_and_caps():
    """decode inverts encode on 10k in-alphabet sentences; the trained
    vocabulary honors its caps and retraining is byte-identical."""
    started = time.monotonic()
    sentences = generate_round_trip_sentences(seed=202, count=10_000)
    config = TokenizerTrainConfig()
    model = train_wordpiece(sentences, config)

    for s in sentences:
        assert decode(model, encode(model, s)) == " ".join(s.split())

    specials = set(config.special_tokens)
    assert len(model.vocab) <= config.vocab_size == 100_000
    single = [t for t in model.vocab if t not in specials and len(t) == 1]
    assert len(single) <= config.alphabet_limit == 1_500

    # merged tokens must clear the frequency floor; substring occurrence
    # counts bound merge-time pair counts from above, so a merged token
    # seen fewer than three times in the corpus is a hard violation
    word_counts = Counter(w for s in sentences for w in pretokenize(s))
    prefix = config.continuation_prefix
    for token in model.vocab:
        if token in specials:
            continue
        body = token[len(prefix):] if token.startswith(prefix) else token
        if len(body) < 2:
            continue
        if token.startswith(prefix):
            count = sum(
                n
                for w, n in word_counts.items()
                for off in range(1, len(w) - len(body) + 1)
                if w[off:off + len(body)] == body
            )
        else:
            count = sum(n for w, n in word_counts.items() if w.startswith(body))
        assert count >= config.min_frequency == 3, token

    again = train_wordpiece(sentences, config)
    assert again.vocab == model.vocab
    elapsed = time.monotonic() - started
    assert elapsed < 120
    print(
        f"check 2: 10000 round trips exact, vocab {len(model.vocab)} "
        f"(alphabet {len(single)}), retrain identical ({elapsed:.1f}s)"
    )


def test_02b_tokenizer_vocab_file_byte_identical(tmp_path):
    """Vocabulary files from two identical training runs match byte for byte."""
    sentences = generate_round_trip_sentences(seed=203, count=1_000)
    paths = []
    for name in ("one.txt", "two.txt"):
        model = train_wordpiece(sentences, TokenizerTrainConfig(vocab_size=800))
        save_vocab(model, tmp_path / name)
        paths.append(tmp_path / name)
    assert filecmp.cmp(*paths, shallow=False)


def test_03_segmentation_oracle():
    """segment_true recovers 500 planted documents exactly while notation
    splitting over-segments every abbreviation-bearing one."""
    started = time.monotonic()
    rng = np.random.default_rng(303)
    words = [w for w in lexicon() if not set(w) & set("؟?!.:")]
    abbreviations = sorted(DEFAULT_ABBREVIATIONS)
    persian_digits = "۰۱۲۳۴۵۶۷۸۹"
    terminals = "؟!."

    checked_abbr = 0
    for doc_index in range(500):
        bears_abbreviation = doc_index % 2 == 0
        sentences = []
        for s_index in range(int(rng.integers(2, 7))):
            row = [words[int(j)] for j in rng.integers(0, len(words), int(rng.integers(4, 10)))]
            if bears_abbreviation and s_index == 0:
                row.insert(
                    int(rng.integers(1, len(row))),
                    abbreviations[int(rng.integers(0, len(abbreviations)))],
                )
            if rng.random() < 0.5:
                decimal = (
                    persian_digits[int(rng.integers(1, 10))]
                    + persian_digits[int(rng.integers(0, 10))]
                    + "."
                    + persian_digits[int(rng.integers(0, 10))]
                )
                row.insert(int(rng.integers(1, len(row))), decimal)
            sentences.append(" ".join(row) + terminals[int(rng.integers(0, 3))])
        text = " ".join(sentences)

        recovered = [s.text for s in segment_true(text)]
        assert recovered == sentences, f"document {doc_index}"
        if bears_abbreviation:
            assert len(segment_by_notation(text)) > len(sentences), f"document {doc_index}"
            checked_abbr += 1

    elapsed = time.monotonic() - started
    assert elapsed < 30
    print(
        f"check 3: 500 documents recovered exactly; notation over-split "
        f"all {checked_abbr} abbreviation documents ({elapsed:.1f}s)"
    )


def test_04_normalization_idempotence_and_closure():
    """normalize is a fixpoint on 10k adversarial strings and its output
    never contains junk-class or mapped-domain codepoints."""
    started = time.monotonic()
    rng = np.random.default_rng(404)
    junk_patterns = [
        (kind, re.compile(pattern)) for kind, pattern, _ in DEFAULT_RULES.junk_patterns
    ]
    mapped = set(DEFAULT_RULES.char_map)
    marks = set(DEFAULT_RULES.strip_marks)

    words = list(lexicon())[:200]
    pieces = (
        words
        + list("يىكةأإٱـ")
        + list("٠١٢٣٤٥٦٧٨٩")
        + list("0123456789")
        + [chr(c) for c in range(0x064B, 0x0653)]
        + ["‌", "​", "‍", "‎", "⁠", "­"]
        + ["\x00", "\t", "\x1f", "\x7f", "\n", " ", "  "]
        + ["😀", "🎉", "☀", "⚡"]
        + ["<b>", "</div>", "<!-- x -->", "<span dir='rtl'>"]
        + ["https://example.com/a?b=1", "www.example.ir/page", "user.name@example.com"]
    )

    for _ in range(10_000):
        n = int(rng.integers(0, 12))
        parts = []
        for j in rng.integers(0, len(pieces), n):
            parts.append(pieces[int(j)])
            if rng.random() < 0.5:
                parts.append(" ")
        text = "".join(parts)

        out = normalize(text)
        assert normalize(out) == out
        for ch in out:
            assert ord(ch) not in mapped, f"mapped codepoint U+{ord(ch):04X} survived"
            assert ord(ch) not in marks, f"diacritic U+{ord(ch):04X} survived"
        for kind, pattern in junk_patterns:
            assert not pattern.search(out), f"{kind} survived in {out!r}"

    elapsed = time.monotonic() - started
    assert elapsed < 30
    print(f"check 4: 10000 strings idempotent and closed ({elapsed:.1f}s)")


def test_05_gradient_check():
    """Analytic gradients match central differences to 1e-4 on 50
    coordinates spanning every parameter family."""
    started = time.monotonic()
    config = desk_config(vocab_size=300, max_positions=32)
    assert (config.layers, config.heads, config.hidden) == (2, 2, 64)
    # central differences at h = 1e-4 need float64: the float32 model's
    # code, run on its initialization cast to float64
    params = init_params(config, 505)
    params = pack(params, np.float64, values=params)
    assert all(v.dtype == np.float64 for v in params.values())

    rng = np.random.default_rng(506)
    length, batch_size = 14, 3
    ids = rng.integers(5, config.vocab_size, (batch_size, length))
    attention = np.ones((batch_size, length), dtype=np.int64)
    attention[:, 11:] = 0
    ids[:, 11:] = 0
    segments = np.zeros((batch_size, length), dtype=np.int64)
    segments[:, 7:11] = 1
    labels = np.full((batch_size, length), IGNORE_INDEX, dtype=np.int64)
    labels[:, 2] = rng.integers(5, config.vocab_size, batch_size)
    labels[:, 5] = rng.integers(5, config.vocab_size, batch_size)
    batch = dict(
        input_ids=ids,
        segment_ids=segments,
        attention_mask=attention,
        mlm_labels=labels,
        nsp_labels=np.array([0, 1, 0]),
    )

    coordinate_rng = np.random.default_rng(507)
    names = sorted(params)
    coordinates = [
        (name, int(coordinate_rng.integers(0, params[name].size))) for name in names
    ]
    while len(coordinates) < 50:
        name = names[int(coordinate_rng.integers(0, len(names)))]
        coordinates.append((name, int(coordinate_rng.integers(0, params[name].size))))
    coordinates = coordinates[:50]

    worst = finite_difference_check(params, config, batch, coordinates, h=1e-4)
    elapsed = time.monotonic() - started
    assert worst < 1e-4
    assert elapsed < 120
    print(
        f"check 5: max relative error {worst:.3e} over {len(coordinates)} "
        f"coordinates, {len(names)} parameter families ({elapsed:.1f}s)"
    )


@pytest.mark.slow
def test_06_pretraining_convergence(pretrain_run):
    """2000 steps at batch 32 push MLM under half the uniform baseline and
    NSP dev accuracy on clean held-out pairs to at least 0.9."""
    run = pretrain_run
    vocab_size = run.config.vocab_size
    assert 900 <= vocab_size <= 1000
    assert run.checkpoint.step == _STEPS
    assert run.checkpoint.opt_config.beta1 == 0.9
    assert run.checkpoint.opt_config.beta2 == 0.98
    assert run.checkpoint.opt_config.batch_size == 32

    target = 0.5 * math.log(vocab_size)
    fixed_sample = collate(run.examples[:512])
    outputs = forward(run.checkpoint.params, run.config, fixed_sample)
    mlm_loss = compute_losses(outputs, fixed_sample)["mlm_loss"]

    # held-out pairs, assembled without masking: the dev question is pair
    # coherence, and masking is a training-input artifact
    dev_docs = generate_mlm_corpus(seed=99, n_docs=120)
    packing = PackingConfig(max_len=_MAX_LEN, rng_seed=7)
    pair_rng = np.random.default_rng((packing.rng_seed, 0))
    pairs = build_nsp_pairs([d.sentences for d in dev_docs], pair_rng)
    dev = collate([assemble_input(p, run.tokenizer, packing) for p in pairs])
    nsp_accuracy = float(
        (forward(run.checkpoint.params, run.config, dev)["nsp_logits"].argmax(-1)
         == dev["nsp_labels"]).mean()
    )

    assert mlm_loss <= target
    assert nsp_accuracy >= 0.9
    assert run.elapsed < 15 * 60
    print(
        f"check 6: MLM {mlm_loss:.4f} <= {target:.4f}, NSP dev accuracy "
        f"{nsp_accuracy:.4f} >= 0.9 on {len(pairs)} pairs ({run.elapsed:.0f}s)"
    )


@pytest.mark.slow
def test_06b_pretraining_artifacts_are_pinned(pretrain_run):
    """The fixture's example file, checkpoint and loss trace keep their
    sha256. No BLAS sum in training runs over more than L rows, so the
    bytes are the same at any BLAS thread count."""
    work = pretrain_run.examples_path.parent
    digests = {
        name: hashlib.sha256((work / name).read_bytes()).hexdigest()
        for name in ("examples.ptex", "model.flcp", "trace.csv")
    }
    assert digests == {
        "examples.ptex": "1fcfdd5a84e78fb04184d798d9c26991ffe44ea3c1106cc7e21493923557f6a6",
        "model.flcp": "48436a029c4781ead9da2adb5528b0abcfe2a0971a64c9950a28b3a97c846dba",
        "trace.csv": "4194d5a17c0ccf57dcb2e7f4979a638998cb2ab8067615227785cccb75b6707a",
    }
    print(f"check 6b: fixture digests {', '.join(d[:8] for d in digests.values())}")


# Check 7's seed sets and topic task, declared before any run: fine-tuning
# seeds for the pre-trained checkpoint, and random initializations, each
# saved at max_steps 0 and fine-tuned at seed 0.
_FINETUNE_SEEDS = range(5)
_RANDOM_INIT_SEEDS = range(777, 783)
_TOPICS = 4


def _topic_items(key, count):
    """Plain sentences of 5-8 words labelled with the topic they were drawn
    from, topics 0-3 in turn and no marker word: only what pre-training
    learned of the corpus's topics tells the classes apart."""
    rng = np.random.default_rng(key)
    items = []
    for index in range(count):
        topic = index % _TOPICS
        words = _sentence_words(rng, topic, int(rng.integers(5, 9)), inject_proper=False)
        items.append(LabeledText(" ".join(words), f"topic{topic}"))
    return items


def _best_dev_score(finetune, checkpoint, tokenizer, train, dev, config, seed):
    """The best dev score over the epochs of one fine-tuning run."""
    return max(finetune(checkpoint, tokenizer, train, dev, replace(config, seed=seed)).dev_trace)


@pytest.mark.slow
def test_07_finetuning_transfer(pretrain_run):
    """Over fine-tuning seeds 0-4, the pre-trained checkpoint's median
    classification accuracy reaches 0.95 and its median entity F1 0.90; on
    the topic task, the median over random initializations 777-782 stays
    strictly below the pre-trained checkpoint's median."""
    started = time.monotonic()
    run = pretrain_run
    tokenizer = run.tokenizer

    def over_seeds(finetune, train, dev, config):
        return [_best_dev_score(finetune, run.checkpoint, tokenizer, train, dev, config, seed)
                for seed in _FINETUNE_SEEDS]

    # both marker tasks are solvable from scratch given enough epochs;
    # classification uses the shortest budget that clears its threshold
    train_cls = generate_classification(seed=5, count=256)
    dev_cls = generate_classification(seed=6, count=96)
    cls_config = FinetuneConfig(
        label_inventory=classification_labels(2), epochs=2, learning_rate=5e-4, batch_size=16,
    )
    cls = over_seeds(finetune_sequence, train_cls, dev_cls, cls_config)

    train_ner = generate_ner(seed=5, count=256)
    dev_ner = generate_ner(seed=6, count=96)
    tags = sorted({t for item in train_ner + dev_ner for t in item.tags})
    ner_config = FinetuneConfig(label_inventory=tags, epochs=10, learning_rate=5e-4, batch_size=16)
    ner = over_seeds(finetune_tokens, train_ner, dev_ner, ner_config)

    # transfer: 8 items per class and 10 steps, where an encoder that never
    # saw the corpus stays near chance
    train_topic = _topic_items((2000, 9), 8 * _TOPICS)
    dev_topic = _topic_items((1000, 9), 96)
    topic_config = FinetuneConfig(
        label_inventory=[f"topic{t}" for t in range(_TOPICS)], epochs=5, learning_rate=5e-4,
        batch_size=16,
    )
    topic = over_seeds(finetune_sequence, train_topic, dev_topic, topic_config)
    topic_random = []
    for seed in _RANDOM_INIT_SEEDS:
        random_path = run.examples_path.parent / f"random{seed}.flcp"
        if not random_path.exists():
            pretrain(
                str(run.examples_path), run.config,
                OptimizerConfig(
                    learning_rate=_LEARNING_RATE, batch_size=32,
                    max_steps=0, warmup_steps=_WARMUP_STEPS,
                ),
                seed=seed, checkpoint_path=str(random_path),
            )
        topic_random.append(_best_dev_score(
            finetune_sequence, load_checkpoint(str(random_path)), tokenizer, train_topic,
            dev_topic, topic_config, 0))

    elapsed = time.monotonic() - started
    scores = {"cls": cls, "ner": ner, "topic": topic, "topic_random": topic_random}
    medians = {name: float(np.median(values)) for name, values in scores.items()}
    print("check 7: " + ", ".join(
        f"{name} median {medians[name]:.4f} of {[round(v, 4) for v in values]}"
        for name, values in scores.items()) + f" ({elapsed:.0f}s)")
    assert medians["cls"] >= 0.95
    assert medians["ner"] >= 0.90
    assert medians["topic_random"] < medians["topic"]
    assert elapsed < 10 * 60


def _brute_force_spans(tags):
    """Quadratic span enumeration under the lenient IOB reading."""
    n = len(tags)
    categories = {t.split("-", 1)[1] for t in tags if t != "O"}
    spans = set()
    for category in categories:
        begin, inside = f"B-{category}", f"I-{category}"
        for start in range(n):
            if tags[start] not in (begin, inside):
                continue
            # an I opener only counts when nothing of its category
            # immediately precedes it
            if tags[start] == inside and start > 0 and tags[start - 1] in (begin, inside):
                continue
            end = start
            while end + 1 < n and tags[end + 1] == inside:
                end += 1
            spans.add((category, start, end))
    return spans


def _brute_force_score(gold_corpus, pred_corpus):
    tp = fp = fn = 0
    for gold_tags, pred_tags in zip(gold_corpus, pred_corpus):
        gold_spans = _brute_force_spans(gold_tags)
        pred_spans = _brute_force_spans(pred_tags)
        tp += len(gold_spans & pred_spans)
        fp += len(pred_spans - gold_spans)
        fn += len(gold_spans - pred_spans)
    if tp == fp == fn == 0:
        return 1.0, 1.0, 1.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def test_08_metric_oracle_equivalence():
    """entity_f1 equals a brute-force span enumerator on 500 random corpora
    and f1_report reproduces hand-computed values exactly."""
    started = time.monotonic()
    rng = np.random.default_rng(808)
    categories = ("PER", "LOC", "ORG")
    tag_choices = ["O"] + [f"{k}-{c}" for k in "BI" for c in categories]

    for corpus_index in range(500):
        gold_corpus, pred_corpus = [], []
        for _ in range(int(rng.integers(3, 11))):
            length = int(rng.integers(1, 11))
            gold_corpus.append(
                [tag_choices[int(j)] for j in rng.integers(0, len(tag_choices), length)]
            )
            pred_corpus.append(
                [tag_choices[int(j)] for j in rng.integers(0, len(tag_choices), length)]
            )
        score = entity_f1(gold_corpus, pred_corpus)
        expected = _brute_force_score(gold_corpus, pred_corpus)
        assert (score.precision, score.recall, score.f1) == expected, corpus_index

    # hand-worked classification report:
    #   gold  a a a a b b b c c c
    #   pred  a a b a b b a c c b
    # a: tp 3, fp 1, fn 1 -> P 3/4, R 3/4, F1 3/4
    # b: tp 2, fp 2, fn 1 -> P 1/2, R 2/3, F1 4/7
    # c: tp 2, fp 0, fn 1 -> P 1,   R 2/3, F1 4/5
    gold = list("aaaabbbccc")
    pred = list("aabababccb")
    report = f1_report(gold, pred, labels=["a", "b", "c"])
    assert report.accuracy == 7 / 10
    assert report.per_class["a"].f1 == pytest.approx(3 / 4, abs=1e-12)
    assert report.per_class["b"].precision == pytest.approx(1 / 2, abs=1e-12)
    assert report.per_class["b"].recall == pytest.approx(2 / 3, abs=1e-12)
    assert report.per_class["b"].f1 == pytest.approx(4 / 7, abs=1e-12)
    assert report.per_class["c"].f1 == pytest.approx(4 / 5, abs=1e-12)
    assert report.macro_f1 == pytest.approx((3 / 4 + 4 / 7 + 4 / 5) / 3, abs=1e-12)
    assert report.weighted_f1 == pytest.approx(
        (4 * (3 / 4) + 3 * (4 / 7) + 3 * (4 / 5)) / 10, abs=1e-12
    )
    elapsed = time.monotonic() - started
    assert elapsed < 30
    print(f"check 8: 500 corpora agree with brute force exactly ({elapsed:.1f}s)")


_MANIFEST = """\
seed = 21
docs = 120
vocab_size = 400
min_frequency = 3
max_len = 48
steps = 80
corpus = corpus.jsonl
normalized = normalized.jsonl
segments = segments.jsonl
vocab = vocab.txt
examples = examples.ptex
checkpoint = model.flcp
trace = trace.csv
"""


def test_09_end_to_end_determinism(tmp_path):
    """Running the full manifest twice in separate processes yields
    byte-identical vocabulary, example file, and checkpoint."""
    started = time.monotonic()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    for name in ("one", "two"):
        workdir = tmp_path / name
        workdir.mkdir()
        manifest = workdir / "pipeline.txt"
        manifest.write_text(_MANIFEST, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "farsilm.cli", "run", "--manifest", str(manifest)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr

    for name in ("vocab.txt", "examples.ptex", "model.flcp", "trace.csv", "corpus.jsonl"):
        assert filecmp.cmp(tmp_path / "one" / name, tmp_path / "two" / name,
                           shallow=False), name
    elapsed = time.monotonic() - started
    assert elapsed < 15 * 60
    print(f"check 9: both pipeline runs byte-identical ({elapsed:.1f}s)")

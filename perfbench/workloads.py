"""The three workloads: set-up, one closed-loop operation, and its checks.

Each operation is what one caller would do and wait for. Passed a
``NullTracer`` it runs the plain workload that the end-to-end metrics
time. Passed a ``Tracer`` it runs the same work split into calls to each
layer's public functions, each wrapped in a span, and then a "probe"
(spans under ``bench.probe``) that repeats work the plain run does inside
a single call, so that work gets a time of its own: the encoding inside
example assembly and fine-tuning, and the pretraining steps inside
``pretrain()``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from farsilm.corpus import load_documents
from farsilm.finetune import (
    FinetuneConfig,
    finetune_sequence,
    finetune_tokens,
    predict,
    save_head_model,
)
from farsilm.metrics import accuracy, entity_f1, f1_report
from farsilm.model import desk_config, forward, gradients, init_params
from farsilm.pretrain_data import (
    IGNORE_INDEX,
    MaskingPolicy,
    PackingConfig,
    apply_mlm_mask,
    assemble_input,
    build_nsp_pairs,
    build_pretrain_examples,
    collate,
    read_examples,
    write_examples,
)
from farsilm.segmenter import segment_true
from farsilm.synthetic import (
    classification_labels,
    generate_classification,
    generate_mlm_corpus,
    generate_ner,
    generate_round_trip_sentences,
    ner_tag_inventory,
)
from farsilm.textnorm import normalize
from farsilm.training import (
    OptimizerConfig,
    adam_step,
    init_adam_state,
    load_checkpoint,
    pretrain,
    save_checkpoint,
)
from farsilm.wordpiece import (
    CLS,
    SEP,
    TokenizerTrainConfig,
    encode,
    save_vocab,
    train_wordpiece,
)

from . import checks, counts, junk
from .calibrate import Meter, Span, stamp


@dataclass(frozen=True)
class Shape:
    """Sizes of every workload; FULL is what the benchmark runs."""

    prep_docs: int = 1800
    docs: int = 900
    vocab: int = 1000
    max_len: int = 64
    batch: int = 32
    steps: int = 35  # steps per pretrain() call
    warmup_steps: int = 100
    replay_steps: int = 20
    train_items: int = 256  # per fine-tuning task
    heldout_items: int = 1024  # per fine-tuning task
    epochs: int = 2
    finetune_batch: int = 16
    predict_batch: int = 32
    n_classes: int = 4
    probe_batches: int = 8
    round_trip_sentences: int = 200
    min_latency_samples: int = 100  # ten beyond p90
    setup_reps: int = 3


FULL = Shape()
TINY = Shape(
    prep_docs=60, docs=40, vocab=300, max_len=32, batch=8, steps=6, warmup_steps=3,
    replay_steps=3, train_items=24, heldout_items=16, epochs=1, finetune_batch=8,
    predict_batch=8, probe_batches=2, round_trip_sentences=40, min_latency_samples=10,
    setup_reps=2,
)


@dataclass
class OpResult:
    wall: float  # wall seconds for the whole operation, kernels included
    cpu: float = 0.0  # CPU seconds of its measured work, kernels left out
    items: float = 0.0  # work done, in the workload's item
    items_span: Span | None = None  # the time the throughput divides by
    latencies: list[Span] = field(default_factory=list)
    slowness: float = 1.0  # median host slowness over it, see calibrate
    named: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)


@dataclass
class PrepState:
    work: Path
    seed: int
    shape: Shape
    digests: dict[str, str]
    corpus: Path
    documents: list
    round_trip: list[str]
    expected: list[str] | None = None  # normalized clean texts, filled by the first check


@dataclass
class PretrainState:
    work: Path
    seed: int
    shape: Shape
    digests: dict[str, str]
    examples: Path
    config: object
    opt: OptimizerConfig


@dataclass
class FinetuneState:
    work: Path
    seed: int
    shape: Shape
    digests: dict[str, str]
    tokenizer: object
    start: Path
    config: object
    train_cls: list
    heldout_cls: list
    train_ner: list
    heldout_ner: list


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _tokenizer_config(shape: Shape) -> TokenizerTrainConfig:
    return TokenizerTrainConfig(vocab_size=shape.vocab, min_frequency=3, alphabet_limit=1500)


class Prep:
    """JSONL corpus with junk -> normalize -> segment -> WordPiece ->
    MLM/NSP examples -> example file, at twice acceptance scale."""

    name = "prep"
    reference = setup_reference = "python"  # the calibrate kernel its work is like

    def min_ops(self, shape: Shape) -> int:
        # two, so that a run's throughput is not one operation's alone
        return max(2, math.ceil(shape.min_latency_samples / shape.prep_docs))

    def setup(self, work: Path, seed: int, shape: Shape):
        documents = junk.junk_corpus(seed, shape.prep_docs)
        corpus = work / "corpus.jsonl"
        junk.write_jsonl(corpus, documents)
        return PrepState(
            work=work, seed=seed, shape=shape,
            corpus=corpus, documents=documents,
            round_trip=generate_round_trip_sentences(seed, shape.round_trip_sentences),
            digests={"corpus": sha256(corpus)},
        )

    def op(self, st, tracer) -> OpResult:
        shape = st.shape
        packing = PackingConfig(max_len=shape.max_len, rng_seed=st.seed)
        policy = MaskingPolicy()
        vocab_path, examples_path = st.work / "vocab.txt", st.work / "examples.ptex"
        doc_times = []  # (start, end) stamps per document
        texts, per_doc = [], []
        t0 = perf_counter()
        with Meter(self.reference, probe=not tracer.enabled) as meter, tracer.span("bench.op"):
            first = stamp()
            with tracer.span("corpus.load"):
                docs = list(load_documents(st.corpus))
            for doc in docs:
                d0 = stamp()
                with tracer.span("textnorm.normalize"):
                    text = normalize(doc.text)
                with tracer.span("segmenter.segment"):
                    sentences = segment_true(text, doc_id=doc.id)
                doc_times.append((d0, stamp()))
                texts.append(text)
                per_doc.append([s.text for s in sentences])
            with tracer.span("wordpiece.train"):
                tokenizer = train_wordpiece([s for doc in per_doc for s in doc], _tokenizer_config(shape))
            with tracer.span("wordpiece.save_vocab"):
                save_vocab(tokenizer, vocab_path)
            if tracer.enabled:
                examples, pairs = _split_build(per_doc, tokenizer, packing, policy, tracer)
            else:
                examples = build_pretrain_examples(per_doc, tokenizer, packing, policy)
            with tracer.span("pretrain_data.write"):
                write_examples(examples, examples_path, len(tokenizer.vocab))
            whole = meter.span(first, stamp())
            if tracer.enabled:
                with tracer.span("bench.probe"), tracer.span("wordpiece.encode"):
                    sides = [text for pair in pairs for text in pair[:2]]
                    encoded = [encode(tokenizer, text) for text in sides]
        wall = perf_counter() - t0

        if st.expected is None:
            st.expected = [normalize(d.clean) for d in st.documents]
        failures = (
            checks.normalized(texts, st.expected)
            + checks.vocab(tokenizer, vocab_path)
            + checks.round_trip(tokenizer, st.round_trip)
            + checks.example_file(examples_path, examples, len(tokenizer.vocab))
            + checks.masking(examples, tokenizer, policy)
        )
        result = OpResult(
            wall=wall, cpu=whole.cpu, items=len(docs), items_span=whole,
            latencies=[meter.span(*times) for times in doc_times],
            slowness=meter.median_slowness(),
            digests={"vocab": sha256(vocab_path), "examples": sha256(examples_path)},
            failures=failures,
        )
        result.named["prep_docs_per_s"] = len(docs) / whole.scaled
        if tracer.enabled:
            lengths = [len(ids) for ids in encoded]
            truncated = sum(
                3 + a + b > shape.max_len for a, b in zip(lengths[::2], lengths[1::2])
            )
            result.counts = {
                "corpus.docs": len(docs),
                "textnorm.chars": sum(len(d.text) for d in docs),
                "textnorm.changed_share": sum(t != d.text for t, d in zip(texts, docs)) / len(docs),
                "segmenter.sentences": sum(len(s) for s in per_doc),
                "wordpiece.vocab": len(tokenizer.vocab),
                **counts.encode_counts(tokenizer, sides, encoded),
                "pretrain_data.examples": len(examples),
                "pretrain_data.truncated_share": truncated / len(pairs),
                "pretrain_data.masked_positions": counts.masked_positions(examples),
                "pretrain_data.file_bytes": examples_path.stat().st_size,
            }
        return result


def _split_build(per_doc, tokenizer, packing, policy, tracer):
    """build_pretrain_examples as separate pairing, assembly and masking
    calls, drawing from generators derived the way it derives them."""
    with tracer.span("pretrain_data.nsp_pairs"):
        pairs = build_nsp_pairs(per_doc, np.random.default_rng((packing.rng_seed, 0)))
    examples = []
    for idx, pair in enumerate(pairs):
        with tracer.span("pretrain_data.assemble"):
            example = assemble_input(pair, tokenizer, packing)
        with tracer.span("pretrain_data.mask"):
            rng = np.random.default_rng((packing.rng_seed, 1, idx))
            examples.append(apply_mlm_mask(example, tokenizer, policy, rng))
    return examples, pairs


class Pretrain:
    """pretrain() from a fresh checkpoint at acceptance shapes."""

    name = "pretrain"
    reference, setup_reference = "blas", "python"

    def min_ops(self, shape: Shape) -> int:
        return math.ceil(shape.min_latency_samples / (shape.steps - 1))

    def setup(self, work: Path, seed: int, shape: Shape):
        docs = generate_mlm_corpus(seed=seed, n_docs=shape.docs)
        tokenizer = train_wordpiece([s for d in docs for s in d.sentences], _tokenizer_config(shape))
        vocab_path, examples_path = work / "vocab.txt", work / "examples.ptex"
        save_vocab(tokenizer, vocab_path)
        examples = build_pretrain_examples(
            [d.sentences for d in docs], tokenizer,
            PackingConfig(max_len=shape.max_len, rng_seed=seed), MaskingPolicy(),
        )
        write_examples(examples, examples_path, len(tokenizer.vocab))
        return PretrainState(
            work=work, seed=seed, shape=shape, examples=examples_path,
            config=desk_config(len(tokenizer.vocab)),
            opt=OptimizerConfig(
                learning_rate=1e-3, batch_size=shape.batch,
                max_steps=shape.steps, warmup_steps=shape.warmup_steps,
            ),
            digests={"vocab": sha256(vocab_path), "examples": sha256(examples_path)},
        )

    def op(self, st, tracer) -> OpResult:
        shape = st.shape
        checkpoint = st.work / "model.flcp"
        checkpoint.unlink(missing_ok=True)
        steps = []  # a stamp at each step's log line
        t0 = perf_counter()
        with Meter(self.reference, probe=not tracer.enabled) as meter, tracer.span("bench.op"):
            first = stamp()
            with tracer.span("training.pretrain"):
                result = pretrain(
                    str(st.examples), st.config, st.opt, seed=st.seed,
                    checkpoint_path=str(checkpoint),
                    log=lambda _line: steps.append(stamp()), log_every=1,
                )
            call = meter.span(first, stamp())
            if tracer.enabled:
                with tracer.span("bench.probe"):
                    replay_counts = _replay(st, tracer)
        out = OpResult(
            wall=perf_counter() - t0, cpu=call.cpu,
            items=shape.batch * shape.max_len * shape.steps, items_span=call,
            # from one step's log line to the next: one whole step
            latencies=[meter.span(a, b) for a, b in zip(steps, steps[1:])],
            slowness=meter.median_slowness(),
            digests={"checkpoint": sha256(checkpoint)},
            failures=checks.pretrain_result(result, checkpoint, shape.steps),
        )
        out.named["pretrain_tokens_per_s"] = out.items / call.scaled
        out.named["mlm_loss_end"] = result.trace[-1][1]
        if tracer.enabled:
            out.counts = replay_counts
        return out


def _replay(st, tracer) -> dict[str, float]:
    """Steps like pretrain()'s, one public call per span: read the example
    file, then per step collate, forward, gradients and Adam, then save
    and reload a checkpoint. The forward call is extra work, timed alone."""
    shape = st.shape
    with tracer.span("pretrain_data.read"):
        examples, _ = read_examples(st.examples)
    with tracer.span("model.init_params"):
        params = init_params(st.config, st.seed)
    state = init_adam_state(params)
    batches = []
    for step in range(1, shape.replay_steps + 1):
        # the batch pretrain() draws for this step
        picks = np.random.default_rng((st.seed, 2, step)).integers(0, len(examples), shape.batch)
        with tracer.span("pretrain_data.collate"):
            batch = collate([examples[int(i)] for i in picks])
        with tracer.span("model.forward"):
            forward(params, st.config, batch)
        with tracer.span("model.gradients"):
            _, grads = gradients(params, st.config, batch)
        with tracer.span("training.adam"):
            adam_step(params, grads, state, st.opt)
        batches.append(batch)
    path = st.work / "replay.flcp"
    with tracer.span("training.save_checkpoint"):
        save_checkpoint(str(path), st.config, st.opt, params, state)
    with tracer.span("training.load_checkpoint"):
        load_checkpoint(str(path))
    return {
        **counts.step_counts(st.config, batches),
        "model.steps": len(batches),
        "pretrain_data.examples": len(examples),
        "pretrain_data.masked_positions": counts.masked_positions(examples),
        "pretrain_data.file_bytes": st.examples.stat().st_size,
    }


class Finetune:
    """Classification and tagging heads fine-tuned from a set-up
    checkpoint, then batched prediction and scoring on held-out sets."""

    name = "finetune"
    reference, setup_reference = "mixed", "python"

    def min_ops(self, shape: Shape) -> int:
        per_op = 2 * math.ceil(shape.heldout_items / shape.predict_batch)
        return math.ceil(shape.min_latency_samples / per_op)

    def setup(self, work: Path, seed: int, shape: Shape):
        docs = generate_mlm_corpus(seed=seed, n_docs=shape.docs)
        tokenizer = train_wordpiece([s for d in docs for s in d.sentences], _tokenizer_config(shape))
        vocab_path, start = work / "vocab.txt", work / "start.flcp"
        save_vocab(tokenizer, vocab_path)
        config = desk_config(len(tokenizer.vocab))
        params = init_params(config, seed)
        save_checkpoint(str(start), config, OptimizerConfig(max_steps=0), params, init_adam_state(params))
        return FinetuneState(
            work=work, seed=seed, shape=shape, tokenizer=tokenizer, start=start, config=config,
            train_cls=generate_classification(seed, shape.train_items, shape.n_classes),
            heldout_cls=generate_classification(seed + 1, shape.heldout_items, shape.n_classes),
            train_ner=generate_ner(seed, shape.train_items),
            heldout_ner=generate_ner(seed + 1, shape.heldout_items),
            digests={"vocab": sha256(vocab_path), "start_checkpoint": sha256(start)},
        )

    def op(self, st, tracer) -> OpResult:
        shape, tokenizer = st.shape, st.tokenizer
        labels, tags = classification_labels(shape.n_classes), ner_tag_inventory()
        cls_config = FinetuneConfig(labels, epochs=shape.epochs, batch_size=shape.finetune_batch, seed=st.seed)
        tag_config = FinetuneConfig(tags, epochs=shape.epochs, batch_size=shape.finetune_batch, seed=st.seed)
        cls_inputs = [item.text for item in st.heldout_cls]
        tag_inputs = [list(item.tokens) for item in st.heldout_ner]
        cls_pred, tag_pred = [], []
        heads = {"classifier": st.work / "classifier.flcp", "tagger": st.work / "tagger.flcp"}
        t0 = perf_counter()
        with Meter(self.reference, probe=not tracer.enabled) as meter, tracer.span("bench.op"):
            first = stamp()
            with tracer.span("training.load_checkpoint"):
                checkpoint = load_checkpoint(str(st.start))
            train_from = stamp()
            with tracer.span("finetune.sequence"):
                classifier = finetune_sequence(checkpoint, tokenizer, st.train_cls, [], cls_config).model
            with tracer.span("finetune.tokens"):
                tagger = finetune_tokens(checkpoint, tokenizer, st.train_ner, [], tag_config).model
            predicted = [stamp()]  # a stamp before the first predict call and after each
            for model, inputs, out in ((classifier, cls_inputs, cls_pred), (tagger, tag_inputs, tag_pred)):
                for start in range(0, len(inputs), shape.predict_batch):
                    with tracer.span("finetune.predict"):
                        out.extend(predict(model, tokenizer, inputs[start : start + shape.predict_batch]))
                    predicted.append(stamp())
            with tracer.span("metrics.eval"):
                gold = [item.label for item in st.heldout_cls]
                accuracy(gold, cls_pred)
                f1_report(gold, cls_pred, labels)
            with tracer.span("metrics.eval"):
                entity_f1([list(item.tags) for item in st.heldout_ner], tag_pred)
            with tracer.span("finetune.save_head"):
                save_head_model(str(heads["classifier"]), classifier)
                save_head_model(str(heads["tagger"]), tagger)
            whole = meter.span(first, stamp())
            if tracer.enabled:
                with tracer.span("bench.probe"):
                    probe_counts = _finetune_probe(st, checkpoint.params, tracer)
        items = (len(st.train_cls) + len(st.train_ner)) * shape.epochs
        training = meter.span(train_from, predicted[0])
        out = OpResult(
            wall=perf_counter() - t0, cpu=whole.cpu, items=items, items_span=training,
            latencies=[meter.span(a, b) for a, b in zip(predicted, predicted[1:])],
            slowness=meter.median_slowness(),
            digests={name: sha256(path) for name, path in heads.items()},
            failures=checks.predictions(cls_pred, labels, len(cls_inputs))
            + checks.tag_rows(tag_pred, st.heldout_ner, tags),
        )
        out.named["finetune_examples_per_s"] = items / training.scaled
        out.named["predict_seqs_per_s"] = (
            (len(cls_inputs) + len(tag_inputs)) / meter.span(predicted[0], predicted[-1]).scaled
        )
        if tracer.enabled:
            out.counts = probe_counts
        return out


def _finetune_probe(st, params, tracer) -> dict[str, float]:
    """Time the encoding that fine-tuning and prediction do inside their
    calls, and the encoder on fine-tuning-shaped batches."""
    shape, tokenizer = st.shape, st.tokenizer
    # the encode calls finetune makes: classification texts on every
    # batch of every epoch, tagging words once, held-out inputs once
    stream = [item.text for _ in range(shape.epochs) for item in st.train_cls]
    stream += [word for item in st.train_ner for word in item.tokens]
    stream += [item.text for item in st.heldout_cls]
    stream += [word for item in st.heldout_ner for word in item.tokens]
    with tracer.span("wordpiece.encode"):
        encoded = [encode(tokenizer, text) for text in stream]

    cls_id, sep_id = tokenizer.token_to_id[CLS], tokenizer.token_to_id[SEP]
    budget = st.config.max_positions - 2
    batches = []
    for b in range(shape.probe_batches):
        chunk = st.train_cls[b * shape.finetune_batch : (b + 1) * shape.finetune_batch]
        rows = [[cls_id] + encode(tokenizer, item.text)[:budget] + [sep_id] for item in chunk]
        width = max(len(r) for r in rows)
        ids = np.full((len(rows), width), tokenizer.pad_id, dtype=np.int64)
        attn = np.zeros_like(ids)
        for i, row in enumerate(rows):
            ids[i, : len(row)] = row
            attn[i, : len(row)] = 1
        batch = {
            "input_ids": ids, "segment_ids": np.zeros_like(ids), "attention_mask": attn,
            "mlm_labels": np.full_like(ids, IGNORE_INDEX), "nsp_labels": np.zeros(len(rows), dtype=np.int64),
        }
        with tracer.span("model.forward"):
            forward(params, st.config, batch)
        with tracer.span("model.gradients"):
            gradients(params, st.config, batch)
        batches.append(batch)
    return {
        **counts.encode_counts(tokenizer, stream, encoded),
        **counts.step_counts(st.config, batches),
        "model.steps": len(batches),
    }


WORKLOADS = {w.name: w for w in (Prep(), Pretrain(), Finetune())}

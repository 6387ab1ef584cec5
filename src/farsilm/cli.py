"""Batch command-line surface for the pipeline.

One subcommand per stage: corpus normalization and segmentation, corpus
stats, tokenizer training and encoding, pretraining example construction,
pretraining itself, fine-tuning, evaluation and synthetic data
generation. ``run`` executes a whole pipeline from a key-value
manifest file, with every path declared and every seed explicit; it calls
the same stage functions as the subcommands.

Exit codes: 0 on success, 1 on usage errors, 2 on data or configuration
errors. All flags use long names; ``--seed``, ``--in``, and ``--out`` are
uniform across subcommands.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import synthetic
from .corpus import corpus_stats, format_stats_table, load_documents, stats_records
from .errors import ConfigError, DataError, FarsilmError, check_seed
from .finetune import TASKS, FinetuneConfig, Task, load_head_model, predict, save_head_model
from .lineio import atomic_open, read_records, read_text, record_strings, write_records
from .model import ModelConfig, desk_config
from .pretrain_data import (
    PackingConfig,
    build_pretrain_examples,
    read_examples,
    write_examples,
)
from .segmenter import SegmenterConfig, segment_by_notation, segment_true
from .textnorm import normalize
from .training import OptimizerConfig, check_log_every, load_checkpoint, pretrain
from .wordpiece import (
    TokenizerTrainConfig,
    encode,
    encode_to_pieces,
    load_vocab,
    save_vocab,
    train_wordpiece,
)

# Defaults shared by subcommand flags (--batch-size) and manifest keys
# (batch_size). Model shape is the desk profile and the optimizer settings
# are OptimizerConfig's, except the learning rate: the desk recipe's 1e-3,
# not OptimizerConfig's 1e-4.
_DESK = desk_config(vocab_size=1)
_SHAPE_KEYS = ("layers", "heads", "hidden", "intermediate")
_ADAM_KEYS = ("learning_rate", "beta1", "beta2", "batch_size")
_PRETRAIN_OPTIONS = {
    **{key: getattr(_DESK, key) for key in _SHAPE_KEYS},
    **{key: getattr(OptimizerConfig, key) for key in _ADAM_KEYS},
    "learning_rate": 1e-3,
    "warmup": OptimizerConfig.warmup_steps,
    "log_every": 100,
}
_FINETUNE_OPTIONS = {
    key: getattr(FinetuneConfig, key) for key in ("epochs", "learning_rate", "batch_size", "seed")
}
_SYNTHETIC_OPTIONS = {"docs": 120, "count": 200, "classes": 2}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage problems; this surface uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _write_text(path: str, text: str) -> None:
    try:
        with atomic_open(path) as handle:
            handle.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _load_sentences(path: str, format: str) -> list[str]:
    """Sentence list from plain text (one per line) or line-records.

    Records may carry a ``sentences`` list (segmenter output) or a plain
    ``text`` field; both shapes feed the tokenizer trainer, strings only.
    """
    if format == "plain":
        return [line for line in read_text(path).splitlines() if line.strip()]
    sentences: list[str] = []
    for lineno, record in read_records(path):
        listed = record.get("sentences")
        if isinstance(listed, list):
            sentences.extend(record_strings(path, lineno, "sentences", listed))
        elif listed is not None:
            raise DataError(f"{path}: record on line {lineno} holds "
                            f"{json.dumps(listed, ensure_ascii=False)} in sentences, not a list")
        elif "text" in record:
            sentences.extend(record_strings(path, lineno, "text", [record["text"]]))
        else:
            raise DataError(f"{path}: record on line {lineno} has neither sentences nor text")
    return sentences


def _segmented_documents(path: str) -> list[list[str]]:
    """Per-document sentence lists, of strings, from segmenter output records."""
    documents = []
    for lineno, record in read_records(path):
        listed = record.get("sentences")
        if not isinstance(listed, list):
            raise DataError(
                f"{path}: record on line {lineno} lacks a sentences list; run segment first"
            )
        documents.append(record_strings(path, lineno, "sentences", listed))
    return documents


# --- stages, shared by the subcommands and the manifest runner ---


def _gen_synthetic(
    task,
    out,
    seed,
    docs=_SYNTHETIC_OPTIONS["docs"],
    count=_SYNTHETIC_OPTIONS["count"],
    classes=_SYNTHETIC_OPTIONS["classes"],
) -> None:
    if task == "mlm-corpus":
        corpus = synthetic.generate_mlm_corpus(seed=seed, n_docs=docs)
        records = [{"id": d.doc_id, "source": "synthetic", "text": d.text} for d in corpus]
        write_records(out, records)
        _note(f"wrote {len(records)} documents at {out}")
    elif task == "cls":
        items = synthetic.generate_classification(seed=seed, count=count, n_classes=classes)
        TASKS[task].write(out, items)
        _note(f"wrote {len(items)} labeled texts at {out}")
    else:
        items = synthetic.generate_ner(seed=seed, count=count)
        TASKS[task].write(out, items)
        _note(f"wrote {len(items)} tagged sequences at {out}")


def _normalize(infile, out, format) -> None:
    if format == "plain":
        lines = [normalize(line) for line in read_text(infile).splitlines()]
        _write_text(out, "\n".join(lines) + ("\n" if lines else ""))
        _note(f"normalized {len(lines)} lines into {out}")
        return
    records = [
        {"id": doc.id, "source": doc.source, "text": normalize(doc.text)}
        for doc in load_documents(infile, format=format)
    ]
    write_records(out, records)
    _note(f"normalized {len(records)} documents into {out}")


def _segment(infile, out, format, mode="true", min_tokens=SegmenterConfig.min_tokens) -> None:
    config = SegmenterConfig(min_tokens=min_tokens)
    split = segment_by_notation if mode == "notation" else segment_true
    records = []
    total = 0
    for doc in load_documents(infile, format=format):
        sentences = split(doc.text, config, doc_id=doc.id)
        total += len(sentences)
        records.append(
            {"id": doc.id, "source": doc.source, "sentences": [s.text for s in sentences]}
        )
    write_records(out, records)
    _note(f"segmented {len(records)} documents into {total} sentences at {out}")


def _train_tokenizer(infile, out, format, config: TokenizerTrainConfig) -> None:
    model = train_wordpiece(_load_sentences(infile, format), config)
    save_vocab(model, out)
    _note(f"trained vocabulary of {len(model.vocab)} tokens at {out}")


def _build_pretrain(infile, vocab, out, max_len, seed) -> None:
    model = load_vocab(vocab)
    documents = _segmented_documents(infile)
    packing = PackingConfig(max_len=max_len, rng_seed=seed)
    examples = build_pretrain_examples(documents, model, packing)
    write_examples(examples, out, vocab_size=len(model.vocab))
    _note(f"wrote {len(examples)} examples at {out}")


def _pretrain_configs(options: dict, steps, vocab_size, max_positions):
    """Model and optimizer configs from the pretraining options."""
    check_log_every(options["log_every"])
    model_config = ModelConfig(
        **{key: options[key] for key in _SHAPE_KEYS},
        vocab_size=vocab_size,
        max_positions=max_positions,
    )
    opt_config = OptimizerConfig(
        **{key: options[key] for key in _ADAM_KEYS},
        max_steps=steps,
        warmup_steps=options["warmup"],
    )
    return model_config, opt_config


def _pretrain(examples, out, trace, seed, steps, max_positions, options: dict) -> None:
    """Pretrain on an example file; ``max_positions`` 0 means its length."""
    table, vocab_size = read_examples(examples)
    model_config, opt_config = _pretrain_configs(
        options, steps, vocab_size, max_positions or table.max_len)
    result = pretrain(
        examples,
        model_config,
        opt_config,
        seed=seed,
        checkpoint_path=out,
        trace_path=trace,
        log=_note,
        log_every=options["log_every"],
    )
    _note(f"checkpoint at step {result.step} written to {out}")


def _finetune(task: Task, checkpoint, vocab, train, dev, out, labels, options: dict) -> None:
    """Fine-tune a head; ``labels`` None takes the inventory from the data."""
    checkpoint = load_checkpoint(checkpoint)
    tokenizer = load_vocab(vocab)
    train_items = task.load(train)
    dev_items = task.load(dev)
    if labels is None:
        labels = tuple(sorted({x for item in train_items + dev_items for x in task.labels(item)}))
    config = FinetuneConfig(label_inventory=labels, **options)
    outcome = task.finetune(checkpoint, tokenizer, train_items, dev_items, config)
    for epoch, score in enumerate(outcome.dev_trace, start=1):
        _note(f"epoch {epoch}: dev {task.score_name} {score:.4f}")
    save_head_model(out, outcome.model)
    _note(f"{outcome.model.kind} with labels {labels} written to {out}")


def _evaluate(task: Task, model_path, vocab, infile):
    """(report records, printable table, headline score) for a head on a file."""
    model = load_head_model(model_path)
    if model.kind != task.head_kind:
        raise DataError(
            f"{model_path} holds a {model.kind} head; eval-{task.name} needs a {task.head_kind}"
        )
    tokenizer = load_vocab(vocab)
    items = task.load(infile)
    pred = predict(model, tokenizer, [task.inputs(item) for item in items])
    return task.report(items, pred, model.labels)


# --- subcommands without a manifest counterpart ---


def _cmd_stats(args) -> None:
    config = SegmenterConfig()
    counted = (
        (doc, len(segment_true(doc.text, config, doc_id=doc.id)))
        for doc in load_documents(args.infile, format=args.format)
    )
    stats = corpus_stats(counted)
    print(format_stats_table(stats))
    if args.out:
        write_records(args.out, stats_records(stats))


def _cmd_encode(args) -> None:
    model = load_vocab(args.vocab)
    records = []
    for line in read_text(args.infile).splitlines():
        if not line.strip():
            continue
        record = {"text": line, "ids": encode(model, line)}
        if args.pieces:
            record["pieces"] = encode_to_pieces(model, line)
        records.append(record)
    write_records(args.out, records)
    _note(f"encoded {len(records)} lines into {args.out}")


def _cmd_eval(task: Task, args) -> None:
    records, table, _ = _evaluate(task, args.model, args.vocab, args.infile)
    print(table)
    if args.out:
        write_records(args.out, records)


# --- manifest runner ---

_MANIFEST_PATHS = ("corpus", "normalized", "segments", "vocab", "examples", "checkpoint")


class _Manifest:
    """A manifest's key = value entries. Lookups record the key, so that
    :meth:`reject_unread` can name every key the runner never reads."""

    def __init__(self, path: str):
        self.base = Path(path).parent
        self.entries: dict[str, str] = {}
        self.read: set[str] = set()
        for lineno, line in enumerate(read_text(path).splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}: line {lineno} is not a key = value entry")
            key, _, value = stripped.partition("=")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise ConfigError(f"{path}: line {lineno} has an empty key or value")
            if key in self.entries:
                raise ConfigError(f"{path}: duplicate key {key!r} on line {lineno}")
            self.entries[key] = value

    def has(self, key: str) -> bool:
        self.read.add(key)
        return key in self.entries

    def number(self, key: str, default):
        """The value of ``key`` as the default's type; a None default makes
        ``key`` a required integer."""
        if not self.has(key):
            if default is None:
                raise ConfigError(f"manifest lacks the required {key} key")
            return default
        kind = float if isinstance(default, float) else int
        try:
            return kind(self.entries[key])
        except ValueError:
            what = "a number" if kind is float else "an integer"
            raise ConfigError(f"manifest key {key} is not {what}: {self.entries[key]!r}") from None

    def count(self, key: str, default: int) -> int:
        """The value of ``key`` as an integer of at least 1."""
        value = self.number(key, default)
        if value < 1:
            raise ConfigError(f"manifest key {key} must be at least 1, got {value}")
        return value

    def path(self, key: str) -> str:
        if not self.has(key):
            raise ConfigError(f"manifest lacks the required {key} path")
        return str(self.base / self.entries[key])

    def reject_unread(self) -> None:
        unread = sorted(set(self.entries) - self.read)
        if unread:
            raise ConfigError(f"manifest has unknown keys {unread}")


def _finetune_stages(manifest: _Manifest, task: Task, seed: int, capacity: int):
    """Read and check a task's manifest keys. Returns its two stages: one
    writes the synthetic data and checks that every item fits ``capacity``
    positions, before pretraining; the other fine-tunes and reports."""
    name = task.name
    train, dev, model, report = (
        manifest.path(f"{name}_{key}") for key in ("train", "dev", "model", "report")
    )
    # 300 items here, where gen-synthetic's --count defaults to 200
    count = manifest.count(f"{name}_count", 300)
    dev_count = max(2, count // 4)
    if name == "cls":
        classes = manifest.number("cls_classes", _SYNTHETIC_OPTIONS["classes"])
        labels = synthetic.classification_labels(classes)
        if min(count, dev_count) < classes:
            raise ConfigError(
                f"cls_count {count} and its dev split of {dev_count} items (a quarter of "
                f"cls_count, at least 2) must each cover every class at least once "
                f"({classes} classes)"
            )
    else:
        classes, labels = _SYNTHETIC_OPTIONS["classes"], synthetic.ner_tag_inventory()
    options = {
        key: seed if key == "seed" else manifest.number(f"{name}_{key}", default)
        for key, default in _FINETUNE_OPTIONS.items()
    }
    FinetuneConfig(label_inventory=labels, **options)

    def write_data(vocab):
        _gen_synthetic(name, train, seed, count=count, classes=classes)
        _gen_synthetic(name, dev, seed + 1, count=dev_count, classes=classes)
        tokenizer = load_vocab(vocab)
        for path in (train, dev):
            # the DataError fine-tuning would raise on an item that does not fit
            task.encode([task.inputs(item) for item in task.load(path)], tokenizer, capacity)

    def run(checkpoint, vocab):
        _finetune(task, checkpoint, vocab, train, dev, model, labels, options)
        records, _, score = _evaluate(task, model, vocab, dev)
        write_records(report, records)
        _note(f"{name}: dev {task.score_name} {score:.4f}, report at {report}")

    return write_data, run


def _cmd_run(args) -> None:
    manifest = _Manifest(args.manifest)
    number = manifest.number

    # every key is read and checked before the first stage writes a file
    seed = number("seed", None)
    check_seed(seed)
    paths = {key: manifest.path(key) for key in _MANIFEST_PATHS}
    for target in paths.values():
        parent = Path(target).parent
        if not parent.is_dir():
            raise DataError(f"manifest output directory {parent} does not exist")
    docs = manifest.count("docs", _SYNTHETIC_OPTIONS["docs"])
    # The manifest's own defaults where the subcommands differ: vocab_size
    # 1,000 (train-tokenizer: 100,000), max_len 64 (build-pretrain: 512) and
    # steps 100 (pretrain: required). Each surface keeps its values, so
    # existing manifests and command lines produce the same artifacts.
    tokenizer_config = TokenizerTrainConfig(
        vocab_size=number("vocab_size", 1000),
        min_frequency=number("min_frequency", TokenizerTrainConfig.min_frequency),
        alphabet_limit=number("alphabet_limit", TokenizerTrainConfig.alphabet_limit),
    )
    max_len = number("max_len", 64)
    PackingConfig(max_len=max_len, rng_seed=seed)
    finetune_stages = [
        _finetune_stages(manifest, task, seed, max_len)
        for task in TASKS.values() if manifest.has(f"{task.name}_model")
    ]
    trace = manifest.path("trace") if manifest.has("trace") else None
    steps = number("steps", 100)
    options = {key: number(key, default) for key, default in _PRETRAIN_OPTIONS.items()}
    # the trained vocabulary's size is known only later; its cap stands in
    _pretrain_configs(options, steps, tokenizer_config.vocab_size, max_len)
    manifest.reject_unread()

    _gen_synthetic("mlm-corpus", paths["corpus"], seed, docs=docs)
    _normalize(paths["corpus"], paths["normalized"], "line-records")
    _segment(paths["normalized"], paths["segments"], "line-records")
    _train_tokenizer(paths["segments"], paths["vocab"], "line-records", tokenizer_config)
    for write_data, _ in finetune_stages:
        write_data(paths["vocab"])
    _build_pretrain(paths["segments"], paths["vocab"], paths["examples"], max_len, seed)
    _pretrain(paths["examples"], paths["checkpoint"], trace, seed, steps, 0, options)
    for _, run in finetune_stages:
        run(paths["checkpoint"], paths["vocab"])


# --- parser assembly ---


def _add_io(parser, out_required: bool = True):
    parser.add_argument("--in", dest="infile", required=True, help="input file path")
    parser.add_argument("--out", required=out_required, help="output file path")


def _add_format(parser, default: str):
    parser.add_argument(
        "--format",
        choices=("plain", "line-records"),
        default=default,
        help=f"input layout (default {default})",
    )


def _add_options(parser, options: dict):
    """One --flag-name per key_name of a defaults table."""
    for key, default in options.items():
        parser.add_argument("--" + key.replace("_", "-"), type=type(default), default=default)


def _options(args, table: dict) -> dict:
    return {key: getattr(args, key) for key in table}


def build_parser() -> _Parser:
    parser = _Parser(prog="farsilm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("normalize", help="clean and standardize text")
    _add_io(p)
    _add_format(p, "plain")
    p.set_defaults(handler=lambda a: _normalize(a.infile, a.out, a.format))

    p = sub.add_parser("segment", help="split documents into sentences")
    _add_io(p)
    _add_format(p, "line-records")
    p.add_argument("--mode", choices=("true", "notation"), default="true")
    p.add_argument("--min-tokens", type=int, default=SegmenterConfig.min_tokens)
    p.set_defaults(handler=lambda a: _segment(a.infile, a.out, a.format, a.mode, a.min_tokens))

    p = sub.add_parser("stats", help="per-source document and sentence counts")
    _add_io(p, out_required=False)
    _add_format(p, "line-records")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("train-tokenizer", help="learn a subword vocabulary")
    _add_io(p)
    _add_format(p, "line-records")
    p.add_argument("--vocab-size", type=int, default=TokenizerTrainConfig.vocab_size)
    p.add_argument("--min-freq", type=int, default=TokenizerTrainConfig.min_frequency)
    p.add_argument("--alphabet", type=int, default=TokenizerTrainConfig.alphabet_limit)
    p.set_defaults(handler=lambda a: _train_tokenizer(
        a.infile, a.out, a.format,
        TokenizerTrainConfig(vocab_size=a.vocab_size, min_frequency=a.min_freq, alphabet_limit=a.alphabet),
    ))

    p = sub.add_parser("encode", help="tokenize text lines into id records")
    _add_io(p)
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--pieces", action="store_true", help="also record subword pieces")
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser("build-pretrain", help="construct masked sentence-pair examples")
    _add_io(p)
    p.add_argument("--vocab", required=True)
    p.add_argument("--max-len", type=int, default=PackingConfig.max_len)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=lambda a: _build_pretrain(a.infile, a.vocab, a.out, a.max_len, a.seed))

    p = sub.add_parser("pretrain", help="train the encoder on an example file")
    p.add_argument("--examples", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--trace", help="loss trace CSV path")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--max-positions", type=int, default=0, help="0 means the example length")
    _add_options(p, _PRETRAIN_OPTIONS)
    p.set_defaults(handler=lambda a: _pretrain(
        a.examples, a.out, a.trace, a.seed, a.steps, a.max_positions, _options(a, _PRETRAIN_OPTIONS)))

    for task in TASKS.values():
        p = sub.add_parser(
            f"finetune-{task.name}", help=f"fine-tune a head, tracking dev {task.score_name}")
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--vocab", required=True)
        p.add_argument("--train", required=True)
        p.add_argument("--dev", required=True)
        p.add_argument("--out", required=True, help="head model path")
        p.add_argument("--labels", help="comma-separated inventory (default: from train data)")
        _add_options(p, _FINETUNE_OPTIONS)
        p.set_defaults(handler=lambda a, task=task: _finetune(
            task, a.checkpoint, a.vocab, a.train, a.dev, a.out,
            tuple(x.strip() for x in a.labels.split(",") if x.strip()) if a.labels else None,
            _options(a, _FINETUNE_OPTIONS)))

    for task in TASKS.values():
        p = sub.add_parser(f"eval-{task.name}", help="score predictions against gold labels")
        p.add_argument("--model", required=True, help="head model path")
        p.add_argument("--vocab", required=True)
        _add_io(p, out_required=False)
        p.set_defaults(handler=lambda a, task=task: _cmd_eval(task, a))

    p = sub.add_parser("gen-synthetic", help="write a seeded synthetic dataset")
    p.add_argument("task", choices=("mlm-corpus", "cls", "ner"))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--docs", type=int, default=_SYNTHETIC_OPTIONS["docs"], help="mlm-corpus document count")
    p.add_argument("--count", type=int, default=_SYNTHETIC_OPTIONS["count"], help="cls/ner item count")
    p.add_argument("--classes", type=int, default=_SYNTHETIC_OPTIONS["classes"], help="cls class count")
    p.set_defaults(handler=lambda a: _gen_synthetic(a.task, a.out, a.seed, a.docs, a.count, a.classes))

    p = sub.add_parser("run", help="execute a whole pipeline from a manifest")
    p.add_argument("--manifest", required=True, help="key = value manifest file")
    p.set_defaults(handler=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:  # each --seed flag
            check_seed(args.seed)
        args.handler(args)
    except (FarsilmError, OSError) as exc:
        print(f"farsilm {args.command}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fine-tuning a pretrained encoder for classification and tagging.

Two heads are supported: a feed-forward softmax layer over the pooled
[CLS] state for sequence classification, and a per-position affine layer
over the final hidden states for IOB token tagging. Both fine-tune every
encoder weight together with the head.

Subword alignment for tagging follows the first-piece rule: when a word
splits into several pieces, only the first piece carries the word's tag
and the continuations are ignored by the loss. Predictions are read back
from first-piece positions, so tag sequences always line up with words.
The encoder's last layer runs only on the rows a head reads: [CLS] for
the classifier, [CLS] and each word's first piece for the tagger, in
training, in the per-epoch dev scoring and in prediction alike.

``TASKS`` is the one home of what differs between the two tasks: their
data files, what the model reads from an item, its labels and the report
that scores predictions. The training loop, prediction and the CLI's
``finetune-*``/``eval-*`` subcommands all read it.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

import numpy as np

from . import model as encoder
from . import wordpiece as wp
from .errors import ConfigError, DataError, check_positive, check_seed
from .lineio import atomic_open, read_records, read_text, record_strings, write_records
from .metrics import (
    _parse_tag,
    accuracy,
    entity_f1,
    entity_score_records,
    eval_report_records,
    f1_report,
    format_entity_score,
    format_eval_report,
)
from .model import ModelConfig, _truncated_normal, head_gradients
from .pretrain_data import IGNORE_INDEX
from .training import (
    AdamState,
    Checkpoint,
    OptimizerConfig,
    adam_step,
    check_finite_gradients,
    init_adam_state,
    load_checkpoint,
    save_checkpoint,
)

# inputs per forward pass in predict and in the per-epoch dev scoring
PREDICT_BATCH = 32


@dataclass(frozen=True)
class LabeledText:
    """One classification example."""

    text: str
    label: str

    def __post_init__(self):
        if not self.label:
            raise DataError("classification label must be nonempty")


@dataclass(frozen=True)
class TaggedSequence:
    """One tagging example: words with one IOB tag each."""

    tokens: tuple[str, ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "tags", tuple(self.tags))
        if len(self.tokens) != len(self.tags):
            raise DataError(
                f"{len(self.tokens)} tokens but {len(self.tags)} tags"
            )
        if not self.tokens:
            raise DataError("tagged sequence must hold at least one token")
        for token in self.tokens:
            # split() cuts at exactly the characters isspace() names, and
            # leaves nothing of an empty token
            if token.split() != [token]:
                raise DataError(f"token {token!r} is empty or holds whitespace")
        # a tagged file's columns are tab-split lines
        for tag in self.tags:
            if not tag or any(ch in tag for ch in "\t\n\r"):
                raise DataError(f"tag {tag!r} is empty or holds a tab or a line break")


@dataclass(frozen=True)
class FinetuneConfig:
    label_inventory: tuple[str, ...]
    epochs: int = 5
    learning_rate: float = 5e-4
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.label_inventory, str):
            raise ConfigError(f"label inventory is the string {self.label_inventory!r}, "
                              "not a sequence of labels")
        object.__setattr__(self, "label_inventory", tuple(self.label_inventory))
        if not self.label_inventory:
            raise ConfigError("label inventory must be nonempty")
        for label in self.label_inventory:
            if not isinstance(label, str) or not label:
                raise ConfigError(f"label {label!r} is not a non-empty string")
        if len(set(self.label_inventory)) != len(self.label_inventory):
            raise ConfigError("label inventory holds duplicates")
        if self.epochs < 0:
            raise ConfigError("epochs cannot be negative")
        check_positive("learning_rate", self.learning_rate)
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        check_seed(self.seed)


@dataclass(frozen=True)
class HeadModel:
    """A fine-tuned encoder plus its task head and label inventory."""

    kind: str
    model_config: ModelConfig
    params: dict[str, np.ndarray]
    head_w: np.ndarray
    head_b: np.ndarray
    labels: tuple[str, ...]
    # sha256 of the vocabulary file it was fine-tuned with; None in head
    # files written before heads recorded it
    vocab_sha256: str | None = None


@dataclass(frozen=True)
class FinetuneOutcome:
    model: HeadModel
    dev_trace: tuple[float, ...]


def load_labeled(path: str) -> list[LabeledText]:
    """Read {text, label} line records; both fields must be strings."""
    items = []
    for lineno, record in read_records(path):
        for field in ("text", "label"):
            if field not in record:
                raise DataError(f"{path}: record on line {lineno} lacks the {field} field")
            record_strings(path, lineno, field, [record[field]])
        items.append(LabeledText(text=record["text"], label=record["label"]))
    return items


def write_labeled(path: str, items) -> int:
    return write_records(path, ({"text": i.text, "label": i.label} for i in items))


def load_tagged(path: str) -> list[TaggedSequence]:
    """Read token<TAB>tag lines with blank lines between sequences."""
    sequences = []
    tokens: list[str] = []
    tags: list[str] = []
    # universal newlines, as a text-mode file read would see them
    for lineno, raw in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            if tokens:
                sequences.append(TaggedSequence(tuple(tokens), tuple(tags)))
                tokens, tags = [], []
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise DataError(f"malformed token line {lineno} in {path}")
        tokens.append(parts[0])
        tags.append(parts[1])
    if tokens:
        sequences.append(TaggedSequence(tuple(tokens), tuple(tags)))
    return sequences


def write_tagged(path: str, sequences) -> int:
    count = 0
    with atomic_open(path) as handle:
        for seq in sequences:
            for token, tag in zip(seq.tokens, seq.tags):
                handle.write(f"{token}\t{tag}\n")
            handle.write("\n")
            count += 1
    return count


def _check_tokenizer(tokenizer: wp.WordPieceModel, config: ModelConfig,
                     vocab_sha256: str | None = None) -> None:
    """The tokenizer must fit the model: its size always, and its digest
    when the model records the one it was fine-tuned with."""
    if len(tokenizer.vocab) != config.vocab_size:
        raise ConfigError(
            f"tokenizer vocabulary holds {len(tokenizer.vocab)} entries, "
            f"model expects {config.vocab_size}"
        )
    if vocab_sha256 not in (None, tokenizer.vocab_sha256):
        raise ConfigError(
            f"the model was fine-tuned with a vocabulary of sha256 {vocab_sha256}, "
            f"but this vocabulary has sha256 {tokenizer.vocab_sha256}"
        )


def _pad(rows: list[list[int]], fill: int) -> np.ndarray:
    out = np.full((len(rows), max(len(r) for r in rows)), fill, dtype=np.int64)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def _pad_batch(rows: list[list[int]], pad_id: int):
    ids = _pad(rows, pad_id)
    return {
        "input_ids": ids,
        "segment_ids": np.zeros_like(ids),
        "attention_mask": _pad([[1] * len(r) for r in rows], 0),
    }


def _encode_texts(texts, tokenizer, capacity: int, where: str = "input"):
    """[CLS] pieces [SEP] per text, truncated to the model's capacity; no
    first-piece positions (None). Nothing is refused, so ``where`` goes
    unused."""
    cls_id = tokenizer.token_to_id[wp.CLS]
    sep_id = tokenizer.token_to_id[wp.SEP]
    budget = capacity - 2
    return [[cls_id] + wp.encode(tokenizer, text)[:budget] + [sep_id] for text in texts], None


def _encode_token_rows(token_seqs, tokenizer, capacity: int, where: str = "input"):
    """Piece rows for word sequences plus each word's first-piece position;
    a sequence longer than the model's capacity is a DataError naming
    ``where`` the sequences come from."""
    cls_id = tokenizer.token_to_id[wp.CLS]
    sep_id = tokenizer.token_to_id[wp.SEP]
    rows = []
    firsts = []
    for index, tokens in enumerate(token_seqs):
        ids = [cls_id]
        first = []
        for token in tokens:
            piece_ids = wp.encode(tokenizer, token)
            first.append(len(ids))
            ids.extend(piece_ids)
        ids.append(sep_id)
        if len(ids) > capacity:
            raise DataError(
                f"{where} sequence {index} needs {len(ids)} pieces, model capacity is {capacity}"
            )
        rows.append(ids)
        firsts.append(first)
    return rows, firsts


def _cls_report(items, predicted, labels):
    gold = [item.label for item in items]
    report = f1_report(gold, predicted, labels)
    score = accuracy(gold, predicted)
    return eval_report_records(report), f"accuracy {score:.4f}\n{format_eval_report(report)}", score


def _ner_report(items, predicted, labels):
    score = entity_f1([list(item.tags) for item in items], predicted)
    return entity_score_records(score), format_entity_score(score), score.f1


@dataclass(frozen=True)
class Task:
    """What one fine-tuning task does differently; the loop is shared."""

    name: str  # the CLI's finetune-<name>/eval-<name> and manifest <name>_* keys
    head_kind: str  # what a head model file records
    source: str  # the encoder output the head reads: "pooled", or "sequence" at first pieces
    score_name: str
    load: Callable  # path -> items
    write: Callable  # (path, items) -> item count
    encode: Callable  # (inputs, tokenizer, capacity, where) -> (piece rows, first pieces or None)
    inputs: Callable  # item -> model input
    labels: Callable  # item -> its labels, one per item or one per word
    report: Callable  # (items, predicted, labels) -> (records, table, headline score)

    def finetune(self, checkpoint: Checkpoint, tokenizer: wp.WordPieceModel, train, dev,
                 config: FinetuneConfig) -> FinetuneOutcome:
        """Fine-tune the encoder and this task's head together; ``dev_trace``
        holds the report's headline score on ``dev`` after each epoch.
        Rows are encoded once, before training. A non-finite gradient is a
        DataError naming the epoch, the step and the tensor, raised before
        that step's update."""
        mcfg = checkpoint.model_config
        _check_tokenizer(tokenizer, mcfg)
        if not train:
            raise DataError("training set is empty")
        label_to_id = {label: i for i, label in enumerate(config.label_inventory)}
        train_ids = _label_ids(self, train, label_to_id, "train")
        _label_ids(self, dev, label_to_id, "dev")
        rows, firsts = self.encode(list(map(self.inputs, train)), tokenizer, mcfg.max_positions,
                                   "train")
        dev_rows = self.encode(list(map(self.inputs, dev)), tokenizer, mcfg.max_positions, "dev")
        if firsts is None:
            gold_rows = np.array(train_ids)[:, 0]  # each item's one label
        else:
            # word tags sit on first pieces; every other position is ignored
            gold_rows = [[IGNORE_INDEX] * len(row) for row in rows]
            for gold, first, ids in zip(gold_rows, firsts, train_ids):
                for pos, tag_id in zip(first, ids):
                    gold[pos] = tag_id

        n_labels = len(config.label_inventory)
        rng = np.random.default_rng((config.seed, 4))
        # the head takes the encoder's dtype, so its backward pass does too
        dtype = checkpoint.params["tok_emb"].dtype
        full = {
            **checkpoint.params,
            "head_w": _truncated_normal(rng, (mcfg.hidden, n_labels), 0.02).astype(dtype),
            "head_b": np.zeros(n_labels, dtype),
        }
        # one copy of the encoder and the head, into the buffers adam_step runs over
        full = encoder.pack(full, values=full)
        state = init_adam_state(full)
        steps = config.epochs * -(-len(train) // config.batch_size)
        opt = OptimizerConfig(learning_rate=config.learning_rate, batch_size=config.batch_size,
                              max_steps=max(1, steps))
        trace = []
        for epoch in range(config.epochs):
            order = np.random.default_rng((config.seed, 5, epoch)).permutation(len(train))
            for start in range(0, len(train), config.batch_size):
                picks = order[start : start + config.batch_size]
                batch = _pad_batch([rows[i] for i in picks], tokenizer.pad_id)
                gold = (gold_rows[picks] if firsts is None
                        else _pad([gold_rows[i] for i in picks], IGNORE_INDEX))
                grads = head_gradients(full, mcfg, batch, gold)
                check_finite_gradients(grads, f"epoch {epoch + 1} step {state.step + 1}")
                adam_step(full, grads, state, opt)
            if dev:
                model = _assemble(self.head_kind, mcfg, full, config.label_inventory, tokenizer)
                predicted = _predict_rows(self, model, *dev_rows, tokenizer.pad_id)
                _, _, score = self.report(dev, predicted, config.label_inventory)
                trace.append(score)

        model = _assemble(self.head_kind, mcfg, full, config.label_inventory, tokenizer)
        return FinetuneOutcome(model=model, dev_trace=tuple(trace))

    def reads(self, batch, firsts):
        """The final states this task's head reads besides [CLS], as
        ``_encode`` takes them: none for the pooled vector, each word's
        first piece for a tagger. ``firsts`` holds the first-piece
        positions of each batch row, or None for a classifier."""
        reads = np.zeros(batch["input_ids"].shape, bool)
        for row, first in enumerate(firsts or ()):
            reads[row, first] = True
        return reads


TASKS = {
    "cls": Task(
        "cls", "classifier", "pooled", "accuracy", load_labeled, write_labeled, _encode_texts,
        inputs=attrgetter("text"), labels=lambda item: (item.label,), report=_cls_report,
    ),
    "ner": Task(
        "ner", "tagger", "sequence", "entity F1", load_tagged, write_tagged, _encode_token_rows,
        inputs=attrgetter("tokens"), labels=attrgetter("tags"), report=_ner_report,
    ),
}


# the task of each head kind a model file may record
_BY_HEAD_KIND = {task.head_kind: task for task in TASKS.values()}


def _label_ids(task: Task, items, label_to_id, where: str) -> list[list[int]]:
    """The ids of each item's labels. A tagger's labels must be IOB tags,
    by the rule the entity metrics parse them with."""
    noun = "tag" if task.source == "sequence" else "label"
    all_ids = []
    for i, item in enumerate(items):
        ids = []
        for j, label in enumerate(task.labels(item)):
            if noun == "tag":
                try:
                    _parse_tag(label, j)
                except DataError:
                    raise DataError(
                        f"malformed tag {label!r} in {where} sequence {i} at position {j}"
                    ) from None
            if label not in label_to_id:
                raise DataError(f"{noun} {label!r} is not in the label inventory")
            ids.append(label_to_id[label])
        all_ids.append(ids)
    return all_ids


def finetune_sequence(checkpoint: Checkpoint, tokenizer: wp.WordPieceModel, train, dev,
                      config: FinetuneConfig) -> FinetuneOutcome:
    """Train a softmax classifier on the pooled [CLS] state.

    Every encoder weight updates alongside the head. Returns the model and
    the dev accuracy measured after each epoch.
    """
    return TASKS["cls"].finetune(checkpoint, tokenizer, train, dev, config)


def finetune_tokens(checkpoint: Checkpoint, tokenizer: wp.WordPieceModel, train, dev,
                    config: FinetuneConfig) -> FinetuneOutcome:
    """Train a per-position tagger over IOB tags.

    Word tags sit on first pieces only; continuation pieces are ignored by
    the loss. Returns the model and dev entity F1 after each epoch.
    """
    return TASKS["ner"].finetune(checkpoint, tokenizer, train, dev, config)


def _assemble(kind, mcfg, full, labels, tokenizer) -> HeadModel:
    params = {k: v.copy() for k, v in full.items() if k not in ("head_w", "head_b")}
    return HeadModel(
        kind=kind,
        model_config=mcfg,
        params=params,
        head_w=full["head_w"].copy(),
        head_b=full["head_b"].copy(),
        labels=tuple(labels),
        vocab_sha256=tokenizer.vocab_sha256,
    )


def _predict_rows(task: Task, model: HeadModel, rows, firsts, pad_id: int):
    results = []
    for start in range(0, len(rows), PREDICT_BATCH):
        batch = _pad_batch(rows[start : start + PREDICT_BATCH], pad_id)
        batch_firsts = None if firsts is None else firsts[start : start + PREDICT_BATCH]
        outputs, _ = encoder._encode(model.params, model.model_config, batch,
                                     task.reads(batch, batch_firsts), backward=False)
        picks = (outputs[task.source] @ model.head_w + model.head_b).argmax(-1)
        if firsts is None:
            results.extend(model.labels[int(pick)] for pick in picks)
        else:
            for row, first in zip(picks, batch_firsts):
                results.append([model.labels[int(row[pos])] for pos in first])
    return results


def predict(model: HeadModel, tokenizer: wp.WordPieceModel, inputs):
    """Argmax predictions: label strings for classifiers, tag rows for taggers.
    A tokenizer of another size, or of another sha256 than the model
    records, is a ConfigError, raised before any input is encoded."""
    _check_tokenizer(tokenizer, model.model_config, model.vocab_sha256)
    if model.kind not in _BY_HEAD_KIND:
        raise ConfigError(f"unknown head kind {model.kind!r}")
    task = _BY_HEAD_KIND[model.kind]
    rows, firsts = task.encode(list(inputs), tokenizer, model.model_config.max_positions)
    return _predict_rows(task, model, rows, firsts, tokenizer.pad_id)


def save_head_model(path: str, model: HeadModel) -> None:
    """Persist a fine-tuned model in the shared checkpoint container."""
    save_checkpoint(
        path,
        model.model_config,
        OptimizerConfig(max_steps=0),
        model.params,
        AdamState(m={}, v={}, step=0),
        head_kind=model.kind,
        head_labels=model.labels,
        head_params={"w": model.head_w, "b": model.head_b},
        vocab_sha256=model.vocab_sha256,
    )


def load_head_model(path: str) -> HeadModel:
    checkpoint = load_checkpoint(path)
    if checkpoint.head_kind is None or checkpoint.head_params is None:
        raise DataError(f"{path} holds no fine-tuned head")
    if checkpoint.head_kind not in _BY_HEAD_KIND:
        raise DataError(f"{path}: unknown head kind {checkpoint.head_kind!r}")
    labels = tuple(checkpoint.head_labels or ())
    head = checkpoint.head_params
    hidden = checkpoint.model_config.hidden
    if (
        set(head) != {"w", "b"}
        or head["w"].shape != (hidden, len(labels))
        or head["b"].shape != (len(labels),)
        or not all(np.isfinite(value).all() for value in head.values())
    ):
        n = len(labels)
        raise DataError(
            f"{path}: head tensors must be finite and shaped ({hidden}, {n}) and ({n},)"
        )
    return HeadModel(
        kind=checkpoint.head_kind,
        model_config=checkpoint.model_config,
        params=checkpoint.params,
        head_w=head["w"],
        head_b=head["b"],
        labels=labels,
        vocab_sha256=checkpoint.vocab_sha256,
    )

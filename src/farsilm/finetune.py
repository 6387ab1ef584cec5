"""Fine-tuning a pretrained encoder for classification and tagging.

Two heads are supported: a feed-forward softmax layer over the pooled
[CLS] state for sequence classification, and a per-position affine layer
over the final hidden states for IOB token tagging. Both fine-tune every
encoder weight together with the head.

Subword alignment for tagging follows the first-piece rule: when a word
splits into several pieces, only the first piece carries the word's tag
and the continuations are ignored by the loss. Predictions are read back
from first-piece positions, so tag sequences always line up with words.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import wordpiece as wp
from .errors import ConfigError, DataError
from .lineio import read_records, write_records
from .metrics import accuracy, entity_f1
from .model import ModelConfig, _encode, _softmax, _truncated_normal, backprop_encoder
from .pretrain_data import IGNORE_INDEX
from .training import (
    AdamState,
    Checkpoint,
    OptimizerConfig,
    adam_step,
    init_adam_state,
    load_checkpoint,
    save_checkpoint,
)

_TAG_SHAPE = re.compile(r"^[BI][-_]\S+$")


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
            if not token or any(ch.isspace() for ch in token):
                raise DataError(f"token {token!r} is empty or holds whitespace")


@dataclass(frozen=True)
class FinetuneConfig:
    label_inventory: tuple[str, ...]
    epochs: int = 5
    learning_rate: float = 5e-4
    batch_size: int = 16
    seed: int = 0
    subword_label_mode: str = "first-piece"

    def __post_init__(self):
        object.__setattr__(self, "label_inventory", tuple(self.label_inventory))
        if not self.label_inventory:
            raise ConfigError("label inventory must be nonempty")
        if len(set(self.label_inventory)) != len(self.label_inventory):
            raise ConfigError("label inventory holds duplicates")
        if self.epochs < 0:
            raise ConfigError("epochs cannot be negative")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.subword_label_mode != "first-piece":
            raise ConfigError(
                f"unknown subword_label_mode {self.subword_label_mode!r}"
            )


@dataclass(frozen=True)
class HeadModel:
    """A fine-tuned encoder plus its task head and label inventory."""

    kind: str
    model_config: ModelConfig
    params: dict[str, np.ndarray]
    head_w: np.ndarray
    head_b: np.ndarray
    labels: tuple[str, ...]


@dataclass(frozen=True)
class FinetuneOutcome:
    model: HeadModel
    dev_trace: tuple[float, ...]


def load_labeled(path: str) -> list[LabeledText]:
    """Read {text, label} line records."""
    items = []
    for lineno, record in read_records(path):
        for field in ("text", "label"):
            if field not in record:
                raise DataError(f"record on line {lineno} lacks the {field} field")
        items.append(LabeledText(text=str(record["text"]), label=str(record["label"])))
    return items


def write_labeled(path: str, items) -> int:
    return write_records(path, ({"text": i.text, "label": i.label} for i in items))


def load_tagged(path: str) -> list[TaggedSequence]:
    """Read token<TAB>tag lines with blank lines between sequences."""
    sequences = []
    tokens: list[str] = []
    tags: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
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
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for seq in sequences:
            for token, tag in zip(seq.tokens, seq.tags):
                handle.write(f"{token}\t{tag}\n")
            handle.write("\n")
            count += 1
    return count


def _check_tokenizer(tokenizer: wp.WordPieceModel, config: ModelConfig) -> None:
    if len(tokenizer.vocab) != config.vocab_size:
        raise ConfigError(
            f"tokenizer vocabulary holds {len(tokenizer.vocab)} entries, "
            f"model expects {config.vocab_size}"
        )


def _pad_batch(rows: list[list[int]], pad_id: int):
    width = max(len(r) for r in rows)
    ids = np.full((len(rows), width), pad_id, dtype=np.int64)
    attn = np.zeros((len(rows), width), dtype=np.int64)
    for i, row in enumerate(rows):
        ids[i, : len(row)] = row
        attn[i, : len(row)] = 1
    segs = np.zeros_like(ids)
    return {
        "input_ids": ids,
        "segment_ids": segs,
        "attention_mask": attn,
        "mlm_labels": np.full_like(ids, IGNORE_INDEX),
        "nsp_labels": np.zeros(len(rows), dtype=np.int64),
    }


def _encode_texts(texts, tokenizer, config: ModelConfig):
    cls_id = tokenizer.token_to_id[wp.CLS]
    sep_id = tokenizer.token_to_id[wp.SEP]
    budget = config.max_positions - 2
    rows = []
    for text in texts:
        ids = wp.encode(tokenizer, text)[:budget]
        rows.append([cls_id] + ids + [sep_id])
    return _pad_batch(rows, tokenizer.pad_id)


def _encode_token_rows(token_seqs, tokenizer, config: ModelConfig):
    """Piece rows for word sequences plus each word's first-piece position."""
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
        if len(ids) > config.max_positions:
            raise DataError(
                f"sequence {index} needs {len(ids)} pieces, model capacity is "
                f"{config.max_positions}"
            )
        rows.append(ids)
        firsts.append(first)
    return rows, firsts


def _tag_ids(sequences, label_to_id, where: str):
    all_ids = []
    for i, seq in enumerate(sequences):
        ids = []
        for j, tag in enumerate(seq.tags):
            if tag != "O" and not _TAG_SHAPE.match(tag):
                raise DataError(
                    f"malformed tag {tag!r} in {where} sequence {i} at position {j}"
                )
            if tag not in label_to_id:
                raise DataError(f"tag {tag!r} is not in the label inventory")
            ids.append(label_to_id[tag])
        all_ids.append(ids)
    return all_ids


def _init_head(config: ModelConfig, n_labels: int, seed: int):
    rng = np.random.default_rng((seed, 4))
    head_w = _truncated_normal(rng, (config.hidden, n_labels), 0.02)
    head_b = np.zeros(n_labels)
    return head_w, head_b


def _clone(params):
    return {k: v.copy() for k, v in params.items()}


def finetune_sequence(
    checkpoint: Checkpoint,
    tokenizer: wp.WordPieceModel,
    train,
    dev,
    config: FinetuneConfig,
) -> FinetuneOutcome:
    """Train a softmax classifier on the pooled [CLS] state.

    Every encoder weight updates alongside the head. Returns the model and
    the dev accuracy measured after each epoch.
    """
    mcfg = checkpoint.model_config
    _check_tokenizer(tokenizer, mcfg)
    if not train:
        raise DataError("training set is empty")
    label_to_id = {label: i for i, label in enumerate(config.label_inventory)}
    for item in list(train) + list(dev):
        if item.label not in label_to_id:
            raise DataError(f"label {item.label!r} is not in the label inventory")

    params = _clone(checkpoint.params)
    head_w, head_b = _init_head(mcfg, len(config.label_inventory), config.seed)
    full = dict(params, head_w=head_w, head_b=head_b)
    state = init_adam_state(full)
    steps_per_epoch = (len(train) + config.batch_size - 1) // config.batch_size
    opt = OptimizerConfig(
        learning_rate=config.learning_rate,
        batch_size=config.batch_size,
        max_steps=max(1, config.epochs * steps_per_epoch),
    )

    labels = np.array([label_to_id[item.label] for item in train])
    trace = []
    for epoch in range(config.epochs):
        order = np.random.default_rng((config.seed, 5, epoch)).permutation(len(train))
        for start in range(0, len(train), config.batch_size):
            picks = order[start : start + config.batch_size]
            batch = _encode_texts([train[int(i)].text for i in picks], tokenizer, mcfg)
            gold = labels[picks]

            outputs, cache = _encode(full, mcfg, batch)
            pooled = outputs["pooled"]
            logits = pooled @ full["head_w"] + full["head_b"]
            probs = _softmax(logits)
            dlogits = probs.copy()
            dlogits[np.arange(len(gold)), gold] -= 1.0
            dlogits /= len(gold)

            grads = {name: np.zeros_like(value) for name, value in full.items()}
            grads["head_w"] += pooled.T @ dlogits
            grads["head_b"] += dlogits.sum(0)
            dpooled = dlogits @ full["head_w"].T
            dx = np.zeros_like(outputs["sequence"])
            backprop_encoder(full, mcfg, cache, dx, dpooled, grads)
            adam_step(full, grads, state, opt)

        model = _assemble("classifier", mcfg, full, config.label_inventory)
        if dev:
            predicted = predict(model, tokenizer, [item.text for item in dev])
            trace.append(accuracy([item.label for item in dev], predicted))

    model = _assemble("classifier", mcfg, full, config.label_inventory)
    return FinetuneOutcome(model=model, dev_trace=tuple(trace))


def finetune_tokens(
    checkpoint: Checkpoint,
    tokenizer: wp.WordPieceModel,
    train,
    dev,
    config: FinetuneConfig,
) -> FinetuneOutcome:
    """Train a per-position tagger over IOB tags.

    Word tags sit on first pieces only; continuation pieces are ignored by
    the loss. Returns the model and dev entity F1 after each epoch.
    """
    mcfg = checkpoint.model_config
    _check_tokenizer(tokenizer, mcfg)
    if not train:
        raise DataError("training set is empty")
    label_to_id = {label: i for i, label in enumerate(config.label_inventory)}
    train_tag_ids = _tag_ids(train, label_to_id, "train")
    _tag_ids(dev, label_to_id, "dev")

    params = _clone(checkpoint.params)
    head_w, head_b = _init_head(mcfg, len(config.label_inventory), config.seed)
    full = dict(params, head_w=head_w, head_b=head_b)
    state = init_adam_state(full)
    steps_per_epoch = (len(train) + config.batch_size - 1) // config.batch_size
    opt = OptimizerConfig(
        learning_rate=config.learning_rate,
        batch_size=config.batch_size,
        max_steps=max(1, config.epochs * steps_per_epoch),
    )

    rows, firsts = _encode_token_rows([s.tokens for s in train], tokenizer, mcfg)
    trace = []
    for epoch in range(config.epochs):
        order = np.random.default_rng((config.seed, 5, epoch)).permutation(len(train))
        for start in range(0, len(train), config.batch_size):
            picks = [int(i) for i in order[start : start + config.batch_size]]
            batch = _pad_batch([rows[i] for i in picks], tokenizer.pad_id)
            width = batch["input_ids"].shape[1]
            aligned = np.full((len(picks), width), IGNORE_INDEX, dtype=np.int64)
            for b, i in enumerate(picks):
                for pos, tag_id in zip(firsts[i], train_tag_ids[i]):
                    aligned[b, pos] = tag_id

            outputs, cache = _encode(full, mcfg, batch)
            sequence = outputs["sequence"]
            logits = sequence @ full["head_w"] + full["head_b"]
            selected = aligned != IGNORE_INDEX
            n_sel = int(selected.sum())
            probs = _softmax(logits)
            dlogits = probs * selected[..., None]
            sel_rows = np.where(selected)
            dlogits[sel_rows[0], sel_rows[1], aligned[sel_rows]] -= 1.0
            dlogits /= n_sel

            grads = {name: np.zeros_like(value) for name, value in full.items()}
            flat_seq = sequence.reshape(-1, mcfg.hidden)
            flat_dlogits = dlogits.reshape(-1, len(config.label_inventory))
            grads["head_w"] += flat_seq.T @ flat_dlogits
            grads["head_b"] += flat_dlogits.sum(0)
            dx = dlogits @ full["head_w"].T
            backprop_encoder(full, mcfg, cache, dx, None, grads)
            adam_step(full, grads, state, opt)

        model = _assemble("tagger", mcfg, full, config.label_inventory)
        if dev:
            predicted = predict(model, tokenizer, [s.tokens for s in dev])
            score = entity_f1([list(s.tags) for s in dev], predicted)
            trace.append(score.f1)

    model = _assemble("tagger", mcfg, full, config.label_inventory)
    return FinetuneOutcome(model=model, dev_trace=tuple(trace))


def _assemble(kind, mcfg, full, labels) -> HeadModel:
    params = {k: v.copy() for k, v in full.items() if k not in ("head_w", "head_b")}
    return HeadModel(
        kind=kind,
        model_config=mcfg,
        params=params,
        head_w=full["head_w"].copy(),
        head_b=full["head_b"].copy(),
        labels=tuple(labels),
    )


def predict(model: HeadModel, tokenizer: wp.WordPieceModel, inputs, batch_size: int = 32):
    """Argmax predictions: label strings for classifiers, tag rows for taggers."""
    _check_tokenizer(tokenizer, model.model_config)
    inputs = list(inputs)
    if not inputs:
        return []
    full = dict(model.params, head_w=model.head_w, head_b=model.head_b)
    results = []
    if model.kind == "classifier":
        for start in range(0, len(inputs), batch_size):
            chunk = inputs[start : start + batch_size]
            batch = _encode_texts(chunk, tokenizer, model.model_config)
            outputs, _ = _encode(full, model.model_config, batch)
            logits = outputs["pooled"] @ model.head_w + model.head_b
            for pick in logits.argmax(-1):
                results.append(model.labels[int(pick)])
        return results
    if model.kind == "tagger":
        rows, firsts = _encode_token_rows(inputs, tokenizer, model.model_config)
        for start in range(0, len(inputs), batch_size):
            chunk_rows = rows[start : start + batch_size]
            batch = _pad_batch(chunk_rows, tokenizer.pad_id)
            outputs, _ = _encode(full, model.model_config, batch)
            logits = outputs["sequence"] @ model.head_w + model.head_b
            picks = logits.argmax(-1)
            for b, first in enumerate(firsts[start : start + batch_size]):
                results.append([model.labels[int(picks[b, pos])] for pos in first])
        return results
    raise ConfigError(f"unknown head kind {model.kind!r}")


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
    )


def load_head_model(path: str) -> HeadModel:
    checkpoint = load_checkpoint(path)
    if checkpoint.head_kind is None or checkpoint.head_params is None:
        raise DataError(f"{path} holds no fine-tuned head")
    return HeadModel(
        kind=checkpoint.head_kind,
        model_config=checkpoint.model_config,
        params=checkpoint.params,
        head_w=checkpoint.head_params["w"],
        head_b=checkpoint.head_params["b"],
        labels=tuple(checkpoint.head_labels or ()),
    )

"""Exact counts computed from shapes and data, not measured.

FLOP counts are matrix-multiply work only, two operations per
multiply-add; the backward pass is counted as twice the forward pass.
"""

from __future__ import annotations

import numpy as np

from farsilm.pretrain_data import IGNORE_INDEX
from farsilm.wordpiece import pretokenize


def forward_flops(config, batch: int, length: int) -> tuple[int, int]:
    """(total, MLM head) forward FLOPs for one (batch, length) batch."""
    h, i, v = config.hidden, config.intermediate, config.vocab_size
    tokens = batch * length
    per_layer = (
        4 * 2 * tokens * h * h  # q, k, v and output projections
        + 2 * 2 * batch * length * length * h  # scores and context
        + 2 * 2 * tokens * h * i  # feed-forward
    )
    heads = 2 * batch * h * h + 2 * batch * h * 2  # pooler and NSP
    mlm = 2 * tokens * h * h + 2 * tokens * h * v  # transform and tied decoder
    return config.layers * per_layer + heads + mlm, mlm


def step_counts(config, batches) -> dict[str, float]:
    """GFLOP per training step, the MLM head's share of it, and the share
    of the positions the MLM head computes that a label actually scores."""
    total = mlm = scored = positions = 0
    for batch in batches:
        b, length = batch["input_ids"].shape
        t, m = forward_flops(config, b, length)
        total += 3 * t
        mlm += 3 * m
        scored += int((batch["mlm_labels"] != IGNORE_INDEX).sum())
        positions += b * length
    n = max(len(batches), 1)
    return {
        "model.gflop_per_step": total / n / 1e9,
        "model.mlm_head_gflop_share": mlm / total if total else 0.0,
        "model.mlm_scored_share": scored / positions if positions else 0.0,
    }


def encode_counts(tokenizer, texts, encoded) -> dict[str, float]:
    """UNK rate over the encoded ids, and the share of encoded words that
    an earlier text in the same stream had already held."""
    seen: set[str] = set()
    words = repeats = ids = unks = 0
    for text, pieces in zip(texts, encoded):
        for word in pretokenize(text):
            words += 1
            if word in seen:
                repeats += 1
            seen.add(word)
        ids += len(pieces)
        unks += pieces.count(tokenizer.unk_id)
    return {
        "wordpiece.unk_rate": unks / ids if ids else 0.0,
        "wordpiece.repeat_word_share": repeats / words if words else 0.0,
    }


def masked_positions(examples) -> int:
    return int(sum(np.count_nonzero(np.asarray(ex.mlm_labels) != IGNORE_INDEX) for ex in examples))

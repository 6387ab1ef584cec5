"""Output checks that hold for any correct build, whatever its RNG draws.

Each check returns a list of failure messages; an empty list passes. No
check compares against stored bytes or stored numbers, so a change that
re-baselines artifacts on purpose still passes as long as its outputs keep
these invariants.
"""

from __future__ import annotations

import math
from collections import Counter
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from farsilm.pretrain_data import IGNORE_INDEX, read_examples
from farsilm.training import load_checkpoint
from farsilm.wordpiece import MASK, SPECIAL_TOKENS, decode, encode, load_vocab

from . import junk


def split_tolerance(p: float, n: int) -> float:
    """Allowed distance of an observed mask/random/keep share from p:
    two points, widened to five standard errors for small samples."""
    return max(0.02, 5.0 * math.sqrt(p * (1.0 - p) / max(n, 1)))


def example_file(path, examples, vocab_size: int) -> list[str]:
    """The example file reads back equal to what was built."""
    try:
        read, file_vocab = read_examples(path)
    except Exception as exc:  # any failure to read back is the finding
        return [f"example file does not read back: {type(exc).__name__}: {exc}"]
    failures = []
    if file_vocab != vocab_size:
        failures.append(f"example file vocab {file_vocab}, built with {vocab_size}")
    if len(read) != len(examples):
        failures.append(f"example file holds {len(read)} records, built {len(examples)}")
    elif read != list(examples):
        first = next(i for i, (a, b) in enumerate(zip(read, examples)) if a != b)
        failures.append(f"example file record {first} differs from the built example")
    return failures


def masking(examples, tokenizer, policy) -> list[str]:
    """Per-example masked counts, untouched structure, and the aggregate
    mask/random/keep split."""
    special = {tokenizer.token_to_id[t] for t in tokenizer.config.special_tokens}
    mask_id = tokenizer.token_to_id[MASK]
    fraction = Decimal(repr(policy.select_fraction))
    failures: list[str] = []
    split = Counter()
    for index, ex in enumerate(examples):
        ids = np.asarray(ex.input_ids)
        labels = np.asarray(ex.mlm_labels)
        attn = np.asarray(ex.attention_mask)
        selected = labels != IGNORE_INDEX
        original = np.where(selected, labels, ids)
        candidates = (attn == 1) & ~np.isin(original, list(special))
        n = int(candidates.sum())
        want = 0 if n == 0 else max(1, int((fraction * n).quantize(Decimal(1), ROUND_HALF_UP)))
        if int(selected.sum()) != want:
            failures.append(f"example {index}: {int(selected.sum())} masked of {n} candidates, want {want}")
        if np.any(selected & ~candidates):
            failures.append(f"example {index}: a special or pad position is selected")
        if np.any(np.isin(ids[~selected & (attn == 1)], [mask_id])):
            failures.append(f"example {index}: [MASK] at a position without a label")
        for pos in np.flatnonzero(selected):
            if ids[pos] == mask_id:
                split["mask"] += 1
            elif ids[pos] == labels[pos]:
                split["keep"] += 1
            elif ids[pos] in special:
                failures.append(f"example {index}: random replacement at {pos} is a special token")
            else:
                split["random"] += 1
        if len(failures) > 20:
            failures.append("more masking failures not listed")
            return failures
    total = sum(split.values())
    for kind, p in (("mask", policy.mask_prob), ("random", policy.random_prob), ("keep", policy.keep_prob)):
        share = split[kind] / total if total else 0.0
        tol = split_tolerance(p, total)
        if abs(share - p) > tol:
            failures.append(f"{kind} share {share:.4f} over {total} positions is not within {tol:.4f} of {p}")
    return failures


def vocab(tokenizer, vocab_path) -> list[str]:
    failures = []
    if tuple(tokenizer.vocab[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
        failures.append(f"vocab starts {tokenizer.vocab[:5]}, not the five specials")
    try:
        if load_vocab(vocab_path, tokenizer.config).vocab != tokenizer.vocab:
            failures.append("vocab file does not read back equal")
    except Exception as exc:
        failures.append(f"vocab file does not load: {type(exc).__name__}: {exc}")
    return failures


def round_trip(tokenizer, sentences) -> list[str]:
    """decode(encode(s)) == s for every sentence whose characters all have
    a piece in the vocabulary."""
    prefix = tokenizer.config.continuation_prefix
    pieces = set(tokenizer.vocab)
    tested = 0
    failures = []
    for s in sentences:
        if not all(w[0] in pieces and all(prefix + c in pieces for c in w[1:]) for w in s.split()):
            continue
        tested += 1
        back = decode(tokenizer, encode(tokenizer, s))
        if back != s:
            failures.append(f"round trip changed {s!r} into {back!r}")
    if tested == 0:
        failures.append("no in-alphabet sentence to round-trip")
    return failures[:20]


def normalized(normalized_texts, expected_texts) -> list[str]:
    """No injected junk survives, and junk-bearing text normalizes to what
    its clean original normalizes to."""
    failures = []
    for index, (got, want) in enumerate(zip(normalized_texts, expected_texts)):
        hit = junk.SURVIVOR.search(got)
        if hit:
            failures.append(f"document {index}: junk {hit.group()!r} survived normalize")
        elif got != want:
            failures.append(f"document {index}: normalized text differs from its clean original")
        if len(failures) >= 20:
            break
    if len(normalized_texts) != len(expected_texts):
        failures.append(f"{len(normalized_texts)} normalized documents, expected {len(expected_texts)}")
    return failures


def pretrain_result(result, checkpoint_path, steps: int) -> list[str]:
    """Finite losses, a checkpoint that reloads to the trained parameters
    and optimizer state, and an MLM loss that ends below where it started."""
    failures = []
    if len(result.trace) != steps:
        failures.append(f"trace holds {len(result.trace)} steps, expected {steps}")
    if not all(math.isfinite(m) and math.isfinite(n) for _, m, n in result.trace):
        failures.append("a loss is not finite")
    try:
        checkpoint = load_checkpoint(str(checkpoint_path))
    except Exception as exc:
        return failures + [f"checkpoint does not reload: {type(exc).__name__}: {exc}"]
    if checkpoint.step != steps:
        failures.append(f"checkpoint at step {checkpoint.step}, expected {steps}")
    for what, saved, trained in (
        ("parameters", checkpoint.params, result.params),
        ("Adam first moments", checkpoint.adam_state.m, result.adam_state.m),
        ("Adam second moments", checkpoint.adam_state.v, result.adam_state.v),
    ):
        if set(saved) != set(trained) or not all(np.array_equal(saved[k], trained[k]) for k in trained):
            failures.append(f"reloaded {what} differ from the trained ones")
    if result.trace and not result.trace[-1][1] < result.trace[0][1]:
        failures.append(f"mlm loss {result.trace[-1][1]:.4f} did not fall below {result.trace[0][1]:.4f}")
    return failures


def predictions(labels, inventory, n_inputs: int) -> list[str]:
    failures = []
    if len(labels) != n_inputs:
        failures.append(f"{len(labels)} predictions for {n_inputs} inputs")
    bad = [p for p in labels if p not in inventory]
    if bad:
        failures.append(f"predictions outside the label inventory: {sorted(set(bad))[:5]}")
    return failures


def tag_rows(rows, sequences, inventory) -> list[str]:
    failures = []
    if len(rows) != len(sequences):
        failures.append(f"{len(rows)} tag rows for {len(sequences)} sequences")
    for index, (row, seq) in enumerate(zip(rows, sequences)):
        if len(row) != len(seq.tokens):
            failures.append(f"sequence {index}: {len(row)} tags for {len(seq.tokens)} words")
        elif any(tag not in inventory for tag in row):
            failures.append(f"sequence {index}: a tag outside the inventory")
        if len(failures) >= 20:
            break
    return failures

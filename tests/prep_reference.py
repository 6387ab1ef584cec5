"""The text and data preparation steps as they were before they were
made cheaper per character and per example.

Normalization here compiles nothing ahead and strips marks with a
second pass after ``str.translate``; segmentation visits every
character; word counting pretokenizes every sentence; example building
assembles each example, then rebuilds it with its mask. The tests hold
``farsilm`` to the outputs of these, and to the generator state they
leave. Masking here draws its uniforms one at a time, from a generator
of each example's own. The module keeps its own copies of the helpers,
so that a change to a shared helper cannot move both sides at once; it
imports only the rule inventories, the value types and the unchanged
encoder and pairer.
"""

import re
import unicodedata
from collections import Counter
from dataclasses import replace

import numpy as np

from farsilm.errors import DataError
from farsilm.pretrain_data import IGNORE_INDEX, PretrainExample, build_nsp_pairs
from farsilm.segmenter import BOUNDARY_CHARS, DEFAULT_ABBREVIATIONS, Sentence
from farsilm.textnorm import ZWNJ
from farsilm.wordpiece import CLS, MASK, SEP, encode

# --- normalization ---


def clean_junk(text, rules):
    for _, pattern, replacement in rules.junk_patterns:
        text = re.sub(pattern, replacement, text)
    return text


def standardize_chars(text, rules):
    text = text.translate(rules.char_map)
    if rules.strip_marks:
        text = "".join(ch for ch in text if ord(ch) not in rules.strip_marks)
    text = re.sub(f"{ZWNJ}+", ZWNJ, text)
    text = re.sub(f"(?:(?<=\\s)|^){ZWNJ}", "", text)
    text = re.sub(f"{ZWNJ}(?=\\s|$)", "", text)
    return re.sub(r"\s+", " ", text).strip()


def normalize(text, rules):
    prev = text
    for _ in range(16):
        cur = standardize_chars(clean_junk(prev, rules), rules)
        if cur == prev:
            return cur
        prev = cur
    return prev


# --- segmentation ---

_LETTER_RUN = re.compile(r"(?:(?<=\s)|^)(?:[^\W\d_]\.){2,}")


def _emit(fragments, doc_id):
    sentences = []
    for fragment in fragments:
        text = fragment.strip()
        if text:
            sentences.append(Sentence(text=text, doc_id=doc_id, index=len(sentences)))
    return sentences


def _split_after(text, positions):
    fragments = []
    start = 0
    for pos in positions:
        fragments.append(text[start : pos + 1])
        start = pos + 1
    fragments.append(text[start:])
    return fragments


def segment_by_notation(text, config, doc_id=""):
    positions = [i for i, ch in enumerate(text) if ch in BOUNDARY_CHARS]
    return _emit(_split_after(text, positions), doc_id)


def suppressed_positions(text):
    suppressed = set()
    for abbr in DEFAULT_ABBREVIATIONS:
        for match in re.finditer(rf"(?<!\S){re.escape(abbr)}(?!\w)", text):
            suppressed.update(range(match.start(), match.end()))
    for match in _LETTER_RUN.finditer(text):
        suppressed.update(range(match.start(), match.end()))
    for i, ch in enumerate(text):
        if ch in ".:" and 0 < i < len(text) - 1:
            if text[i - 1].isdigit() and text[i + 1].isdigit():
                suppressed.add(i)
    return suppressed


def segment_true(text, config, doc_id=""):
    suppressed = suppressed_positions(text)
    positions = []
    for i, ch in enumerate(text):
        if ch not in BOUNDARY_CHARS or i in suppressed:
            continue
        if ch == ":" and i + 1 < len(text) and not text[i + 1].isspace():
            continue
        positions.append(i)

    merged = []
    pending = ""
    for fragment in _split_after(text, positions):
        pending += fragment
        if len(pending.split()) >= config.min_tokens:
            merged.append(pending)
            pending = ""
    if pending.strip() and not merged:
        merged.append(pending)
    return _emit(merged, doc_id)


# --- word counting for WordPiece training ---


def _pretokenize(text):
    words = []
    for chunk in text.split():
        run = ""
        for ch in chunk:
            if unicodedata.category(ch)[0] in ("P", "S"):
                if run:
                    words.append(run)
                    run = ""
                words.append(ch)
            else:
                run += ch
        if run:
            words.append(run)
    return words


def word_counts(sentences):
    word_freq = Counter()
    for sentence in sentences:
        word_freq.update(_pretokenize(sentence))
    return word_freq


# --- example building ---


def assemble_input(pair, model, packing):
    text_a, text_b, nsp_label = pair
    ids_a = encode(model, text_a)
    ids_b = encode(model, text_b)
    while 3 + len(ids_a) + len(ids_b) > packing.max_len:
        longer = ids_a if len(ids_a) >= len(ids_b) else ids_b
        longer.pop()
    if not ids_a or not ids_b:
        raise DataError(f"pair untokenizable at max_len {packing.max_len}")

    cls_id = model.token_to_id[CLS]
    sep_id = model.token_to_id[SEP]
    ids = [cls_id] + ids_a + [sep_id] + ids_b + [sep_id]
    segments = [0] * (2 + len(ids_a)) + [1] * (len(ids_b) + 1)
    real = len(ids)
    pad = packing.max_len - real
    return PretrainExample(
        input_ids=tuple(ids + [model.pad_id] * pad),
        segment_ids=tuple(segments + [0] * pad),
        attention_mask=tuple([1] * real + [0] * pad),
        mlm_labels=(IGNORE_INDEX,) * packing.max_len,
        nsp_label=nsp_label,
    )


def apply_mlm_mask(example, model, policy, rng):
    """``example`` masked from 3L uniforms that ``rng`` draws one at a
    time: selection keys, then action draws, then replacement draws, each
    run of L indexed by column."""
    width = len(example.input_ids)
    draws = [rng.random() for _ in range(3 * width)]
    keys, actions, picks = draws[:width], draws[width : 2 * width], draws[2 * width :]
    special_ids = model.special_ids
    candidates = [
        i
        for i, (tok, attn) in enumerate(zip(example.input_ids, example.attention_mask))
        if attn == 1 and tok not in special_ids
    ]
    if not candidates:
        return example
    k = max(1, int(np.floor(policy.select_fraction * len(candidates) + 0.5)))
    selected = sorted(sorted(candidates, key=lambda i: (keys[i], i))[:k])

    non_special = model.non_special_ids
    mask_id = model.token_to_id[MASK]
    ids = list(example.input_ids)
    labels = [IGNORE_INDEX] * len(ids)
    for pos in selected:
        labels[pos] = ids[pos]
        if actions[pos] < policy.mask_prob:
            ids[pos] = mask_id
        elif actions[pos] < policy.mask_prob + policy.random_prob:
            ids[pos] = non_special[int(picks[pos] * len(non_special))]
    return replace(example, input_ids=tuple(ids), mlm_labels=tuple(labels))


def masking_generator(seed, idx, width):
    """A fresh generator over the masking stream of example ``idx`` of
    ``width`` tokens: Philox keyed by ``SeedSequence((seed, 1))``, started
    at counter ``idx * ceil(3 width / 4)``, the four-word blocks each
    example before it owns."""
    key = np.random.SeedSequence((seed, 1)).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=idx * -(-3 * width // 4)))


def build_pretrain_examples(documents, model, packing, policy):
    pair_rng = np.random.default_rng((packing.rng_seed, 0))
    pairs = build_nsp_pairs(documents, pair_rng)
    examples = []
    for idx, pair in enumerate(pairs):
        example = assemble_input(pair, model, packing)
        mask_rng = masking_generator(packing.rng_seed, idx, packing.max_len)
        examples.append(apply_mlm_mask(example, model, policy, mask_rng))
    return examples

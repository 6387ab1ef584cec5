"""MLM+NSP example construction: sentence-pair sampling, packing to a
fixed length, the 15% / 80-10-10 masking procedure, and the example file.

Examples are built in two stages that each return an
:class:`ExampleTable`: :func:`pack_pairs` writes NSP pairs as unmasked
rows, and :func:`mask_examples` masks a table's rows.
:func:`build_pretrain_examples` composes them on :func:`build_nsp_pairs`.
A table holds five columns, one array per example field. They are the
example file's tensors in the container every binary file shares
(:func:`~farsilm.lineio.write_container`), written and read as they
stand and indexed into training batches.
:class:`PretrainExample` is the single example a table's integer index
returns; :func:`assemble_input` and :func:`apply_mlm_mask` run the two
stages on one example.

Randomness discipline: pair building consumes one generator; each
example's masking reads its own run of a counter-based stream, Philox
keyed by the seed at a counter set by the example's index (Salmon et al.,
SC 2011). Any block of rows is one draw from its first row's counter, so
files are byte-identical however the rows are blocked or distributed.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DataError, check_seed
from .lineio import read_container, read_container_header, write_container
from .wordpiece import CLS, MASK, SEP, WordPieceModel, encode

IGNORE_INDEX = -100
IS_NEXT = 1
NOT_NEXT = 0
# rows masked from one draw; the bytes do not depend on it, and at L = 64 a
# block's uniforms take 1.5 MB
MASK_BLOCK = 1024

# the example columns in PretrainExample's field order, with the dtype each
# takes in a table and in the example file; nsp_label holds one value a row
_COLUMNS = {
    "input_ids": "<i4",
    "segment_ids": "|i1",
    "attention_mask": "|i1",
    "mlm_labels": "<i4",
    "nsp_label": "|u1",
}


@dataclass(frozen=True)
class MaskingPolicy:
    """BERT's masking recipe, fixed: 15% of the candidates are selected,
    and a selected token becomes [MASK] (80%), a random token (10%) or
    stays (10%)."""

    select_fraction: ClassVar[float] = 0.15
    mask_prob: ClassVar[float] = 0.80
    random_prob: ClassVar[float] = 0.10
    keep_prob: ClassVar[float] = 0.10


@dataclass(frozen=True)
class PackingConfig:
    max_len: int = 512
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_len < 8:
            raise ConfigError(f"max_len must be at least 8, got {self.max_len}")
        check_seed(self.rng_seed)


@dataclass(frozen=True)
class PretrainExample:
    input_ids: tuple[int, ...]
    segment_ids: tuple[int, ...]
    attention_mask: tuple[int, ...]
    mlm_labels: tuple[int, ...]
    nsp_label: int

    def __post_init__(self):
        n = len(self.input_ids)
        if not (len(self.segment_ids) == len(self.attention_mask) == len(self.mlm_labels) == n):
            raise DataError("example field lengths disagree")
        if self.nsp_label not in (IS_NEXT, NOT_NEXT):
            raise DataError(f"nsp_label must be 0 or 1, got {self.nsp_label}")


def build_nsp_pairs(
    documents: Sequence[Sequence[str]], rng: np.random.Generator
) -> list[tuple[str, str, int]]:
    """Emit one (A, B, label) per adjacent sentence pair, in corpus order.

    A fair coin keeps the true next sentence (is-next) or swaps in a
    uniformly sampled sentence that is not the true next one, drawn from
    a different document whenever one exists.

    Cost: O(n) set-up over the n corpus sentences, then O(log n) per
    negative. The candidate pool, every corpus position outside the
    current document that does not hold the true next sentence, is never
    built: its size is counted from the document's range and the sorted
    positions of that sentence, and the drawn index is mapped to the
    position it names by bisection. The draws, ``rng.random()`` then
    ``rng.integers(0, pool size)``, are those of listing the pool.
    """
    flat: list[str] = []
    spans: list[tuple[int, int]] = []  # each document's [start, end) in flat
    positions: dict[str, list[int]] = {}  # each sentence's sorted flat indices
    for sentences in documents:
        start = len(flat)
        for sentence in sentences:
            positions.setdefault(sentence, []).append(len(flat))
            flat.append(sentence)
        spans.append((start, len(flat)))
    n = len(flat)
    if n < 2:
        raise DataError("insufficient sentences for NSP")

    pairs = []
    for sentences, (start, end) in zip(documents, spans):
        for i in range(len(sentences) - 1):
            first, true_next = sentences[i], sentences[i + 1]
            if rng.random() < 0.5:
                pairs.append((first, true_next, IS_NEXT))
                continue
            same = positions[true_next]
            # the positions of true_next before and after this document;
            # with the document's range cut out, the later ones move down
            # by its width
            before = bisect_left(same, start)
            after = bisect_left(same, end)
            width = end - start
            outside = before + len(same) - after
            size = n - width - outside
            # the k-th free index (from 0) is k plus the count of excluded
            # indices below it; for the e-th excluded index x, x - e counts
            # the free ones below x and never decreases, so bisection finds
            # that count as the number of e with x - e <= k
            if size > 0:
                k = int(rng.integers(0, size))
                j = k + bisect_right(
                    range(outside), k,
                    key=lambda e: (same[e] if e < before else same[e - before + after] - width) - e,
                )
                if j >= start:
                    j += width
            else:
                size = n - len(same)
                if size == 0:
                    raise DataError("no negative candidate distinct from the true next sentence")
                k = int(rng.integers(0, size))
                j = k + bisect_right(range(len(same)), k, key=lambda e: same[e] - e)
            pairs.append((first, flat[j], NOT_NEXT))
    return pairs


def _empty_columns(count: int, max_len: int) -> dict[str, np.ndarray]:
    return {
        name: np.empty((count, max_len) if name != "nsp_label" else count, dtype=dtype)
        for name, dtype in _COLUMNS.items()
    }


class ExampleTable(Sequence):
    """Read-only examples held as five columns, the example file's
    tensors: (count, max_len) arrays of the four per-token fields and a
    (count,) array of NSP labels, each in its `_COLUMNS` dtype.

    An integer index gives a :class:`PretrainExample`; a slice or an
    integer array gives another table over the chosen rows. A table
    equals any sequence of equal examples.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: dict[str, np.ndarray]):
        self.columns = {name: columns[name].view() for name in _COLUMNS}
        for column in self.columns.values():
            column.flags.writeable = False

    @classmethod
    def of(cls, examples: Sequence[PretrainExample]) -> ExampleTable:
        """``examples`` as a table; a list must hold examples of one length."""
        if isinstance(examples, ExampleTable):
            return examples
        max_len = len(examples[0].input_ids) if examples else 0
        for i, ex in enumerate(examples):
            if len(ex.input_ids) != max_len:
                raise DataError(
                    f"record {i}: length {len(ex.input_ids)} differs from header {max_len}"
                )
        columns = _empty_columns(len(examples), max_len)
        for name, column in columns.items():
            column[...] = [getattr(ex, name) for ex in examples]
        return cls(columns)

    @property
    def max_len(self) -> int:
        return self.columns["input_ids"].shape[1]

    def __len__(self) -> int:
        return len(self.columns["nsp_label"])

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return _example(*(column[index].tolist() for column in self.columns.values()))
        return ExampleTable({name: column[index] for name, column in self.columns.items()})

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        if isinstance(other, ExampleTable):
            return len(self) == len(other) and all(
                np.array_equal(column, other.columns[name]) for name, column in self.columns.items()
            )
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented


def _example(input_ids, segment_ids, attention_mask, mlm_labels, nsp_label) -> PretrainExample:
    return PretrainExample(
        tuple(input_ids), tuple(segment_ids), tuple(attention_mask), tuple(mlm_labels), nsp_label
    )


def pack_pairs(
    pairs: Sequence[tuple[str, str, int]], model: WordPieceModel, packing: PackingConfig
) -> ExampleTable:
    """Each (A, B, label) pair as [CLS] A [SEP] B [SEP], padded to
    max_len, with every MLM label IGNORE_INDEX.

    Truncation pops tokens off the end of the longer side (ties trim A)
    until the three structural tokens plus both sides fit. The loop keeps
    only each pair's real tokens and how many are segment 0; the padded
    columns are filled once, after the last pair.
    """
    max_len = packing.max_len
    cls_id, sep_id = model.token_to_id[CLS], model.token_to_id[SEP]
    tokens = array("i")  # every pair's real tokens, end to end
    lengths, firsts = [], []  # per pair: tokens, segment-0 tokens
    for text_a, text_b, _ in pairs:
        ids_a, ids_b = encode(model, text_a), encode(model, text_b)
        while 3 + len(ids_a) + len(ids_b) > max_len:
            (ids_a if len(ids_a) >= len(ids_b) else ids_b).pop()
        if not ids_a or not ids_b:
            raise DataError(f"pair untokenizable at max_len {max_len}")
        tokens.extend([cls_id, *ids_a, sep_id, *ids_b, sep_id])
        lengths.append(3 + len(ids_a) + len(ids_b))
        firsts.append(2 + len(ids_a))

    columns = _empty_columns(len(lengths), max_len)
    column = np.arange(max_len)
    real = column < np.array(lengths)[:, None]
    columns["input_ids"][...] = model.pad_id
    columns["input_ids"][real] = tokens  # row-major, so each pair's tokens in turn
    columns["segment_ids"][...] = real & (column >= np.array(firsts)[:, None])
    columns["attention_mask"][...] = real
    columns["mlm_labels"][...] = IGNORE_INDEX
    columns["nsp_label"][...] = [pair[2] for pair in pairs]
    return ExampleTable(columns)


def mask_examples(table: ExampleTable, model: WordPieceModel, seed: int) -> ExampleTable:
    """``table`` with BERT's masking applied, row ``i`` drawing the first
    3L uniforms of Philox keyed by ``SeedSequence((seed, 1))`` and started
    at counter ``i * ceil(3L / 4)``. Each row owns that many four-word
    Philox blocks, so a block of ``MASK_BLOCK`` rows is one draw from its
    first row's counter, and the bytes do not depend on the block size.
    """
    check_seed(seed)
    key = np.random.SeedSequence((seed, 1)).generate_state(2, np.uint64)
    per_row = -(-3 * table.max_len // 4)

    def uniforms(lo, hi):
        philox = np.random.Philox(key=key, counter=lo * per_row)
        return np.random.Generator(philox).random((hi - lo, 4 * per_row))

    return _mask_rows(table, model, uniforms)


def _mask_rows(
    table: ExampleTable, model: WordPieceModel,
    uniforms: Callable[[int, int], np.ndarray],
) -> ExampleTable:
    """A copy of ``table`` with each row masked. ``uniforms(lo, hi)`` gives
    one row of draws for each of rows ``lo..hi``, and a row of L columns
    reads its first 3L: selection keys in ``[0, L)``, action draws in
    ``[L, 2L)`` and replacement draws in ``[2L, 3L)``, each by column.

    Candidates are attended positions holding a non-special token. Of n,
    the max(1, round-half-up(0.15 n)) with the smallest keys are selected,
    ties going to the lower column. A selected position becomes [MASK]
    when its action draw is below 0.8, the non-special token its
    replacement draw indexes when below 0.9, and stays otherwise; its
    label is its original id. Other labels of a masked row are
    IGNORE_INDEX; a row without candidates stays as it is.
    """
    ids, labels = table.columns["input_ids"].copy(), table.columns["mlm_labels"].copy()
    width = table.max_len
    candidates = (table.columns["attention_mask"] == 1) & ~np.isin(ids, list(model.special_ids))
    counts = candidates.sum(axis=1)
    # the cast floors the positive count, rounding half up; none of no candidates
    picks = np.maximum(counts > 0, (MaskingPolicy.select_fraction * counts + 0.5).astype(np.int64))
    labels[counts > 0] = IGNORE_INDEX
    non_special = np.array(model.non_special_ids, dtype=np.int64)
    mask_id = model.token_to_id[MASK]
    mask_below = MaskingPolicy.mask_prob
    random_below = mask_below + MaskingPolicy.random_prob
    for lo in range(0, len(ids), MASK_BLOCK):
        hi = min(lo + MASK_BLOCK, len(ids))
        keys, action, pick = np.split(uniforms(lo, hi)[:, :3 * width], 3, axis=1)
        # a key of 2 puts every non-candidate after the candidates
        order = np.argsort(np.where(candidates[lo:hi], keys, 2.0), axis=1, kind="stable")
        chosen = np.empty((hi - lo, width), dtype=bool)
        np.put_along_axis(chosen, order, np.arange(width) < picks[lo:hi, None], axis=1)
        block = ids[lo:hi]  # a view, so writing it masks ids
        held = block[chosen]
        labels[lo:hi][chosen] = held
        act = action[chosen]
        new = np.where(act < mask_below, mask_id,
                       non_special[(pick[chosen] * len(non_special)).astype(np.int64)])
        block[chosen] = np.where(act < random_below, new, held)
    return ExampleTable({**table.columns, "input_ids": ids, "mlm_labels": labels})


def assemble_input(
    pair: tuple[str, str, int], model: WordPieceModel, packing: PackingConfig
) -> PretrainExample:
    """One pair packed as :func:`pack_pairs` packs it."""
    return pack_pairs([pair], model, packing)[0]


def apply_mlm_mask(
    example: PretrainExample, model: WordPieceModel, policy: MaskingPolicy, rng: np.random.Generator
) -> PretrainExample:
    """``example`` masked as :func:`mask_examples` masks a row, drawing
    from ``rng``. ``policy`` is the fixed recipe of :class:`MaskingPolicy`."""
    return _mask_rows(ExampleTable.of([example]), model,
                      lambda lo, hi: rng.random((1, 3 * len(example.input_ids))))[0]


def build_pretrain_examples(
    documents: Sequence[Sequence[str]],
    model: WordPieceModel,
    packing: PackingConfig = PackingConfig(),
    policy: MaskingPolicy = MaskingPolicy(),
) -> ExampleTable:
    """Corpus to masked examples, reproducible from packing.rng_seed alone:
    the NSP pairs of ``default_rng((rng_seed, 0))``, packed by
    :func:`pack_pairs` and masked by :func:`mask_examples` at
    ``rng_seed``. ``policy`` is the fixed recipe of :class:`MaskingPolicy`.
    """
    pairs = build_nsp_pairs(documents, np.random.default_rng((packing.rng_seed, 0)))
    return mask_examples(pack_pairs(pairs, model, packing), model, packing.rng_seed)


def write_examples(examples: Sequence[PretrainExample], path: str | Path, vocab_size: int) -> int:
    """Example file: a container (:func:`~farsilm.lineio.write_container`)
    whose header holds ``max_len`` and ``vocab_size`` and whose tensors are
    the five columns of :class:`ExampleTable`. The write is atomic.

    ``vocab_size`` is an integer, a NumPy one too, above every token id and
    MLM label of the examples, as :func:`read_examples` checks; anything
    else is a DataError, raised before the file is opened.
    """
    table = ExampleTable.of(examples)
    if not len(table):
        table = ExampleTable.of([])  # every file without examples has max_len 0
    if isinstance(vocab_size, bool) or not isinstance(vocab_size, (int, np.integer)) \
            or vocab_size < 0:
        raise DataError(f"vocab_size {vocab_size!r} for {path} is not an integer of 0 or more")
    vocab_size = int(vocab_size)
    if len(table):
        top = int(max(table.columns["input_ids"].max(), table.columns["mlm_labels"].max()))
        if top >= vocab_size:
            raise DataError(f"vocab_size {vocab_size} for {path} is not above id {top} "
                            "of its examples")
    header = {"max_len": table.max_len, "vocab_size": vocab_size}
    write_container(path, header, table.columns)
    return len(table)


def _example_sizes(header: dict, path) -> tuple[int, int]:
    if set(header) != {"max_len", "vocab_size"} or not all(
        type(value) is int and value >= 0 for value in header.values()
    ):
        raise DataError(f"example file {path}: header {sorted(header)} does not hold "
                        f"a max_len and a vocab_size of 0 or more")
    return header["max_len"], header["vocab_size"]


def read_example_sizes(path: str | Path) -> tuple[int, int]:
    """(max_len, vocab_size) of an example file, read from its header alone."""
    return _example_sizes(read_container_header(path, "pretraining example"), path)


def read_examples(path: str | Path, data: bytes | None = None) -> tuple[ExampleTable, int]:
    """Read an example file back; returns (examples, vocab_size).

    Every value is range-checked against the header's vocabulary size, so
    a file that reads back can be fed to the model as it stands. ``data``,
    if given, is the file's bytes, already read, and ``path`` only names it.
    """
    header, columns = read_container(path, "pretraining example", data)
    max_len, vocab_size = _example_sizes(header, path)
    count = np.size(columns.get("nsp_label", ()))
    if {name: (column.dtype.str, column.shape) for name, column in columns.items()} != {
        name: (dtype, (count, max_len) if name != "nsp_label" else (count,))
        for name, dtype in _COLUMNS.items()
    }:
        raise DataError(f"example file {path}: tensors are not the five example columns "
                        f"of {count} records of {max_len} tokens")

    ids, labels = columns["input_ids"], columns["mlm_labels"]
    faults = (
        (f"token id outside [0,{vocab_size})", (ids < 0) | (ids >= vocab_size)),
        (
            f"MLM label neither {IGNORE_INDEX} nor inside [0,{vocab_size})",
            (labels != IGNORE_INDEX) & ((labels < 0) | (labels >= vocab_size)),
        ),
        ("segment byte not 0 or 1", columns["segment_ids"].view(np.uint8) > 1),
        ("attention byte not 0 or 1", columns["attention_mask"].view(np.uint8) > 1),
        ("NSP byte not 0 or 1", columns["nsp_label"][:, None] > 1),
    )
    for what, bad_values in faults:
        bad = np.flatnonzero(bad_values.any(axis=1))
        if bad.size:
            raise DataError(f"{path}: record {int(bad[0])}: {what}")
    return ExampleTable(columns), vocab_size


def collate(examples: Sequence[PretrainExample]) -> dict[str, np.ndarray]:
    """Int64 arrays keyed by field name, one row per example; a table's
    columns are cast as they stand."""
    columns = ExampleTable.of(examples).columns
    return {
        "input_ids": columns["input_ids"].astype(np.int64),
        "segment_ids": columns["segment_ids"].astype(np.int64),
        "attention_mask": columns["attention_mask"].astype(np.int64),
        "mlm_labels": columns["mlm_labels"].astype(np.int64),
        "nsp_labels": columns["nsp_label"].astype(np.int64),
    }

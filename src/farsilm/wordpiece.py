"""WordPiece subword model: training, encoding, decoding, vocab files.

Training follows the likelihood-scored merge procedure: decompose words
into characters (continuation positions prefixed with ``##``), then
repeatedly merge the adjacent pair maximizing freq(ab)/(freq(a)·freq(b))
until the vocabulary cap is hit or no pair is frequent enough. Encoding
is the greedy longest-match-first walk over a word. Everything is
deterministic: ties are broken by pair frequency, then by the merged
string with the continuation prefix ignored, then with it included, then
by where the pair first occurs in the corpus.

Cost per call: training counts pieces and pairs once, O(characters of
the distinct words); each merge then rewrites only the words holding the
merged pair and re-ranks, at O(log pairs) each, only the pairs whose
counts it changed. A pair's merged-piece names, the tie-break keys of
its rank, are built once per pair and then read from a memo. ``encode``
pretokenizes and matches a whitespace chunk the first time a model sees
it; later it costs one dict lookup.
"""

from __future__ import annotations

import hashlib
import heapq
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import ClassVar, Iterable, Sequence

from .errors import ConfigError, DataError
from .lineio import atomic_open, read_text

# BERT's vocabulary format: the special tokens open every vocabulary in
# this order, so [PAD] is id 0, and a piece that continues a word carries
# the prefix. A vocabulary file holds tokens only and relies on both.
PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)
CONTINUATION_PREFIX = "##"
# a longer word encodes to [UNK] without a search
MAX_WORD_CHARS = 100


@dataclass(frozen=True)
class TokenizerTrainConfig:
    vocab_size: int = 100_000
    min_frequency: int = 3
    alphabet_limit: int = 1_500
    # the format's constants, readable from any config
    special_tokens: ClassVar[tuple[str, ...]] = SPECIAL_TOKENS
    continuation_prefix: ClassVar[str] = CONTINUATION_PREFIX

    def __post_init__(self):
        if self.vocab_size < len(SPECIAL_TOKENS) + 1:
            raise ConfigError(
                f"vocab_size {self.vocab_size} leaves no room beyond "
                f"{len(SPECIAL_TOKENS)} special tokens"
            )
        if self.min_frequency < 1:
            raise ConfigError(f"min_frequency must be at least 1, got {self.min_frequency}")
        if self.alphabet_limit < 1:
            raise ConfigError(f"alphabet_limit must be at least 1, got {self.alphabet_limit}")


@dataclass(frozen=True)
class WordPieceModel:
    vocab: tuple[str, ...]
    token_to_id: dict[str, int]
    config: TokenizerTrainConfig = field(default_factory=TokenizerTrainConfig)
    # ids of each whitespace-separated chunk encode has seen; tuples, so
    # no caller can edit a cached entry through the list encode returns
    _chunk_ids: dict[str, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if tuple(self.vocab[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
            raise DataError(f"vocab must start with the special tokens {' '.join(SPECIAL_TOKENS)}")
        if len(self.vocab) > self.config.vocab_size:
            raise DataError(
                f"vocab holds {len(self.vocab)} tokens, above the cap {self.config.vocab_size}"
            )
        if self.token_to_id != {tok: i for i, tok in enumerate(self.vocab)}:
            raise DataError("token_to_id must be the dense inverse of vocab")

    @property
    def unk_id(self) -> int:
        return self.token_to_id[UNK]

    @property
    def pad_id(self) -> int:
        return self.token_to_id[PAD]

    @cached_property
    def special_ids(self) -> frozenset[int]:
        return frozenset(self.token_to_id[t] for t in SPECIAL_TOKENS)

    @cached_property
    def vocab_sha256(self) -> str:
        """sha256 of the file :func:`save_vocab` writes for this vocabulary."""
        return hashlib.sha256(_vocab_text(self.vocab).encode("utf-8")).hexdigest()

    @cached_property
    def non_special_ids(self) -> tuple[int, ...]:
        """Every id but the special tokens', ascending."""
        return tuple(i for i in range(len(self.vocab)) if i not in self.special_ids)


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def pretokenize(text: str) -> list[str]:
    """Split on whitespace, then peel punctuation into one-char words.

    ZWNJ stays word-internal, so ZWNJ-joined compounds remain one word.
    """
    words = []
    for chunk in text.split():
        run = ""
        for ch in chunk:
            if _is_punct(ch):
                if run:
                    words.append(run)
                    run = ""
                words.append(ch)
            else:
                run += ch
        if run:
            words.append(run)
    return words


def _strip_prefix(piece: str) -> str:
    return piece[len(CONTINUATION_PREFIX) :] if piece.startswith(CONTINUATION_PREFIX) else piece


def _decompose(word: str) -> tuple[str, ...]:
    return tuple(ch if i == 0 else CONTINUATION_PREFIX + ch for i, ch in enumerate(word))


def _word_counts(sentences: Iterable[str]) -> Counter[str]:
    """How often ``pretokenize`` yields each word over ``sentences``, in
    first-seen order, which the merge tie-break reads.

    Each distinct whitespace chunk is pretokenized once, in first-seen
    order, and its words count as often as the chunk occurs; a word is
    first seen inside the first chunk that holds it, so the order is kept.
    """
    chunk_freq: Counter[str] = Counter()
    for sentence in sentences:
        chunk_freq.update(sentence.split())
    word_freq: Counter[str] = Counter()
    for chunk, freq in chunk_freq.items():
        for word in pretokenize(chunk):
            word_freq[word] += freq
    return word_freq


def train_wordpiece(
    sentences: Iterable[str], config: TokenizerTrainConfig = TokenizerTrainConfig()
) -> WordPieceModel:
    """Train a WordPiece model on pre-normalized sentences.

    The alphabet keeps the ``alphabet_limit`` most frequent characters
    (ties go to the smaller codepoint); words using characters beyond it
    can only ever encode to [UNK], so they are left out of merge counting.
    """
    word_freq = _word_counts(sentences)
    if not word_freq:
        raise DataError("training corpus is empty")

    char_freq: Counter[str] = Counter()
    for word, freq in word_freq.items():
        for ch in word:
            char_freq[ch] += freq
    ranked = sorted(char_freq.items(), key=lambda item: (-item[1], ord(item[0])))
    alphabet = {ch for ch, _ in ranked[: config.alphabet_limit]}

    words: Counter[tuple[str, ...]] = Counter()
    initial_chars: set[str] = set()
    continuation_chars: set[str] = set()
    for word, freq in word_freq.items():
        if any(ch not in alphabet for ch in word):
            continue
        words[_decompose(word)] += freq
        initial_chars.add(word[0])
        continuation_chars.update(word[1:])

    seed_pieces = [ch for ch, _ in ranked[: config.alphabet_limit] if ch in initial_chars]
    seed_pieces += [
        CONTINUATION_PREFIX + ch for ch, _ in ranked[: config.alphabet_limit] if ch in continuation_chars
    ]
    needed = len(SPECIAL_TOKENS) + len(seed_pieces)
    if config.vocab_size < needed:
        raise ConfigError(
            f"vocab_size {config.vocab_size} cannot hold {len(SPECIAL_TOKENS)} "
            f"special tokens plus {len(seed_pieces)} alphabet pieces; "
            f"short by {needed - config.vocab_size}"
        )

    vocab: list[str] = list(SPECIAL_TOKENS) + seed_pieces
    in_vocab = set(vocab)
    merges = _MergeCounts(words, config.min_frequency)
    while len(vocab) < config.vocab_size:
        best = merges.best()
        if best is None:
            break
        merged = merges.merge(*best)
        # a pair can re-form after other merges; re-merging it adds no new
        # token, so only the decompositions are updated
        if merged not in in_vocab:
            vocab.append(merged)
            in_vocab.add(merged)

    token_to_id = {tok: i for i, tok in enumerate(vocab)}
    return WordPieceModel(vocab=tuple(vocab), token_to_id=token_to_id, config=config)


Pair = tuple[str, str]


class _MergeCounts:
    """Piece and adjacent-pair counts over the training words, kept up to
    date merge by merge, plus a heap of pairs by rank.

    A merge rewrites only the words that hold the merged pair, found
    through an index from each pair to those words, and re-ranks only the
    pairs whose count, or whose pieces' counts, it changed. Heap entries
    made stale by a later change are skipped when they surface.
    """

    def __init__(self, words: Counter[tuple[str, ...]], min_frequency: int):
        self.min_frequency = min_frequency
        # first-seen order; the order ties are broken in (see ``best``)
        self.words = list(words)
        self.freqs = list(words.values())
        self.piece_freq: Counter[str] = Counter()
        self.pair_freq: Counter[Pair] = Counter()
        self.pair_words: dict[Pair, set[int]] = defaultdict(set)
        self.piece_pairs: dict[str, set[Pair]] = defaultdict(set)
        for w, (pieces, freq) in enumerate(zip(self.words, self.freqs)):
            for piece in pieces:
                self.piece_freq[piece] += freq
            for pair in zip(pieces, pieces[1:]):
                self.pair_freq[pair] += freq
                self.pair_words[pair].add(w)
        for a, b in self.pair_freq:
            self.piece_pairs[a].add((a, b))
            self.piece_pairs[b].add((a, b))
        # each pair's merged piece, with and without the prefix stripped:
        # built once per pair, not at every ranking of it
        self.names: dict[Pair, tuple[str, str]] = {}
        self.heap: list[tuple] = []
        self._push(self.pair_freq)

    def _rank(self, pair: Pair) -> tuple | None:
        """Heap entry of a pair, or None when it is below min_frequency;
        smaller ranks higher."""
        freq = self.pair_freq.get(pair, 0)
        if freq < self.min_frequency:
            return None
        a, b = pair
        score = freq / (self.piece_freq[a] * self.piece_freq[b])
        names = self.names.get(pair)
        if names is None:
            merged = a + _strip_prefix(b)
            names = self.names[pair] = (_strip_prefix(merged), merged)
        return (-score, -freq, *names, a, b)

    def _push(self, pairs: Iterable[Pair]) -> None:
        for pair in pairs:
            entry = self._rank(pair)
            if entry is not None:
                heapq.heappush(self.heap, entry)

    def _pop_current(self) -> tuple | None:
        """Pop entries until one still holds its pair's current rank."""
        while self.heap:
            entry = heapq.heappop(self.heap)
            if self._rank(entry[4:]) == entry:
                return entry
        return None

    def _first_seen(self, pair: Pair) -> tuple[int, int]:
        w = min(self.pair_words[pair])
        pieces = self.words[w]
        return w, next(i for i, adjacent in enumerate(zip(pieces, pieces[1:])) if adjacent == pair)

    def best(self) -> Pair | None:
        """The eligible pair of highest score, then of highest frequency,
        then smallest merged string with the continuation prefix ignored,
        then with it included. Pairs equal on all four (two splits of one
        merged string) go by where the pair first occurs, in first-seen
        word order and then left to right: the order a full recount lists
        them in."""
        top = self._pop_current()
        if top is None:
            return None
        tied = [top]
        while self.heap and self.heap[0][:4] == top[:4]:
            entry = self._pop_current()
            if entry is not None and entry[:4] == top[:4] and entry not in tied:
                tied.append(entry)
            elif entry is not None:
                heapq.heappush(self.heap, entry)
                break
        if len(tied) == 1:
            return top[4:]
        tied.sort(key=lambda entry: self._first_seen(entry[4:]))
        for entry in tied[1:]:
            heapq.heappush(self.heap, entry)
        return tied[0][4:]

    def merge(self, a: str, b: str) -> str:
        """Merge every occurrence of (a, b); returns the merged piece."""
        merged = a + _strip_prefix(b)
        piece_delta: Counter[str] = Counter()
        pair_delta: Counter[Pair] = Counter()
        for w in list(self.pair_words[(a, b)]):
            old = self.words[w]
            new = _apply_merge(old, a, b, merged)
            self.words[w] = new
            freq = self.freqs[w]
            for piece in old:
                piece_delta[piece] -= freq
            for piece in new:
                piece_delta[piece] += freq
            for pair in zip(old, old[1:]):
                pair_delta[pair] -= freq
                self.pair_words[pair].discard(w)
            for pair in zip(new, new[1:]):
                pair_delta[pair] += freq
                self.pair_words[pair].add(w)

        dirty: set[Pair] = set()
        for pair, delta in pair_delta.items():
            if not delta:
                continue
            dirty.add(pair)
            was = self.pair_freq[pair]
            self.pair_freq[pair] = now = was + delta
            if now == 0:
                del self.pair_freq[pair], self.pair_words[pair]
                self.piece_pairs[pair[0]].discard(pair)
                self.piece_pairs[pair[1]].discard(pair)
            elif was == 0:
                self.piece_pairs[pair[0]].add(pair)
                self.piece_pairs[pair[1]].add(pair)
        for piece, delta in piece_delta.items():
            if delta:
                self.piece_freq[piece] += delta
                dirty.update(self.piece_pairs[piece])
        self._push(dirty)
        if len(self.heap) > 2 * len(self.pair_freq):
            # mostly stale entries: rebuild from the current ranks, which
            # keeps the heap, and the memory it holds, linear in the pairs
            self.heap = []
            self._push(self.pair_freq)
        return merged


def _apply_merge(
    pieces: tuple[str, ...], a: str, b: str, merged: str
) -> tuple[str, ...]:
    out = []
    i = 0
    while i < len(pieces):
        if i + 1 < len(pieces) and pieces[i] == a and pieces[i + 1] == b:
            out.append(merged)
            i += 2
        else:
            out.append(pieces[i])
            i += 1
    return tuple(out)


def _encode_word(model: WordPieceModel, word: str) -> list[int]:
    if len(word) > MAX_WORD_CHARS:
        return [model.unk_id]
    ids = []
    start = 0
    while start < len(word):
        end = len(word)
        found = None
        while end > start:
            piece = word[start:end]
            if start > 0:
                piece = CONTINUATION_PREFIX + piece
            if piece in model.token_to_id:
                found = piece
                break
            end -= 1
        if found is None:
            return [model.unk_id]
        ids.append(model.token_to_id[found])
        start = end
    return ids


def encode(model: WordPieceModel, text: str) -> list[int]:
    """Tokenize to ids: whitespace words, greedy longest-match pieces.

    A word with no matching piece, or longer than MAX_WORD_CHARS, becomes
    a single [UNK]. Each whitespace-separated chunk is encoded once per
    model and then read from the model's memo, so a call costs one dict
    lookup per chunk it has seen before.
    """
    memo = model._chunk_ids
    ids: list[int] = []
    for chunk in text.split():
        chunk_ids = memo.get(chunk)
        if chunk_ids is None:
            chunk_ids = tuple(i for word in pretokenize(chunk) for i in _encode_word(model, word))
            memo[chunk] = chunk_ids
        ids.extend(chunk_ids)
    return ids


def encode_to_pieces(model: WordPieceModel, text: str) -> list[str]:
    return [model.vocab[i] for i in encode(model, text)]


def decode(model: WordPieceModel, ids: Sequence[int]) -> str:
    """Invert encode: glue continuation pieces, space-join word starts.

    Special tokens vanish except [UNK], which renders as itself.
    """
    words: list[str] = []
    for raw in ids:
        i = int(raw)
        if not 0 <= i < len(model.vocab):
            raise DataError(f"token id {i} out of range for vocab of {len(model.vocab)}")
        token = model.vocab[i]
        if token in SPECIAL_TOKENS:
            if token == UNK:
                words.append(token)
            continue
        if token.startswith(CONTINUATION_PREFIX) and words:
            words[-1] += token[len(CONTINUATION_PREFIX) :]
        else:
            words.append(_strip_prefix(token))
    return " ".join(words)


def _vocab_text(vocab: Sequence[str]) -> str:
    return "".join(token + "\n" for token in vocab)


def save_vocab(model: WordPieceModel, path: str | Path) -> None:
    """One token per line, line number = id, LF endings, UTF-8."""
    with atomic_open(path) as fh:
        fh.write(_vocab_text(model.vocab))


def load_vocab(
    path: str | Path, config: TokenizerTrainConfig | None = None
) -> WordPieceModel:
    """Read a vocabulary file. Without a config, the cap is the training
    default or the file's size, whichever is larger, so any file the
    trainer writes loads."""
    vocab = tuple(read_text(path).splitlines())
    if len(set(vocab)) != len(vocab):
        raise DataError(f"{path}: vocab file contains duplicate tokens")
    if config is None:
        config = TokenizerTrainConfig(vocab_size=max(len(vocab), TokenizerTrainConfig.vocab_size))
    token_to_id = {tok: i for i, tok in enumerate(vocab)}
    return WordPieceModel(vocab=vocab, token_to_id=token_to_id, config=config)

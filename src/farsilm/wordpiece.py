"""WordPiece subword model: training, encoding, decoding, vocab files.

Training follows the likelihood-scored merge procedure: decompose words
into characters (continuation positions prefixed with ``##``), then
repeatedly merge the adjacent pair maximizing freq(ab)/(freq(a)·freq(b))
until the vocabulary cap is hit or no pair is frequent enough. Encoding
is the greedy longest-match-first walk over a word. Everything is
deterministic: ties are broken by pair frequency, then by the merged
string with the continuation prefix ignored, then with it included.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigError, DataError
from .lineio import read_text

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)


@dataclass(frozen=True)
class TokenizerTrainConfig:
    vocab_size: int = 100_000
    min_frequency: int = 3
    alphabet_limit: int = 1_500
    special_tokens: tuple[str, ...] = SPECIAL_TOKENS
    continuation_prefix: str = "##"
    max_word_chars: int = 100

    def __post_init__(self):
        if len(set(self.special_tokens)) != len(self.special_tokens):
            raise ConfigError("special_tokens must be pairwise distinct")
        if self.vocab_size < len(self.special_tokens) + 1:
            raise ConfigError(
                f"vocab_size {self.vocab_size} leaves no room beyond "
                f"{len(self.special_tokens)} special tokens"
            )
        if PAD in self.special_tokens and self.special_tokens[0] != PAD:
            raise ConfigError(f"{PAD} must be the first special token so it gets id 0")
        if self.min_frequency < 1:
            raise ConfigError(f"min_frequency must be at least 1, got {self.min_frequency}")
        if self.alphabet_limit < 1:
            raise ConfigError(f"alphabet_limit must be at least 1, got {self.alphabet_limit}")
        if not self.continuation_prefix:
            raise ConfigError("continuation_prefix must be nonempty")


@dataclass(frozen=True)
class WordPieceModel:
    vocab: tuple[str, ...]
    token_to_id: dict[str, int]
    config: TokenizerTrainConfig = field(default_factory=TokenizerTrainConfig)

    def __post_init__(self):
        specials = self.config.special_tokens
        if tuple(self.vocab[: len(specials)]) != specials:
            raise DataError("vocab must start with the special tokens in configured order")
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


def _strip_prefix(piece: str, prefix: str) -> str:
    return piece[len(prefix) :] if piece.startswith(prefix) else piece


def _decompose(word: str, prefix: str) -> tuple[str, ...]:
    return tuple(ch if i == 0 else prefix + ch for i, ch in enumerate(word))


def train_wordpiece(
    sentences: Iterable[str], config: TokenizerTrainConfig = TokenizerTrainConfig()
) -> WordPieceModel:
    """Train a WordPiece model on pre-normalized sentences.

    The alphabet keeps the ``alphabet_limit`` most frequent characters
    (ties go to the smaller codepoint); words using characters beyond it
    can only ever encode to [UNK], so they are left out of merge counting.
    """
    word_freq: Counter[str] = Counter()
    for sentence in sentences:
        word_freq.update(pretokenize(sentence))
    if not word_freq:
        raise DataError("training corpus is empty")

    char_freq: Counter[str] = Counter()
    for word, freq in word_freq.items():
        for ch in word:
            char_freq[ch] += freq
    ranked = sorted(char_freq.items(), key=lambda item: (-item[1], ord(item[0])))
    alphabet = {ch for ch, _ in ranked[: config.alphabet_limit]}

    prefix = config.continuation_prefix
    words: Counter[tuple[str, ...]] = Counter()
    initial_chars: set[str] = set()
    continuation_chars: set[str] = set()
    for word, freq in word_freq.items():
        if any(ch not in alphabet for ch in word):
            continue
        words[_decompose(word, prefix)] += freq
        initial_chars.add(word[0])
        continuation_chars.update(word[1:])

    seed_pieces = [ch for ch, _ in ranked[: config.alphabet_limit] if ch in initial_chars]
    seed_pieces += [
        prefix + ch for ch, _ in ranked[: config.alphabet_limit] if ch in continuation_chars
    ]
    needed = len(config.special_tokens) + len(seed_pieces)
    if config.vocab_size < needed:
        raise ConfigError(
            f"vocab_size {config.vocab_size} cannot hold {len(config.special_tokens)} "
            f"special tokens plus {len(seed_pieces)} alphabet pieces; "
            f"short by {needed - config.vocab_size}"
        )

    vocab: list[str] = list(config.special_tokens) + seed_pieces
    in_vocab = set(vocab)
    while len(vocab) < config.vocab_size:
        piece_freq: Counter[str] = Counter()
        pair_freq: Counter[tuple[str, str]] = Counter()
        for pieces, freq in words.items():
            for piece in pieces:
                piece_freq[piece] += freq
            for a, b in zip(pieces, pieces[1:]):
                pair_freq[(a, b)] += freq

        eligible = [
            (pair, freq) for pair, freq in pair_freq.items() if freq >= config.min_frequency
        ]
        if not eligible:
            break

        def rank(item):
            (a, b), freq = item
            score = freq / (piece_freq[a] * piece_freq[b])
            merged = a + _strip_prefix(b, prefix)
            return (-score, -freq, _strip_prefix(merged, prefix), merged)

        (best_a, best_b), _ = min(eligible, key=rank)
        merged = best_a + _strip_prefix(best_b, prefix)
        if merged in in_vocab:
            # a pair can re-form after other merges; re-merging it adds
            # no new token, so only the decompositions are updated
            pass
        else:
            vocab.append(merged)
            in_vocab.add(merged)
        words = Counter(
            {
                _apply_merge(pieces, best_a, best_b, merged): freq
                for pieces, freq in words.items()
            }
        )

    token_to_id = {tok: i for i, tok in enumerate(vocab)}
    return WordPieceModel(vocab=tuple(vocab), token_to_id=token_to_id, config=config)


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
    config = model.config
    if len(word) > config.max_word_chars:
        return [model.unk_id]
    prefix = config.continuation_prefix
    ids = []
    start = 0
    while start < len(word):
        end = len(word)
        found = None
        while end > start:
            piece = word[start:end]
            if start > 0:
                piece = prefix + piece
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

    A word with no matching piece, or longer than max_word_chars, becomes
    a single [UNK].
    """
    ids = []
    for word in pretokenize(text):
        ids.extend(_encode_word(model, word))
    return ids


def encode_to_pieces(model: WordPieceModel, text: str) -> list[str]:
    return [model.vocab[i] for i in encode(model, text)]


def decode(model: WordPieceModel, ids: Sequence[int]) -> str:
    """Invert encode: glue continuation pieces, space-join word starts.

    Special tokens vanish except [UNK], which renders as itself.
    """
    specials = set(model.config.special_tokens)
    prefix = model.config.continuation_prefix
    words: list[str] = []
    for raw in ids:
        i = int(raw)
        if not 0 <= i < len(model.vocab):
            raise DataError(f"token id {i} out of range for vocab of {len(model.vocab)}")
        token = model.vocab[i]
        if token in specials:
            if token == UNK:
                words.append(token)
            continue
        if token.startswith(prefix) and words:
            words[-1] += token[len(prefix) :]
        else:
            words.append(_strip_prefix(token, prefix))
    return " ".join(words)


def save_vocab(model: WordPieceModel, path: str | Path) -> None:
    """One token per line, line number = id, LF endings, UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for token in model.vocab:
            fh.write(token + "\n")


def load_vocab(
    path: str | Path, config: TokenizerTrainConfig = TokenizerTrainConfig()
) -> WordPieceModel:
    vocab = tuple(read_text(path).splitlines())
    if len(set(vocab)) != len(vocab):
        raise DataError(f"{path}: vocab file contains duplicate tokens")
    token_to_id = {tok: i for i, tok in enumerate(vocab)}
    return WordPieceModel(vocab=vocab, token_to_id=token_to_id, config=config)

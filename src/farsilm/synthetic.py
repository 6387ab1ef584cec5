"""Seeded synthetic Persian-like datasets for the whole pipeline.

A fixed artificial lexicon of consonant-vowel syllable words stands in
for real text: word frequencies follow a Zipf curve, every document sticks
to one of sixteen topics, and topic words pull fixed partner words behind
them. Those regularities are what make the masking and next-sentence
objectives learnable at desk scale. A word is drawn by bisecting one
``rng.random()`` into a cumulative weight table kept as a Python list,
which picks the word ``np.searchsorted`` would pick on the same floats.

Each document also carries a theme word, planted three times in every
sentence, from a reserved vocabulary that ordinary word draws cannot
produce. Sentences of one document share their theme and sentences of
different documents almost never do, which is the cue that decides
next-sentence pairs; the repeated plants keep the cue alive under masking
and give the attention layers a dense token-matching signal, dense enough
that the matching circuit forms within a couple thousand steps.

The corpus generator also plants dotted abbreviations and decimal numbers
mid-sentence and remembers the true sentence list per document, giving the
segmenter an exact ground truth. Classification items carry class marker
words and tagging items carry dictionary entities; marker, entity, and
theme words use Persian letters deliberately absent from the syllable
alphabet, so they can never collide with ordinary lexicon words.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, check_seed
from .finetune import LabeledText, TaggedSequence
from .textnorm import ZWNJ

_CONSONANTS = "بپتجچخدرزسشفکگلمنوهی"
_VOWELS = "اوی"
_SHARED_WORDS = 32
_TOPICS = 16
_TOPIC_FRACTION = 0.65
_PARTNER_PROB = 0.85

_THEME_CONSONANTS = "ژطظعغقثح"

# theme copies per sentence: enough that masking rarely hides every copy
# on one side of a pair, and pair matching stays gradient-dense
_THEME_PLANTS = 3

# sentences per corpus document, and the chance that a document plants an
# abbreviation or a decimal number for segmentation to step over
_MIN_SENTENCES = 4
_MAX_SENTENCES = 9
_ABBREVIATION_CHANCE = 0.6
_DECIMAL_CHANCE = 0.4

# downstream dictionaries; every word holds at least one letter outside the
# syllable alphabet above, so base text can never reproduce one by chance
CLASS_MARKERS = ("عالی", "ضعیف", "قشنگ", "طلایی", "غمگین", "حقیر", "ثابت", "ذهنی")
PERSON_NAMES = ("علی", "حسین", "عرفان", "غزاله", "طاهره", "قاسم")
PLACE_NAMES = ("قم", "طبس", "قشم", "حصار", "عباسیه", "غدیر")
ORG_NAMES = (("حزب", "عدالت"), ("قوه", "قضاییه"), ("ثبت",), ("وقف",), ("صرافی",))
ABBREVIATIONS = ("ق.م.", "ه.ش.", "ه.ق.")

_TERMINALS = (".", "؟", "!")


@dataclass(frozen=True)
class SyntheticDocument:
    """A generated document plus its ground-truth sentence list."""

    doc_id: str
    topic: int
    sentences: tuple[str, ...]
    has_abbreviation: bool
    has_decimal: bool

    @property
    def text(self) -> str:
        return " ".join(self.sentences)


@lru_cache(maxsize=1)
def lexicon() -> tuple[str, ...]:
    """The fixed word list; identical for every caller and every seed."""
    rng = np.random.default_rng(0)
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words = list(syllables)
    pairs = [a + b for a in syllables for b in syllables]
    for i in rng.permutation(len(pairs))[:400]:
        words.append(pairs[int(i)])
    for i in rng.permutation(len(pairs))[:64]:
        words.append(pairs[int(i)] + syllables[int(rng.integers(0, len(syllables)))])
    words.extend("می" + ZWNJ + w for w in words[60:68])
    seen = dict.fromkeys(words)
    return tuple(seen)


@lru_cache(maxsize=1)
def theme_words() -> tuple[str, ...]:
    """The reserved document-theme vocabulary, disjoint from the lexicon.

    Built purely from consonants the syllable alphabet lacks, so a theme
    token in a sentence is always a deliberate plant and never a random
    draw. Sixteen words keep each theme frequent enough to earn a single
    vocabulary slot while holding accidental theme sharing between
    unrelated documents near six percent.
    """
    firsts = [c + v for c, v in zip(_THEME_CONSONANTS[:4], "اویا")]
    seconds = [c + v for c, v in zip(_THEME_CONSONANTS[4:], "وایو")]
    return tuple(a + b for a in firsts for b in seconds)


def _cumulative(weights) -> list[float]:
    """Cumulative weights scaled to end at 1.0, as a list of floats.

    ``bisect_right`` of one ``rng.random()`` into the list picks the index
    that ``np.searchsorted(..., side="right")`` picks on the array, without
    a NumPy call per draw.
    """
    cum = np.cumsum(weights)
    return (cum / cum[-1]).tolist()


# entities per tagging item: 0, 1 or 2 with chances 0.2, 0.55 and 0.25. This
# is the table rng.choice([0, 1, 2], p=...) builds on every call, so a draw
# from it is that call's draw, and uses the same one double
_ENTITY_COUNT_CDF = _cumulative([0.2, 0.55, 0.25])


@lru_cache(maxsize=1)
def _tables():
    """The lexicon, the shared words' cumulative weights, each topic's
    members and cumulative weights, and each topic word's partner. Shared
    word i is lexicon word i."""
    words = lexicon()
    ranks = np.arange(len(words))
    weights = 1.0 / (ranks + 2.0)

    shared_cum = _cumulative(weights[:_SHARED_WORDS])

    topic_members = []
    topic_cums = []
    for topic in range(_TOPICS):
        members = [i for i in range(_SHARED_WORDS, len(words)) if i % _TOPICS == topic]
        topic_cums.append(_cumulative(weights[members]))
        topic_members.append(members)

    partner = {}
    for members in topic_members:
        for pos, index in enumerate(members):
            partner[index] = members[(pos + 1) % len(members)]
    return words, shared_cum, topic_members, topic_cums, partner


def _proper_pool():
    pool = list(PERSON_NAMES) + list(PLACE_NAMES) + list(CLASS_MARKERS)
    for entry in ORG_NAMES:
        pool.extend(entry)
    return tuple(pool)


def _sentence_words(rng, topic: int, length: int, inject_proper: bool) -> list[str]:
    words, shared_cum, members, cums, partner = _tables()
    topic_members, topic_cum = members[topic], cums[topic]
    random = rng.random
    out: list[int] = []
    while len(out) < length:
        if random() < _TOPIC_FRACTION:
            index = topic_members[bisect_right(topic_cum, random())]
            out.append(index)
            if len(out) < length and random() < _PARTNER_PROB:
                out.append(partner[index])
        else:
            out.append(bisect_right(shared_cum, random()))
    picked = [words[i] for i in out[:length]]
    if inject_proper and rng.random() < 0.08:
        pool = _proper_pool()
        picked[int(rng.integers(1, length))] = pool[int(rng.integers(0, len(pool)))]
    return picked


def _persian_digits(number: int) -> str:
    return str(number).translate(str.maketrans("0123456789", "۰۱۲۳۴۵۶۷۸۹"))


def _decimal_token(rng) -> str:
    if rng.random() < 0.5:
        return f"{_persian_digits(int(rng.integers(1, 100)))}.{_persian_digits(int(rng.integers(0, 10)))}"
    return f"{_persian_digits(int(rng.integers(0, 24)))}:{_persian_digits(int(rng.integers(10, 60)))}"


def _terminal(rng) -> str:
    roll = rng.random()
    if roll < 0.8:
        return "."
    return "؟" if roll < 0.9 else "!"


def generate_mlm_corpus(seed: int, n_docs: int) -> list[SyntheticDocument]:
    """Topic-coherent documents with planted abbreviations and decimals.

    Every sentence has at least four words and ends with a boundary mark;
    planted tokens never sit sentence-final, so the recorded sentence list
    is exactly what abbreviation-aware segmentation should recover.

    Each document also carries a reserved theme word planted three times
    per sentence, the lexical-cohesion cue that makes next-sentence pairs
    recognizable even after masking hides individual copies.
    """
    check_seed(seed)
    if n_docs < 1:
        raise ConfigError("n_docs must be at least 1")
    themes = theme_words()
    rng = np.random.default_rng((seed, 0))
    documents = []
    for index in range(n_docs):
        topic = int(rng.integers(0, _TOPICS))
        theme = themes[int(rng.integers(0, len(themes)))]
        count = int(rng.integers(_MIN_SENTENCES, _MAX_SENTENCES + 1))
        rows = []
        for _ in range(count):
            row = _sentence_words(rng, topic, int(rng.integers(4, 10)), inject_proper=True)
            for _ in range(_THEME_PLANTS):
                row.insert(int(rng.integers(0, len(row) + 1)), theme)
            rows.append(row)
        has_abbreviation = bool(rng.random() < _ABBREVIATION_CHANCE)
        if has_abbreviation:
            row = rows[int(rng.integers(0, count))]
            abbr = ABBREVIATIONS[int(rng.integers(0, len(ABBREVIATIONS)))]
            row.insert(int(rng.integers(1, len(row))), abbr)
        has_decimal = bool(rng.random() < _DECIMAL_CHANCE)
        if has_decimal:
            row = rows[int(rng.integers(0, count))]
            row.insert(int(rng.integers(1, len(row))), _decimal_token(rng))
        sentences = tuple(" ".join(row) + _terminal(rng) for row in rows)
        documents.append(
            SyntheticDocument(
                doc_id=f"doc{index:05d}",
                topic=topic,
                sentences=sentences,
                has_abbreviation=has_abbreviation,
                has_decimal=has_decimal,
            )
        )
    return documents


def generate_round_trip_sentences(seed: int, count: int) -> list[str]:
    """In-alphabet word sequences for tokenizer fidelity checks.

    Punctuation appears as standalone tokens because decoding joins pieces
    with single spaces; these strings are exact decode(encode(s)) targets.
    """
    check_seed(seed)
    if count < 1:
        raise ConfigError("count must be at least 1")
    rng = np.random.default_rng((seed, 1))
    sentences = []
    for _ in range(count):
        topic = int(rng.integers(0, _TOPICS))
        words = _sentence_words(rng, topic, int(rng.integers(4, 10)), inject_proper=False)
        if rng.random() < 0.3:
            words.append(_TERMINALS[int(rng.integers(0, len(_TERMINALS)))])
        sentences.append(" ".join(words))
    return sentences


def classification_labels(n_classes: int) -> tuple[str, ...]:
    if n_classes < 2:
        raise ConfigError("classification needs at least 2 classes")
    if n_classes > len(CLASS_MARKERS):
        raise ConfigError(f"at most {len(CLASS_MARKERS)} classes are available")
    return tuple(f"class{i}" for i in range(n_classes))


def check_class_count(count: int, n_classes: int) -> None:
    """Raise unless ``count`` items give each of ``n_classes`` classes one."""
    if count < n_classes:
        raise ConfigError(
            f"count {count} must cover every class at least once ({n_classes} classes)"
        )


def generate_classification(seed: int, count: int, n_classes: int = 2) -> list[LabeledText]:
    """Texts whose class is fully determined by a planted marker word."""
    check_seed(seed)
    labels = classification_labels(n_classes)
    check_class_count(count, n_classes)
    rng = np.random.default_rng((seed, 2))
    items = []
    for index in range(count):
        cls = index % n_classes
        topic = int(rng.integers(0, _TOPICS))
        words = _sentence_words(rng, topic, int(rng.integers(5, 9)), inject_proper=False)
        words.insert(int(rng.integers(0, len(words) + 1)), CLASS_MARKERS[cls])
        items.append(LabeledText(text=" ".join(words), label=labels[cls]))
    return items


def ner_tag_inventory() -> tuple[str, ...]:
    return ("O", "B-PER", "I-PER", "B-LOC", "I-LOC", "B-ORG", "I-ORG")


def generate_ner(seed: int, count: int) -> list[TaggedSequence]:
    """Word sequences with dictionary entities and gold IOB tags."""
    check_seed(seed)
    if count < 1:
        raise ConfigError("count must be at least 1")
    rng = np.random.default_rng((seed, 3))
    pools = (
        ("PER", tuple((name,) for name in PERSON_NAMES)),
        ("LOC", tuple((name,) for name in PLACE_NAMES)),
        ("ORG", ORG_NAMES),
    )
    sequences = []
    for _ in range(count):
        topic = int(rng.integers(0, _TOPICS))
        words = _sentence_words(rng, topic, int(rng.integers(5, 10)), inject_proper=False)
        tags = ["O"] * len(words)
        n_entities = bisect_right(_ENTITY_COUNT_CDF, rng.random())
        for _ in range(n_entities):
            category, entries = pools[int(rng.integers(0, len(pools)))]
            entry = entries[int(rng.integers(0, len(entries)))]
            # never insert inside an already-placed entity span
            spots = [
                at for at in range(len(words) + 1)
                if at == len(words) or not tags[at].startswith("I-")
            ]
            at = spots[int(rng.integers(0, len(spots)))]
            words[at:at] = list(entry)
            tags[at:at] = [f"B-{category}"] + [f"I-{category}"] * (len(entry) - 1)
        sequences.append(TaggedSequence(tuple(words), tuple(tags)))
    return sequences

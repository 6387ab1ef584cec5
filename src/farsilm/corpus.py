"""Document ingestion and corpus statistics.

Two on-disk formats are understood:

* ``plain``: one UTF-8 text file is one document.
* ``line-records``: one JSON object per line with string fields ``id``,
  ``source`` and ``text``; any other field is ignored.

Each file is read and decoded whole, so a corpus must fit in memory as
text; documents are then built and yielded one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DataError
from .lineio import read_records, read_text, record_strings

FORMATS = ("plain", "line-records")


@dataclass(frozen=True)
class Document:
    """One raw or normalized text unit with its source."""

    id: str
    source: str
    text: str

    def __post_init__(self):
        if "\x00" in self.text:
            raise DataError(f"document {self.id!r}: text contains NUL characters")


@dataclass(frozen=True)
class SourceCount:
    documents: int = 0
    sentences: int = 0


@dataclass(frozen=True)
class CorpusStats:
    """Per-source document and sentence counts plus totals."""

    per_source: dict[str, SourceCount]
    totals: SourceCount


def load_documents(path: str | Path, format: str = "line-records") -> Iterator[Document]:
    """Yield documents from ``path`` in file order.

    For line-records, a missing or null ``id`` is synthesized as
    ``<filename>#<line-number>`` and a missing or null ``source`` falls
    back to the filename stem. Malformed lines, and fields that are not
    strings, raise :class:`DataError` naming the line.
    """
    path = Path(path)
    if format not in FORMATS:
        raise DataError(f"unknown corpus format {format!r}; expected one of {FORMATS}")
    if format == "plain":
        yield _load_plain(path)
        return
    yield from _load_line_records(path)


def _load_plain(path: Path) -> Document:
    return Document(id=f"{path.name}#1", source=path.stem, text=read_text(path))


def _load_line_records(path: Path) -> Iterator[Document]:
    for lineno, record in read_records(path):
        if "text" not in record:
            raise DataError(f"{path}: record on line {lineno} lacks the text field")
        record_strings(path, lineno, "text", [record["text"]])
        fields = {"id": f"{path.name}#{lineno}", "source": path.stem}
        for field in fields:
            if record.get(field) is not None:  # null, like a missing field, is synthesized
                fields[field] = record_strings(path, lineno, field, [record[field]])[0]
        yield Document(text=record["text"], **fields)


def corpus_stats(documents: Iterable[tuple[Document, int]]) -> CorpusStats:
    """Aggregate (document, sentence-count) pairs per source, plus totals.

    Deterministic regardless of input order; empty input yields zero stats.
    """
    acc: dict[str, list[int]] = {}
    total_docs = 0
    total_sents = 0
    for doc, n_sentences in documents:
        if n_sentences < 0:
            raise DataError(f"document {doc.id!r}: negative sentence count")
        entry = acc.setdefault(doc.source, [0, 0])
        entry[0] += 1
        entry[1] += n_sentences
        total_docs += 1
        total_sents += n_sentences
    per_source = {
        name: SourceCount(documents=docs, sentences=sents)
        for name, (docs, sents) in sorted(acc.items())
    }
    return CorpusStats(
        per_source=per_source,
        totals=SourceCount(documents=total_docs, sentences=total_sents),
    )


def format_stats_table(stats: CorpusStats) -> str:
    """Render stats as an aligned UTF-8 table with a TOTAL row."""
    rows = [(name, counts.documents, counts.sentences) for name, counts in stats.per_source.items()]
    rows.append(("TOTAL", stats.totals.documents, stats.totals.sentences))
    name_width = max(len("source"), *(len(r[0]) for r in rows))
    lines = [f"{'source':<{name_width}}  {'documents':>12}  {'sentences':>12}"]
    lines.append("-" * len(lines[0]))
    for name, docs, sents in rows:
        lines.append(f"{name:<{name_width}}  {docs:>12,}  {sents:>12,}")
    return "\n".join(lines) + "\n"


def stats_records(stats: CorpusStats) -> list[dict]:
    """Machine-readable mirror of the stats table (one record per source)."""
    records = [
        {"source": name, "documents": counts.documents, "sentences": counts.sentences}
        for name, counts in stats.per_source.items()
    ]
    records.append(
        {
            "source": "__total__",
            "documents": stats.totals.documents,
            "sentences": stats.totals.sentences,
        }
    )
    return records

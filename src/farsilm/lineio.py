"""UTF-8 text and line-record (JSONL) helpers used by every file-facing module.

A line-record file is UTF-8 text with one JSON object per line. Writers
always emit LF line endings and sorted keys so identical data produces
byte-identical files.

Every artifact writer goes through :func:`atomic_open`, so a write that
fails leaves any earlier file at the target as it was. No file is
appended to: the loss trace too is written whole, from the loss history
its checkpoint holds.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterable, Iterator

from .errors import DataError


@contextmanager
def atomic_open(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """A new file to write in place of ``path``: UTF-8 text with LF line
    endings, or bytes with ``binary``.

    The writes go to a temporary file beside ``path``, which replaces
    ``path`` only once the block finishes; if the block raises, the
    temporary file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        if binary:
            handle = open(temp, "xb")
        else:
            handle = open(temp, "x", encoding="utf-8", newline="\n")
        with handle:
            yield handle
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)  # gone already unless the write failed


def read_text(path: str | Path) -> str:
    """A whole UTF-8 file as text.

    An unreadable file or invalid UTF-8 raises :class:`DataError`; the
    latter names the byte offset and line of the first bad byte.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: invalid UTF-8 at byte offset {exc.start} (line {line})") from exc


def read_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) pairs from a line-record file.

    Line numbers are 1-based. Blank lines are skipped. A line that is not
    a JSON object raises :class:`DataError` naming the line.
    """
    text = read_text(path)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: malformed record on line {lineno}: {exc.msg}") from exc
        if not isinstance(record, dict):
            raise DataError(f"{path}: record on line {lineno} is not an object")
        yield lineno, record


def write_records(path: str | Path, records: Iterable[dict[str, Any]]) -> int:
    """Write records as one JSON object per line; returns the record count."""
    n = 0
    with atomic_open(path) as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            fh.write("\n")
            n += 1
    return n

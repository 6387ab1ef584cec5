"""UTF-8 text, line-record (JSONL) and binary container helpers used by
every file-facing module.

A line-record file is UTF-8 text with one JSON object per line. Writers
always emit LF line endings and sorted keys so identical data produces
byte-identical files.

Every binary file, a pretraining checkpoint, a fine-tuned head file or a
pretraining example file, is one container: the magic ``FLCP``, then
three little-endian u32 values (the format version, a CRC32 of every
byte after it, and the length of the header), then the header, a JSON
object that names every tensor with its shape and dtype in name order,
then the raw tensor bytes in that order. Each kind of file adds its own
header keys and picks its own tensor names, and its reader checks those;
:func:`read_container` checks everything else.

Every artifact writer goes through :func:`atomic_open`, so a write that
fails leaves any earlier file at the target as it was. No file is
appended to: the loss trace too is written whole, from the loss history
its checkpoint holds.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterable, Iterator

import numpy as np

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


def record_strings(path: str | Path, lineno: int, field: str, values: list) -> list:
    """``values``, read from a record's ``field``, once each is a string:
    JSON null or a number is a DataError naming the file and line."""
    for value in values:
        if not isinstance(value, str):
            raise DataError(f"{path}: record on line {lineno} holds "
                            f"{json.dumps(value, ensure_ascii=False)} in {field}, not a string")
    return values


def write_records(path: str | Path, records: Iterable[dict[str, Any]]) -> int:
    """Write records as one JSON object per line; returns the record count."""
    n = 0
    with atomic_open(path) as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            fh.write("\n")
            n += 1
    return n


_MAGIC = b"FLCP"
_VERSION = 2
_PREFIX = struct.Struct("<4sIII")  # magic, version, CRC32 of the rest, header length
_NUMERIC_DTYPE = re.compile(r"[<>|][biuf][0-9]{1,2}")


def write_container(path: str | Path, header: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write ``header``, with a ``tensors`` entry added, and ``tensors`` in
    name order, atomically (:func:`~farsilm.lineio.atomic_open`)."""
    order = sorted(tensors)
    arrays = [np.ascontiguousarray(tensors[name]) for name in order]
    header = {**header, "tensors": [
        {"name": name, "shape": list(array.shape), "dtype": array.dtype.str}
        for name, array in zip(order, arrays)
    ]}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(blob, zlib.crc32(struct.pack("<I", len(blob))))
    for array in arrays:
        crc = zlib.crc32(array, crc)
    with atomic_open(path, binary=True) as handle:
        handle.write(_PREFIX.pack(_MAGIC, _VERSION, crc, len(blob)))
        handle.write(blob)
        handle.writelines(arrays)


def _tensor_spec(entry, where: str) -> tuple[str, np.dtype, tuple[int, ...]]:
    try:
        name, spelled, shape = entry["name"], entry["dtype"], tuple(entry["shape"])
    except (KeyError, TypeError) as exc:
        raise DataError(f"{where} has a malformed tensor entry {entry!r}") from exc
    if not isinstance(name, str) or not all(type(d) is int and d >= 0 for d in shape):
        raise DataError(f"{where} has a malformed tensor entry {entry!r}")
    # np.dtype parses far more than the writer writes (field lists, repeat
    # counts, some of which end in SyntaxError), so only a plain numeric
    # spelling reaches it, and only the one spelling the writer uses passes
    if not (isinstance(spelled, str) and _NUMERIC_DTYPE.fullmatch(spelled)):
        raise DataError(f"{where}: tensor {name} has non-numeric dtype {spelled!r}")
    try:
        dtype = np.dtype(spelled)
    except TypeError as exc:
        raise DataError(f"{where}: tensor {name} has unknown dtype {spelled!r}") from exc
    if dtype.str != spelled:
        raise DataError(f"{where}: tensor {name} dtype {spelled!r} is not {dtype.str!r}")
    return name, dtype, shape


def read_bytes(path: str | Path, what: str) -> bytes:
    """The bytes of the ``what`` file at ``path``; an unreadable path is a
    DataError that names it."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc


def read_container(path: str | Path, what: str,
                   data: bytes | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    """The header, less its ``tensors`` entry, and the tensors, in name
    order and each a read-only view of the file's bytes, of a container
    file; ``what`` names its kind in messages ("checkpoint file x is
    truncated"). ``data``, if given, is the file's bytes, already read
    (:func:`read_bytes`). Any file that :func:`write_container` did not
    write whole, or wrote at another version, is a DataError that names it.
    """
    where = f"{what} file {path}"
    if data is None:
        data = read_bytes(path, what)
    if data[:4] == b"PTEX":  # the example file's own format before this container
        raise DataError(f"{path} is a version-1 example file (magic PTEX); rebuild it")
    if data[:4] != _MAGIC:
        raise DataError(f"{path} is not a {what} file (bad magic {data[:4]!r})")
    if len(data) < _PREFIX.size:
        raise DataError(f"{where} is truncated")
    _, version, crc, header_len = _PREFIX.unpack_from(data)
    if version != _VERSION:
        raise DataError(f"{where} has format version {version}, not {_VERSION}; rebuild the file")
    offset = _PREFIX.size + header_len
    if len(data) < offset:
        raise DataError(f"{where} is truncated")
    try:
        header = json.loads(data[_PREFIX.size : offset].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise DataError(f"{where} has a malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError(f"{where}: header is not a record")
    entries = header.pop("tensors", None)
    if not isinstance(entries, list):
        raise DataError(f"{where}: header lacks a 'tensors' list")

    whole = memoryview(data)
    tensors: dict[str, np.ndarray] = {}
    for entry in entries:
        name, dtype, shape = _tensor_spec(entry, where)
        if tensors and name <= next(reversed(tensors)):
            # the writer lists tensors once each, in name order
            raise DataError(f"{where}: tensor {name} is repeated or out of order")
        nbytes = dtype.itemsize * math.prod(shape)
        chunk = whole[offset : offset + nbytes]
        if len(chunk) != nbytes:
            row = len(chunk) // (nbytes // (shape[0] if shape else 1))
            raise DataError(f"{where} is truncated in tensor {name}, at row {row}")
        try:
            tensors[name] = np.frombuffer(chunk, dtype=dtype).reshape(shape)
        except ValueError as exc:  # an empty tensor can still have too many or too wide axes
            raise DataError(f"{where}: tensor {name} has a shape numpy cannot hold: {exc}") from exc
        offset += nbytes
    if offset != len(data):
        raise DataError(f"{where} has {len(data) - offset} bytes after its last tensor")
    if zlib.crc32(whole[12:]) != crc:  # the header length on, as the writer sums it
        raise DataError(f"{where} fails its CRC32 check: its bytes are corrupt")
    return header, tensors

"""Byte mutations of a valid file, and the container's layout spelled out
independently of the library, shared by the binary-format tests."""

import json
import struct
import zlib

from hypothesis import strategies as st


def mutations(size, header_end):
    """A byte flip (biased toward the header), a truncation or an append."""
    position = st.one_of(st.integers(0, header_end - 1), st.integers(0, size - 1))
    return st.one_of(
        st.tuples(st.just("flip"), position, st.integers(1, 255)),
        st.tuples(st.just("truncate"), st.integers(0, size - 1)),
        st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
    )


def mutate(data, mutation):
    kind, where = mutation[:2]
    if kind == "flip":
        out = bytearray(data)
        out[where] ^= mutation[2]
        return bytes(out)
    if kind == "truncate":
        return data[:where]
    return data + where


def split_container(data):
    """A container file's JSON header and the tensor bytes after it. The
    prefix is the magic, the version, the CRC32 and the header length."""
    (size,) = struct.unpack("<I", data[12:16])
    return json.loads(data[16 : 16 + size]), data[16 + size :]


def join_container(header, payload):
    """The version-2 container of ``header`` (a record, or raw bytes) and
    ``payload``, with the CRC32 of everything after it, as the writer
    computes it."""
    if not isinstance(header, bytes):
        header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = struct.pack("<I", len(header)) + header + payload
    return b"FLCP" + struct.pack("<II", 2, zlib.crc32(body)) + body

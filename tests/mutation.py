"""Byte mutations of a valid file, shared by the binary-format tests."""

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

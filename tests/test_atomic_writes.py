"""Every artifact writer replaces its target atomically: a write that fails
partway leaves the earlier file byte for byte and no temporary file.
``write_examples`` has the same test in ``test_pretrain_data.py``."""

import pytest

from farsilm.cli import _write_text
from farsilm.errors import DataError
from farsilm.finetune import TaggedSequence, write_tagged
from farsilm.lineio import atomic_open, write_records
from farsilm.model import ModelConfig, init_params
from farsilm.training import OptimizerConfig, init_adam_state, save_checkpoint, write_loss_trace
from farsilm.wordpiece import SPECIAL_TOKENS, WordPieceModel, save_vocab

resource = pytest.importorskip("resource")

LIMIT = 100_000  # bytes a file may grow to while the larger write runs


def vocab(extra):
    tokens = tuple(SPECIAL_TOKENS) + tuple(f"tok{i}" for i in range(extra))
    return WordPieceModel(vocab=tokens, token_to_id={t: i for i, t in enumerate(tokens)})


def checkpoint(path, vocab_size):
    config = ModelConfig(
        layers=1, heads=2, hidden=16, intermediate=32, vocab_size=vocab_size, max_positions=16
    )
    params = init_params(config, 0)
    save_checkpoint(str(path), config, OptimizerConfig(), params, init_adam_state(params))


def records(count):
    return ({"i": i, "text": "x" * 20} for i in range(count))


def tagged(count):
    return [TaggedSequence(("ketab", "khane"), ("B-LOC", "O"))] * count


def trace_rows(count):
    return [(step, 3.0 / step, 0.7) for step in range(1, count + 1)]


# each writer with a small payload, then one far larger than LIMIT
WRITERS = {
    "save_vocab": lambda path, n: save_vocab(vocab(n), path),
    "save_checkpoint": lambda path, n: checkpoint(path, 10 + n),
    "write_records": lambda path, n: write_records(path, records(n)),
    "write_tagged": lambda path, n: write_tagged(str(path), tagged(n)),
    "_write_text": lambda path, n: _write_text(str(path), "line\n" * n),
    "write_loss_trace": lambda path, n: write_loss_trace(str(path), trace_rows(n)),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_leaves_earlier_file(tmp_path, name):
    write = WRITERS[name]
    path = tmp_path / "artifact"
    write(path, 3)
    before = path.read_bytes()
    assert list(tmp_path.iterdir()) == [path]
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (LIMIT, hard))
    try:
        with pytest.raises((OSError, DataError)):
            write(path, 40_000)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
    write(path, 40_000)  # and without the limit the larger write goes through
    assert len(path.read_bytes()) > LIMIT


def test_exception_in_the_block_leaves_earlier_file(tmp_path):
    path = tmp_path / "notes.txt"
    path.write_bytes(b"earlier\n")
    with pytest.raises(KeyError):
        with atomic_open(path) as handle:
            handle.write("half")
            raise KeyError("stop")
    assert path.read_bytes() == b"earlier\n"
    assert list(tmp_path.iterdir()) == [path]


def test_text_is_utf8_with_lf_endings(tmp_path):
    path = tmp_path / "notes.txt"
    with atomic_open(path) as handle:
        handle.write("کتاب\nb\n")
    assert path.read_bytes() == "کتاب\nb\n".encode("utf-8")


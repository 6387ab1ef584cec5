"""The container every binary file shares: each reader refuses the other
kinds of file and the formats before version 2, and a corrupt byte is
named as a CRC32 failure."""

import re
import struct

import numpy as np
import pytest

from farsilm.errors import DataError
from farsilm.finetune import load_head_model
from farsilm.model import ModelConfig, init_params
from farsilm.pretrain_data import PretrainExample, read_examples, write_examples
from farsilm.training import AdamState, OptimizerConfig, init_adam_state, load_checkpoint, save_checkpoint
from mutation import join_container

CONFIG = ModelConfig(layers=1, heads=1, hidden=4, intermediate=4, vocab_size=8, max_positions=8)


@pytest.fixture
def files(tmp_path):
    """An example file, a pretraining checkpoint and a fine-tuned head file."""
    examples, checkpoint, head = (tmp_path / name for name in ("ex.ptex", "ckpt.flcp", "cls.flcp"))
    write_examples([
        PretrainExample((2, 5, 4, 3, 6, 7, 3, 0), (0, 0, 0, 0, 1, 1, 1, 0),
                        (1, 1, 1, 1, 1, 1, 1, 0), (-100, 6, -100, -100, -100, 5, -100, -100), nsp)
        for nsp in (0, 1)
    ], examples, 8)
    params = init_params(CONFIG, seed=3)
    save_checkpoint(str(checkpoint), CONFIG, OptimizerConfig(), params, init_adam_state(params))
    save_checkpoint(
        str(head), CONFIG, OptimizerConfig(max_steps=0), params, AdamState(m={}, v={}, step=0),
        head_kind="classifier", head_labels=("neg", "pos"),
        head_params={"w": np.zeros((4, 2), np.float32), "b": np.zeros(2, np.float32)},
    )
    return {"examples": examples, "checkpoint": checkpoint, "head": head}


READERS = {"read_examples": read_examples, "load_checkpoint": load_checkpoint,
           "load_head_model": load_head_model}


@pytest.mark.parametrize("reader, kind", [
    ("read_examples", "checkpoint"),
    ("read_examples", "head"),
    ("load_checkpoint", "examples"),
    ("load_head_model", "examples"),
])
def test_each_reader_refuses_the_other_kinds(files, reader, kind):
    path = str(files[kind])
    with pytest.raises(DataError, match=re.escape(path)):
        READERS[reader](path)


def _version_1(data):
    """``data``'s header and tensors behind the version-1 prefix, which held
    no CRC32: the magic, the version and the header length."""
    (size,) = struct.unpack("<I", data[12:16])
    return b"FLCP" + struct.pack("<II", 1, size) + data[16:]


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("kind", ["examples", "checkpoint", "head"])
def test_a_version_1_file_is_named_and_refused(files, tmp_path, reader, kind):
    old = tmp_path / "old.bin"
    old.write_bytes(_version_1(files[kind].read_bytes()))
    with pytest.raises(DataError, match="format version 1, not 2; rebuild the file") as info:
        READERS[reader](str(old))
    assert str(old) in str(info.value)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_an_old_ptex_example_file_is_named_and_refused(tmp_path, reader):
    """The example file before the container: magic PTEX, version 1, max_len
    and vocab_size, then one length-prefixed record per example."""
    old = tmp_path / "old.ptex"
    record = struct.pack("<I8i8b8b8iB", 81, *range(8), *[0] * 8, *[1] * 8, *[-100] * 8, 1)
    old.write_bytes(b"PTEX" + struct.pack("<III", 1, 8, 9) + record)
    with pytest.raises(DataError, match="version-1 example file \\(magic PTEX\\); rebuild it") as info:
        READERS[reader](str(old))
    assert str(old) in str(info.value)


@pytest.mark.parametrize("kind", ["examples", "checkpoint", "head"])
def test_a_flipped_tensor_byte_fails_the_crc(files, kind):
    path = files[kind]
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x10
    path.write_bytes(bytes(data))
    reader = read_examples if kind == "examples" else load_checkpoint
    with pytest.raises(DataError, match=re.escape(f"{path} fails its CRC32 check")):
        reader(str(path))


@pytest.mark.parametrize("shape", [[0, 10**20], [0] * 70, []])
def test_a_tensor_shape_numpy_cannot_hold_is_refused(tmp_path, shape):
    """Whole files with a valid CRC32: an empty tensor with an axis or an
    axis count past numpy's limits, and an example file whose NSP column
    has no axis."""
    path = tmp_path / "odd.ptex"
    tensor = {"name": "nsp_label", "shape": shape, "dtype": "|u1"}
    payload = b"\x00" if shape == [] else b""
    path.write_bytes(join_container({"max_len": 0, "vocab_size": 9, "tensors": [tensor]}, payload))
    with pytest.raises(DataError, match=re.escape(str(path))):
        read_examples(path)

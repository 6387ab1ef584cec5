"""Optimizer, checkpoint container, and pretraining loop tests."""

import dataclasses
import hashlib
import json
import math
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from farsilm.errors import ConfigError, DataError
from farsilm.finetune import load_head_model
from farsilm.model import (
    ModelConfig,
    _encode,
    _mlm_head,
    compute_losses,
    desk_config,
    forward,
    gradients,
    init_params,
    pack,
)
from farsilm.pretrain_data import (
    MaskingPolicy,
    PackingConfig,
    PretrainExample,
    build_pretrain_examples,
    collate,
    read_examples,
    write_examples,
)
from farsilm import model as model_module
from farsilm import training
from farsilm.training import (
    AdamState,
    OptimizerConfig,
    adam_step,
    init_adam_state,
    load_checkpoint,
    pretrain,
    read_loss_trace,
    save_checkpoint,
    write_loss_trace,
)
from farsilm.wordpiece import TokenizerTrainConfig, train_wordpiece
from mutation import mutate, mutations
from padded_reference import padded_backprop, padded_encode, reference_adam_step

WORDS = ["ab", "abc", "bcd", "cab", "dab", "bad", "cad", "add", "dba", "cba"]


def tiny_corpus():
    rng = np.random.default_rng(42)
    documents = []
    for _ in range(6):
        sentences = []
        for _ in range(5):
            picks = rng.integers(0, len(WORDS), 5)
            sentences.append(" ".join(WORDS[int(i)] for i in picks) + ".")
        documents.append(sentences)
    return documents


@pytest.fixture(scope="module")
def example_file(tmp_path_factory):
    documents = tiny_corpus()
    flat = [s for doc in documents for s in doc]
    model = train_wordpiece(
        flat, TokenizerTrainConfig(vocab_size=60, min_frequency=1, alphabet_limit=30)
    )
    examples = build_pretrain_examples(
        documents, model, PackingConfig(max_len=32, rng_seed=5), MaskingPolicy()
    )
    path = tmp_path_factory.mktemp("examples") / "train.bin"
    write_examples(examples, str(path), len(model.vocab))
    return str(path), len(model.vocab)


def small_config(vocab_size):
    return ModelConfig(
        layers=1,
        heads=2,
        hidden=16,
        intermediate=32,
        vocab_size=vocab_size,
        max_positions=32,
    )


class TestAdam:
    def test_single_step_matches_hand_derivation(self):
        # g=0.5 at t=1: both moment corrections cancel, so the update is
        # lr * g / (|g| + eps), within 1e-10 of a full 1e-4 step
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([0.5])}
        state = init_adam_state(params)
        adam_step(params, grads, state, OptimizerConfig(learning_rate=1e-4))
        assert abs(params["w"][0] - (1.0 - 1e-4)) < 1e-10
        assert state.step == 1

    def test_three_steps_match_reference_loop(self):
        config = OptimizerConfig(learning_rate=0.01, beta1=0.9, beta2=0.98, epsilon=1e-8)
        params = {"w": np.array([0.3, -0.7])}
        state = init_adam_state(params)
        grad_seq = [np.array([0.5, -0.2]), np.array([-0.1, 0.4]), np.array([0.3, 0.3])]

        # independent reference: the textbook update written out longhand
        w = np.array([0.3, -0.7])
        m = np.zeros(2)
        v = np.zeros(2)
        for t, g in enumerate(grad_seq, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.98 * v + 0.02 * g * g
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.98**t)
            w = w - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)

        for g in grad_seq:
            adam_step(params, {"w": g}, state, config)
        np.testing.assert_allclose(params["w"], w, rtol=1e-14)

    def test_zero_gradient_leaves_parameter_unchanged(self):
        params = {"w": np.array([2.5])}
        state = init_adam_state(params)
        adam_step(params, {"w": np.array([0.0])}, state, OptimizerConfig())
        assert params["w"][0] == 2.5

    def test_warmup_scales_first_step(self):
        params = {"w": np.array([1.0])}
        state = init_adam_state(params)
        config = OptimizerConfig(learning_rate=1e-4, warmup_steps=10)
        adam_step(params, {"w": np.array([0.5])}, state, config)
        assert abs(params["w"][0] - (1.0 - 1e-5)) < 1e-11

    @pytest.mark.parametrize("warmup", [0, 10])
    def test_bytes_equal_reference_adam(self, warmup):
        # float32 desk parameters plus a float64 fine-tuning head, packed into
        # one buffer each: tensors from 2 to 64,000 entries, so tok_emb spans
        # slice boundaries and other tensors share a slice
        head_rng = np.random.default_rng(4)
        full = {**init_params(desk_config(vocab_size=1000), 3),
                "head_w": head_rng.normal(0.0, 0.02, (64, 5)), "head_b": np.zeros(5)}
        params = pack(full, values=full)
        assert params["tok_emb"].size == 64_000 > training.ADAM_SLICE
        ref_params = {name: value.copy() for name, value in params.items()}
        state, ref_state = init_adam_state(params), init_adam_state(ref_params)
        config = OptimizerConfig(learning_rate=1e-3, warmup_steps=warmup)
        rng = np.random.default_rng(5)
        for step in range(25):
            grads = {}
            for i, (name, value) in enumerate(params.items()):
                grad = rng.normal(0.0, 0.1, value.shape)
                grad[rng.random(value.shape) < 0.3] = 0.0  # exact zeros in every tensor
                if (i + step) % 7 == 0:
                    grad[...] = 0.0  # and whole tensors of them
                grads[name] = grad
            grads = pack(params, np.float64, values=grads)
            adam_step(params, grads, state, config)
            reference_adam_step(ref_params, grads, ref_state, config)
        assert state.step == ref_state.step == 25
        for name in params:
            assert params[name].tobytes() == ref_params[name].tobytes(), name
            assert state.m[name].tobytes() == ref_state.m[name].tobytes(), name
            assert state.v[name].tobytes() == ref_state.v[name].tobytes(), name

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            OptimizerConfig(learning_rate=0.0)
        for name in ("learning_rate", "epsilon"):
            for value in (float("inf"), float("nan")):
                with pytest.raises(ConfigError, match=f"{name} must be a finite positive number"):
                    OptimizerConfig(**{name: value})
        with pytest.raises(ConfigError, match="beta2"):
            OptimizerConfig(beta2=1.0)
        with pytest.raises(ConfigError, match="batch_size"):
            OptimizerConfig(batch_size=0)

    def test_defaults_follow_recipe(self):
        config = OptimizerConfig()
        assert (config.beta1, config.beta2) == (0.9, 0.98)
        assert config.learning_rate == 1e-4
        assert config.batch_size == 32
        assert config.warmup_steps == 0


# loss histories the checkpoint reader rejects, for a checkpoint at step 7
_BAD_HISTORIES = pytest.mark.parametrize(
    "losses",
    [{"mlm_loss": np.zeros(6), "nsp_loss": np.zeros(6)},
     {"mlm_loss": np.zeros(7)},
     {"mlm_loss": np.zeros(7), "nsp_loss": np.zeros(7, dtype=np.float32)},
     {"mlm_loss": np.zeros(7), "nsp_loss": np.zeros(7), "sop_loss": np.zeros(7)}],
    ids=["short", "one-loss", "float32", "extra-loss"],
)


class TestCheckpoint:
    def setup_method(self):
        self.config = small_config(vocab_size=40)
        self.params = init_params(self.config, seed=3)
        self.state = init_adam_state(self.params)
        self.state.step = 7
        self.state.m["pool_w"][0, 0] = 0.25
        self.opt = OptimizerConfig(max_steps=7)

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, self.config, self.opt, self.params, self.state)
        loaded = load_checkpoint(path)
        assert loaded.model_config == self.config
        assert loaded.opt_config == self.opt
        assert loaded.step == 7
        assert all(np.array_equal(loaded.params[k], self.params[k]) for k in self.params)
        assert all(np.array_equal(loaded.adam_state.m[k], self.state.m[k]) for k in self.state.m)
        assert all(np.array_equal(loaded.adam_state.v[k], self.state.v[k]) for k in self.state.v)
        assert loaded.seed is None and loaded.losses is None and loaded.trace == ()

    def test_round_trip_of_the_seed_and_the_loss_history(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        losses = {"mlm_loss": np.linspace(5.0, 4.0, 7), "nsp_loss": np.full(7, 0.69)}
        save_checkpoint(path, self.config, self.opt, self.params, self.state, seed=11,
                        losses=losses)
        loaded = load_checkpoint(path)
        assert loaded.seed == 11
        assert loaded.trace == tuple(
            zip(range(1, 8), losses["mlm_loss"].tolist(), losses["nsp_loss"].tolist()))

    def test_round_trip_of_the_example_file_digest(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        digest = hashlib.sha256(b"examples").hexdigest()
        save_checkpoint(path, self.config, self.opt, self.params, self.state,
                        examples_sha256=digest)
        assert load_checkpoint(path).examples_sha256 == digest

    @pytest.mark.parametrize("digest", ["A" * 64, "a" * 63, "a" * 65, "g" * 64, 7, None])
    def test_rejects_a_bad_example_file_digest(self, tmp_path, digest):
        path = self._rewritten(tmp_path, lambda h: h.update(examples_sha256=digest))
        with pytest.raises(DataError, match="bad examples_sha256"):
            load_checkpoint(path)

    def test_writer_refuses_a_digest_the_reader_rejects(self, tmp_path):
        with pytest.raises(DataError, match="bad examples_sha256 'abc'"):
            save_checkpoint(str(tmp_path / "model.ckpt"), self.config, self.opt, self.params,
                            self.state, examples_sha256="abc")
        assert list(tmp_path.iterdir()) == []

    def _with_history(self, tmp_path, losses):
        """A file holding ``losses`` as its loss history, built without the
        writer, which refuses a bad one: the loss tensors are spliced into a
        plain checkpoint's header and bytes where the writer puts them."""
        plain = tmp_path / "plain.ckpt"
        save_checkpoint(str(plain), self.config, self.opt, self.params, self.state)
        prefix, header, tail = _split_checkpoint(plain.read_bytes())
        entries = header["tensors"]
        # "loss:" sorts after the moments and before the parameters
        at = next(i for i, entry in enumerate(entries) if entry["name"].startswith("param:"))
        offset = sum(np.dtype(entry["dtype"]).itemsize * math.prod(entry["shape"])
                     for entry in entries[:at])
        header["tensors"] = entries[:at] + [
            {"name": "loss:" + name, "shape": list(value.shape), "dtype": value.dtype.str}
            for name, value in sorted(losses.items())
        ] + entries[at:]
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        history = b"".join(value.tobytes() for _, value in sorted(losses.items()))
        path = tmp_path / "history.ckpt"
        path.write_bytes(
            prefix + struct.pack("<I", len(blob)) + blob + tail[:offset] + history + tail[offset:]
        )
        return path

    def test_spliced_history_is_the_writer_s_bytes(self, tmp_path):
        losses = {"mlm_loss": np.linspace(5.0, 4.0, 7), "nsp_loss": np.full(7, 0.69)}
        written = tmp_path / "written.ckpt"
        save_checkpoint(str(written), self.config, self.opt, self.params, self.state,
                        losses=losses)
        assert self._with_history(tmp_path, losses).read_bytes() == written.read_bytes()

    @_BAD_HISTORIES
    def test_rejects_a_loss_history_of_another_shape(self, tmp_path, losses):
        with pytest.raises(DataError, match="the loss history does not hold 7 steps"):
            load_checkpoint(str(self._with_history(tmp_path, losses)))

    @_BAD_HISTORIES
    def test_writer_refuses_a_loss_history_the_reader_rejects(self, tmp_path, losses):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), self.config, self.opt, self.params, self.state)
        before = path.read_bytes()
        with pytest.raises(DataError, match="the loss history does not hold 7 steps"):
            save_checkpoint(str(path), self.config, self.opt, self.params, self.state,
                            losses=losses)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("group, name", [("parameter", "pool_w"), ("head tensor", "w")])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_writer_refuses_a_non_finite_tensor_the_reader_rejects(self, tmp_path, group, name,
                                                                   value):
        path = tmp_path / "model.ckpt"
        params = {key: array.copy() for key, array in self.params.items()}
        head = {"w": np.zeros((self.config.hidden, 2)), "b": np.zeros(2)}
        (params if group == "parameter" else head)[name][0, 0] = value
        with pytest.raises(DataError, match=f"{group} {name} contains non-finite values"):
            save_checkpoint(str(path), self.config, self.opt, params, self.state,
                            head_kind="tagger", head_labels=("a", "b"), head_params=head)
        assert list(tmp_path.iterdir()) == []

    def test_double_save_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        save_checkpoint(str(a), self.config, self.opt, self.params, self.state)
        save_checkpoint(str(b), self.config, self.opt, self.params, self.state)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(DataError, match="not a checkpoint"):
            load_checkpoint(str(path))

    def test_rejects_future_version(self, tmp_path):
        path = tmp_path / "v9.ckpt"
        good = tmp_path / "good.ckpt"
        save_checkpoint(str(good), self.config, self.opt, self.params, self.state)
        data = bytearray(good.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="version 9"):
            load_checkpoint(str(path))

    def test_rejects_truncation(self, tmp_path):
        good = tmp_path / "good.ckpt"
        save_checkpoint(str(good), self.config, self.opt, self.params, self.state)
        data = good.read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(data[: len(data) - 64])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(str(cut))

    def _rewritten(self, tmp_path, edit_header=None, blob=None, tail=b""):
        """A saved checkpoint whose header is edited (or replaced by raw
        bytes) and which gets extra bytes appended."""
        good = tmp_path / "good.ckpt"
        save_checkpoint(str(good), self.config, self.opt, self.params, self.state)
        data = good.read_bytes()
        (header_len,) = struct.unpack("<I", data[8:12])
        if blob is None:
            header = json.loads(data[12 : 12 + header_len])
            edit_header(header)
            blob = json.dumps(header).encode("utf-8")
        path = tmp_path / "edited.ckpt"
        path.write_bytes(
            data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + header_len :] + tail
        )
        return str(path)

    @pytest.mark.parametrize(
        "blob, match",
        [(b"\xff\xfe{}", "malformed header"), (b'{"step": 1', "malformed header"),
         (b"[1, 2]", "not a record")],
    )
    def test_rejects_garbled_header(self, tmp_path, blob, match):
        with pytest.raises(DataError, match=match):
            load_checkpoint(self._rewritten(tmp_path, blob=blob))

    @pytest.mark.parametrize("key", ["step", "tensors", "model_config", "opt_config"])
    def test_rejects_missing_header_field(self, tmp_path, key):
        path = self._rewritten(tmp_path, lambda h: h.pop(key))
        with pytest.raises(DataError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda h: h["model_config"].update(colour=3), "unknown keys \\['colour'\\]"),
            # the header older writers produced, with a dropout rate and a segment-type count
            (lambda h: h["model_config"].update(dropout=0.0, type_vocab=2),
             "model_config has unknown keys \\['dropout', 'type_vocab'\\]"),
            (lambda h: h["opt_config"].update(momentum=0.9), "unknown keys \\['momentum'\\]"),
            (lambda h: h["model_config"].pop("hidden"), "lacks \\['hidden'\\]"),
            (lambda h: h["model_config"].update(layers=2.5), "model_config.layers"),
            (lambda h: h["opt_config"].update(learning_rate="fast"), "opt_config.learning_rate"),
            (lambda h: h.update(step="7"), "bad step"),
            (lambda h: h.update(seed=-1), "bad seed -1"),
            (lambda h: h.update(seed=True), "bad seed True"),
        ],
    )
    def test_rejects_bad_config_record(self, tmp_path, edit, match):
        with pytest.raises(DataError, match=match):
            load_checkpoint(self._rewritten(tmp_path, edit))

    def test_rejects_non_numeric_dtype(self, tmp_path):
        def to_object(header):
            header["tensors"][0]["dtype"] = "|O"

        with pytest.raises(DataError, match="non-numeric dtype"):
            load_checkpoint(self._rewritten(tmp_path, to_object))

    def test_rejects_trailing_bytes(self, tmp_path):
        path = self._rewritten(tmp_path, lambda h: None, tail=b"\x00" * 3)
        with pytest.raises(DataError, match="3 bytes after its last tensor"):
            load_checkpoint(path)

    def test_rejects_moments_of_unknown_tensors(self, tmp_path):
        def rename(header):
            entry = next(e for e in header["tensors"] if e["name"] == "adam_m:pool_w")
            entry["name"] = "adam_m:pool_x"

        with pytest.raises(DataError, match="Adam moments"):
            load_checkpoint(self._rewritten(tmp_path, rename))


def _split_checkpoint(data):
    (header_len,) = struct.unpack("<I", data[8:12])
    return data[:8], json.loads(data[12 : 12 + header_len]), data[12 + header_len :]


def _valid_checkpoints(tmp_path):
    """A pretraining checkpoint with Adam moments, a fine-tuned one with a
    head record and head tensors, and one that pretrain() wrote, with a
    seed and a loss history, all small enough to mutate quickly."""
    config = ModelConfig(
        layers=1, heads=1, hidden=4, intermediate=4, vocab_size=8, max_positions=8
    )
    params = init_params(config, seed=3)
    state = init_adam_state(params)
    state.step = 7
    opt = OptimizerConfig(max_steps=7)
    pretrained, tuned = tmp_path / "pretrained.flcp", tmp_path / "tuned.flcp"
    save_checkpoint(str(pretrained), config, opt, params, state)
    head = {"w": np.full((4, 2), 0.5), "b": np.zeros(2)}
    save_checkpoint(
        str(tuned), config, opt, params, AdamState(m={}, v={}, step=0),
        head_kind="classifier", head_labels=("neg", "pos"), head_params=head,
    )
    examples, run = tmp_path / "examples.ptex", tmp_path / "run.flcp"
    write_examples([
        PretrainExample((2, 5, 4, 3, 6, 7, 3, 0), (0, 0, 0, 0, 1, 1, 1, 0),
                        (1, 1, 1, 1, 1, 1, 1, 0), (-100, 6, -100, -100, -100, 5, -100, -100), nsp)
        for nsp in (0, 1)
    ], examples, 8)
    pretrain(str(examples), config, OptimizerConfig(batch_size=2, max_steps=3), 5, str(run))
    return pretrained.read_bytes(), tuned.read_bytes(), run.read_bytes()


def _rejected_or_read_faithfully(path, mutated):
    path.write_bytes(mutated)
    try:
        got = load_checkpoint(str(path))
        if got.head_kind is not None:
            load_head_model(str(path))
    except DataError:
        return
    save_checkpoint(
        str(path), got.model_config, got.opt_config, got.params, got.adam_state,
        head_kind=got.head_kind, head_labels=got.head_labels,
        head_params=got.head_params, seed=got.seed, losses=got.losses,
        examples_sha256=got.examples_sha256,
    )
    assert _split_checkpoint(path.read_bytes()) == _split_checkpoint(mutated)


class TestCheckpointMutation:
    @pytest.mark.parametrize("which", [0, 1, 2], ids=["pretrained", "tuned", "pretrain-run"])
    def test_mutated_file_is_rejected_or_read_faithfully(self, which, tmp_path_factory):
        """Neither format carries a checksum, so a flipped value byte can
        make another valid file; what must hold is that the reader either
        raises DataError or returns exactly what the bytes say, so saving
        the loaded checkpoint gives the same header record and tensor bytes."""
        work = tmp_path_factory.mktemp("mutation")
        data = _valid_checkpoints(work)[which]
        header_end = 12 + struct.unpack("<I", data[8:12])[0]

        @given(mutations(len(data), header_end))
        @settings(max_examples=300, derandomize=True, deadline=None)
        def check(mutation):
            _rejected_or_read_faithfully(work / "mutated.flcp", mutate(data, mutation))

        check()

    def test_every_flip_of_the_seed_and_the_loss_history(self, tmp_path):
        """Every byte value at each byte of the header's seed entry, and
        every one-bit flip in the loss tensors."""
        data = _valid_checkpoints(tmp_path)[2]
        _, header, tail = _split_checkpoint(data)
        seed_at = data.index(b'"seed":5')
        flips = [(at, value) for at in range(seed_at, seed_at + 8) for value in range(1, 256)]
        offset = len(data) - len(tail)
        for entry in header["tensors"]:
            nbytes = np.dtype(entry["dtype"]).itemsize * int(np.prod(entry["shape"]))
            if entry["name"].startswith("loss:"):
                flips += [(at, 1 << b) for at in range(offset, offset + nbytes) for b in range(8)]
            offset += nbytes
        assert len(flips) == 8 * 255 + 2 * 3 * 8 * 8
        for at, value in flips:
            mutated = bytearray(data)
            mutated[at] ^= value
            _rejected_or_read_faithfully(tmp_path / "mutated.flcp", bytes(mutated))


class TestLossTrace:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_loss_trace(str(path), [(1, 5.0, 0.7), (2, 4.5, 0.69)])
        assert path.read_bytes() == (
            b"step,mlm_loss,nsp_loss\r\n"
            b"1,5.0000000000,0.7000000000\r\n2,4.5000000000,0.6900000000\r\n"
        )
        assert read_loss_trace(str(path)) == [(1, 5.0, 0.7), (2, 4.5, 0.69)]

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="loss trace"):
            read_loss_trace(str(path))

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"2,4.5,0.69\r\n3,four,0.68\r\n", "line 3 is not a step,mlm_loss,nsp_loss row"),
            (b"2,4.5\r\n", "line 2 is not a step,mlm_loss,nsp_loss row"),
            (b"2,4.5,0.69,1\r\n", "line 2 is not a step,mlm_loss,nsp_loss row"),
            (b"2,4.5,0.69\r\n3,4.0,0.\xff\r\n", "invalid UTF-8 at byte offset 44 \\(line 3\\)"),
        ],
        ids=["non-numeric", "short-row", "long-row", "bad-utf8"],
    )
    def test_bad_row_names_path_and_line(self, tmp_path, body, message):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"step,mlm_loss,nsp_loss\r\n" + body)
        with pytest.raises(DataError, match=message) as info:
            read_loss_trace(str(path))
        assert str(path) in str(info.value)


class TestPretrain:
    def test_zero_steps_equals_initialization(self, example_file, tmp_path):
        path, vocab = example_file
        config = small_config(vocab)
        ckpt = str(tmp_path / "init.ckpt")
        result = pretrain(path, config, OptimizerConfig(max_steps=0, batch_size=4), 11, ckpt)
        fresh = init_params(config, 11)
        assert result.step == 0 and result.trace == ()
        assert all(np.array_equal(result.params[k], fresh[k]) for k in fresh)
        assert load_checkpoint(ckpt).step == 0
        assert {name: len(value) for name, value in load_checkpoint(ckpt).losses.items()} == {
            "mlm_loss": 0, "nsp_loss": 0}

    def test_resume_matches_uninterrupted_run(self, example_file, tmp_path):
        path, vocab = example_file
        config = small_config(vocab)
        opt = OptimizerConfig(learning_rate=1e-3, batch_size=4, max_steps=8)

        solid = str(tmp_path / "solid.ckpt")
        full = pretrain(path, config, opt, 13, solid, trace_path=str(tmp_path / "solid.csv"))

        split = str(tmp_path / "split.ckpt")
        pretrain(path, config, OptimizerConfig(learning_rate=1e-3, batch_size=4, max_steps=4),
                 13, split, trace_path=str(tmp_path / "split.csv"))
        resumed = pretrain(path, config, opt, 13, split, trace_path=str(tmp_path / "split.csv"))

        assert resumed.step == full.step == 8
        assert all(np.array_equal(resumed.params[k], full.params[k]) for k in full.params)
        with open(solid, "rb") as a, open(split, "rb") as b:
            assert a.read() == b.read()
        assert read_loss_trace(str(tmp_path / "split.csv")) == read_loss_trace(
            str(tmp_path / "solid.csv")
        )

    def test_a_failed_trace_write_resumes_to_the_uninterrupted_bytes(self, example_file, tmp_path):
        # the checkpoint is saved before the trace is written, and it holds
        # the whole history, so a rerun writes out what the failed write lost
        path, vocab = example_file
        config = small_config(vocab)
        solid = tmp_path / "solid"
        solid.mkdir()
        for steps in (3, 5):
            pretrain(path, config, OptimizerConfig(batch_size=4, max_steps=steps), 3,
                     str(solid / f"{steps}.ckpt"), trace_path=str(solid / f"{steps}.csv"))
        ckpt, trace = tmp_path / "m.ckpt", tmp_path / "later" / "m.csv"
        with pytest.raises(FileNotFoundError):
            pretrain(path, config, OptimizerConfig(batch_size=4, max_steps=3), 3, str(ckpt),
                     trace_path=str(trace))
        trace.parent.mkdir()
        for steps in (3, 5):
            pretrain(path, config, OptimizerConfig(batch_size=4, max_steps=steps), 3, str(ckpt),
                     trace_path=str(trace))
            assert ckpt.read_bytes() == (solid / f"{steps}.ckpt").read_bytes()
            assert trace.read_bytes() == (solid / f"{steps}.csv").read_bytes()

    def test_a_resume_with_a_trace_writes_every_step(self, example_file, tmp_path):
        path, vocab = example_file
        config = small_config(vocab)
        opt = OptimizerConfig(batch_size=4, max_steps=4)
        full = pretrain(path, config, opt, 3, str(tmp_path / "full.ckpt"),
                        trace_path=str(tmp_path / "full.csv"))
        ckpt, trace = tmp_path / "m.ckpt", tmp_path / "m.csv"
        pretrain(path, config, OptimizerConfig(batch_size=4, max_steps=2), 3, str(ckpt))
        resumed = pretrain(path, config, opt, 3, str(ckpt), trace_path=str(trace))
        assert [row[0] for row in read_loss_trace(str(trace))] == [1, 2, 3, 4]
        assert trace.read_bytes() == (tmp_path / "full.csv").read_bytes()
        assert resumed.trace == full.trace == load_checkpoint(str(ckpt)).trace

    def test_resume_without_a_loss_history_fails_before_the_first_step(
        self, example_file, tmp_path
    ):
        path, vocab = example_file
        config = small_config(vocab)
        opt = OptimizerConfig(batch_size=4, max_steps=2)
        ckpt, trace = tmp_path / "bare.ckpt", tmp_path / "bare.csv"
        run = pretrain(path, config, opt, 3, str(ckpt))
        save_checkpoint(str(ckpt), config, opt, run.params, run.adam_state)
        before = ckpt.read_bytes()
        with pytest.raises(DataError, match=rf"{re.escape(str(ckpt))} holds no loss history"):
            pretrain(path, config, OptimizerConfig(batch_size=4, max_steps=4), 3, str(ckpt),
                     trace_path=str(trace))
        assert ckpt.read_bytes() == before
        assert not trace.exists()

    def test_resume_with_another_seed_fails_before_the_first_step(self, example_file, tmp_path):
        path, vocab = example_file
        config = small_config(vocab)
        ckpt = tmp_path / "s.ckpt"
        pretrain(path, config, OptimizerConfig(batch_size=4, max_steps=2), 3, str(ckpt))
        before = ckpt.read_bytes()
        with pytest.raises(ConfigError, match="trained with seed 3, not 99"):
            pretrain(path, config, OptimizerConfig(batch_size=4, max_steps=4), 99, str(ckpt))
        assert ckpt.read_bytes() == before

    def test_checkpoint_records_the_example_file_digest(self, example_file, tmp_path):
        path, vocab = example_file
        ckpt = tmp_path / "d.ckpt"
        run = pretrain(path, small_config(vocab), OptimizerConfig(batch_size=4, max_steps=1), 3,
                       str(ckpt))
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert run.examples_sha256 == load_checkpoint(str(ckpt)).examples_sha256 == digest

    def test_resume_onto_another_example_file_fails_before_the_first_step(
        self, example_file, tmp_path
    ):
        path, vocab = example_file
        config = small_config(vocab)
        examples, _ = read_examples(path)
        other = tmp_path / "other.bin"
        write_examples(examples[: len(examples) // 2], str(other), vocab)
        ckpt, trace = tmp_path / "m.ckpt", tmp_path / "m.csv"
        pretrain(path, config, OptimizerConfig(batch_size=4, max_steps=2), 3, str(ckpt))
        before = ckpt.read_bytes()
        with pytest.raises(ConfigError) as info:
            pretrain(str(other), config, OptimizerConfig(batch_size=4, max_steps=4), 3, str(ckpt),
                     trace_path=str(trace))
        message = str(info.value)
        assert hashlib.sha256(Path(path).read_bytes()).hexdigest() in message
        assert hashlib.sha256(other.read_bytes()).hexdigest() in message
        assert f"remove {ckpt} " in message
        assert ckpt.read_bytes() == before
        assert not trace.exists()

    def test_a_checkpoint_without_an_example_file_digest_still_resumes(
        self, example_file, tmp_path
    ):
        path, vocab = example_file
        config = small_config(vocab)
        opt = OptimizerConfig(batch_size=4, max_steps=4)
        pretrain(path, config, opt, 3, str(tmp_path / "full.ckpt"))
        ckpt = tmp_path / "m.ckpt"
        half = pretrain(path, config, OptimizerConfig(batch_size=4, max_steps=2), 3, str(ckpt))
        save_checkpoint(str(ckpt), config, half.opt_config, half.params, half.adam_state,
                        seed=3, losses=half.losses)
        assert load_checkpoint(str(ckpt)).examples_sha256 is None
        pretrain(path, config, opt, 3, str(ckpt))
        assert ckpt.read_bytes() == (tmp_path / "full.ckpt").read_bytes()

    @pytest.mark.parametrize("layers", [1, 2])
    def test_twenty_steps_equal_the_padded_encoders_bytes(
        self, example_file, tmp_path, monkeypatch, layers
    ):
        # the grid holds one step to the padded encoder; this holds a run,
        # where each step starts from parameters the pruned steps made. The
        # weight gradients sum L-row blocks where the padded encoder sums
        # every row at once, so the runs agree to rounding: 2.6e-17 of the
        # largest parameter after 20 steps, with equal losses
        path, vocab = example_file
        config = dataclasses.replace(small_config(vocab), layers=layers)
        opt = OptimizerConfig(batch_size=8, max_steps=20)
        # both runs start from float64 parameters, whose rounding the bounds are
        monkeypatch.setattr(training, "init_params", _float64_init)
        real = pretrain(path, config, opt, 11, str(tmp_path / "real.ckpt"))
        with monkeypatch.context() as patch:
            patch.setattr(model_module, "_encode", padded_encode)
            patch.setattr(model_module, "backprop_encoder", padded_backprop)
            ref = pretrain(path, config, opt, 11, str(tmp_path / "ref.ckpt"))
        steps, losses = np.array(real.trace)[:, 0], np.array(real.trace)[:, 1:]
        ref_steps, ref_losses = np.array(ref.trace)[:, 0], np.array(ref.trace)[:, 1:]
        assert steps.tolist() == ref_steps.tolist() == list(range(1, 21))
        assert np.all(np.abs(losses - ref_losses) <= 1e-10 * np.abs(ref_losses))
        scale = max(np.abs(value).max() for value in ref.params.values())
        for name, value in ref.params.items():
            assert np.abs(real.params[name] - value).max() <= 1e-10 * scale, name

    def test_trace_covers_consecutive_steps(self, example_file, tmp_path):
        path, vocab = example_file
        result = pretrain(
            path, small_config(vocab), OptimizerConfig(batch_size=4, max_steps=5),
            7, str(tmp_path / "t.ckpt"),
        )
        assert [row[0] for row in result.trace] == [1, 2, 3, 4, 5]
        assert all(np.isfinite(row[1]) and np.isfinite(row[2]) for row in result.trace)

    def test_non_finite_gradient_aborts_without_checkpoint(
        self, example_file, tmp_path, monkeypatch
    ):
        path, vocab = example_file
        calls = []

        def poisoned(*args, **kwargs):
            losses, grads = real_gradients(*args, **kwargs)
            calls.append(1)
            if len(calls) == 3:
                grads["layer0.ffn_w1"][2, 5] = np.nan
            return losses, grads

        real_gradients = training.gradients
        monkeypatch.setattr(training, "gradients", poisoned)
        ckpt, trace = tmp_path / "nan.ckpt", tmp_path / "nan.csv"
        with pytest.raises(DataError, match="step 3: gradient of layer0.ffn_w1 is not finite"):
            pretrain(path, small_config(vocab), OptimizerConfig(batch_size=4, max_steps=5),
                     1, str(ckpt), trace_path=str(trace))
        assert len(calls) == 3
        assert not ckpt.exists() and not trace.exists()

    @pytest.mark.parametrize("log_every", [0, -3])
    def test_log_every_below_one_fails_before_reading(self, example_file, tmp_path, log_every):
        path, vocab = example_file
        ckpt, trace = tmp_path / "never.ckpt", tmp_path / "never.csv"
        for examples in (path, str(tmp_path / "missing.bin")):
            with pytest.raises(ConfigError, match=f"log_every must be at least 1, got {log_every}"):
                pretrain(examples, small_config(vocab), OptimizerConfig(batch_size=4, max_steps=3),
                         1, str(ckpt), trace_path=str(trace), log=print, log_every=log_every)
        assert list(tmp_path.iterdir()) == []

    def test_vocab_mismatch_fails_before_first_step(self, example_file, tmp_path):
        path, vocab = example_file
        ckpt = tmp_path / "never.ckpt"
        with pytest.raises(ConfigError, match="vocab size"):
            pretrain(path, small_config(vocab + 1), OptimizerConfig(max_steps=3), 1, str(ckpt))
        assert not ckpt.exists()

    def test_resume_rejects_changed_model_config(self, example_file, tmp_path):
        path, vocab = example_file
        ckpt = str(tmp_path / "m.ckpt")
        pretrain(path, small_config(vocab), OptimizerConfig(batch_size=4, max_steps=2), 1, ckpt)
        other = ModelConfig(layers=1, heads=4, hidden=16, intermediate=32,
                            vocab_size=vocab, max_positions=32)
        with pytest.raises(ConfigError, match="model config"):
            pretrain(path, other, OptimizerConfig(batch_size=4, max_steps=4), 1, ckpt)

    def test_resume_rejects_changed_optimizer(self, example_file, tmp_path):
        path, vocab = example_file
        ckpt = str(tmp_path / "o.ckpt")
        pretrain(path, small_config(vocab), OptimizerConfig(batch_size=4, max_steps=2), 1, ckpt)
        with pytest.raises(ConfigError, match="optimizer"):
            pretrain(
                path, small_config(vocab),
                OptimizerConfig(learning_rate=5e-4, batch_size=4, max_steps=4), 1, ckpt,
            )

    def test_loss_comes_down(self, example_file, tmp_path):
        path, vocab = example_file
        opt = OptimizerConfig(learning_rate=3e-3, batch_size=8, max_steps=60)
        result = pretrain(path, small_config(vocab), opt, 21, str(tmp_path / "d.ckpt"))
        first = np.mean([r[1] + r[2] for r in result.trace[:10]])
        last = np.mean([r[1] + r[2] for r in result.trace[-10:]])
        assert last < first


def _float_arrays(tree):
    """Every floating-point array in nested dicts, lists and tuples."""
    if isinstance(tree, np.ndarray):
        if tree.dtype.kind == "f":
            yield tree
    elif isinstance(tree, dict):
        for value in tree.values():
            yield from _float_arrays(value)
    elif isinstance(tree, (list, tuple)):
        for value in tree:
            yield from _float_arrays(value)


def _float64_init(*args):
    """init_params cast to float64, the dtype of checkpoints before float32."""
    params = init_params(*args)
    return pack(params, np.float64, values=params)


class TestDtypes:
    """Parameters, activations, caches and gradients take the parameters'
    dtype; Adam's moments, the update, the losses and the loss history are
    float64 whatever it is."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_step_keeps_the_parameters_dtype(self, example_file, dtype, monkeypatch):
        path, vocab = example_file
        # two layers, so a gradient promoted in the upper one reaches a product
        config = dataclasses.replace(small_config(vocab), layers=2)
        params = init_params(config, 3)
        assert {value.dtype for value in params.values()} == {np.dtype(np.float32)}
        params = pack(params, dtype, values=params)
        batch = collate(read_examples(path)[0][:8])
        selected = batch["mlm_labels"] != -100

        outputs, cache = _encode(params, config, batch, selected)
        assert {a.dtype for a in _float_arrays([outputs, cache])} == {np.dtype(dtype)}
        outputs = forward(params, config, batch)
        assert {a.dtype for a in _float_arrays(outputs)} == {np.dtype(dtype)}

        # the losses are float64 log-softmaxes of the logits, whatever their dtype
        logits = outputs["mlm_logits"][selected].astype(np.float64)
        shifted = logits - logits.max(-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(-1, keepdims=True))
        mlm_loss = -logp[np.arange(len(logp)), batch["mlm_labels"][selected]].sum() / len(logp)
        nsp = outputs["nsp_logits"].astype(np.float64)
        nsp -= nsp.max(-1, keepdims=True)
        nsp -= np.log(np.exp(nsp).sum(-1, keepdims=True))
        nsp_loss = -nsp[np.arange(len(nsp)), batch["nsp_labels"]].mean()
        losses = compute_losses(outputs, batch)
        assert (losses["mlm_loss"], losses["nsp_loss"]) == (float(mlm_loss), float(nsp_loss))

        # every product of the backward pass reads operands of that dtype
        products = []
        real_matmul = np.matmul

        def matmul(a, b, **kwargs):
            products.append((a.dtype, b.dtype))
            return real_matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", matmul)
        losses, grads = gradients(params, config, batch)
        monkeypatch.undo()
        assert products and set(products) == {(np.dtype(dtype), np.dtype(dtype))}
        assert all(type(losses[key]) is float for key in ("mlm_loss", "nsp_loss", "total"))
        assert {g.dtype for g in grads.values()} == {np.dtype(dtype)}

        state = init_adam_state(params)
        adam_step(params, grads, state, OptimizerConfig(learning_rate=1e-3))
        assert {p.dtype for p in params.values()} == {np.dtype(dtype)}
        assert {m.dtype for m in [*state.m.values(), *state.v.values()]} == {np.dtype(np.float64)}

    def test_adam_updates_in_float64_and_rounds_once(self):
        # a float32 parameter takes the float64 update, written out longhand
        # in adam_step's order, rounded once
        params = {"w": np.array([1.0, -0.3, 0.7], np.float32)}
        g = np.array([0.1, 0.2, -0.3], np.float32)
        state = init_adam_state(params)
        w, m, v = params["w"].astype(np.float64), np.zeros(3), np.zeros(3)
        wide = g.astype(np.float64)
        for t in range(1, 4):
            adam_step(params, {"w": g}, state, OptimizerConfig(learning_rate=0.01))
            m = 0.9 * m + wide * (1 - 0.9)
            v = 0.98 * v + wide * (1 - 0.98) * wide
            w = w - m / (1 - 0.9**t) * 0.01 / (np.sqrt(v / (1 - 0.98**t)) + 1e-8)
            w = w.astype(np.float32).astype(np.float64)
            assert params["w"].tobytes() == w.astype(np.float32).tobytes()
            assert state.m["w"].tobytes() == m.tobytes()
            assert state.v["w"].tobytes() == v.tobytes()

    def test_a_checkpoint_holds_float32_parameters_and_float64_state(self, example_file, tmp_path):
        path, vocab = example_file
        ckpt = str(tmp_path / "run.ckpt")
        pretrain(path, small_config(vocab), OptimizerConfig(batch_size=4, max_steps=3), 7, ckpt)
        saved = load_checkpoint(ckpt)
        assert {p.dtype for p in saved.params.values()} == {np.dtype(np.float32)}
        moments = [*saved.adam_state.m.values(), *saved.adam_state.v.values()]
        assert {m.dtype for m in [*moments, *saved.losses.values()]} == {np.dtype(np.float64)}

    def test_a_float64_checkpoint_resumes_exactly_in_float64(self, example_file, tmp_path,
                                                            monkeypatch):
        # a checkpoint of float64 parameters, as every run wrote before the
        # model ran in float32, resumes to an uninterrupted float64 run's bytes
        path, vocab = example_file
        config = small_config(vocab)
        opt = OptimizerConfig(learning_rate=1e-3, batch_size=4, max_steps=6)
        with monkeypatch.context() as patch:
            patch.setattr(training, "init_params", _float64_init)
            pretrain(path, config, opt, 13, str(tmp_path / "solid.ckpt"))
            pretrain(path, config, dataclasses.replace(opt, max_steps=3), 13,
                     str(tmp_path / "split.ckpt"))
        split = load_checkpoint(str(tmp_path / "split.ckpt"))
        assert {p.dtype for p in split.params.values()} == {np.dtype(np.float64)}
        resumed = pretrain(path, config, opt, 13, str(tmp_path / "split.ckpt"))
        assert {p.dtype for p in resumed.params.values()} == {np.dtype(np.float64)}
        assert (tmp_path / "split.ckpt").read_bytes() == (tmp_path / "solid.ckpt").read_bytes()


def _traced_high_water(call):
    """Bytes that ``call``'s second run holds at its peak beyond what was
    live before it; the first run fills the interpreter's and NumPy's caches."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestStepMemory:
    """One pretraining step holds the encoder's forward cache and one
    layer's backward working set at a time, not every array it makes; an
    inference pass holds no backward cache at all."""

    # tracemalloc counts every NumPy buffer, so a reading does not depend on
    # the host: 59,728,480 bytes for a step whose backward pass held every
    # layer's cache and the heads' arrays to its end, 30,592,496 bytes with
    # each array dropped after its last use, 27,861,363 with the attention
    # probabilities cached as the kept query rows only, 25,301,603 with each
    # dy @ w.T formed on packed token rows instead of padded (B, L, K) ones,
    # 21,866,296 with each x.T @ dy formed block by block on packed rows too,
    # where it had padded (B * L, K) operands, all of these for float64
    # parameters; 13,646,156 with float32 parameters, activations and
    # gradients, and float64 Adam moments and scratch
    BOUND = 0.75 * 59_728_480

    def _acceptance_batch(self):
        # acceptance shapes: the desk encoder at V = 1000, B = 32, L = 64, with
        # ragged rows and about 15% of each row's inner positions labelled
        config = desk_config(vocab_size=1000)
        params = init_params(config, seed=0)
        rng = np.random.default_rng(0)
        bsz, length = 32, 64
        lengths = rng.integers(8, length + 1, bsz)
        pos = np.arange(length)
        attn = (pos < lengths[:, None]).astype(np.int64)
        inner = (pos > 0) & (pos < lengths[:, None] - 1)
        picked = inner & (rng.random((bsz, length)) < 0.15)
        batch = dict(
            input_ids=rng.integers(5, 1000, (bsz, length)) * attn,
            segment_ids=((pos >= lengths[:, None] // 2) * attn).astype(np.int64),
            attention_mask=attn,
            mlm_labels=np.where(picked, rng.integers(5, 1000, (bsz, length)), -100),
            nsp_labels=rng.integers(0, 2, bsz),
        )
        return config, params, batch

    def _step_high_water(self):
        config, params, batch = self._acceptance_batch()
        state = init_adam_state(params)
        opt = OptimizerConfig(learning_rate=1e-3)

        def step():
            _, grads = gradients(params, config, batch)
            adam_step(params, grads, state, opt)

        return _traced_high_water(step)

    def test_traced_high_water_of_one_step(self):
        assert self._step_high_water() <= self.BOUND

    def test_backward_holds_no_padded_data_gradient(self):
        # the step's reading while every dy @ w.T ran on padded (B, L, K) rows
        assert self._step_high_water() <= 0.95 * 27_861_363

    def test_backward_holds_no_padded_weight_gradient_operand(self):
        # the step's reading while every x.T @ dy ran on padded (B * L, K) operands
        assert self._step_high_water() <= 0.96 * 25_301_603

    def test_a_float32_step_holds_less_than_a_float64_one(self):
        # the float64 step's reading; an array promoted back to float64 shows here
        assert self._step_high_water() <= 0.7 * 21_866_296

    def test_data_gradient_products_run_on_packed_blocks(self, monkeypatch):
        config, params, batch = self._acceptance_batch()
        shapes = []
        real_matmul = np.matmul

        def matmul(a, b, **kwargs):
            shapes.append((a.shape, b.shape))
            return real_matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", matmul)
        gradients(params, config, batch)
        monkeypatch.undo()
        # the attention products are 4-D; the next test pins them
        shapes = [(a, b) for a, b in shapes if len(a) < 4]

        length, h, i = 64, config.hidden, config.intermediate
        attn = batch["attention_mask"].astype(bool)
        read = (batch["mlm_labels"] != -100) | (np.arange(length) == 0)
        attended = -(-int(attn.sum()) // length)
        reads = -(-int(read.sum()) // length)
        # 1,202 attended and 215 read rows, where the padded batch has 32 rows of 64
        assert (attended, reads) == (19, 4)
        # the heads' weight gradients come first, one (K, L) @ (L, K')
        # product per block: the tied decoder's and mlm_w's on the 3 blocks
        # of labelled rows, nsp_w's and pool_w's on the one block of 32 [CLS].
        # Each of mlm_w, nsp_w and pool_w is followed by its dy @ w.T, one
        # product over the head's rows, not in blocks
        n_labelled = int((batch["mlm_labels"] != -100).sum())
        labelled = -(-n_labelled // length)
        assert (n_labelled, labelled) == (183, 3)
        heads = ([((config.vocab_size, length), (length, h))] * labelled
                 + [((h, length), (length, h))] * labelled + [((n_labelled, h), (h, h))]
                 + [((h, length), (length, 2)), ((32, 2), (2, h))]
                 + [((h, length), (length, h)), ((32, h), (h, h))])
        # then the encoder's, the last layer's first: ffn_w2, ffn_w1, o_w,
        # q_w on the read rows, k_w and v_w on the attended ones; for a
        # weight of shape (m, k), x.T @ dy is (m, L) @ (L, k) per block and
        # dy @ w.T one (n, L, k) @ (k, m) product over the n blocks
        widths = [(h, i), (i, h), (h, h), (h, h), (h, h), (h, h)]
        blocks = [reads] * 4 + [attended] * 2 + [attended] * 6
        encoder = []
        for n, (k, m) in zip(blocks, widths * 2):
            encoder += [((m, length), (length, k))] * n + [((n, length, k), (k, m))]
        assert shapes == heads + encoder

    def _attention_products(self, monkeypatch, config, params, batch):
        """The operand shapes of every 4-D np.matmul in one step."""
        shapes = []
        real_matmul = np.matmul

        def matmul(a, b, **kwargs):
            if a.ndim == 4:
                shapes.append((a.shape, b.shape))
            return real_matmul(a, b, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "matmul", matmul)
            gradients(params, config, batch)
        return shapes

    @pytest.mark.parametrize("longest", [64, 40])
    def test_attention_products_run_on_each_sequence_s_slots(self, monkeypatch, longest):
        config, params, batch = self._acceptance_batch()
        if longest < 64:  # the same rows cut to at most 40 tokens
            batch["attention_mask"][:, longest:] = 0
            batch["input_ids"][:, longest:] = 0
            batch["segment_ids"][:, longest:] = 0
            batch["mlm_labels"][:, longest:] = -100
        shapes = self._attention_products(monkeypatch, config, params, batch)

        bsz, nh, dh = 32, config.heads, config.hidden // config.heads
        # keys in slots up to the last attended column, rounded up to a
        # multiple of 16: 64 for the longest row's 63 columns, 48 for 40;
        # queries in as many slots as the sequence keeping the most rows:
        # every attended row below the last layer (as many as the keys,
        # under a prefix mask), the labelled rows and [CLS] in it
        last = int(batch["attention_mask"].sum(1).max())
        read = (batch["mlm_labels"] != -100) | (np.arange(64) == 0)
        most_read = int(read.sum(1).max())
        assert (last, most_read) == {64: (63, 13), 40: (40, 12)}[longest]
        keys = {64: 64, 40: 48}[longest]

        def forward_layer(r):  # the scores, then the context
            return [((bsz, nh, r, dh), (bsz, nh, dh, keys)),
                    ((bsz, nh, r, keys), (bsz, nh, keys, dh))]

        def backward_layer(r):  # dprobs, dV, dQ, dK
            return [((bsz, nh, r, dh), (bsz, nh, dh, keys)),
                    ((bsz, nh, keys, r), (bsz, nh, r, dh)),
                    ((bsz, nh, r, keys), (bsz, nh, keys, dh)),
                    ((bsz, nh, keys, r), (bsz, nh, r, dh))]

        # the last layer's scores are (32, 2, 13, 64) or (32, 2, 12, 48),
        # where the padded layout's were (32, 2, 64, 64)
        assert shapes == (forward_layer(keys) + forward_layer(most_read)
                          + backward_layer(most_read) + backward_layer(keys))

    def test_an_encode_without_backward_frees_each_layer_as_it_ends(self):
        config, params, batch = self._acceptance_batch()
        # 21,262,992 bytes when each layer's arrays lived until the next
        # layer rebound their names, 16,184,512 with them freed as it ends
        peak = _traced_high_water(lambda: _encode(params, config, batch, backward=False))
        assert peak <= 0.85 * 21_262_992

    def test_forward_keeps_no_backward_cache(self):
        config, params, batch = self._acceptance_batch()
        # 54,769,160 bytes when forward() built and dropped the encoder's
        # backward cache, 30,177,224 without it
        assert _traced_high_water(lambda: forward(params, config, batch)) <= self.BOUND
        # the same bytes as an encode that records the cache, with the MLM
        # head on every attended row
        expected, cache = _encode(params, config, batch)
        rows = cache["rows"]
        logits, _ = _mlm_head(params, rows.gather(expected["sequence"]))
        expected["mlm_logits"] = rows.scatter(logits)
        outputs = forward(params, config, batch)
        assert set(outputs) == set(expected)
        for key, value in expected.items():
            assert outputs[key].tobytes() == value.tobytes(), key

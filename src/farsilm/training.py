"""Adam optimization, binary checkpoints, and the pretraining loop.

Checkpoints and fine-tuned head files are containers
(:func:`~farsilm.lineio.write_container`), as example files are. Their
header holds the model and optimizer configs, the step, and the optional
seed, head record and digests; their tensors are named by group:
``param:``, ``adam_m:``, ``adam_v:``, ``head:`` and ``loss:``. Saving the
same state twice produces byte-identical files, which the
reproducibility checks rely on.

The pretraining loop draws each step's batch independently from the
example file with a counter-based seed, so a run resumed from step 100
replays exactly the batches an uninterrupted run would have seen. Its
checkpoint also holds the seed and every step's losses, so one file
holds the whole run: the loss trace is written whole from it at the end
of each run, and a resume can neither drop nor repeat a row. It also
holds the example file's sha256, so a resume onto another example file,
whose token ids may index another vocabulary, is refused. A fine-tuned
head file holds its vocabulary's sha256 the same way.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, check_positive, check_seed
from .lineio import atomic_open, read_bytes, read_container, read_text, write_container
from .model import ModelConfig, buffers, gradients, init_params, pack, shape_audit
from .pretrain_data import ExampleTable, collate, read_examples

_TENSOR_GROUPS = ("param:", "adam_m:", "adam_v:", "head:", "loss:")  # tensor name prefixes
_LOSSES = ("mlm_loss", "nsp_loss")
_SHA256 = re.compile(r"[0-9a-f]{64}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam hyperparameters; the high beta2 follows the training recipe."""

    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.98
    epsilon: float = 1e-8
    batch_size: int = 32
    max_steps: int = 1000
    warmup_steps: int = 0

    def __post_init__(self):
        check_positive("learning_rate", self.learning_rate)
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{name} must lie in [0,1), got {value}")
        check_positive("epsilon", self.epsilon)
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.max_steps < 0 or self.warmup_steps < 0:
            raise ConfigError("step counts cannot be negative")


@dataclass
class AdamState:
    """First and second moment accumulators plus the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_adam_state(params: dict[str, np.ndarray]) -> AdamState:
    """Zeroed float64 moments, whatever the parameters' dtype, each laid out
    as :func:`~farsilm.model.pack` lays out ``params``: one buffer for each
    of the parameters' dtypes, so the moment buffers line up with the
    parameter and gradient buffers that :func:`adam_step` runs over."""
    return AdamState(m=pack(params, np.float64), v=pack(params, np.float64), step=0)


# values per slice of adam_step's buffers: its two float64 scratch arrays
# stay small enough to be reused from the heap, where scratch sized to a
# whole buffer took fresh pages on every call
ADAM_SLICE = 32_768


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: OptimizerConfig,
) -> None:
    """One bias-corrected Adam update, applied to params in place.

    ``params``, ``grads`` and both moment dicts must be views into one
    buffer per dtype, laid out alike (:func:`~farsilm.model.pack`); any
    other dict is a ValueError naming it, raised before the update. The
    update runs over each buffer in slices of ``ADAM_SLICE`` values, in two
    float64 scratch arrays of one slice, with the operations of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)`` in that order. The moments
    are float64 and so is the update, which is rounded once into a
    parameter of another dtype. Every operation is elementwise, so the
    slicing moves no byte.
    """
    groups = buffers(params, "params")
    layout = [(names, buffer.size) for names, buffer in groups]
    columns = [[buffer for _, buffer in groups]]
    for what, named in (("grads", grads), ("state.m", state.m), ("state.v", state.v)):
        groups = buffers(named, what)
        if [(names, buffer.size) for names, buffer in groups] != layout:
            raise ValueError(f"{what} is not laid out as params is")
        columns.append([buffer for _, buffer in groups])
    state.step += 1
    t = state.step
    lr = config.learning_rate
    if config.warmup_steps > 0:
        lr *= min(1.0, t / config.warmup_steps)
    bc1 = 1.0 - config.beta1**t
    bc2 = 1.0 - config.beta2**t
    scratch, denom = np.empty(ADAM_SLICE), np.empty(ADAM_SLICE)
    for whole in zip(*columns):
        for lo in range(0, whole[0].size, ADAM_SLICE):
            p, g, m, v = (buffer[lo : lo + ADAM_SLICE] for buffer in whole)
            step, root = scratch[: p.size], denom[: p.size]
            m *= config.beta1
            # a float32 g would otherwise pick the float32 loop
            np.multiply(g, 1.0 - config.beta1, out=step, dtype=np.float64)
            m += step
            v *= config.beta2
            np.multiply(g, 1.0 - config.beta2, out=step, dtype=np.float64)
            step *= g
            v += step
            np.divide(m, bc1, out=step)
            step *= lr
            np.divide(v, bc2, out=root)
            np.sqrt(root, out=root)
            root += config.epsilon
            step /= root
            p -= step


@dataclass(frozen=True)
class Checkpoint:
    model_config: ModelConfig
    opt_config: OptimizerConfig
    params: dict[str, np.ndarray]
    adam_state: AdamState
    head_kind: str | None = None
    head_labels: tuple[str, ...] | None = None
    head_params: dict[str, np.ndarray] | None = None
    # pretrain() records its seed, the float64 mlm_loss and nsp_loss of
    # steps 1..step, and the sha256 of the example file it trained on
    seed: int | None = None
    losses: dict[str, np.ndarray] | None = None
    examples_sha256: str | None = None
    # a fine-tuned head records the sha256 of its vocabulary file
    vocab_sha256: str | None = None

    @property
    def step(self) -> int:
        return self.adam_state.step

    @property
    def trace(self) -> tuple[tuple[int, float, float], ...]:
        """The (step, mlm_loss, nsp_loss) rows of the loss history; none without one."""
        if self.losses is None:
            return ()
        return tuple(zip(range(1, self.step + 1), *(self.losses[n].tolist() for n in _LOSSES)))


def _check_history(losses: dict[str, np.ndarray], step: int, path: str) -> None:
    """A loss history, for the writer and the reader alike, is absent (empty)
    or holds one float64 row per step for exactly the losses in _LOSSES."""
    if losses and (
        set(losses) != set(_LOSSES)
        or any(value.shape != (step,) or value.dtype != np.float64 for value in losses.values())
    ):
        raise DataError(f"checkpoint {path}: the loss history does not hold {step} steps")


_DIGESTS = ("examples_sha256", "vocab_sha256")  # optional header keys


def _check_digest(key: str, digest, path: str) -> None:
    if not (isinstance(digest, str) and _SHA256.fullmatch(digest)):
        raise DataError(
            f"checkpoint {path} has a bad {key} {digest!r}; expected 64 lowercase hex digits"
        )


def save_checkpoint(
    path: str,
    model_config: ModelConfig,
    opt_config: OptimizerConfig,
    params: dict[str, np.ndarray],
    state: AdamState,
    head_kind: str | None = None,
    head_labels=None,
    head_params: dict[str, np.ndarray] | None = None,
    seed: int | None = None,
    losses: dict[str, np.ndarray] | None = None,
    examples_sha256: str | None = None,
    vocab_sha256: str | None = None,
) -> None:
    """Write a checkpoint. What the readers reject is a DataError, raised
    before the file is opened: a malformed loss history, example-file or
    vocabulary digest, or a non-finite parameter or head tensor."""
    _check_history(losses or {}, state.step, path)
    digests = {"examples_sha256": examples_sha256, "vocab_sha256": vocab_sha256}
    digests = {key: digest for key, digest in digests.items() if digest is not None}
    for key, digest in digests.items():
        _check_digest(key, digest, path)
    for group, named in (("parameter", params), ("head tensor", head_params or {})):
        for name, value in named.items():
            if not np.isfinite(value).all():
                raise DataError(f"checkpoint {path}: {group} {name} contains non-finite values")
    groups = zip(_TENSOR_GROUPS, (params, state.m, state.v, head_params or {}, losses or {}))
    tensors = {prefix + name: value for prefix, named in groups for name, value in named.items()}
    header = {
        "model_config": dataclasses.asdict(model_config),
        "opt_config": dataclasses.asdict(opt_config),
        "step": state.step,
    }
    if head_kind is not None:
        header["head"] = {"kind": head_kind, "labels": list(head_labels or ())}
    if seed is not None:
        header["seed"] = seed
    header.update(digests)
    write_container(path, header, tensors)


def _config_from(cls, fields, path: str, key: str):
    """Build a config dataclass from its header record, which must name
    every field exactly once with a number of the field's type."""
    if not isinstance(fields, dict):
        raise DataError(f"checkpoint {path}: {key} is not a record")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown, missing = sorted(set(fields) - names), sorted(names - set(fields))
    if unknown or missing:
        raise DataError(f"checkpoint {path}: {key} has unknown keys {unknown}, lacks {missing}")
    for f in dataclasses.fields(cls):
        value = fields[f.name]
        # every field defaults to an int or a float; an int may stand for a float
        allowed = int if isinstance(f.default, int) else (int, float)
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise DataError(f"checkpoint {path}: {key}.{f.name} is {value!r}")
    try:
        return cls(**fields)
    except ConfigError as exc:
        raise DataError(f"checkpoint {path}: {key}: {exc}") from exc


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; any malformed or inconsistent file is a DataError."""
    header, tensors = read_container(path, "checkpoint")
    required = ("model_config", "opt_config", "step")
    for key in required:
        if key not in header:
            raise DataError(f"checkpoint {path} header lacks {key!r}")
    unknown = sorted(set(header) - {*required, "head", "seed", *_DIGESTS})
    if unknown:
        raise DataError(f"checkpoint {path} header has unknown keys {unknown}")
    for key in ("step", "seed"):
        value = header.get(key, 0)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise DataError(f"checkpoint {path} has a bad {key} {value!r}")
    for key in _DIGESTS:
        if key in header:
            _check_digest(key, header[key], path)
    step = header["step"]
    head = header.get("head")
    if head is not None and not (
        isinstance(head, dict)
        and isinstance(head.get("kind"), str)
        and isinstance(head.get("labels"), list)
        and all(isinstance(label, str) for label in head["labels"])
    ):
        raise DataError(f"checkpoint {path} has a malformed head record")
    model_config = _config_from(ModelConfig, header["model_config"], path, "model_config")
    opt_config = _config_from(OptimizerConfig, header["opt_config"], path, "opt_config")

    for name in tensors:
        if not name.startswith(_TENSOR_GROUPS):
            raise DataError(f"checkpoint {path}: tensor {name!r} belongs to no group")

    def group(prefix):
        return {
            name[len(prefix) :]: value
            for name, value in tensors.items()
            if name.startswith(prefix)
        }

    params, moments = group("param:"), (group("adam_m:"), group("adam_v:"))
    shape_audit(params, model_config)
    # a fine-tuned model carries no moments; a pretraining one carries both
    # for every parameter, with the parameter's shape
    for moment in moments:
        if moment and (
            set(moment) != set(params)
            or any(moment[k].shape != params[k].shape for k in params)
        ):
            raise DataError(f"checkpoint {path}: Adam moments do not match the parameters")
    head_params = group("head:")
    if bool(head_params) != (head is not None):
        raise DataError(f"checkpoint {path}: head tensors and head record disagree")
    losses = group("loss:")
    _check_history(losses, step, path)
    # the tensors are read-only views of the file's bytes, which each
    # group's pack copies once
    params = pack(params, values=params)
    # float64 moments laid out as the parameters are, for adam_step
    m, v = (pack(params, np.float64, values=moment) if moment else {} for moment in moments)
    return Checkpoint(
        model_config,
        opt_config,
        params,
        AdamState(m=m, v=v, step=step),
        head_kind=head["kind"] if head else None,
        head_labels=tuple(head["labels"]) if head else None,
        head_params=pack(head_params, values=head_params) or None,
        seed=header.get("seed"),
        losses=pack(losses, values=losses) or None,
        examples_sha256=header.get("examples_sha256"),
        vocab_sha256=header.get("vocab_sha256"),
    )


def write_loss_trace(path: str, rows) -> None:
    """CSV of per-step losses with a step,mlm_loss,nsp_loss header, written
    whole and atomically."""
    with atomic_open(path) as handle:
        writer = csv.writer(handle)  # \r\n line ends, which the handle keeps
        writer.writerow(["step", "mlm_loss", "nsp_loss"])
        writer.writerows((step, f"{mlm:.10f}", f"{nsp:.10f}") for step, mlm, nsp in rows)


def read_loss_trace(path: str) -> list[tuple[int, float, float]]:
    """The (step, mlm_loss, nsp_loss) rows of a trace; a file or a line
    that does not hold one is a DataError that names it."""
    lines = read_text(path).splitlines()
    if lines[:1] != ["step,mlm_loss,nsp_loss"]:
        raise DataError(f"{path} is not a loss trace")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            step, mlm_loss, nsp_loss = line.split(",")
            rows.append((int(step), float(mlm_loss), float(nsp_loss)))
        except ValueError:
            raise DataError(f"{path}: line {lineno} is not a step,mlm_loss,nsp_loss row") from None
    return rows


def _batch_for_step(examples: ExampleTable, batch_size: int, seed: int, step: int):
    # each step's batch is a pure function of (seed, step), which is what
    # makes an interrupted run resumable without replaying history
    rng = np.random.default_rng((seed, 2, step))
    picks = rng.integers(0, len(examples), batch_size)
    return collate(examples[picks])


def check_finite_gradients(grads: dict[str, np.ndarray], where: str) -> None:
    """Raise DataError naming ``where`` and the first gradient, in dict
    order, that holds a non-finite value; the training loops call it before
    each update. It checks each gradient buffer in one call
    (:func:`~farsilm.model.buffers`), and looks for the tensor only then."""
    if all(np.isfinite(buffer).all() for _, buffer in buffers(grads, "grads")):
        return
    name = next(name for name, grad in grads.items() if not np.isfinite(grad).all())
    raise DataError(f"{where}: gradient of {name} is not finite; no checkpoint written")


def check_log_every(log_every: int) -> None:
    """Raise ConfigError unless ``log_every`` is a step interval of 1 or more."""
    if log_every < 1:
        raise ConfigError(f"log_every must be at least 1, got {log_every}")


def pretrain(
    examples_path: str,
    model_config: ModelConfig,
    opt_config: OptimizerConfig,
    seed: int,
    checkpoint_path: str,
    trace_path: str | None = None,
    log=None,
    log_every: int = 100,
) -> Checkpoint:
    """Run MLM+NSP pretraining; returns the checkpoint it leaves at
    checkpoint_path, which records the seed and every step's losses.

    If the checkpoint already exists, training resumes from its recorded
    step and runs until opt_config.max_steps. With max_steps 0 the saved
    checkpoint holds the untouched initialization. At the end of the run
    the whole loss history is written to ``trace_path``. A non-finite
    gradient ends the run with a DataError naming the step, before any
    update or write. A negative ``seed`` or a ``log_every`` below 1 is a
    ConfigError, raised before the example file is read. Resuming onto an
    example file of another sha256 than the checkpoint records, or with
    another model config, optimizer setting or seed, is a ConfigError, and
    resuming a checkpoint without a loss history is a DataError; all are
    raised before the first step and leave the checkpoint as it was. A
    checkpoint that records no example-file digest resumes on any file.
    The example file is read once, and the digest is of the bytes read.
    """
    check_seed(seed)
    check_log_every(log_every)
    # one read: the digest names the very bytes that are trained on
    data = read_bytes(examples_path, "pretraining example")
    digest = hashlib.sha256(data).hexdigest()
    examples, file_vocab = read_examples(examples_path, data)
    if file_vocab != model_config.vocab_size:
        raise ConfigError(
            f"example file was built for vocab size {file_vocab}, "
            f"model expects {model_config.vocab_size}"
        )
    if not examples:
        raise DataError(f"{examples_path} holds no examples")

    if os.path.exists(checkpoint_path):
        checkpoint = load_checkpoint(checkpoint_path)
        if checkpoint.examples_sha256 not in (None, digest):
            raise ConfigError(
                f"checkpoint {checkpoint_path} was trained on an example file of sha256 "
                f"{checkpoint.examples_sha256}, but {examples_path} has sha256 {digest}; "
                f"remove {checkpoint_path} to train on this file"
            )
        if checkpoint.model_config != model_config:
            raise ConfigError("checkpoint model config does not match")
        stored = dataclasses.replace(checkpoint.opt_config, max_steps=opt_config.max_steps)
        if stored != opt_config:
            raise ConfigError("checkpoint optimizer settings do not match")
        if checkpoint.losses is None:
            raise DataError(f"checkpoint {checkpoint_path} holds no loss history to resume")
        if checkpoint.seed != seed:
            raise ConfigError(
                f"checkpoint {checkpoint_path} was trained with seed {checkpoint.seed}, not {seed}"
            )
        params, state, trace = checkpoint.params, checkpoint.adam_state, list(checkpoint.trace)
    else:
        params = init_params(model_config, seed)
        state = init_adam_state(params)
        trace = []

    while state.step < opt_config.max_steps:
        step = state.step + 1
        batch = _batch_for_step(examples, opt_config.batch_size, seed, step)
        losses, grads = gradients(params, model_config, batch)
        check_finite_gradients(grads, f"step {step}")
        adam_step(params, grads, state, opt_config)
        trace.append((step, losses["mlm_loss"], losses["nsp_loss"]))
        if log is not None and (step % log_every == 0 or step == opt_config.max_steps):
            log(
                f"step {step}/{opt_config.max_steps} "
                f"mlm {losses['mlm_loss']:.4f} nsp {losses['nsp_loss']:.4f}"
            )

    history = {name: np.array([row[i] for row in trace]) for i, name in enumerate(_LOSSES, 1)}
    run = Checkpoint(
        model_config, opt_config, params, state, seed=seed, losses=history,
        examples_sha256=digest,
    )
    save_checkpoint(
        checkpoint_path, model_config, opt_config, params, state, seed=seed, losses=history,
        examples_sha256=digest,
    )
    if trace_path is not None:
        write_loss_trace(trace_path, run.trace)
    return run

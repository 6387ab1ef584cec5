"""Every dict that Adam updates is views into one buffer per dtype.

Parameters, gradients and both Adam moments are built by one constructor,
``model.pack``, whichever path makes them: initialization, a loaded
checkpoint, or fine-tuning's encoder with its head appended. ``adam_step``
runs over the buffers and refuses a dict that is not laid out that way.
"""

import copy

import numpy as np
import pytest

from farsilm import finetune as finetune_module
from farsilm import model
from farsilm.errors import DataError
from farsilm.finetune import FinetuneConfig, LabeledText, TaggedSequence
from farsilm.model import ModelConfig, init_params
from farsilm.training import (
    Checkpoint,
    OptimizerConfig,
    adam_step,
    check_finite_gradients,
    init_adam_state,
    load_checkpoint,
    save_checkpoint,
)
from farsilm.wordpiece import TokenizerTrainConfig, train_wordpiece

CONFIG = ModelConfig(layers=1, heads=2, hidden=8, intermediate=16, vocab_size=40,
                     max_positions=16)


def buffer_names(named):
    """The names whose arrays tile each one 1-D buffer, in dict order and
    in the order of each dtype's first array; an assertion fails otherwise."""
    groups = []
    for dtype in dict.fromkeys(value.dtype for value in named.values()):
        names = [name for name, value in named.items() if value.dtype == dtype]
        base = named[names[0]].base
        assert isinstance(base, np.ndarray) and base.ndim == 1 and base.dtype == dtype
        assert base.size == sum(named[name].size for name in names)
        address = base.__array_interface__["data"][0]
        for name in names:
            assert named[name].base is base and named[name].flags.c_contiguous, name
            assert named[name].__array_interface__["data"][0] == address, name
            address += named[name].nbytes
        groups.append(names)
    return groups


def mixed_params():
    """Float32 parameters with a float64 tok_emb, so two buffers each."""
    params = dict(init_params(CONFIG, 3))
    params["tok_emb"] = params["tok_emb"].astype(np.float64)
    return model.pack(params, values=params)


def test_init_params_is_one_float32_buffer():
    params = init_params(CONFIG, 3)
    assert buffer_names(params) == [list(params)]
    assert params["tok_emb"].dtype == np.float32


def test_adam_moments_take_the_parameters_grouping():
    params = mixed_params()
    groups = buffer_names(params)
    assert groups == [["tok_emb"], [name for name in params if name != "tok_emb"]]
    state = init_adam_state(params)
    for moments in (state.m, state.v):
        assert list(moments) == list(params)
        assert {value.dtype for value in moments.values()} == {np.dtype(np.float64)}
        # every moment is float64, so the grouping is the parameters' own
        assert [names for names, _ in model.buffers(moments, "m")] == [tuple(g) for g in groups]
        assert all(not value.any() for value in moments.values())


def test_zero_gradients_line_up_with_the_parameters():
    params = mixed_params()
    grads = model.zero_gradients(params)
    assert buffer_names(grads) == buffer_names(params)
    assert all(grads[name].dtype == params[name].dtype for name in params)


@pytest.mark.parametrize("mixed", [False, True], ids=["float32", "mixed"])
def test_load_checkpoint_packs_parameters_and_moments(tmp_path, mixed):
    params = mixed_params() if mixed else init_params(CONFIG, 3)
    state = init_adam_state(params)
    state.m["pool_w"][0, 0], state.v["tok_emb"][1, 1], state.step = 0.25, 0.5, 3
    path = str(tmp_path / "model.flcp")
    save_checkpoint(path, CONFIG, OptimizerConfig(max_steps=3), params, state)
    loaded = load_checkpoint(path)
    groups = buffer_names(loaded.params)
    assert sorted(name for names in groups for name in names) == sorted(params)
    for moments, saved in ((loaded.adam_state.m, state.m), (loaded.adam_state.v, state.v)):
        assert list(moments) == list(loaded.params)
        assert [names for names, _ in model.buffers(moments, "m")] == [tuple(g) for g in groups]
        assert all(moments[name].tobytes() == saved[name].tobytes() for name in saved)
    assert all(loaded.params[name].tobytes() == params[name].tobytes() for name in params)
    # each buffer is the loader's own copy, not a read-only view of the file
    assert all(value.flags.writeable for value in loaded.params.values())


def tokenizer():
    words = ["ab", "abc", "bcd", "cab", "dab", "bad", "cad", "add", "dba", "cba"]
    rng = np.random.default_rng(0)
    sents = [" ".join(words[int(i)] for i in rng.integers(0, 10, 5)) for _ in range(30)]
    return train_wordpiece(sents, TokenizerTrainConfig(vocab_size=40, min_frequency=1,
                                                       alphabet_limit=30))


@pytest.mark.parametrize("kind", ["cls", "ner"])
def test_finetune_updates_one_buffer_of_encoder_and_head(monkeypatch, kind):
    tok = tokenizer()
    config = ModelConfig(layers=1, heads=2, hidden=8, intermediate=16,
                         vocab_size=len(tok.vocab), max_positions=16)
    params = init_params(config, 3)
    checkpoint = Checkpoint(config, OptimizerConfig(max_steps=0), params, init_adam_state(params))
    seen = []

    def recorded(full, grads, state, opt):
        seen.append((list(full), buffer_names(full), buffer_names(grads),
                     buffer_names(state.m), buffer_names(state.v)))
        real_adam(full, grads, state, opt)

    real_adam = finetune_module.adam_step
    monkeypatch.setattr(finetune_module, "adam_step", recorded)
    if kind == "cls":
        train = [LabeledText("ab cab", "pos"), LabeledText("bad dba", "neg")] * 2
        labels = ("pos", "neg")
    else:
        train = [TaggedSequence(("ab", "cab"), ("B-PER", "O"))] * 4
        labels = ("O", "B-PER", "I-PER")
    outcome = finetune_module.TASKS[kind].finetune(
        checkpoint, tok, train, [], FinetuneConfig(labels, epochs=1, batch_size=2))
    names = [*params, "head_w", "head_b"]
    assert len(seen) == 2
    for order, *layouts in seen:
        assert order == names
        assert all(layout == [names] for layout in layouts)
    # the encoder the checkpoint holds is untouched; the trained one moved
    assert all(value.tobytes() == init_params(config, 3)[name].tobytes()
               for name, value in params.items())
    assert outcome.model.params["layer0.ffn_w1"].tobytes() != params["layer0.ffn_w1"].tobytes()


def step_inputs():
    params = init_params(CONFIG, 3)
    grads = model.zero_gradients(params)
    grads["pool_w"][...] = 0.5
    return params, grads, init_adam_state(params)


@pytest.mark.parametrize("which", ["params", "grads", "state.m", "state.v"])
def test_adam_step_refuses_a_hand_built_dict(which):
    params, grads, state = step_inputs()
    if which == "params":
        params = {name: value.copy() for name, value in params.items()}
    elif which == "grads":
        grads = {name: value.copy() for name, value in grads.items()}
    else:
        setattr(state, which[-1], {name: np.zeros(value.shape) for name, value in params.items()})
    before = {name: value.copy() for name, value in params.items()}
    with pytest.raises(ValueError, match=rf"^{which} is not views into one buffer per dtype"):
        adam_step(params, grads, state, OptimizerConfig())
    assert state.step == 0
    assert all(params[name].tobytes() == before[name].tobytes() for name in params)


def test_adam_step_refuses_a_replaced_view_and_a_deep_copy():
    params, grads, state = step_inputs()
    for broken in ({**params, "pool_b": params["pool_b"].copy()}, copy.deepcopy(params)):
        with pytest.raises(ValueError, match="^params is not views"):
            adam_step(broken, grads, state, OptimizerConfig())


def test_adam_step_refuses_a_layout_of_another_order():
    params, grads, state = step_inputs()
    reordered = {name: params[name] for name in reversed(params)}
    with pytest.raises(ValueError, match=r"^grads is not laid out as params is"):
        adam_step(params, model.zero_gradients(reordered), state, OptimizerConfig())


def test_adam_step_takes_one_contiguous_array_per_dtype_as_its_buffer():
    params = {"w": np.array([1.0, 2.0], np.float32), "b": np.array([0.5])}
    grads = {"w": np.array([0.5, -0.5], np.float32), "b": np.array([1.0])}
    state = init_adam_state(params)
    adam_step(params, grads, state, OptimizerConfig(learning_rate=0.1))
    assert state.step == 1
    assert params["w"].tolist() == pytest.approx([0.9, 2.1])
    assert params["b"].tolist() == pytest.approx([0.4])


def test_non_finite_gradients_name_the_first_tensor_in_dict_order():
    params = init_params(CONFIG, 3)
    grads = model.zero_gradients(params)
    check_finite_gradients(grads, "step 1")
    grads["pool_w"][1, 2] = np.inf
    grads["layer0.q_b"][0] = np.nan
    with pytest.raises(DataError, match=r"^step 2: gradient of layer0.q_b is not finite; no "):
        check_finite_gradients(grads, "step 2")

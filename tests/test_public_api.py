"""The package's exported names: each one must still exist. And the
package needs NumPy alone: every module imports, and the model trains and
predicts, in a process where scipy cannot be imported."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import farsilm

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", farsilm.__all__)
def test_exported_name_resolves(name):
    assert hasattr(farsilm, name)


_WITHOUT_SCIPY = textwrap.dedent("""
    import importlib
    import pkgutil
    import sys

    sys.modules["scipy"] = None  # any import of scipy now raises ImportError

    import numpy as np

    import farsilm
    for info in pkgutil.iter_modules(farsilm.__path__):
        importlib.import_module(f"farsilm.{info.name}")

    from farsilm.finetune import FinetuneConfig, LabeledText, finetune_sequence, predict
    from farsilm.model import ModelConfig, gradients, init_params
    from farsilm.training import Checkpoint, OptimizerConfig, init_adam_state
    from farsilm.wordpiece import TokenizerTrainConfig, train_wordpiece

    texts = ["ab abc bcd", "cab dab bad", "abc ab cad", "bad add dba"]
    tokenizer = train_wordpiece(texts, TokenizerTrainConfig(vocab_size=40, min_frequency=1,
                                                            alphabet_limit=20))
    config = ModelConfig(layers=1, heads=2, hidden=16, intermediate=32,
                         vocab_size=len(tokenizer.vocab), max_positions=16)
    params = init_params(config, seed=0)
    batch = dict(
        input_ids=np.array([[2, 7, 8, 3, 9, 3]]), segment_ids=np.array([[0, 0, 0, 0, 1, 1]]),
        attention_mask=np.ones((1, 6), np.int64),
        mlm_labels=np.array([[-100, 7, -100, -100, -100, -100]]),
        nsp_labels=np.array([1]),
    )
    losses, grads = gradients(params, config, batch)
    assert np.isfinite(losses["total"]) and grads["layer0.ffn_w1"].any()
    checkpoint = Checkpoint(config, OptimizerConfig(max_steps=0), params, init_adam_state(params))
    items = [LabeledText(text, label) for text, label in zip(texts, "xyxy")]
    outcome = finetune_sequence(checkpoint, tokenizer, items, [],
                                FinetuneConfig(("x", "y"), epochs=1, batch_size=2))
    assert set(predict(outcome.model, tokenizer, texts)) <= {"x", "y"}
    print("ran without scipy")
""")


def test_runs_without_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ran without scipy"

"""Training bits do not depend on the BLAS thread count.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when NumPy loads, so each run
goes in a child process: this file run as a script. The child takes seven
pretraining steps at the acceptance shapes (the desk encoder, a vocabulary
of about 1,000, B = 32, L = 64) with Adam between them, then one epoch of
each fine-tuning loop from the parameters they reach, and prints the
sha256 of every gradient and of both heads' parameters. The seventh step's
rows hold 8 to 40 tokens, so its attention stops at 48 key slots of L = 64.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _pretraining_batch(rng, vocab_size, bsz=32, length=64, longest=64):
    """Ragged rows of 8 to ``longest`` tokens with about 15% of each row's
    inner positions labelled."""
    lengths = rng.integers(8, longest + 1, bsz)
    pos = np.arange(length)
    attn = (pos < lengths[:, None]).astype(np.int64)
    inner = (pos > 0) & (pos < lengths[:, None] - 1)
    picked = inner & (rng.random((bsz, length)) < 0.15)
    return dict(
        input_ids=rng.integers(5, vocab_size, (bsz, length)) * attn,
        segment_ids=((pos >= lengths[:, None] // 2) * attn).astype(np.int64),
        attention_mask=attn,
        mlm_labels=np.where(picked, rng.integers(5, vocab_size, (bsz, length)), -100),
        nsp_labels=rng.integers(0, 2, bsz),
    )


def training_digests() -> dict[str, str]:
    from farsilm.finetune import FinetuneConfig, finetune_sequence, finetune_tokens
    from farsilm.model import desk_config, gradients, init_params
    from farsilm.synthetic import (
        classification_labels,
        generate_classification,
        generate_mlm_corpus,
        generate_ner,
    )
    from farsilm.training import Checkpoint, OptimizerConfig, adam_step, init_adam_state
    from farsilm.wordpiece import TokenizerTrainConfig, train_wordpiece

    docs = generate_mlm_corpus(seed=1, n_docs=300)
    tokenizer = train_wordpiece(
        [s for d in docs for s in d.sentences],
        TokenizerTrainConfig(vocab_size=1000, min_frequency=3, alphabet_limit=1500),
    )
    config = desk_config(vocab_size=len(tokenizer.vocab))
    params = init_params(config, seed=42)
    state = init_adam_state(params)
    opt = OptimizerConfig(learning_rate=1e-3, batch_size=32, max_steps=7)
    rng = np.random.default_rng(0)
    digests = {}
    for step in range(1, 8):
        batch = _pretraining_batch(rng, config.vocab_size, longest=64 if step < 7 else 40)
        _, grads = gradients(params, config, batch)
        digests.update({f"step {step} {name}": _digest(g) for name, g in grads.items()})
        adam_step(params, grads, state, opt)

    checkpoint = Checkpoint(config, opt, params, state)
    ner = generate_ner(seed=5, count=256)
    runs = {
        "classifier": finetune_sequence(
            checkpoint, tokenizer, generate_classification(seed=5, count=256), [],
            FinetuneConfig(classification_labels(2), epochs=1, learning_rate=5e-4,
                           batch_size=16, seed=0)),
        "tagger": finetune_tokens(
            checkpoint, tokenizer, ner, [],
            FinetuneConfig(sorted({t for item in ner for t in item.tags}), epochs=1,
                           learning_rate=5e-4, batch_size=16, seed=0)),
    }
    for kind, outcome in runs.items():
        model = outcome.model
        for name, value in dict(model.params, head_w=model.head_w, head_b=model.head_b).items():
            digests[f"{kind} {name}"] = _digest(value)
    return digests


def _digests_at(threads: int) -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, __file__], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_gradients_and_heads_do_not_depend_on_the_blas_thread_count():
    one, two = _digests_at(1), _digests_at(2)
    assert one.keys() == two.keys()
    differ = [name for name in one if one[name] != two[name]]
    assert not differ, f"{len(differ)} of {len(one)} arrays differ, first {differ[:5]}"


if __name__ == "__main__":
    print(json.dumps(training_digests()))

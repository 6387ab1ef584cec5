"""A short pretraining run: losses fall, the checkpoint resumes exactly.

Run from the repository root:  python3 demos/04_pretrain.py
Takes about a minute on a laptop CPU.
"""

import tempfile
from pathlib import Path

from farsilm.synthetic import generate_mlm_corpus
from farsilm.wordpiece import TokenizerTrainConfig, save_vocab, train_wordpiece
from farsilm.pretrain_data import MaskingPolicy, PackingConfig, build_pretrain_examples, write_examples
from farsilm.model import ModelConfig, param_count
from farsilm.training import OptimizerConfig, pretrain, read_loss_trace

work = Path(tempfile.mkdtemp(prefix="farsilm-demo-"))
print("artifacts in", work)

# Corpus, tokenizer, and a binary example file, all seeded.
docs = generate_mlm_corpus(seed=3, n_docs=200)
model = train_wordpiece(
    [s for d in docs for s in d.sentences],
    TokenizerTrainConfig(vocab_size=600, min_frequency=3, alphabet_limit=1500),
)
save_vocab(model, work / "vocab.txt")
examples = build_pretrain_examples(
    [d.sentences for d in docs], model, PackingConfig(max_len=64, rng_seed=0), MaskingPolicy()
)
write_examples(examples, work / "examples.ptex", vocab_size=len(model.vocab))
print(f"{len(examples)} examples, vocab {len(model.vocab)}")

# A miniature encoder; the full parameter inventory is a closed formula.
model_config = ModelConfig(
    layers=2, heads=2, hidden=64, intermediate=256,
    vocab_size=len(model.vocab), max_positions=64,
)
print(f"parameters: {param_count(model_config)}")

opt = OptimizerConfig(learning_rate=1e-3, batch_size=32, max_steps=200, warmup_steps=20)
result = pretrain(
    str(work / "examples.ptex"), model_config, opt, seed=7,
    checkpoint_path=str(work / "model.flcp"),
    trace_path=str(work / "trace.csv"),
    log=print, log_every=50,
)

rows = read_loss_trace(work / "trace.csv")
print(f"\nMLM loss first step {rows[0][1]:.3f} -> last step {rows[-1][1]:.3f}")

# Resumption is exact: training is a pure function of (seed, step), so asking
# for 100 more steps continues as if the run had never stopped. The checkpoint
# holds the seed and every step's losses, and the trace is written whole from
# it, so it holds all 300 rows.
more = OptimizerConfig(learning_rate=1e-3, batch_size=32, max_steps=300, warmup_steps=20)
checkpoint = pretrain(
    str(work / "examples.ptex"), model_config, more, seed=7,
    checkpoint_path=str(work / "model.flcp"),
    trace_path=str(work / "trace.csv"),
)
rows = read_loss_trace(work / "trace.csv")
print(f"resumed to step {checkpoint.step}; trace now has {len(rows)} rows")
assert [row[0] for row in rows] == list(range(1, checkpoint.step + 1))

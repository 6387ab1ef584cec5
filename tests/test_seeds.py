"""The one seed rule: every library entry point that takes a seed rejects
a negative one, or one that is not an integer, with the ConfigError the
CLI reports, before NumPy sees it."""

import dataclasses
import re

import numpy as np
import pytest

from farsilm import synthetic
from farsilm.errors import ConfigError, check_seed
from farsilm.finetune import FinetuneConfig
from farsilm.model import desk_config, init_params
from farsilm.pretrain_data import ExampleTable, PackingConfig, mask_examples
from farsilm.training import OptimizerConfig, pretrain
from farsilm.wordpiece import SPECIAL_TOKENS, WordPieceModel

_MESSAGE = "seed must be a non-negative integer, got -1"


@pytest.mark.parametrize(
    "call",
    [
        lambda: PackingConfig(rng_seed=-1),
        # build_pretrain_examples reads its seed from a PackingConfig
        lambda: dataclasses.replace(PackingConfig(), rng_seed=-1),
        lambda: FinetuneConfig(("a", "b"), seed=-1),
        lambda: init_params(desk_config(vocab_size=20), -1),
        # the example file is never opened: the seed is checked first
        lambda: pretrain("missing.ptex", desk_config(vocab_size=20), OptimizerConfig(), -1,
                         "missing.flcp"),
        lambda: synthetic.generate_mlm_corpus(seed=-1, n_docs=2),
        lambda: synthetic.generate_round_trip_sentences(-1, 3),
        lambda: synthetic.generate_classification(-1, 4),
        lambda: synthetic.generate_ner(-1, 3),
    ],
    ids=[
        "PackingConfig", "PackingConfig-replace", "FinetuneConfig", "init_params", "pretrain",
        "generate_mlm_corpus", "generate_round_trip_sentences", "generate_classification",
        "generate_ner",
    ],
)
def test_negative_seed_is_config_error(call):
    with pytest.raises(ConfigError, match=_MESSAGE):
        call()


def test_seed_zero_is_accepted():
    assert PackingConfig(rng_seed=0).rng_seed == 0
    assert FinetuneConfig(("a",), seed=0).seed == 0
    assert len(synthetic.generate_ner(0, 2)) == 2


_VOCAB = tuple(SPECIAL_TOKENS) + ("a", "b")
_MODEL = WordPieceModel(vocab=_VOCAB, token_to_id={t: i for i, t in enumerate(_VOCAB)})

# each entry point that takes a seed, as a call on that seed
_SEEDED = {
    "check_seed": check_seed,
    "PackingConfig": lambda seed: PackingConfig(rng_seed=seed),
    "FinetuneConfig": lambda seed: FinetuneConfig(("a", "b"), seed=seed),
    "init_params": lambda seed: init_params(desk_config(vocab_size=20), seed),
    "mask_examples": lambda seed: mask_examples(ExampleTable.of([]), _MODEL, seed),
}


@pytest.mark.parametrize("seed", [True, False, 1.5, 3.0, "3", None, np.float64(2.0)],
                         ids=repr)
@pytest.mark.parametrize("call", _SEEDED.values(), ids=_SEEDED.keys())
def test_seed_that_is_not_an_integer_is_config_error(call, seed):
    with pytest.raises(ConfigError,
                       match=re.escape(f"seed must be a non-negative integer, got {seed!r}")):
        call(seed)


@pytest.mark.parametrize("seed", [np.int64(3), np.uint32(3), np.uint64(2**64 - 1), 2**64 + 3],
                         ids=repr)
@pytest.mark.parametrize("call", _SEEDED.values(), ids=_SEEDED.keys())
def test_numpy_and_wide_integer_seeds_are_accepted(call, seed):
    call(seed)

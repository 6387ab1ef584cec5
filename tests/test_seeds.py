"""The one seed rule: every library entry point that takes a seed rejects
a negative one with the ConfigError the CLI reports, before NumPy sees it."""

import dataclasses

import pytest

from farsilm import synthetic
from farsilm.errors import ConfigError
from farsilm.finetune import FinetuneConfig
from farsilm.model import desk_config, init_params
from farsilm.pretrain_data import PackingConfig
from farsilm.training import OptimizerConfig, pretrain

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

"""Desk-scale Persian language-model pipeline.

Corpus ingestion, two-step text normalization, abbreviation-aware sentence
segmentation, WordPiece tokenization, masked-language-model and
next-sentence pretraining on a miniature bidirectional encoder, and
fine-tuned classification and tagging heads, all in plain NumPy with
deterministic seeding end to end.
"""

from .corpus import CorpusStats, Document, corpus_stats, load_documents
from .errors import ConfigError, DataError, FarsilmError
from .finetune import (
    FinetuneConfig,
    HeadModel,
    LabeledText,
    TaggedSequence,
    finetune_sequence,
    finetune_tokens,
    load_head_model,
    predict,
    save_head_model,
)
from .metrics import accuracy, entity_f1, extract_entities, f1_report
from .model import (
    ModelConfig,
    desk_config,
    finite_difference_check,
    forward,
    gradients,
    init_params,
    param_count,
)
from .pretrain_data import (
    ExampleTable,
    MaskingPolicy,
    PackingConfig,
    PretrainExample,
    build_pretrain_examples,
    read_examples,
    write_examples,
)
from .segmenter import SegmenterConfig, Sentence, segment_by_notation, segment_true
from .textnorm import clean_junk, normalize, standardize_chars
from .training import (
    Checkpoint,
    OptimizerConfig,
    load_checkpoint,
    pretrain,
    save_checkpoint,
)
from .wordpiece import (
    TokenizerTrainConfig,
    WordPieceModel,
    decode,
    encode,
    load_vocab,
    save_vocab,
    train_wordpiece,
)

__version__ = "0.1.0"

__all__ = [
    "Checkpoint",
    "ConfigError",
    "CorpusStats",
    "DataError",
    "Document",
    "ExampleTable",
    "FarsilmError",
    "FinetuneConfig",
    "HeadModel",
    "LabeledText",
    "MaskingPolicy",
    "ModelConfig",
    "OptimizerConfig",
    "PackingConfig",
    "PretrainExample",
    "SegmenterConfig",
    "Sentence",
    "TaggedSequence",
    "TokenizerTrainConfig",
    "WordPieceModel",
    "accuracy",
    "build_pretrain_examples",
    "clean_junk",
    "corpus_stats",
    "decode",
    "desk_config",
    "encode",
    "entity_f1",
    "extract_entities",
    "f1_report",
    "finetune_sequence",
    "finetune_tokens",
    "finite_difference_check",
    "forward",
    "gradients",
    "init_params",
    "load_checkpoint",
    "load_documents",
    "load_head_model",
    "load_vocab",
    "normalize",
    "param_count",
    "predict",
    "pretrain",
    "read_examples",
    "save_checkpoint",
    "save_head_model",
    "save_vocab",
    "segment_by_notation",
    "segment_true",
    "standardize_chars",
    "train_wordpiece",
    "write_examples",
]

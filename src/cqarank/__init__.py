"""Multitask neural reranking for community question answering: three
text-pair relevance tasks (comment-to-question, question-to-question, and
comment-to-new-question) trained jointly over shared convolutional sentence
encoders."""

from .dataset import (
    CorpusError,
    Triple,
    binarize,
    extend_dataset,
    load_corpus,
    positive_rates,
    save_corpus,
)
from .evaluation import (
    EvalResult,
    evaluate,
    evaluate_scores,
    tune_alpha,
)
from .model import CqaModel, rank_bin
from .nn_core import NumericError, Parameter, RmsProp, Tensor, grad_check
from .text_pipeline import Vocabulary, build_vocabulary, preprocess, tokenize, vocabulary_for
from .training import (
    CheckpointError,
    EarlyStopper,
    TrainConfig,
    TrainReport,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "CorpusError",
    "CqaModel",
    "EarlyStopper",
    "EvalResult",
    "NumericError",
    "Parameter",
    "RmsProp",
    "Tensor",
    "TrainConfig",
    "TrainReport",
    "Triple",
    "Vocabulary",
    "binarize",
    "build_vocabulary",
    "evaluate",
    "evaluate_scores",
    "extend_dataset",
    "grad_check",
    "load_checkpoint",
    "load_corpus",
    "positive_rates",
    "preprocess",
    "rank_bin",
    "save_checkpoint",
    "save_corpus",
    "tokenize",
    "train",
    "tune_alpha",
    "vocabulary_for",
]

"""The network: convolutional sentence encoders over the input texts, a
search-rank bin embedding, a shared tanh layer, and one sigmoid head per task.

One class covers both networks the paper compares.  The joint network reads
(new question, related question, comment), shares one encoder between the two
questions, and scores all three tasks.  An individual network reads only its
task's text pair, uses the rank embedding only for the search-ranked tasks B
and C, and scores that one task.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import chain, groupby
from typing import Optional, Sequence, Union

import numpy as np

from . import nn_core as nn
from .dataset import CorpusError, Triple
from .text_pipeline import DEFAULT_MAX_LEN, PAD_ID, Vocabulary, overlap_indicators, triple_texts

TASKS = ("A", "B", "C")

# The texts each network reads, keyed by task (None: the joint network).
INPUTS = {
    None: ("q_new", "q_rel", "c_rel"),
    "A": ("q_rel", "c_rel"),
    "B": ("q_new", "q_rel"),
    "C": ("q_new", "c_rel"),
}

# rank bins [1,2), [2,5), [5,10), [10,25), [25,inf)
_RANK_BIN_EDGES = (2, 5, 10, 25)
RANK_BINS = len(_RANK_BIN_EDGES) + 1

INIT_SCALE = 0.05

# The constructor's size options; checkpoints record them in their meta.
SIZES = ("m", "d_w", "d_feat", "filter_width", "max_len")


def rank_bin(google_rank: int) -> int:
    """Discretize a search-engine rank into one of five bins."""
    if google_rank < 1:
        raise ValueError(f"rank_bin: rank must be >= 1, got {google_rank}")
    return bisect.bisect_right(_RANK_BIN_EDGES, google_rank)


def _uniform(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape).astype(dtype)


def _inputs_of(task: Optional[str]) -> tuple[str, ...]:
    if task not in INPUTS:
        raise ValueError(f"unknown task {task!r}")
    return INPUTS[task]


class SentenceEncoder:
    """Word + overlap-feature embeddings, a wide convolution, and max pooling
    collapse a token sequence into a vector of fixed length m."""

    def __init__(self, name, vocab_size, d_w, d_feat, m, width, rng, dtype):
        self.word_emb = nn.Parameter(f"{name}.word_emb", _uniform(rng, (vocab_size, d_w), dtype))
        self.feat_emb = nn.Parameter(f"{name}.feat_emb", _uniform(rng, (2, d_feat), dtype))
        self.filters = nn.Parameter(f"{name}.filters", _uniform(rng, (m, d_w + d_feat, width), dtype))
        self.conv_bias = nn.Parameter(f"{name}.conv_bias", np.zeros(m, dtype=dtype))

    def parameters(self) -> list[nn.Parameter]:
        return [self.word_emb, self.feat_emb, self.filters, self.conv_bias]


def encode_texts(
    encoder: SentenceEncoder, ids: Sequence[Sequence[int]], overlaps: Sequence[Sequence[int]]
) -> nn.Tensor:
    """Run the encoder over texts, given as their id and overlap tuples (see
    :func:`compute_features`), packed side by side into one run of columns;
    returns their encodings as the rows of a (len(ids), m) matrix."""
    lengths = np.array([len(t) for t in ids], dtype=np.intp)
    emb = nn.embedding_lookup(
        encoder.word_emb,
        encoder.feat_emb,
        np.fromiter(chain.from_iterable(ids), np.intp),
        np.fromiter(chain.from_iterable(overlaps), np.intp),
    )
    fmap = nn.conv1d_wide(emb, encoder.filters, encoder.conv_bias, lengths)
    width = encoder.filters.data.shape[2]
    return nn.kmax_pool(fmap, lengths + width - 1)


class TaskHead:
    """Per-task scorer: one tanh layer sized like its input, then a sigmoid
    unit producing the relevance probability.  ``names`` are the parameter
    names of the hidden weight and bias and the output weight and bias."""

    def __init__(self, names, in_dim, rng, dtype):
        hidden_w, hidden_b, out_w, out_b = names
        self.hidden_w = nn.Parameter(hidden_w, _uniform(rng, (in_dim, in_dim), dtype))
        self.hidden_b = nn.Parameter(hidden_b, np.zeros(in_dim, dtype=dtype))
        self.out_w = nn.Parameter(out_w, _uniform(rng, (1, in_dim), dtype))
        self.out_b = nn.Parameter(out_b, np.zeros(1, dtype=dtype))

    def parameters(self) -> list[nn.Parameter]:
        return [self.hidden_w, self.hidden_b, self.out_w, self.out_b]

    def forward(self, x, dropout_hidden, mask):
        h = nn.dense(x, self.hidden_w, self.hidden_b, "tanh")
        h = nn.dropout(h, dropout_hidden, mask)
        return nn.dense(h, self.out_w, self.out_b, "sigmoid")


@dataclass(frozen=True)
class Features:
    """A triple ready for a network: for each text the network reads, in its
    input order, the vocabulary ids and the overlap indicators, plus the
    discretized search rank."""

    ids: tuple[tuple[int, ...], ...]
    overlaps: tuple[tuple[int, ...], ...]
    rank_bin: int


def _dropout_masks(rates, rows, dim, training, rng) -> list[Optional[np.ndarray]]:
    """Keep-masks of the dropout layers whose rates are listed, None for a
    layer that drops nothing.  One draw covers every row, row-major, so each
    triple of a batch gets the numbers it would draw alone (input, trunk,
    then each head), in batch order."""
    on = [k for k, rate in enumerate(rates) if training and rate > 0]
    masks: list[Optional[np.ndarray]] = [None] * len(rates)
    if on:
        if rng is None:
            raise ValueError("dropout: training mode needs an rng")
        noise = rng.random((rows, len(on), dim))
        for j, k in enumerate(on):
            masks[k] = noise[:, j] >= rates[k]
    return masks


def compute_features(
    triple: Triple, vocab: Vocabulary, task: Optional[str] = None, max_len: int = DEFAULT_MAX_LEN
) -> Features:
    """Tokenize the texts the network for ``task`` reads (all three for the
    joint network, ``task=None``) and map them to ids.  Each text's overlap
    indicators are taken against the union of the network's other texts, so
    every sentence is encoded once; for a pair that union is just the other
    text.  An empty text becomes one PAD id with overlap 0, so the
    convolution stays defined."""
    by_role = triple_texts(triple, max_len)
    texts = [by_role[role] for role in _inputs_of(task)]
    ids, overlaps = [], []
    for k, text in enumerate(texts):
        if len(text) == 0:
            ids.append((PAD_ID,))
            overlaps.append((0,))
        else:
            ids.append(vocab.encode(text))
            overlaps.append(overlap_indicators(text, texts[:k] + texts[k + 1 :]))
    return Features(tuple(ids), tuple(overlaps), rank_bin(triple.google_rank))


class CqaModel:
    """Sentence encoders (questions share ``q_encoder``, the comment uses
    ``c_encoder``), the rank-bin embedding unless the task is A, a shared tanh
    layer, and one task head per scored task.

    ``task=None`` builds the joint three-task network; a task letter builds
    that task's individual pair network.  Parameter names and the order of
    the initial draws are part of the checkpoint format.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        task: Optional[str] = None,
        m: int = 100,
        d_w: int = 50,
        d_feat: int = 5,
        filter_width: int = 5,
        max_len: int = DEFAULT_MAX_LEN,
        seed: int = 0,
        dtype=np.float32,
    ):
        self.inputs = _inputs_of(task)
        self.vocab = vocab
        self.task = task
        self.kind = "mtl" if task is None else "pair"
        self.tasks = TASKS if task is None else (task,)
        self.m = m
        self.d_w = d_w
        self.d_feat = d_feat
        self.filter_width = filter_width
        self.max_len = max_len
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)

        def encoder(name):
            return SentenceEncoder(name, len(vocab), d_w, d_feat, m, filter_width, rng, self.dtype)

        self.q_encoder = encoder("q_encoder")
        self.c_encoder = encoder("c_encoder") if "c_rel" in self.inputs else None
        self.encoders = tuple(self.c_encoder if r == "c_rel" else self.q_encoder for r in self.inputs)
        # runs of adjacent inputs that share an encoder, with their positions
        self.encoder_runs = [
            (enc, tuple(k for k, _ in run))
            for enc, run in groupby(enumerate(self.encoders), key=lambda item: item[1])
        ]
        uses_rank = task != "A"
        self.rank_emb = (
            nn.Parameter("rank_emb", _uniform(rng, (RANK_BINS, d_feat), self.dtype)) if uses_rank else None
        )
        self.joint_dim = dim = len(self.inputs) * m + (d_feat if uses_rank else 0)
        if task is None:
            trunk = "joint"
            heads = {t: [f"head_{t}.{n}" for n in ("hidden_w", "hidden_b", "out_w", "out_b")] for t in TASKS}
        else:
            trunk = "hidden1"
            heads = {task: ["hidden2.weight", "hidden2.bias", "out.weight", "out.bias"]}
        self.trunk_w = nn.Parameter(f"{trunk}.weight", _uniform(rng, (dim, dim), self.dtype))
        self.trunk_b = nn.Parameter(f"{trunk}.bias", np.zeros(dim, dtype=self.dtype))
        self.heads = {t: TaskHead(names, dim, rng, self.dtype) for t, names in heads.items()}

    def unique_encoders(self) -> list[SentenceEncoder]:
        return [e for e in (self.q_encoder, self.c_encoder) if e is not None]

    def parameters(self) -> list[nn.Parameter]:
        params = [p for e in self.unique_encoders() for p in e.parameters()]
        if self.rank_emb is not None:
            params.append(self.rank_emb)
        params += [self.trunk_w, self.trunk_b]
        for head in self.heads.values():
            params += head.parameters()
        return params

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def featurize(self, triple: Triple) -> Features:
        return compute_features(triple, self.vocab, self.task, self.max_len)

    def predict(
        self,
        features: Union[Features, Sequence[Features]],
        training: bool = False,
        rng: Optional[np.random.Generator] = None,
        dropout_input: float = 0.4,
        dropout_hidden: float = 0.7,
    ) -> dict[str, nn.Tensor]:
        """Score a batch of featurized triples in one pass on every task the
        network has: returns ``{task: Tensor of shape (len(batch),)}``.  One
        ``Features`` is a batch of one.  Dropout applies only when
        ``training`` is set (rate ``dropout_input`` on the shared layer's
        input, ``dropout_hidden`` after each tanh layer)."""
        batch = [features] if isinstance(features, Features) else list(features)
        rows = len(batch)
        parts = []
        for encoder, positions in self.encoder_runs:
            # a triple's texts sit side by side, so row i of the reshaped
            # encodings holds triple i's texts for this encoder
            ids = [f.ids[k] for f in batch for k in positions]
            overlaps = [f.overlaps[k] for f in batch for k in positions]
            parts.append(nn.reshape(encode_texts(encoder, ids, overlaps), (rows, -1)))
        if self.rank_emb is not None:
            parts.append(nn.row_lookup(self.rank_emb, [f.rank_bin for f in batch]))
        rates = [dropout_input, dropout_hidden] + [dropout_hidden] * len(self.heads)
        keep = _dropout_masks(rates, rows, self.joint_dim, training, rng)
        h = nn.dropout(nn.concat(parts), dropout_input, keep[0])
        h = nn.dense(h, self.trunk_w, self.trunk_b, "tanh")
        h = nn.dropout(h, dropout_hidden, keep[1])
        return {
            t: nn.reshape(head.forward(h, dropout_hidden, mask), (rows,))
            for (t, head), mask in zip(self.heads.items(), keep[2:])
        }


MtlModel = CqaModel  # task=None, the default, builds the joint network


def PairModel(vocab: Vocabulary, task: str, **kwargs) -> CqaModel:
    """The individual network for one task."""
    if task is None:
        raise ValueError("the pair network needs a task")
    return CqaModel(vocab, task=task, **kwargs)


def load_word_vectors(path: str, vocab: Vocabulary, d_w: int) -> dict[str, np.ndarray]:
    """Read a text vector file (one ``token v1 ... v_{d_w}`` line per word)
    keeping only in-vocabulary tokens.  A malformed file raises
    :class:`CorpusError` naming the path."""
    vectors: dict[str, np.ndarray] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.rstrip("\n").split(" ")
                if len(parts) < 2:
                    continue
                token, values = parts[0], parts[1:]
                if len(values) != d_w:
                    raise ValueError(f"line {lineno} has {len(values)} components, expected {d_w}")
                if token in vocab:
                    vectors[token] = np.array([float(v) for v in values])
    except ValueError as exc:  # UnicodeDecodeError is a ValueError too
        raise CorpusError(f"{path}: {exc}") from None
    return vectors


def apply_word_vectors(model: CqaModel, vectors: dict[str, np.ndarray]) -> int:
    """Overwrite word-embedding rows with pretrained vectors; tokens absent
    from ``vectors`` keep their random initialization.  Returns the number of
    rows replaced per table."""
    replaced = 0
    for token, vec in vectors.items():
        if token not in model.vocab:
            continue
        idx = model.vocab.id_of(token)
        for enc in model.unique_encoders():
            enc.word_emb.data[idx] = vec.astype(model.dtype)
        replaced += 1
    return replaced

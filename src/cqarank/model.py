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
from itertools import chain, groupby, islice
from typing import Optional, Sequence, Union

import numpy as np

from . import nn_core as nn
from .dataset import TASKS, CorpusError, Triple
from .text_pipeline import (
    DEFAULT_MAX_LEN,
    PAD_ID,
    PAD_TOKEN,
    TokenizedText,
    Vocabulary,
    overlap_indicators,
    preprocess,
    triple_sources,
)

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


def _inputs_of(task: Optional[str]) -> tuple[str, ...]:
    if task not in INPUTS:
        raise ValueError(f"unknown task {task!r}")
    return INPUTS[task]


def parameter_table(vocab_size: int, task: Optional[str], **sizes: int) -> dict[str, tuple[int, ...]]:
    """The network's parameters, ``{name: shape}`` in draw order, for a
    vocabulary size, a task (None: the joint network) and the SIZES.  Each
    encoder's and head's four parameters sit together, in the order of the
    holder's fields.  The table is the checkpoint format.  Raises ValueError
    unless every size is a positive int."""
    for key in SIZES:
        if type(sizes[key]) is not int or sizes[key] < 1:
            raise ValueError(f"{key} must be a positive integer, got {sizes[key]!r}")
    inputs = _inputs_of(task)
    m, d_w, d_feat = sizes["m"], sizes["d_w"], sizes["d_feat"]
    encoder = {"word_emb": (vocab_size, d_w), "feat_emb": (2, d_feat),
               "filters": (m, d_w + d_feat, sizes["filter_width"]), "conv_bias": (m,)}
    table = {}
    for name in ("q_encoder", "c_encoder") if "c_rel" in inputs else ("q_encoder",):
        table |= {f"{name}.{part}": shape for part, shape in encoder.items()}
    uses_rank = task != "A"
    if uses_rank:
        table["rank_emb"] = (RANK_BINS, d_feat)
    dim = len(inputs) * m + (d_feat if uses_rank else 0)
    if task is None:
        trunk = "joint"
        heads = [[f"head_{t}.{n}" for n in ("hidden_w", "hidden_b", "out_w", "out_b")] for t in TASKS]
    else:
        trunk = "hidden1"
        heads = [["hidden2.weight", "hidden2.bias", "out.weight", "out.bias"]]
    table |= {f"{trunk}.weight": (dim, dim), f"{trunk}.bias": (dim,)}
    for hidden_w, hidden_b, out_w, out_b in heads:
        table |= {hidden_w: (dim, dim), hidden_b: (dim,), out_w: (1, dim), out_b: (1,)}
    return table


@dataclass(frozen=True, eq=False)
class SentenceEncoder:
    """Word + overlap-feature embeddings, a wide convolution, and max pooling
    collapse a token sequence into a vector of fixed length m."""

    word_emb: nn.Parameter
    feat_emb: nn.Parameter
    filters: nn.Parameter
    conv_bias: nn.Parameter


def encode_texts(
    encoder: SentenceEncoder, ids: Sequence[tuple[int, ...]], overlaps: Sequence[Sequence[int]]
) -> nn.Tensor:
    """Run the encoder over texts, given as their id and overlap tuples (see
    :func:`compute_features`); returns their encodings as the rows of a
    (len(ids), m) matrix.  Texts with equal ids share their word rows, in
    first-seen order, and the convolution's big GEMM runs once per distinct
    text; each text keeps its own overlaps, since the same words can carry
    other overlaps in another triple.  The convolution reads each text's first
    occurrence, then the other occurrences grouped by text; pooling writes
    each occurrence's encoding to its input row."""
    distinct: dict[tuple[int, ...], int] = {}
    texts = np.fromiter((distinct.setdefault(t, len(distinct)) for t in ids), np.intp, len(ids))
    lengths = np.array([len(t) for t in distinct], dtype=np.intp)
    by_text = np.argsort(texts, kind="stable")  # each text's occurrences in turn
    first = np.r_[True, np.diff(texts[by_text]) > 0]
    order = np.r_[by_text[first], by_text[~first]]
    grouped = texts[order]
    words = nn.embedding_lookup(encoder.word_emb, np.fromiter(chain.from_iterable(distinct), np.intp))
    overlap_ids = np.fromiter(chain.from_iterable(overlaps[k] for k in order.tolist()), np.intp)
    fmap = nn.conv1d_wide(words, encoder.feat_emb, overlap_ids, encoder.filters, encoder.conv_bias, lengths, grouped)
    return nn.kmax_pool(fmap, lengths[grouped] + encoder.filters.data.shape[2] - 1, order)


@dataclass(frozen=True, eq=False)
class TaskHead:
    """Per-task scorer: one tanh layer sized like its input, then a sigmoid
    unit producing the relevance probability."""

    hidden_w: nn.Parameter
    hidden_b: nn.Parameter
    out_w: nn.Parameter
    out_b: nn.Parameter

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
    triples: Sequence[Triple], vocab: Vocabulary, task: Optional[str] = None, max_len: int = DEFAULT_MAX_LEN
) -> list[Features]:
    """One ``Features`` per triple: the texts the network for ``task`` reads
    (all three for the joint network, ``task=None``), tokenized and mapped to
    ids.  Each text's overlap indicators are taken against the union of the
    network's other texts, so every sentence is encoded once; for a pair that
    union is just the other text.  An empty text becomes one PAD id with
    overlap 0, so the convolution stays defined.

    Within the call each distinct (subject, body) is tokenized and encoded
    once, and every triple that reads it shares its ids; overlaps depend on
    the pairing, so each triple gets its own."""
    roles = _inputs_of(task)
    known: dict[tuple[Optional[str], str], tuple[TokenizedText, tuple[int, ...]]] = {}
    features = []
    for triple in triples:
        sources = triple_sources(triple)
        texts, ids = [], []
        for role in roles:
            source = sources[role]
            if source not in known:
                text = preprocess(*source, max_len)
                known[source] = (text, vocab.encode(text) if len(text) else (PAD_ID,))
            text, text_ids = known[source]
            texts.append(text)
            ids.append(text_ids)
        overlaps = tuple(
            overlap_indicators(text, texts[:k] + texts[k + 1 :]) if len(text) else (0,)
            for k, text in enumerate(texts)
        )
        features.append(Features(tuple(ids), overlaps, rank_bin(triple.google_rank)))
    return features


class CqaModel:
    """Sentence encoders (questions share ``q_encoder``, the comment uses
    ``c_encoder``), the rank-bin embedding unless the task is A, a shared tanh
    layer, and one task head per scored task.

    ``task=None`` builds the joint three-task network; a task letter builds
    that task's individual pair network.  Its parameters are those of
    :func:`parameter_table`, made in table order: a bias (1-d) starts at
    zero, and every other parameter is drawn uniform in +-INIT_SCALE.
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
        sizes = dict(m=m, d_w=d_w, d_feat=d_feat, filter_width=filter_width, max_len=max_len)
        dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        arrays = {
            name: np.zeros(shape, dtype) if len(shape) == 1
            else rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape).astype(dtype)
            for name, shape in parameter_table(len(vocab), task, **sizes).items()
        }
        self._build(vocab, arrays, task, dtype, **sizes)

    def _build(self, vocab: Vocabulary, arrays: dict, task: Optional[str], dtype: np.dtype, **sizes: int) -> None:
        """Assemble the network around ``arrays``, one per entry of its
        :func:`parameter_table` in ``dtype``, which become the parameters'
        values without a copy.  ``load_checkpoint`` builds a model from the
        arrays it read through this, so loading draws nothing."""
        vars(self).update(sizes)  # self.m, self.d_w, ... as SIZES names them
        self.inputs = INPUTS[task]
        self.vocab = vocab
        self.task = task
        self.kind = "mtl" if task is None else "pair"
        self.tasks = TASKS if task is None else (task,)
        self.dtype = dtype
        table = parameter_table(len(vocab), task, **sizes)
        self._parameters = [nn.Parameter(name, arrays[name]) for name in table]
        made = iter(self._parameters)
        self.q_encoder = SentenceEncoder(*islice(made, 4))
        self.c_encoder = SentenceEncoder(*islice(made, 4)) if "c_rel" in self.inputs else None
        self.rank_emb = next(made) if "rank_emb" in table else None
        self.trunk_w, self.trunk_b = islice(made, 2)
        self.heads = {t: TaskHead(*islice(made, 4)) for t in self.tasks}
        self.joint_dim = self.trunk_b.data.shape[0]
        # runs of adjacent inputs that share an encoder, with their positions
        self.encoder_runs = [
            (self.c_encoder if comment else self.q_encoder, tuple(k for k, _ in run))
            for comment, run in groupby(enumerate(self.inputs), key=lambda item: item[1] == "c_rel")
        ]

    def parameters(self) -> list[nn.Parameter]:
        """Every parameter, in table order."""
        return list(self._parameters)

    def featurize_all(self, triples: Sequence[Triple]) -> list[Features]:
        """:func:`compute_features` for this network: one ``Features`` per
        triple, each distinct text of the call tokenized and encoded once."""
        return compute_features(triples, self.vocab, self.task, self.max_len)

    def featurize(self, triple: Triple) -> Features:
        # kept because benchmarks/checks.py calls it and benchmarks/tracer.py patches it
        return self.featurize_all([triple])[0]

    def predict(
        self,
        features: Union[Features, Sequence[Features]],
        training: bool = False,
        rng: Optional[np.random.Generator] = None,
        dropout_input: float = 0.4,
        dropout_hidden: float = 0.7,
        tasks: Optional[Sequence[str]] = None,
    ) -> dict[str, nn.Tensor]:
        """Score a batch of featurized triples in one pass: returns ``{task:
        Tensor of shape (len(batch),)}`` for each of ``tasks`` (None: every
        task the network has), in the network's task order; only those
        heads run.  An empty ``tasks``, or one naming a task the network does
        not score, raises ValueError.  One ``Features`` is a batch of one.
        Dropout applies only when ``training`` is set (rate ``dropout_input``
        on the shared layer's input, ``dropout_hidden`` after each tanh
        layer); its draws cover every head, whichever run.  The pass is
        :meth:`encode` for each encoder run, then :meth:`score_encodings`.
        A network with two encoder runs encodes the comments on the worker
        thread, forward and, inside a recording, backward (see
        :func:`nn_core.split`), while the caller encodes the questions; the
        results are bit for bit those of the runs in turn."""
        # one Features is kept because benchmarks/checks.py scores model.featurize(probe)
        batch = [features] if isinstance(features, Features) else list(features)
        if len(self.encoder_runs) == 2:
            comments, questions = nn.split(lambda: self.encode(batch, 1), lambda: self.encode(batch, 0))
            encodings = [questions, comments]
        else:
            encodings = [self.encode(batch, run) for run in range(len(self.encoder_runs))]
        return self.score_encodings(batch, encodings, tasks, training, rng, dropout_input, dropout_hidden)

    def encode(self, batch: Sequence[Features], run: int) -> nn.Tensor:
        """The encodings of ``encoder_runs[run]`` over the batch: row i holds
        triple i's texts for that encoder, side by side.  The runs share no
        parameter, so :func:`nn_core.split` can run them on two threads."""
        encoder, positions = self.encoder_runs[run]
        ids = [f.ids[k] for f in batch for k in positions]
        overlaps = [f.overlaps[k] for f in batch for k in positions]
        return nn.reshape(encode_texts(encoder, ids, overlaps), (len(batch), -1))

    def score_encodings(
        self,
        batch: Sequence[Features],
        encodings: Sequence[nn.Tensor],
        tasks: Optional[Sequence[str]] = None,
        training: bool = False,
        rng: Optional[np.random.Generator] = None,
        dropout_input: float = 0.0,
        dropout_hidden: float = 0.0,
    ) -> dict[str, nn.Tensor]:
        """The layers above the encoders, given the batch and one
        :meth:`encode` result per encoder run, in run order: the rank
        embedding, the shared tanh layer and the heads of ``tasks``, as
        :meth:`predict` describes."""
        if tasks is not None and (not tasks or not set(tasks) <= set(self.tasks)):
            raise ValueError(f"model scores tasks {self.tasks}, not {list(tasks)}")
        rows = len(batch)
        parts = list(encodings)
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
            if tasks is None or t in tasks
        }


MtlModel = CqaModel  # kept because the benchmark harness builds and patches this name


def apply_word_vectors(model: CqaModel, path: str) -> int:
    """Overwrite word-embedding rows with the vectors of a text file (one
    ``token v1 ... v_{d_w}`` line per word, after word2vec's optional
    ``<count> <dim>`` header), skipping tokens outside the vocabulary,
    ``<pad>`` (no text token reads the PAD row) and blank lines; returns the
    number of rows replaced per table.  The file is read whole first: a
    malformed file, an in-vocabulary line with a component that is not a
    number or not finite in float32, or an in-vocabulary token given on two
    lines, raises :class:`CorpusError` naming the path and the line, and
    leaves the model unchanged."""
    rows: dict[int, np.ndarray] = {}
    line_of: dict[int, int] = {}  # the line that gave each row
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                if lineno == 1 and len(parts) == 2 and all(p.isascii() and p.isdigit() for p in parts):
                    if int(parts[1]) != model.d_w:
                        raise ValueError(f"line 1 is a header for {parts[1]} components, expected {model.d_w}")
                    continue
                token, values = parts[0], parts[1:]
                if len(values) != model.d_w:
                    raise ValueError(f"line {lineno} has {len(values)} components, expected {model.d_w}")
                if token != PAD_TOKEN and token in model.vocab:
                    idx = model.vocab.id_of(token)
                    if idx in line_of:
                        raise ValueError(f"line {lineno} repeats the token {token!r} of line {line_of[idx]}")
                    line_of[idx] = lineno
                    vec = np.empty(len(values))
                    for j, v in enumerate(values):
                        try:
                            vec[j] = float(v)
                        except ValueError:
                            raise ValueError(f"line {lineno} component {j + 1} is {v!r}, not a number") from None
                    with np.errstate(over="ignore"):  # an overflowing cast gives inf
                        finite = np.isfinite(vec.astype(np.float32))
                    if not finite.all():
                        j = int(np.argmin(finite))
                        raise ValueError(f"line {lineno} component {j + 1} is {values[j]!r}, not finite in float32")
                    rows[idx] = vec
    except ValueError as exc:  # UnicodeDecodeError is a ValueError too
        raise CorpusError(f"{path}: {exc}") from None
    for p in model.parameters():
        if p.name.endswith(".word_emb"):
            for idx, vec in rows.items():
                p.data[idx] = vec
    return len(rows)

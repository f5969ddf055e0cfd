"""Minimal reverse-mode gradient engine over dense numpy arrays.

Only training needs gradients, so only ``with recording():`` builds a graph:
each operation run inside it appends its output to a tape in creation order,
a topological order, which ``Tensor.backward`` walks in reverse.  Outside a
recording an operation returns a plain value.  Parameters are persistent
leaves whose gradient buffers accumulate across backward calls until zeroed.
The ops take a batch of rows or a packed batch of texts.  The wide
convolution takes the word columns of each distinct text once and the
overlap-feature ids of every occurrence, so a text repeated across a batch
runs the big GEMM once.  Everything runs in float32 by default and float64
when verifying gradients.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence

import numpy as np


class NumericError(ArithmeticError):
    """A forward or backward pass produced a non-finite value."""


class Tensor:
    """An ndarray value.  A recorded op's output also has a ``backward_fn``:
    called with the output gradient, it adds each input's share into that
    input's ``grad`` in place."""

    __slots__ = ("data", "grad", "backward_fn")

    def __init__(self, data: np.ndarray, backward_fn: Optional[Callable[[np.ndarray], None]] = None):
        self.data = data
        self.grad: Optional[np.ndarray] = None
        self.backward_fn = backward_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    def backward(self) -> None:
        """Accumulate d(self)/d(parameter) into every parameter's ``grad``.

        ``self`` must hold a single value (a loss) computed inside the open
        recording.  The ops recorded up to it are differentiated once: they
        leave the tape and drop their backward functions as they are walked.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a single-element loss tensor")
        order = _toposort(self)
        del _tape[: len(order)]
        self.grad = self.grad + np.ones_like(self.data)
        for node in reversed(order):
            node.backward_fn(node.grad)
            node.backward_fn = None


# The ops recorded by the innermost open recording, or None outside one.
_tape: Optional[list[Tensor]] = None


@contextlib.contextmanager
def recording():
    """Record the ops run inside the block for ``backward``."""
    global _tape
    outer, _tape = _tape, []
    try:
        yield
    finally:
        _tape = outer


def _toposort(root: Tensor) -> list[Tensor]:
    # the tape up to the loss: creation order is a topological order
    if _tape is None or root not in _tape:
        raise ValueError("backward() needs a loss computed inside nn.recording() and not yet differentiated")
    return _tape[: _tape.index(root) + 1]


def _record(out: np.ndarray, backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """An op's output; when recording, it also has ``backward_fn``, a zeroed
    gradient buffer and a place on the tape."""
    if _tape is None:
        return Tensor(out)
    node = Tensor(out, backward_fn)
    node.grad = np.zeros_like(out)
    _tape.append(node)
    return node


class Parameter(Tensor):
    """A named trainable leaf with a persistent gradient buffer."""

    __slots__ = ("name",)

    def __init__(self, name: str, data: np.ndarray):
        super().__init__(np.ascontiguousarray(data))
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    """Add an input's gradient share into its buffer: a parameter or recorded
    op has one, and any other tensor, a constant, has none and is skipped."""
    if t.grad is not None:
        t.grad += grad


# ---------------------------------------------------------------------------
# layer operations
#
# The encoder ops take a packed batch: the texts of a batch concatenated
# along the column axis, with ``lengths`` giving each text's column count.
# ---------------------------------------------------------------------------


def _segments(lengths, total: int, what: str) -> np.ndarray:
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size < 1 or lengths.min() < 1 or lengths.sum() != total:
        raise ValueError(f"{what}: lengths must be positive and sum to the {total} input columns")
    return lengths


def _scatter_rows(table_grad: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """table_grad[index[k]] += rows[k] for every k, repeated indices summing:
    a stable sort groups equal indices and one reduceat sums each group."""
    order = np.argsort(index, kind="stable")
    ordered = index[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    table_grad[ordered[starts]] += np.add.reduceat(rows[order], starts, axis=0)


def embedding_lookup(table: Parameter, ids: Sequence[int]) -> Tensor:
    """Stack the rows of ``table`` named by ``ids`` into a d x n matrix:
    column j holds the row of ids[j], and gradients scatter back."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1 or ids.size < 1:
        raise ValueError("embedding_lookup: ids must be a non-empty 1-d sequence")
    if ids.min() < 0 or ids.max() >= table.data.shape[0]:
        raise ValueError(f"embedding_lookup: id out of range for a table of {table.data.shape[0]} rows")
    out = table.data[ids].T

    def backward_fn(grad: np.ndarray) -> None:
        _scatter_rows(table.grad, ids, grad.T)

    return _record(out, backward_fn)


def _windows(rows: np.ndarray, lengths: np.ndarray, w: int, ones: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """im2col of a packed input given as its n x d rows, one per input column:
    row t holds, flattened, the width-w window that output column t reads,
    then ``ones`` columns of 1 (a bias input).  The texts are laid out with
    w - 1 zero columns before each and after the last, so text i owns the
    next n_i + w - 1 output columns and no window reaches into a neighbour.
    Also returns the position of each input column in that layout."""
    n, d = rows.shape
    out_len = n + lengths.size * (w - 1)
    # text i starts after (i + 1) gaps of w - 1 zero columns
    cols = np.arange(n) + (w - 1) * (1 + np.repeat(np.arange(lengths.size), lengths))
    padded = np.zeros((out_len + w, d), dtype=rows.dtype)  # one spare row: no text leaves no window
    padded[cols] = rows
    win_mat = np.empty((out_len, w * d + ones), dtype=rows.dtype)
    win_mat[:, : w * d] = np.lib.stride_tricks.sliding_window_view(padded.reshape(-1), w * d)[::d][:out_len]
    win_mat[:, w * d :] = 1
    return win_mat, cols


def _unwindow(win_grad: np.ndarray, cols: np.ndarray, w: int) -> np.ndarray:
    """The input-column gradient (d x n) from the window-row gradient
    (w * d x out_len) of :func:`_windows`."""
    out_len = win_grad.shape[1]
    win_grad = win_grad.reshape(w, -1, out_len)
    padded = np.zeros((win_grad.shape[1], out_len + w - 1), dtype=win_grad.dtype)
    for k in range(w):
        padded[:, k : k + out_len] += win_grad[k]
    return padded[:, cols]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + counts[i] - 1, concatenated."""
    return np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def conv1d_wide(
    words: Tensor, feat_table: Parameter, feat_ids, filters: Parameter, bias: Parameter, lengths, texts
) -> Tensor:
    """Wide (zero-padded) 1-d convolution over texts whose columns stack a
    word vector on top of an overlap-feature vector, where one text can occur
    several times with the same words but its own features.

    ``words`` (d_w x n) packs the word columns of the distinct texts side by
    side, ``lengths`` giving each one's column count.  ``texts`` names, for
    each occurrence, the distinct text it repeats, and every text occurs.
    ``feat_ids`` holds the feature ids of every occurrence's columns, in
    order: column j's feature vector is row feat_ids[j] of ``feat_table``
    (v x d_feat).  ``filters`` has shape (m, d_w + d_feat, w).  An
    occurrence of n_i columns gets n_i + w - 1 output columns, each a filter
    response over a width-w window of the text zero-padded by w - 1 columns
    on both sides, plus bias; occurrences follow each other in order.

    The feature rows of the filters only ever meet the v rows of the table,
    so they act as an (m, w, v) table of responses to one-hot ids.  One
    im2col GEMM runs over the distinct texts, each with its words, the
    one-hot ids of its first occurrence and a ones column for the bias.  A
    repeat copies its text's output columns and adds the responses to how
    its ids differ from the first occurrence's: a GEMM with w * v inner
    terms over the repeats alone.
    """
    m, d, w = filters.data.shape
    if words.data.ndim != 2 or feat_table.data.ndim != 2:
        raise ValueError("conv1d_wide: words and feat_table must be 2-d")
    d_w, (n_ids, d_feat) = words.data.shape[0], feat_table.data.shape
    if min(d_w, d_feat) < 1 or d_w + d_feat != d:
        raise ValueError(f"conv1d_wide: input rows {d_w} + {d_feat} do not split the filter depth {d}")
    if bias.data.shape != (m,):
        raise ValueError("conv1d_wide: bias shape must be (m,)")
    lengths = _segments(lengths, words.data.shape[1], "conv1d_wide")
    texts = np.asarray(texts, dtype=np.intp)
    if texts.ndim != 1 or texts.size < 1 or texts.min() < 0 or texts.max() >= lengths.size:
        raise ValueError(f"conv1d_wide: texts must be a non-empty 1-d index into the {lengths.size} texts")
    first = np.unique(texts, return_index=True)[1]  # each text's first occurrence
    if first.size != lengths.size:
        raise ValueError("conv1d_wide: every text must occur in texts")
    feat_ids = np.asarray(feat_ids, dtype=np.intp)
    if feat_ids.ndim != 1 or feat_ids.size < 1 or feat_ids.min() < 0 or feat_ids.max() >= n_ids:
        raise ValueError(f"conv1d_wide: feat_ids must be a non-empty 1-d index into the {n_ids} feature rows")
    occ_lengths = _segments(lengths[texts], feat_ids.size, "conv1d_wide")
    one_hot = np.eye(n_ids, dtype=words.data.dtype)
    feat_filt = filters.data[:, d_w:].transpose(0, 2, 1)  # (m, w, d_feat)
    resp = feat_filt @ feat_table.data.T  # (m, w, v)
    filt = np.concatenate([filters.data[:, :d_w].transpose(0, 2, 1), resp], axis=2).reshape(m, -1)
    filt = np.concatenate([filt, bias.data[:, None]], axis=1)
    layout, first_ids = None, feat_ids
    if not np.array_equal(texts, np.arange(lengths.size)):
        occ_starts = np.cumsum(occ_lengths) - occ_lengths
        first_ids = feat_ids[_ranges(occ_starts[first], lengths)]
        repeat = np.ones(texts.size, dtype=bool)
        repeat[first] = False
        rep_texts = texts[repeat]
        rep_ids = feat_ids[_ranges(occ_starts[repeat], lengths[rep_texts])]
        rep_first_ids = first_ids[_ranges(np.cumsum(lengths)[rep_texts] - lengths[rep_texts], lengths[rep_texts])]
        delta_win, _ = _windows(one_hot[rep_ids] - one_hot[rep_first_ids], lengths[rep_texts], w)
        # each occurrence's output block copies a word-map block; first
        # occurrences of texts that follow each other on the map copy as one run
        width = lengths + (w - 1)
        map_starts, occ_out = (np.cumsum(width) - width)[texts], width[texts]
        out_starts = np.cumsum(occ_out) - occ_out
        run = np.r_[True, repeat[1:] | repeat[:-1] | (map_starts[1:] != map_starts[:-1] + occ_out[:-1])]
        runs = list(zip(repeat[run].tolist(), map_starts[run].tolist(), out_starts[run].tolist(),
                        np.diff(np.r_[out_starts[run], occ_out.sum()]).tolist()))
        layout = (runs, delta_win)
    win, cols = _windows(np.concatenate([words.data.T, one_hot[first_ids]], axis=1), lengths, w, ones=1)
    out = filt @ win.T
    if layout is not None:
        runs, delta_win = layout
        delta = resp.reshape(m, -1) @ delta_win.T
        blocks, at = [], 0
        for again, a, _, n in runs:
            blocks.append(out[:, a : a + n] + delta[:, at : at + n] if again else out[:, a : a + n])
            at += n if again else 0
        out = np.concatenate(blocks, axis=1)

    def backward_fn(grad: np.ndarray) -> None:
        _conv1d_wide_backward(grad, words, feat_table, filters, bias, (win, filt, cols, resp, feat_filt), layout)

    return _record(out, backward_fn)


def _conv1d_wide_backward(grad, words, feat_table, filters, bias, shared, layout):
    """``shared`` is the distinct texts' GEMM: (window rows, filter matrix,
    input positions, (m, w, v) responses, feature filters as (m, w, d_feat)).
    ``layout`` is None when every text occurs once, in order; otherwise it
    is (runs, difference window rows), a run being (repeat?, word-map start,
    output start, width), and the occurrences' gradients sum into the shared
    word map."""
    win, filt, cols, resp, feat_filt = shared
    (m, w, _), d_w = resp.shape, words.data.shape[0]
    word_grad = grad
    resp_grad = 0.0
    if layout is not None:
        runs, delta_win = layout
        word_grad = np.empty((m, win.shape[0]), dtype=grad.dtype)
        # a first occurrence precedes its repeats, which add to what it set
        for again, a, o, n in runs:
            if again:
                word_grad[:, a : a + n] += grad[:, o : o + n]
            else:
                word_grad[:, a : a + n] = grad[:, o : o + n]
        rep_grad = np.concatenate([grad[:, :0]] + [grad[:, o : o + n] for again, _, o, n in runs if again], axis=1)
        resp_grad = (rep_grad @ delta_win).reshape(resp.shape)
    filt_grad = word_grad @ win
    bias.grad += filt_grad[:, -1]
    filt_grad = filt_grad[:, :-1].reshape(m, w, -1)
    filters.grad[:, :d_w] += filt_grad[:, :, :d_w].transpose(0, 2, 1)
    resp_grad = resp_grad + filt_grad[:, :, d_w:]
    filters.grad[:, d_w:] += (resp_grad @ feat_table.data).transpose(0, 2, 1)
    if feat_table.grad is not None:
        feat_table.grad += resp_grad.reshape(m * w, -1).T @ feat_filt.reshape(m * w, -1)
    if words.grad is not None:
        words.grad += _unwindow(filt[:, :-1].T @ word_grad, cols, w)[:d_w]


def kmax_pool(x: Tensor, lengths) -> Tensor:
    """Max over each text's columns of a packed m x L map (k-max pooling
    with k=1), one row per text of an (n_texts, m) output; ties route the
    gradient to the first maximal column."""
    if x.data.ndim != 2 or x.data.shape[1] < 1:
        raise ValueError("kmax_pool: input must be a non-empty 2-d map")
    n = x.data.shape[1]
    segments = _segments(lengths, n, "kmax_pool")
    peak = np.maximum.reduceat(x.data, np.cumsum(segments) - segments, axis=1)
    out = np.ascontiguousarray(peak.T)

    def backward_fn(grad: np.ndarray) -> None:
        if x.grad is None:
            return
        # maximal entries in row-major order; keep each (row, segment)'s first
        rows, cols = np.divmod(np.flatnonzero(x.data == np.repeat(peak, segments, axis=1)), n)
        segs = np.repeat(np.arange(segments.size), segments)[cols]
        first = np.r_[True, (rows[1:] != rows[:-1]) | (segs[1:] != segs[:-1])]
        rows, cols, segs = rows[first], cols[first], segs[first]
        x.grad[rows, cols] += grad[segs, rows]

    return _record(out, backward_fn)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_ACTIVATIONS = {
    "identity": (lambda z: z, lambda a: np.ones_like(a)),
    "tanh": (np.tanh, lambda a: 1.0 - a * a),
    "sigmoid": (_sigmoid, lambda a: a * (1.0 - a)),
}


def dense(x: Tensor, weight: Parameter, bias: Parameter, activation: str = "identity") -> Tensor:
    """activation(W @ x + b) for each row x of a (B, D) batch."""
    if activation not in _ACTIVATIONS:
        raise ValueError(f"dense: unknown activation {activation!r}")
    if x.data.ndim != 2:
        raise ValueError("dense: input must be a batch of row vectors")
    if weight.data.ndim != 2 or weight.data.shape[1] != x.data.shape[1]:
        raise ValueError(f"dense: weight shape {weight.data.shape} does not accept rows of length {x.data.shape[1]}")
    if bias.data.shape != (weight.data.shape[0],):
        raise ValueError("dense: bias shape does not match weight rows")
    act, act_grad = _ACTIVATIONS[activation]
    out = act(x.data @ weight.data.T + bias.data)

    def backward_fn(grad: np.ndarray) -> None:
        dz = grad * act_grad(out)
        weight.grad += dz.T @ x.data
        bias.grad += dz.sum(axis=0)
        if x.grad is not None:
            x.grad += dz @ weight.data

    return _record(out, backward_fn)


def row_lookup(table: Parameter, index) -> Tensor:
    """Select one row of an embedding table per entry of an index vector;
    the gradient scatters back."""
    index = np.asarray(index, dtype=np.intp)
    if index.ndim != 1 or index.size < 1 or index.min() < 0 or index.max() >= table.data.shape[0]:
        raise ValueError(f"row_lookup: index {index.tolist()} out of range")
    out = np.take(table.data, index, axis=0)

    def backward_fn(grad: np.ndarray) -> None:
        _scatter_rows(table.grad, index, grad)

    return _record(out, backward_fn)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Join batches of as many row vectors row by row."""
    datas = [t.data for t in tensors]
    if any(d.ndim != 2 for d in datas) or len({d.shape[0] for d in datas}) != 1:
        raise ValueError("concat: inputs must be batches of as many row vectors")
    out = np.concatenate(datas, axis=1)
    offsets = np.cumsum([0] + [d.shape[1] for d in datas])

    def backward_fn(grad: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            _accumulate(t, grad[:, lo:hi])

    return _record(out, backward_fn)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same values in another shape."""
    out = x.data.reshape(shape)

    def backward_fn(grad: np.ndarray) -> None:
        _accumulate(x, grad.reshape(x.data.shape))

    return _record(out, backward_fn)


def dropout(x: Tensor, rate: float, mask: Optional[np.ndarray]) -> Tensor:
    """Inverted dropout: zero the components ``mask`` drops and scale the
    survivors by 1/(1-rate); a ``mask`` of None (inference, or a rate of 0)
    returns ``x``."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if mask is None:
        return x
    scale = 1.0 / (1.0 - rate)
    out = x.data * (mask * scale)

    def backward_fn(grad: np.ndarray) -> None:
        _accumulate(x, grad * (mask * scale))

    return _record(out.astype(x.data.dtype, copy=False), backward_fn)


BCE_CLAMP = 1e-7


def clamped_bce(p: np.ndarray, y) -> np.ndarray:
    """-[y ln p + (1-y) ln(1-p)] elementwise, with p clamped to
    [1e-7, 1 - 1e-7] before the logs."""
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return -(y * np.log(pc) + (1 - y) * np.log1p(-pc))


def bce_loss(p: Tensor, y) -> Tensor:
    """Binary cross-entropy -[y ln p + (1-y) ln(1-p)] with p clamped to
    [1e-7, 1 - 1e-7] before the logs, summed over an array of probabilities
    and the 0/1 labels in its shape."""
    labels = np.asarray(y)
    if labels.shape != p.data.shape:
        raise ValueError(f"bce_loss: need one label per probability, got {y!r} for shape {p.data.shape}")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError(f"bce_loss: labels must be 0 or 1, got {y!r}")
    labels = labels.astype(p.data.dtype)
    out = clamped_bce(p.data, labels).sum().reshape(1)

    def backward_fn(grad: np.ndarray) -> None:
        if p.grad is not None:
            pc = np.clip(p.data, BCE_CLAMP, 1.0 - BCE_CLAMP)
            inside = (p.data > BCE_CLAMP) & (p.data < 1.0 - BCE_CLAMP)
            p.grad += grad * inside * (pc - labels) / (pc * (1.0 - pc))

    return _record(out, backward_fn)


def add_n(tensors: Sequence[Tensor]) -> Tensor:
    """Elementwise sum of same-shaped tensors as a single op."""
    if not tensors:
        raise ValueError("add_n: need at least one tensor")
    out = tensors[0].data.copy()
    for t in tensors[1:]:
        out = out + t.data

    def backward_fn(grad: np.ndarray) -> None:
        for t in tensors:
            _accumulate(t, grad)

    return _record(out, backward_fn)


def scale(x: Tensor, factor: float) -> Tensor:
    out = x.data * factor

    def backward_fn(grad: np.ndarray) -> None:
        _accumulate(x, grad * factor)

    return _record(out.astype(x.data.dtype, copy=False), backward_fn)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class RmsProp:
    """rmsprop over a fixed parameter list, one running mean-square
    accumulator per parameter:

    acc <- rho*acc + (1-rho)*g^2;  value <- value - lr * g / sqrt(acc+eps).
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 0.001, rho: float = 0.9, eps: float = 1e-6):
        self.params = list(params)
        self.lr = lr
        self.rho = rho
        self.eps = eps
        self.accs = [np.zeros_like(p.data) for p in self.params]

    def zero_grads(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        for p, acc in zip(self.params, self.accs):
            g = p.grad
            acc *= self.rho
            acc += (1.0 - self.rho) * g * g
            p.data -= self.lr * g / np.sqrt(acc + self.eps)


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Parameter],
    probe_count: int,
    delta: float = 1e-4,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Compare analytic gradients against central finite differences.

    Probes cycle round-robin over the parameter list (random scalar within
    each) so every parameter group is exercised; returns the maximum relative
    error max|a - fd| / max(|a|, |fd|, 1e-6).  Requires float64 parameters.
    """
    if probe_count < 1:
        raise ValueError("probes must be >= 1")
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    params = list(params)
    if not params:
        raise ValueError("grad_check: empty parameter list")
    for p in params:
        if p.data.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 parameters ({p.name} is {p.data.dtype})")
    if rng is None:
        rng = np.random.default_rng(0)

    for p in params:
        p.zero_grad()
    with recording():
        loss = loss_fn()
        if not np.isfinite(loss.data).all():
            raise NumericError("grad_check: non-finite loss")
        loss.backward()
    analytic = [p.grad.copy() for p in params]

    max_rel = 0.0
    for i in range(probe_count):
        k = i % len(params)
        p = params[k]
        idx = int(rng.integers(p.data.size))
        orig = p.data.flat[idx]
        p.data.flat[idx] = orig + delta
        f_plus = float(loss_fn().data.reshape(-1)[0])
        p.data.flat[idx] = orig - delta
        f_minus = float(loss_fn().data.reshape(-1)[0])
        p.data.flat[idx] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError("grad_check: non-finite probe loss")
        fd = (f_plus - f_minus) / (2.0 * delta)
        a = float(analytic[k].flat[idx])
        rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
        max_rel = max(max_rel, rel)
    return max_rel

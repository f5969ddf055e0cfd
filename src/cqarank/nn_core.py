"""Minimal reverse-mode gradient engine over dense numpy arrays.

Only training needs gradients, so only ``with recording():`` builds a graph:
each operation the thread runs inside it appends its output to that thread's
tape in creation order, a topological order, which ``Tensor.backward`` walks
in reverse.  Outside a recording an operation returns a plain value.
Parameters are persistent leaves whose gradient buffers accumulate across
backward calls until zeroed.
:func:`split` runs one subgraph on the process's one worker thread, which
this module owns, while the caller runs another that shares no parameter with
it.  Inside a recording the worker records its ops on its own tape, and the
caller's tape gets one node for them; walking that node hands its gradient to
the worker, which walks those ops in reverse there while the caller walks on,
and ``Tensor.backward`` waits for it.  Each subgraph is walked in the order
one thread would walk it and writes only its own buffers, so the gradients
are bit for bit those of one thread.
The ops take a batch of rows or a packed batch of texts.  The wide
convolution takes the word rows of each distinct text once and the
overlap-feature ids of every occurrence, first occurrences first and then
each text's repeats side by side.  Its map is the sum of a word GEMM per
distinct text and a small feature GEMM per occurrence, so a text repeated
across a batch runs the big GEMM once and its repeats cost one broadcast
add.  Everything runs in float32 by default and float64 when verifying
gradients.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np


class NumericError(ArithmeticError):
    """A forward or backward pass produced a non-finite value."""


class Tensor:
    """An ndarray value.  A recorded op's output also has a ``backward_fn``:
    called with the output gradient, it adds each input's share into that
    input's ``grad`` in place.  The node :func:`split` records for a worker's
    ops returns the future of their walk; every other returns None."""

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
        del _tape.ops[: len(order)]
        self.grad = self.grad + np.ones_like(self.data)
        _walk(order)


def _walk(nodes: Sequence[Tensor]) -> None:
    """Run the nodes' backward functions in reverse order, then wait for the
    walks they handed to a worker.  An exception in either is raised here,
    once no walk is queued or running."""
    handed: list[Future] = []
    try:
        for node in reversed(nodes):
            walk = node.backward_fn(node.grad)
            node.backward_fn = None
            if walk is not None:
                handed.append(walk)
    except BaseException:
        for walk in handed:
            walk.cancel()
        raise
    finally:
        wait(handed)
    for walk in handed:
        walk.result()


class _Tape(threading.local):
    """The ops recorded by this thread's innermost open recording, or None
    outside one.  Each thread has its own, so a recording never collects the
    ops another thread runs."""

    ops: Optional[list[Tensor]] = None


_tape = _Tape()


@contextlib.contextmanager
def recording():
    """Record the ops this thread runs inside the block for ``backward``.
    The ops a :func:`split` runs on its worker are recorded too, as one node
    of this thread's tape."""
    outer, _tape.ops = _tape.ops, []
    try:
        yield
    finally:
        _tape.ops = outer


_worker = ThreadPoolExecutor(1)  # its thread starts on the first submit and lives with the process


def _fresh_worker() -> None:
    # a pool used before fork() has no thread in the child, yet counts the
    # parent's idle one, so the child's first submit would never run
    global _worker
    _worker = ThreadPoolExecutor(1)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_worker)


def _submit(fn: Callable[..., Any], *args) -> Future:
    """Run ``fn(*args)`` on the worker under the caller's numpy error state,
    which numpy keeps per thread."""
    errors = np.geterr()

    def run():
        with np.errstate(**errors):
            return fn(*args)

    return _worker.submit(run)


def split(there: Callable[[], Tensor], here: Callable[[], Any]) -> tuple[Tensor, Any]:
    """``(there(), here())``, with ``there`` run on the worker thread while
    the caller runs ``here``.  The two must share no parameter: their
    backward walks run at the same time.  Callers on several threads queue
    on the one worker; their jobs are independent, so the order changes no
    result.  ``there`` must not call ``split``: the worker would wait for
    itself.

    Outside a recording the worker records nothing.  Inside one it records
    ``there``'s ops on a tape of its own, and the caller's tape gets one node
    for them, after ``here``'s ops: walking it hands its gradient to the
    worker, which walks those ops in reverse there (see ``Tensor.backward``).
    An exception in ``there`` is raised here; one in ``here`` is raised once
    ``there`` is cancelled or done."""
    recorded = _tape.ops is not None

    def run():
        if not recorded:
            return there(), None
        with recording():
            return there(), _tape.ops

    future = _submit(run)
    try:
        mine = here()
    except BaseException:
        future.cancel()
        wait([future])
        raise
    out, ops = future.result()
    if not ops:
        return out, mine

    def backward_fn(grad: np.ndarray) -> Future:
        return _submit(_walk, ops)

    node = Tensor(out.data, backward_fn)
    node.grad = out.grad  # the worker's walk starts from the gradient the caller leaves here
    _tape.ops.append(node)
    return node, mine


def _toposort(root: Tensor) -> list[Tensor]:
    # the tape up to the loss: creation order is a topological order
    ops = _tape.ops
    if ops is None or root not in ops:
        raise ValueError("backward() needs a loss computed inside nn.recording() and not yet differentiated")
    return ops[: ops.index(root) + 1]


def _record(out: np.ndarray, backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """An op's output; when recording, it also has ``backward_fn``, a zeroed
    gradient buffer and a place on the tape."""
    ops = _tape.ops
    if ops is None:
        return Tensor(out)
    node = Tensor(out, backward_fn)
    node.grad = np.zeros_like(out)
    ops.append(node)
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
# The encoder ops take a packed batch, the texts of a batch one after another
# with ``lengths`` giving each text's length: word rows in, an m x L map out.
# ---------------------------------------------------------------------------


def _segments(lengths, total: int, what: str) -> np.ndarray:
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size < 1 or lengths.min() < 1 or lengths.sum() != total:
        raise ValueError(f"{what}: lengths must be positive and sum to the {total} inputs")
    return lengths


def _index(index, size: int, what: str) -> np.ndarray:
    index = np.asarray(index)
    # a float or bool index would cast to integers silently; [] arrives as float
    if index.dtype.kind not in "iu" or index.ndim != 1 or index.size < 1 or index.min() < 0 or index.max() >= size:
        raise ValueError(f"{what} must be a non-empty 1-d index into {size} entries")
    return index.astype(np.intp, copy=False)


def _scatter_rows(table_grad: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """table_grad[index[k]] += rows[k] for every k, repeated indices summing:
    a stable sort groups equal indices and one reduceat sums each group."""
    order = np.argsort(index, kind="stable")
    ordered = index[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    table_grad[ordered[starts]] += np.add.reduceat(rows[order], starts, axis=0)


def _gather(table: Parameter, index, what: str) -> Tensor:
    """Rows ``index`` of ``table`` as an (n, d) batch; gradients scatter back."""
    index = _index(index, table.data.shape[0], what)

    def backward_fn(grad: np.ndarray) -> None:
        _scatter_rows(table.grad, index, grad)

    return _record(table.data[index], backward_fn)


def embedding_lookup(table: Parameter, ids: Sequence[int]) -> Tensor:
    """The word rows of a packed batch: row j of the (n, d) output is row
    ids[j] of ``table``, and gradients scatter back."""
    return _gather(table, ids, "embedding_lookup: ids")


def _windows(rows: np.ndarray, lengths: np.ndarray, w: int, ones: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """im2col of a packed input of n x d rows, one per position: row t holds,
    flattened, the width-w window that output position t reads, then
    ``ones`` columns of 1 (a bias input).  The texts are laid out with w - 1
    zero rows before each and after the last, so text i owns the next
    n_i + w - 1 output positions and no window reaches into a neighbour.
    Also returns the position of each input row in that layout."""
    n, d = rows.shape
    out_len = n + lengths.size * (w - 1)
    # text i starts after (i + 1) gaps of w - 1 zero rows
    cols = np.arange(n) + (w - 1) * (1 + np.repeat(np.arange(lengths.size), lengths))
    padded = np.zeros((out_len + w, d), dtype=rows.dtype)  # one spare row: no text leaves no window
    padded[cols] = rows
    win_mat = np.empty((out_len, w * d + ones), dtype=rows.dtype)
    win_mat[:, : w * d] = np.lib.stride_tricks.sliding_window_view(padded.reshape(-1), w * d)[::d][:out_len]
    win_mat[:, w * d :] = 1
    return win_mat, cols


def _unwindow(win_grad: np.ndarray, cols: np.ndarray, w: int) -> np.ndarray:
    """The inverse of :func:`_windows` for gradients: the input row gradient
    (n x d) from the window-row gradient (out_len x w * d)."""
    out_len = win_grad.shape[0]
    win_grad = win_grad.reshape(out_len, w, -1)
    padded = np.zeros((out_len + w - 1, win_grad.shape[2]), dtype=win_grad.dtype)
    for k in range(w):
        padded[k : k + out_len] += win_grad[:, k]
    return padded[cols]


def conv1d_wide(
    words: Tensor, feat_table: Parameter, feat_ids, filters: Parameter, bias: Parameter, lengths, texts
) -> Tensor:
    """Wide (zero-padded) 1-d convolution over texts whose positions join a
    word vector and an overlap-feature vector, where one text can occur
    several times with the same words but its own features.

    ``words`` (n x d_w) packs the word rows of the distinct texts one after
    another, ``lengths`` giving each one's word count.  ``texts`` names, for
    each occurrence, the distinct text it repeats: first every text once, in
    order, then the repeats grouped by text, in text order.  ``feat_ids``
    holds the feature ids of every occurrence's words, in order: word j's
    feature vector is row feat_ids[j] of ``feat_table`` (v x d_feat).
    ``filters`` has shape (m, d_w + d_feat, w).  In the m x L output map an
    occurrence of n_i words gets n_i + w - 1 columns, each a filter response
    over a width-w window of the text zero-padded by w - 1 positions on both
    sides, plus bias; occurrences follow in order.

    The convolution is linear, so the map is a word part plus a feature part.
    The feature rows of the filters only ever meet the v rows of the table,
    so they act as an (m, w, v) table of responses to one-hot ids: a GEMM
    with w * v inner terms over every occurrence's one-hot windows writes the
    feature part of the whole map.  An im2col GEMM over the distinct texts'
    words, with a ones column for the bias, gives each text's word columns,
    which one add puts on the first occurrences and one broadcast add per
    repeated text puts on its block of repeats.
    """
    m, d, w = filters.data.shape
    if words.data.ndim != 2 or feat_table.data.ndim != 2:
        raise ValueError("conv1d_wide: words and feat_table must be 2-d")
    d_w, (n_ids, d_feat) = words.data.shape[1], feat_table.data.shape
    if min(d_w, d_feat) < 1 or d_w + d_feat != d:
        raise ValueError(f"conv1d_wide: input widths {d_w} + {d_feat} do not split the filter depth {d}")
    if bias.data.shape != (m,):
        raise ValueError("conv1d_wide: bias shape must be (m,)")
    lengths = _segments(lengths, words.data.shape[0], "conv1d_wide")
    texts = _index(texts, lengths.size, "conv1d_wide: texts")
    rep_texts = texts[lengths.size :]
    if not np.array_equal(texts[: lengths.size], np.arange(lengths.size)) or np.any(np.diff(rep_texts) < 0):
        raise ValueError("conv1d_wide: texts must name every text once, in order, then the repeats grouped by text")
    feat_ids = _index(feat_ids, n_ids, "conv1d_wide: feat_ids")
    _segments(lengths[texts], feat_ids.size, "conv1d_wide")
    feat_filt = filters.data[:, d_w:].transpose(0, 2, 1)  # (m, w, d_feat)
    resp = feat_filt @ feat_table.data.T  # (m, w, v)
    filt = np.concatenate([filters.data[:, :d_w].transpose(0, 2, 1).reshape(m, -1), bias.data[:, None]], axis=1)
    win, cols = _windows(words.data, lengths, w, ones=1)
    feat_win, _ = _windows(np.eye(n_ids, dtype=words.data.dtype)[feat_ids], lengths[texts], w)
    out = resp.reshape(m, -1) @ feat_win.T
    word_map = filt @ win.T
    out[:, : word_map.shape[1]] += word_map
    # each repeated text's block: (word-map start, block start, repeats, width)
    width = lengths + (w - 1)
    starts = np.cumsum(width[texts]) - width[texts]
    repeated, at, count = np.unique(rep_texts, return_index=True, return_counts=True)
    groups = list(zip(starts[repeated].tolist(), starts[lengths.size + at].tolist(),
                      count.tolist(), width[repeated].tolist()))
    for a, r, c, n in groups:
        block = out[:, r : r + c * n].reshape(m, c, n)
        block += word_map[:, None, a : a + n]
    saved = (win, filt, cols, feat_win, resp, feat_filt, groups)

    def backward_fn(grad: np.ndarray) -> None:
        _conv1d_wide_backward(grad, words, feat_table, filters, bias, saved)

    return _record(out, backward_fn)


def _conv1d_wide_backward(grad, words, feat_table, filters, bias, saved):
    """``saved`` is the word GEMM (window rows, filter matrix, input
    positions), the feature GEMM (one-hot window rows, (m, w, v) responses,
    feature filters as (m, w, d_feat)) and the repeated texts' groups; each
    group's repeat block sums into its text's word-map columns."""
    win, filt, cols, feat_win, resp, feat_filt, groups = saved
    (m, w, _), d_w = resp.shape, words.data.shape[1]
    word_grad = grad[:, : win.shape[0]].copy()
    for a, r, c, n in groups:
        word_grad[:, a : a + n] += grad[:, r : r + c * n].reshape(m, c, n).sum(axis=1)
    resp_grad = (grad @ feat_win).reshape(resp.shape)
    filt_grad = word_grad @ win
    bias.grad += filt_grad[:, -1]
    filters.grad[:, :d_w] += filt_grad[:, :-1].reshape(m, w, -1).transpose(0, 2, 1)
    filters.grad[:, d_w:] += (resp_grad @ feat_table.data).transpose(0, 2, 1)
    _accumulate(feat_table, resp_grad.reshape(m * w, -1).T @ feat_filt.reshape(m * w, -1))
    _accumulate(words, _unwindow(word_grad.T @ filt[:, :-1], cols, w))


def kmax_pool(x: Tensor, lengths, dest) -> Tensor:
    """Max over each text's columns of a packed m x L map (k-max pooling
    with k=1): text k's maxima are row dest[k] of the (n_texts, m) output,
    ``dest`` a permutation of the texts.  Ties route the gradient to the
    first maximal column."""
    if x.data.ndim != 2 or x.data.shape[1] < 1:
        raise ValueError("kmax_pool: input must be a non-empty 2-d map")
    n = x.data.shape[1]
    segments = _segments(lengths, n, "kmax_pool")
    dest = _index(dest, segments.size, "kmax_pool: dest")
    src = np.argsort(dest, kind="stable")  # like the other sorts here; the default pages in more numpy code
    if not np.array_equal(dest[src], np.arange(segments.size)):
        raise ValueError(f"kmax_pool: dest must be a permutation of the {segments.size} texts")
    peak = np.maximum.reduceat(x.data, np.cumsum(segments) - segments, axis=1)
    out = np.ascontiguousarray(peak.T[src])

    def backward_fn(grad: np.ndarray) -> None:
        if x.grad is None:
            return
        # maximal entries in row-major order; keep each (row, segment)'s first
        rows, cols = np.divmod(np.flatnonzero(x.data == np.repeat(peak, segments, axis=1)), n)
        segs = np.repeat(np.arange(segments.size), segments)[cols]
        first = np.r_[True, (rows[1:] != rows[:-1]) | (segs[1:] != segs[:-1])]
        rows, cols, segs = rows[first], cols[first], segs[first]
        x.grad[rows, cols] += grad[dest[segs], rows]

    return _record(out, backward_fn)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_ACTIVATIONS = {
    "tanh": (np.tanh, lambda a: 1.0 - a * a),
    "sigmoid": (_sigmoid, lambda a: a * (1.0 - a)),
}


def dense(x: Tensor, weight: Parameter, bias: Parameter, activation: str) -> Tensor:
    """activation(W @ x + b) for each row x of a (B, D) batch, where the
    activation is "tanh" or "sigmoid".  A row whose pre-activation is not
    finite (it overflowed) comes out nan, not saturated at the activation's
    bounds, so the non-finite checks downstream see it."""
    if activation not in _ACTIVATIONS:
        raise ValueError(f"dense: unknown activation {activation!r}")
    if x.data.ndim != 2:
        raise ValueError("dense: input must be a batch of row vectors")
    if weight.data.ndim != 2 or weight.data.shape[1] != x.data.shape[1]:
        raise ValueError(f"dense: weight shape {weight.data.shape} does not accept rows of length {x.data.shape[1]}")
    if bias.data.shape != (weight.data.shape[0],):
        raise ValueError("dense: bias shape does not match weight rows")
    act, act_grad = _ACTIVATIONS[activation]
    z = x.data @ weight.data.T + bias.data
    out = act(z)
    out[~np.isfinite(z).all(axis=1)] = np.nan

    def backward_fn(grad: np.ndarray) -> None:
        dz = grad * act_grad(out)
        weight.grad += dz.T @ x.data
        bias.grad += dz.sum(axis=0)
        _accumulate(x, dz @ weight.data)

    return _record(out, backward_fn)


def row_lookup(table: Parameter, index) -> Tensor:
    """One row of ``table`` per entry of ``index``; gradients scatter back."""
    return _gather(table, index, "row_lookup: index")


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
        pc = np.clip(p.data, BCE_CLAMP, 1.0 - BCE_CLAMP)
        inside = (p.data > BCE_CLAMP) & (p.data < 1.0 - BCE_CLAMP)
        _accumulate(p, grad * inside * (pc - labels) / (pc * (1.0 - pc)))

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

    def __init__(self, params: Iterable[Parameter], lr: float, rho: float, eps: float):
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
    rng: np.random.Generator,
    delta: float = 1e-4,
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

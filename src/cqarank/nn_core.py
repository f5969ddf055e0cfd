"""Minimal reverse-mode gradient engine over dense numpy arrays.

Every operation builds a node in a computation graph; ``Tensor.backward``
walks the graph in reverse topological order and accumulates gradients into
the participating leaves.  Parameters are persistent leaves whose gradient
buffers survive across backward calls so per-example gradients accumulate
over a mini-batch; everything runs in float32 by default and float64 when
verifying gradients.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np


class NumericError(ArithmeticError):
    """A forward or backward pass produced a non-finite value."""


class Tensor:
    """A node in the computation graph wrapping an ndarray value.

    ``parents`` are the input nodes and ``backward_fn``, when called with the
    output gradient, adds each input's share into ``parent.grad`` in place.
    """

    __slots__ = ("data", "grad", "parents", "backward_fn", "requires_grad")

    def __init__(
        self,
        data: np.ndarray,
        parents: tuple["Tensor", ...] = (),
        backward_fn: Optional[Callable[[np.ndarray], None]] = None,
        requires_grad: bool = False,
    ):
        self.data = data
        self.grad: Optional[np.ndarray] = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        ``self`` must hold a single value (a loss).
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a single-element loss tensor")
        order = _toposort(self)
        for node in order:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
        self.grad = self.grad + np.ones_like(self.data)
        for node in reversed(order):
            if node.backward_fn is not None:
                node.backward_fn(node.grad)


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative post-order DFS restricted to the differentiable subgraph.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


class Parameter(Tensor):
    """A named trainable leaf with a persistent gradient buffer."""

    __slots__ = ("name",)

    def __init__(self, name: str, data: np.ndarray):
        super().__init__(np.ascontiguousarray(data), requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def constant(data, dtype=None) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype))


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    """Add an input's gradient share into its buffer, which ``Tensor.backward``
    has zero-filled for every node it walks; inputs needing no gradient are
    not walked and are skipped."""
    if t.requires_grad:
        t.grad += grad


# ---------------------------------------------------------------------------
# layer operations
# ---------------------------------------------------------------------------


def embedding_lookup(
    word_table: Parameter,
    feat_table: Parameter,
    ids: Sequence[int],
    overlaps: Sequence[int],
) -> Tensor:
    """Stack word and overlap-feature vectors into a (d_w + d_feat) x n matrix.

    Column j holds the word vector of ids[j] on top of the feature vector of
    overlaps[j]; gradients scatter back into both tables.
    """
    ids = np.asarray(ids, dtype=np.intp)
    overlaps = np.asarray(overlaps, dtype=np.intp)
    if ids.ndim != 1 or ids.size < 1:
        raise ValueError("embedding_lookup: ids must be a non-empty 1-d sequence")
    if ids.shape != overlaps.shape:
        raise ValueError("embedding_lookup: ids and overlaps lengths differ")
    if ids.min() < 0 or ids.max() >= word_table.data.shape[0]:
        raise ValueError("embedding_lookup: id out of vocabulary range")
    if overlaps.min() < 0 or overlaps.max() >= feat_table.data.shape[0]:
        raise ValueError("embedding_lookup: overlap indicator out of range")
    d_w = word_table.data.shape[1]
    out = np.concatenate([word_table.data[ids].T, feat_table.data[overlaps].T], axis=0)

    def backward_fn(grad: np.ndarray) -> None:
        np.add.at(word_table.grad, ids, grad[:d_w].T)
        np.add.at(feat_table.grad, overlaps, grad[d_w:].T)

    return Tensor(out, (word_table, feat_table), backward_fn)


def conv1d_wide(x: Tensor, filters: Parameter, bias: Parameter) -> Tensor:
    """Wide (zero-padded) 1-d convolution over the columns of a d x n input.

    ``filters`` has shape (m, d, w); the output has shape (m, n + w - 1),
    each column a filter response over a width-w window of the zero-padded
    input, plus bias.
    """
    m, d, w = filters.data.shape
    if x.data.ndim != 2 or x.data.shape[0] != d:
        raise ValueError(
            f"conv1d_wide: input rows {x.data.shape} do not match filter depth {d}"
        )
    if bias.data.shape != (m,):
        raise ValueError("conv1d_wide: bias shape must be (m,)")
    n = x.data.shape[1]
    out_len = n + w - 1
    padded = np.zeros((d, n + 2 * (w - 1)), dtype=x.data.dtype)
    padded[:, w - 1 : w - 1 + n] = x.data
    # windows[t] = padded[:, t:t+w] flattened row-major, one per output column
    windows = np.lib.stride_tricks.sliding_window_view(padded, w, axis=1)
    win_mat = np.ascontiguousarray(windows.transpose(1, 0, 2)).reshape(out_len, d * w)
    filt_mat = filters.data.reshape(m, d * w)
    out = win_mat @ filt_mat.T + bias.data
    out = np.ascontiguousarray(out.T)

    def backward_fn(grad: np.ndarray) -> None:
        _conv1d_wide_backward(grad, x, filters, bias, win_mat, filt_mat, n, w)

    return Tensor(out, (x, filters, bias), backward_fn)


def _conv1d_wide_backward(grad, x, filters, bias, win_mat, filt_mat, n, w):
    m, d, _ = filters.data.shape
    out_len = n + w - 1
    bias.grad += grad.sum(axis=1)
    filters.grad += (grad @ win_mat).reshape(m, d, w)
    if x.requires_grad:
        dcols = (filt_mat.T @ grad).reshape(d, w, out_len)
        dpadded = np.zeros((d, n + 2 * (w - 1)), dtype=grad.dtype)
        for k in range(w):
            dpadded[:, k : k + out_len] += dcols[:, k, :]
        x.grad += dpadded[:, w - 1 : w - 1 + n]


def kmax_pool(x: Tensor) -> Tensor:
    """Max over columns of an m x L map (k-max pooling with k=1); ties route
    the gradient to the first maximal column."""
    if x.data.ndim != 2 or x.data.shape[1] < 1:
        raise ValueError("kmax_pool: input must be a non-empty 2-d map")
    rows = np.arange(x.data.shape[0])
    argmax = np.argmax(x.data, axis=1)
    out = x.data[rows, argmax]

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            np.add.at(x.grad, (rows, argmax), grad)

    return Tensor(out, (x,), backward_fn)


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
    """activation(W @ x + b) for a vector input."""
    if activation not in _ACTIVATIONS:
        raise ValueError(f"dense: unknown activation {activation!r}")
    if x.data.ndim != 1:
        raise ValueError("dense: input must be a vector")
    if weight.data.ndim != 2 or weight.data.shape[1] != x.data.shape[0]:
        raise ValueError(
            f"dense: weight shape {weight.data.shape} does not accept input of length {x.data.shape[0]}"
        )
    if bias.data.shape != (weight.data.shape[0],):
        raise ValueError("dense: bias shape does not match weight rows")
    act, act_grad = _ACTIVATIONS[activation]
    out = act(weight.data @ x.data + bias.data)

    def backward_fn(grad: np.ndarray) -> None:
        dz = grad * act_grad(out)
        weight.grad += np.outer(dz, x.data)
        bias.grad += dz
        if x.requires_grad:
            x.grad += weight.data.T @ dz

    return Tensor(out, (x, weight, bias), backward_fn)


def row_lookup(table: Parameter, index: int) -> Tensor:
    """Select one row of an embedding table; the gradient scatters back."""
    if not 0 <= index < table.data.shape[0]:
        raise ValueError(f"row_lookup: index {index} out of range")
    out = table.data[index].copy()

    def backward_fn(grad: np.ndarray) -> None:
        table.grad[index] += grad

    return Tensor(out, (table,), backward_fn)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate vectors into one vector."""
    datas = [t.data for t in tensors]
    if any(d.ndim != 1 for d in datas):
        raise ValueError("concat: all inputs must be vectors")
    out = np.concatenate(datas)
    offsets = np.cumsum([0] + [d.shape[0] for d in datas])

    def backward_fn(grad: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            _accumulate(t, grad[lo:hi])

    return Tensor(out, tuple(tensors), backward_fn)


def dropout(
    x: Tensor,
    rate: float,
    training: bool,
    rng: Optional[np.random.Generator] = None,
    mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Inverted dropout: zero components with probability ``rate`` and scale
    survivors by 1/(1-rate) during training; identity at inference.

    ``mask`` pins the kept-component pattern, used when checking gradients.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if mask is None:
        if rng is None:
            raise ValueError("dropout: training mode needs an rng (or a fixed mask)")
        mask = rng.random(x.data.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    out = x.data * (mask * scale)

    def backward_fn(grad: np.ndarray) -> None:
        _accumulate(x, grad * (mask * scale))

    return Tensor(out.astype(x.data.dtype, copy=False), (x,), backward_fn)


BCE_CLAMP = 1e-7


def clamped_bce(p: np.ndarray, y) -> np.ndarray:
    """-[y ln p + (1-y) ln(1-p)] elementwise, with p clamped to
    [1e-7, 1 - 1e-7] before the logs."""
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return -(y * np.log(pc) + (1 - y) * np.log1p(-pc))


def bce_loss(p: Tensor, y: int) -> Tensor:
    """Binary cross-entropy -[y ln p + (1-y) ln(1-p)] with p clamped to
    [1e-7, 1 - 1e-7] before the logs."""
    if y not in (0, 1):
        raise ValueError(f"bce_loss: label must be 0 or 1, got {y!r}")
    if p.data.size != 1:
        raise ValueError("bce_loss: probability must be a single value")
    out = clamped_bce(p.data, y)

    def backward_fn(grad: np.ndarray) -> None:
        if p.requires_grad:
            pc = np.clip(p.data, BCE_CLAMP, 1.0 - BCE_CLAMP)
            inside = (p.data > BCE_CLAMP) & (p.data < 1.0 - BCE_CLAMP)
            p.grad += grad * inside * (pc - y) / (pc * (1.0 - pc))

    return Tensor(out, (p,), backward_fn)


def add_n(tensors: Sequence[Tensor]) -> Tensor:
    """Elementwise sum of same-shaped tensors as a single graph node."""
    if not tensors:
        raise ValueError("add_n: need at least one tensor")
    out = tensors[0].data.copy()
    for t in tensors[1:]:
        out = out + t.data

    def backward_fn(grad: np.ndarray) -> None:
        for t in tensors:
            _accumulate(t, grad)

    return Tensor(out, tuple(tensors), backward_fn)


def scale(x: Tensor, factor: float) -> Tensor:
    out = x.data * factor

    def backward_fn(grad: np.ndarray) -> None:
        _accumulate(x, grad * factor)

    return Tensor(out.astype(x.data.dtype, copy=False), (x,), backward_fn)


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

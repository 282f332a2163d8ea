"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a row-major numpy array. Operations on tensors that
require gradients record a dynamic compute graph; ``Tensor.backward()``
walks the graph once in reverse topological order and accumulates
gradients into every participating tensor. Everything is float64 and
single-threaded per graph; tensors are treated as immutable values once
created.

``check_gradients`` provides the central-finite-difference harness used
throughout the test suite to verify every analytic gradient.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateInputError,
    DomainError,
    NumericError,
    ShapeMismatchError,
)

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording inside its scope."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _as_f64(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    # ascontiguousarray would promote 0-d scalars to shape (1,)
    return np.ascontiguousarray(arr) if arr.ndim else arr


class Tensor:
    """A dense float64 value, optionally tracked by the autodiff graph.

    Attributes:
        data: numpy float64 array (row-major).
        requires_grad: whether backward() should populate ``grad``; kept as
            given under ``no_grad``, which only stops operations recording.
        grad: accumulated gradient, same shape as ``data``; None until a
            backward pass touches this tensor. Only leaves (tensors no
            operation made) keep it: a node an operation made drops its
            ``grad`` once the pass has handed it to the node's inputs, so
            a second backward over the same graph adds the same amount to
            the leaves again.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_f64(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph ---------------------------------------------------------------

    def backward(self):
        """Accumulate gradients of this scalar into every graph leaf.

        Visits each node exactly once via an iterative topological sort,
        so shared subexpressions contribute to their parents once per use.
        Each non-leaf node's gradient is released as soon as its inputs
        have theirs.
        """
        if self.data.size != 1:
            raise ShapeMismatchError(
                f"backward() requires a scalar, got shape {self.shape}"
            )
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    # -- operators -----------------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_lift(other)))

    def __rsub__(self, other):
        return add(_lift(other), neg(self))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, *shape)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, piece: np.ndarray):
    # Gradients are never mutated in place, so holding a reference is safe.
    t.grad = piece if t.grad is None else t.grad + piece


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-d arrays, with each row's bits independent of how many rows a has.

    numpy runs a product whose left operand has one row as a matrix-vector
    product (gemv), which rounds differently from the matrix-matrix product
    (gemm) of more rows, so a lone row runs beside a copy of itself.
    """
    if a.shape[0] == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


# -- primitive operations ----------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            _accumulate(a, -g)

    return _make(-a.data, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(
            f"matmul needs (M,K)@(K,N), got {a.shape} @ {b.shape}"
        )
    data = _mm(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _mm(g, b.data.T))
        if b.requires_grad:
            _accumulate(b, _mm(a.data.T, g))

    return _make(data, (a, b), backward)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x of shape (..., M), w (M, K), b (K,)."""
    if x.shape[-1] != w.shape[0] or w.shape[1] != b.shape[0] or b.data.ndim != 1:
        raise ShapeMismatchError(
            f"affine shapes disagree: x {x.shape}, w {w.shape}, b {b.shape}"
        )
    lead = x.shape[:-1]
    x2 = x.data.reshape(-1, x.shape[-1])
    data = (_mm(x2, w.data) + b.data).reshape(*lead, w.shape[1])

    def backward(g):
        g2 = g.reshape(-1, w.shape[1])
        if x.requires_grad:
            _accumulate(x, _mm(g2, w.data.T).reshape(x.shape))
        if w.requires_grad:
            _accumulate(w, _mm(x2.T, g2))
        if b.requires_grad:
            _accumulate(b, g2.sum(axis=0))

    return _make(data, (x, w, b), backward)


class Segments:
    """Rows grouped by item: item b owns ``counts[b]`` consecutive rows, in item order.

    ``total`` is the number of rows and ``item`` gives the item of each row.
    """

    def __init__(self, counts):
        counts = np.asarray(counts, dtype=np.int64).reshape(-1)
        if counts.size == 0 or np.any(counts < 0):
            raise ShapeMismatchError(f"segment counts must be >= 0 for at least one item: {counts}")
        self.counts = counts
        self.total = int(counts.sum())
        self.item = np.repeat(np.arange(counts.size), counts)
        # runs of consecutive items with equal counts, each handled by one reshape
        firsts = np.flatnonzero(np.diff(counts, prepend=-1))
        ends = np.append(firsts[1:], counts.size)
        starts = np.cumsum(counts) - counts
        self._runs = [
            (int(a), int(e), int(starts[a]), int(counts[a]))
            for a, e in zip(firsts, ends)
            if counts[a]
        ]

    def sum(self, rows: np.ndarray) -> np.ndarray:
        """Per-item sums of ``rows`` (total, K), (n_items, K); zero for an empty item.

        With K >= 2, each item's rows are added one after the other, in row
        order, as a sum over the frame axis of the padded (n_items, T, K)
        array adds them.
        """
        out = np.zeros((self.counts.size,) + rows.shape[1:])
        for a, e, run in self._run_views(rows):
            np.add.reduce(run, axis=1, out=out[a:e])
        return out

    def add_per_item(self, rows: np.ndarray, values: np.ndarray):
        """Adds ``values[b]`` (n_items, K) to each row of item b of ``rows``, in place."""
        for a, e, run in self._run_views(rows):
            np.add(run, values[a:e, None], out=run)

    def _run_views(self, rows):
        """(first item, end item, (items, count, K) view of their rows) of each run."""
        for a, e, start, c in self._runs:
            yield a, e, rows[start : start + (e - a) * c].reshape(e - a, c, *rows.shape[1:])


def residual_block(
    h: Tensor, w1: Tensor, b1: Tensor, z: Tensor, w2: Tensor, b2: Tensor, seg: Segments
) -> Tensor:
    """h + affine(tanh(affine(h, w1, b1) + z[seg.item]), w2, b2) as one node.

    h is (N, H) rows grouped by ``seg``, w1 (H, K), b1 (K,), z (B, K) a
    per-item shift added to each row of its item, w2 (K, H) and b2 (H,).
    The values and gradients equal those of the composition of ``affine``,
    ``embedding``, ``add`` and ``tanh`` bit for bit when K >= 2: the forward
    runs the same operations in the same order, in place, and the backward
    adds the two gradient paths into h as separate pieces, as the
    composition's nodes do; z's gradient is the segment sum of its rows'.
    Only the tanh output is kept for backward.
    """
    if (
        h.data.ndim != 2
        or b1.data.ndim != 1
        or h.shape[0] != seg.total
        or w1.shape != (h.shape[1], b1.shape[0])
        or z.shape != (seg.counts.size, b1.shape[0])
        or w2.shape != (b1.shape[0], h.shape[1])
        or b2.shape != (h.shape[1],)
    ):
        raise ShapeMismatchError(
            f"residual_block shapes disagree: h {h.shape}, w1 {w1.shape}, b1 {b1.shape},"
            f" z {z.shape}, w2 {w2.shape}, b2 {b2.shape}, {seg.total} rows"
            f" of {seg.counts.size} items"
        )
    y = _mm(h.data, w1.data)
    y += b1.data
    seg.add_per_item(y, z.data)
    np.tanh(y, out=y)
    out = _mm(y, w2.data)
    out += b2.data
    out += h.data

    def backward(g):
        if w2.requires_grad:
            _accumulate(w2, _mm(y.T, g))
        if b2.requires_grad:
            _accumulate(b2, g.sum(axis=0))
        if h.requires_grad:
            _accumulate(h, g)
        gs = _mm(g, w2.data.T)
        gs *= 1.0 - y * y
        if z.requires_grad:
            _accumulate(z, seg.sum(gs))
        if w1.requires_grad:
            _accumulate(w1, _mm(h.data.T, gs))
        if b1.requires_grad:
            _accumulate(b1, gs.sum(axis=0))
        if h.requires_grad:
            _accumulate(h, _mm(gs, w1.data.T))

    return _make(out, (h, w1, b1, z, w2, b2), backward)


def segment_mean(x: Tensor, seg: Segments) -> Tensor:
    """Mean of each item's rows of x (N, D), (B, D).

    With D >= 2 it equals ``mean_pool_time`` of the padded (B, T, D) array
    bit for bit, values and gradient.
    """
    if x.data.ndim != 2 or x.shape[0] != seg.total:
        raise ShapeMismatchError(f"segment_mean expects ({seg.total}, D), got {x.shape}")
    if np.any(seg.counts < 1):
        raise DegenerateInputError("segment_mean needs >= 1 row for every item")
    inv = 1.0 / seg.counts.astype(np.float64)
    data = seg.sum(x.data) * inv[:, None]

    def backward(g):
        if x.requires_grad:
            _accumulate(x, (g * inv[:, None])[seg.item])

    return _make(data, (x,), backward)


def scatter_rows(x: Tensor, index, lead: tuple[int, ...]) -> Tensor:
    """Rows of x (N, D) placed at flat positions ``index`` (N,) of a zero (*lead, D) array."""
    index = np.asarray(index, dtype=np.int64)
    if x.data.ndim != 2 or index.shape != x.shape[:1]:
        raise ShapeMismatchError(f"scatter_rows: positions {index.shape} for rows {x.shape}")
    D = x.shape[1]
    flat = np.zeros((math.prod(lead), D))
    flat[index] = x.data

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g.reshape(-1, D)[index])

    return _make(flat.reshape(*lead, D), (x,), backward)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * (1.0 - y * y))

    return _make(y, (a,), backward)


def reshape(a: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(a.shape))

    return _make(data, (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(gg, a.shape).copy())

    return _make(data, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Mean over ``axis``: None for all axes, an int or a tuple of ints."""
    axes = range(a.data.ndim) if axis is None else np.atleast_1d(axis)
    n = math.prod(a.shape[i] for i in axes)
    return mul(tsum(a, axis=axis, keepdims=keepdims), Tensor(1.0 / n))


def softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis.

    Rows of the output are nonnegative and sum to one; subtracting the
    row max before exponentiating keeps large inputs finite.
    """
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if x.requires_grad:
            inner = (g * y).sum(axis=-1, keepdims=True)
            _accumulate(x, y * (g - inner))

    return _make(y, (x,), backward)


def mean_pool_time(x: Tensor, valid_len) -> Tensor:
    """Mean over the leading ``valid_len[b]`` frames of x[b], per item.

    x has shape (B, T, D); frames at or beyond an item's valid length do
    not contribute, and the gradient distributes 1/valid_len[b] to each
    contributing frame.
    """
    if x.data.ndim != 3:
        raise ShapeMismatchError(f"mean_pool_time expects (B,T,D), got {x.shape}")
    B, T, _ = x.shape
    lens = np.asarray(valid_len, dtype=np.int64).reshape(-1)
    if lens.shape[0] != B:
        raise ShapeMismatchError(
            f"valid_len has {lens.shape[0]} entries for batch of {B}"
        )
    if np.any(lens < 1):
        raise DegenerateInputError("valid_len must be >= 1 for every item")
    if np.any(lens > T):
        raise DomainError(f"valid_len exceeds T={T}")
    frame_mask = (np.arange(T)[None, :] < lens[:, None]).astype(np.float64)
    inv = 1.0 / lens.astype(np.float64)
    data = np.einsum("btd,bt->bd", x.data, frame_mask) * inv[:, None]

    def backward(g):
        if x.requires_grad:
            # frame_mask is 0 or 1, so scaling g first is exact
            _accumulate(x, (g * inv[:, None])[:, None, :] * frame_mask[:, :, None])

    return _make(data, (x,), backward)


def l2_normalize(x: Tensor, eps: float = 1e-8) -> Tensor:
    """Row-wise x / max(||x||, eps) for x of shape (B, D)."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    norms = np.linalg.norm(x.data, axis=-1, keepdims=True)
    clamped = np.maximum(norms, eps)
    y = x.data / clamped

    def backward(g):
        if not x.requires_grad:
            return
        live = (norms > eps).astype(np.float64)  # 0 where the clamp froze the norm
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(x, (g - live * inner * y) / clamped)

    return _make(y, (x,), backward)


def cosine_similarity(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """Per-row cosine of (B, D) inputs, with eps-clamped norms."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    if a.shape != b.shape or a.data.ndim != 2:
        raise ShapeMismatchError(
            f"cosine_similarity expects matching (B,D) inputs, got {a.shape} vs {b.shape}"
        )
    na = np.maximum(np.linalg.norm(a.data, axis=1), eps)
    nb = np.maximum(np.linalg.norm(b.data, axis=1), eps)
    dot = (a.data * b.data).sum(axis=1)
    s = dot / (na * nb)

    def backward(g):
        # d s/d a = b/(na nb) - s a/na^2 whenever ||a|| > eps; with the norm
        # clamped the second term vanishes because na is constant.
        if a.requires_grad:
            live = (np.linalg.norm(a.data, axis=1) > eps).astype(np.float64)
            piece = b.data / (na * nb)[:, None] - (live * s / (na * na))[:, None] * a.data
            _accumulate(a, g[:, None] * piece)
        if b.requires_grad:
            live = (np.linalg.norm(b.data, axis=1) > eps).astype(np.float64)
            piece = a.data / (na * nb)[:, None] - (live * s / (nb * nb))[:, None] * b.data
            _accumulate(b, g[:, None] * piece)

    return _make(s, (a, b), backward)


_SIMPLEX_TOL = 1e-9


def entropy(w: Tensor) -> Tensor:
    """Shannon entropy of each row of a (B, N) matrix on the simplex.

    Uses the convention 0*ln(0) = 0. Rows must be nonnegative within
    1e-9 and sum to one within 1e-9.
    """
    if w.data.ndim != 2:
        raise ShapeMismatchError(f"entropy expects (B,N), got {w.shape}")
    if np.any(w.data < -_SIMPLEX_TOL):
        raise DomainError("entropy input has a negative entry beyond tolerance")
    if np.any(np.abs(w.data.sum(axis=1) - 1.0) > _SIMPLEX_TOL):
        raise DomainError("entropy input rows must sum to 1 within 1e-9")
    wc = np.maximum(w.data, 0.0)
    logw = np.log(np.where(wc > 0.0, wc, 1.0))
    data = -(wc * logw).sum(axis=1)

    def backward(g):
        if w.requires_grad:
            # dH/dw_i = -(ln w_i + 1); zero entries contribute nothing.
            piece = np.where(wc > 0.0, -(logw + 1.0), 0.0)
            _accumulate(w, g[:, None] * piece)

    return _make(data, (w,), backward)


def stack_last(parts: Sequence[Tensor]) -> Tensor:
    """Stack same-shape tensors along a new trailing axis."""
    if not parts:
        raise DegenerateInputError("stack_last needs at least one tensor")
    shape0 = parts[0].shape
    for p in parts:
        if p.shape != shape0:
            raise ShapeMismatchError(
                f"stack_last parts disagree: {shape0} vs {p.shape}"
            )
    data = np.stack([p.data for p in parts], axis=-1)

    def backward(g):
        for i, p in enumerate(parts):
            if p.requires_grad:
                _accumulate(p, g[..., i].copy())  # ascontiguousarray makes 0-d slices (1,)

    return _make(data, tuple(parts), backward)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :] with gradient scatter-add.

    ``ids`` must lie in [0, table.shape[0]); handle padding by masking
    outside this primitive.
    """
    if table.data.ndim != 2:
        raise ShapeMismatchError(f"embedding table must be (V,D), got {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    V = table.shape[0]
    if idx.size == 0:
        raise DegenerateInputError("embedding got an empty id array")
    if np.any(idx < 0) or np.any(idx >= V):
        raise DomainError(f"embedding id outside [0, {V})")
    data = table.data[idx]

    def backward(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, idx.reshape(-1), g.reshape(-1, table.shape[1]))
            _accumulate(table, gt)

    return _make(data, (table,), backward)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under row softmax."""
    if logits.data.ndim != 2:
        raise ShapeMismatchError(f"cross_entropy expects (B,C), got {logits.shape}")
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    B, C = logits.shape
    if y.shape[0] != B:
        raise ShapeMismatchError(f"{y.shape[0]} labels for batch of {B}")
    if np.any(y < 0) or np.any(y >= C):
        raise DomainError("label outside [0, C)")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    lse = np.log(e.sum(axis=1))
    data = np.mean(lse - z[np.arange(B), y])

    def backward(g):
        if logits.requires_grad:
            p = e / e.sum(axis=1, keepdims=True)  # a new array: e stays for another backward
            p[np.arange(B), y] -= 1.0
            _accumulate(logits, g * p / B)

    return _make(data, (logits,), backward)


# -- finite-difference verification -------------------------------------------


def check_gradients(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Compare analytic gradients of scalar f(x) against central differences.

    Returns the maximum over coordinates of
    ``|analytic - numeric| / (|analytic| + |numeric| + 1e-12)``.
    """
    h = 1e-5  # the central-difference step
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if out.data.size != 1:
        raise ShapeMismatchError("check_gradients needs a scalar-valued f")
    if not np.isfinite(out.data).all():
        raise NumericError("f evaluated to a non-finite value")
    out.backward()
    analytic = (
        probe.grad.reshape(-1)
        if probe.grad is not None
        else np.zeros(probe.data.size)
    )

    flat = probe.data.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        with no_grad():
            fp = f(probe).item()
        flat[i] = keep - h
        with no_grad():
            fm = f(probe).item()
        flat[i] = keep
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError(f"f non-finite near coordinate {i}")
        numeric = (fp - fm) / (2.0 * h)
        err = abs(analytic[i] - numeric) / (abs(analytic[i]) + abs(numeric) + 1e-12)
        worst = max(worst, err)
    return worst


# -- serialization -------------------------------------------------------------


def tensor_to_json(x: Tensor) -> dict:
    """JSON-ready dict {shape, data}; floats survive a round trip bit-exactly."""
    return {"shape": list(x.shape), "data": x.data.reshape(-1).tolist()}


def tensor_from_json(obj: dict) -> Tensor:
    shape = tuple(int(n) for n in obj["shape"])
    data = np.array(obj["data"], dtype=np.float64).reshape(shape)
    return Tensor(data)

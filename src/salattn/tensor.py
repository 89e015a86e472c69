"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Everything is eager: an operation computes its numpy result immediately and,
when a gradient tape is active and some input requires gradients, appends a
record (output, inputs, backward closure) to the tape. `GradTape.gradient`
replays the records in exact reverse execution order and accumulates
gradients additively, so a parameter used twice receives the sum of both
contributions.

The tape keeps each op's inputs and output alive, and whatever its closure
captures; closures capture those arrays or small ones, rebuilding anything
larger in backward. `gradient` drops an intermediate's gradient once it has
been used, so backward holds only the gradients still waiting on a record.

Operations are pure functions of their inputs. With no active tape they do
no bookkeeping at all, which is what inference uses.
"""

from __future__ import annotations

import threading

import numpy as np

MAX_RANK = 4


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class Tensor:
    """A numpy float64 array plus a requires_grad flag.

    Rank 0 tensors exist only as reduction outputs (losses); data tensors are
    rank 1 to 4, row major.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > MAX_RANK:
            raise ShapeError(f"rank {arr.ndim} exceeds maximum {MAX_RANK}")
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def rank(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a size-1 tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


# One tape may be active per thread (single writer). Thread-local storage so
# tape-free inference threads never observe another thread's tape.
_TLS = threading.local()


def _tape_stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


class GradTape:
    """Records operations while active; replays them backward on request."""

    def __init__(self):
        self._records = []  # (out, inputs, backward) in execution order

    def __enter__(self) -> "GradTape":
        stack = _tape_stack()
        if stack:
            raise RuntimeError("a GradTape is already active in this thread")
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack().pop()
        return False

    def gradient(self, loss: Tensor, sources) -> list:
        """Gradients of a scalar loss with respect to each source tensor.

        An intermediate's gradient is dropped as soon as its record has run,
        since every consumer was recorded later and so has already given its
        share; only the sources' gradients live to the end. Backward closures
        may hand one array to several inputs, so sums are taken out of place
        and each source gets a fresh, writable copy. Sources never touched
        by the recorded computation get zeros. The records are kept, so
        calling again is allowed and gives the same answer.
        """
        if loss.data.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        keep = {id(s) for s in sources}
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for out, inputs, backward in reversed(self._records):
            g = grads.get(id(out)) if id(out) in keep else grads.pop(id(out), None)
            if g is None:
                continue
            for t, gt in zip(inputs, backward(g)):
                if gt is not None and t.requires_grad:
                    k = id(t)
                    grads[k] = grads[k] + gt if k in grads else gt
        return [np.array(grads[id(s)], dtype=np.float64) if id(s) in grads
                else np.zeros_like(s.data) for s in sources]


def _trace(out_data: np.ndarray, inputs: tuple, backward) -> Tensor:
    """Wrap an op result, recording it if a tape is active and relevant."""
    stack = _tape_stack()
    if stack and any(t.requires_grad for t in inputs):
        out = Tensor(out_data, requires_grad=True)
        stack[-1]._records.append((out, inputs, backward))
        return out
    return Tensor(out_data)


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# elementwise and linear-algebra primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _trace(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return _trace(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    _same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return _trace(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _trace(a.data * s, (a,), lambda g: (g * s,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of rank-2 tensors, (m,k) @ (k,n) -> (m,n)."""
    if a.rank != 2 or b.rank != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    return _trace(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def matvec(m: Tensor, v: Tensor) -> Tensor:
    """(m,n) @ (n,) -> (m,)."""
    if m.rank != 2 or v.rank != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"matvec: incompatible shapes {m.shape} @ {v.shape}")
    md, vd = m.data, v.data
    return _trace(md @ vd, (m, v), lambda g: (np.outer(g, vd), md.T @ g))


def transpose(a: Tensor) -> Tensor:
    if a.rank != 2:
        raise ShapeError(f"transpose needs rank 2, got {a.shape}")
    return _trace(a.data.T.copy(), (a,), lambda g: (g.T,))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    old = a.shape
    out = a.data.reshape(shape)
    return _trace(out.copy(), (a,), lambda g: (g.reshape(old),))


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along an existing axis."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _trace(out, tuple(tensors), backward)


def stack_rows(vectors) -> Tensor:
    """Stack rank-1 tensors of equal length into a rank-2 tensor."""
    vectors = list(vectors)
    if not vectors:
        raise ShapeError("stack_rows needs at least one vector")
    for v in vectors:
        if v.rank != 1 or v.shape != vectors[0].shape:
            raise ShapeError("stack_rows: all inputs must be equal-length vectors")
    out = np.stack([v.data for v in vectors], axis=0)

    def backward(g):
        return tuple(g[i] for i in range(len(vectors)))

    return _trace(out, tuple(vectors), backward)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape
    return _trace(np.sum(a.data), (a,), lambda g: (np.full(shape, float(g)),))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return _trace(out, (a,), lambda g: (g * (out > 0.0),))


def sigmoid(a: Tensor) -> Tensor:
    # Split by sign so exp never overflows.
    d = a.data
    e = np.exp(-np.abs(d))
    out = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _trace(out, (a,), lambda g: (g * out * (1.0 - out),))


def logsumexp(v: Tensor) -> Tensor:
    """log(sum(exp(v))) of a rank-1 tensor, max-shifted for stability.

    The shift is a constant (no gradient through the max), which leaves the
    exact softmax gradient.
    """
    if v.rank != 1:
        raise ShapeError(f"logsumexp needs rank 1, got {v.shape}")
    m = float(np.max(v.data))
    e = np.exp(v.data - m)
    s = float(np.sum(e))
    out = m + np.log(s)
    soft = e / s
    return _trace(np.asarray(out), (v,), lambda g: (float(g) * soft,))


def l2_normalize(v: Tensor) -> Tensor:
    """v / ||v|| for a rank-1 tensor. Rejects the zero vector."""
    if v.rank != 1:
        raise ShapeError(f"l2_normalize needs rank 1, got {v.shape}")
    n = float(np.linalg.norm(v.data))
    if n == 0.0:
        raise ValueError("l2_normalize: zero vector")
    y = v.data / n

    def backward(g):
        return ((g - y * np.dot(g, y)) / n,)

    return _trace(y, (v,), backward)

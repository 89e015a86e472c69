"""Attention blocks over (h, w, c) feature maps.

The non-local block computes, per position i, an average of all positions
weighted by inner-product similarity:

    y_i = (1/N) * sum_j (x_i . x_j) x_j        with N = h*w

Stacked as matrices this is y = (1/N) x (x^T x), which costs 2*N*c^2
multiplies instead of the 2*N^2*c of either the written-out double loop or
the unreordered (x x^T) x form. All three evaluate the same polynomial, so
they agree to rounding; the reordered form is the one used in the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .ops import attend, conv2d, depthwise_conv2d, mean_hw
from .tensor import ShapeError, Tensor

_VARIANTS = ("naive", "lightweight_unordered", "lightweight_reordered")
_VARIANT_ALIASES = {"unordered": "lightweight_unordered", "reordered": "lightweight_reordered"}


def count_flops(variant: str, h: int, w: int, c: int) -> int:
    """Analytic multiply count of one non-local evaluation.

    The short forms "reordered" and "unordered" are accepted as aliases for
    the lightweight_* names.
    """
    variant = _VARIANT_ALIASES.get(variant, variant)
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {_VARIANTS}")
    if h <= 0 or w <= 0 or c <= 0:
        raise ValueError("extents must be positive")
    n = h * w
    if variant == "lightweight_reordered":
        return 2 * n * c * c
    return 2 * n * n * c


def lightweight_nonlocal(x: Tensor) -> Tensor:
    """Non-local block in the reordered x (x^T x) / N association."""
    if x.rank != 3:
        raise ShapeError(f"lightweight_nonlocal needs (h,w,c), got {x.shape}")
    h, w, c = x.shape
    n = h * w
    f = T.reshape(x, (n, c))
    gram = T.matmul(T.transpose(f), f)          # (c, c)
    y = T.scale(T.matmul(f, gram), 1.0 / n)
    return T.reshape(y, (h, w, c))


def nonlocal_reordered(x: np.ndarray) -> np.ndarray:
    """Plain-array evaluation of x (x^T x) / N, for benchmarks and tests."""
    h, w, c = x.shape
    f = x.reshape(h * w, c)
    return (f @ (f.T @ f) / (h * w)).reshape(h, w, c)


def nonlocal_unordered(x: np.ndarray) -> np.ndarray:
    """Plain-array evaluation of (x x^T) x / N."""
    h, w, c = x.shape
    f = x.reshape(h * w, c)
    return ((f @ f.T) @ f / (h * w)).reshape(h, w, c)


def nonlocal_rowwise(x: np.ndarray) -> np.ndarray:
    """Per-position evaluation, one similarity row at a time.

    Same association order as the double loop (2*N^2*c multiplies) without
    interpreter overhead drowning the measurement at large N.
    """
    h, w, c = x.shape
    n = h * w
    f = x.reshape(n, c)
    y = np.empty_like(f)
    for i in range(n):
        y[i] = (f @ f[i]) @ f
    return (y / n).reshape(h, w, c)


def naive_nonlocal_reference(x: np.ndarray) -> np.ndarray:
    """Double loop straight from the definition. Small inputs only."""
    h, w, c = x.shape
    n = h * w
    f = x.reshape(n, c)
    y = np.zeros_like(f)
    for i in range(n):
        acc = np.zeros(c, dtype=np.float64)
        for j in range(n):
            acc += np.dot(f[i], f[j]) * f[j]
        y[i] = acc / n
    return y.reshape(h, w, c)


@dataclass
class DynamicFilterGenerator:
    """Linear map from a pooled c-vector to a (3, 3, c) depthwise filter bank.

    weight is (c, 9c), bias free, so a zero input yields a zero filter bank.
    """

    weight: Tensor

    def __post_init__(self):
        if self.weight.rank != 2 or self.weight.shape[1] != 9 * self.weight.shape[0]:
            raise ShapeError(f"generator weight must be (c, 9c), got {self.weight.shape}")

    @property
    def channels(self) -> int:
        return self.weight.shape[0]

    def filters(self, pooled: Tensor) -> Tensor:
        """(c,) pooled feature -> (3, 3, c) filter bank."""
        c = self.channels
        if pooled.shape != (c,):
            raise ShapeError(f"pooled feature shape {pooled.shape}, expected ({c},)")
        flat = T.matvec(T.transpose(self.weight), pooled)   # (9c,)
        return T.reshape(flat, (3, 3, c))


def self_attention_block(x: Tensor, gen: DynamicFilterGenerator) -> Tensor:
    """Non-local aggregation refined by an input-conditioned depthwise conv.

    z = depthwise(lightweight_nonlocal(x), filters(mean(x))) + x. The
    residual makes the block the identity when the generator weight is zero.
    Gradients flow through the filter generation as well as the main path.
    """
    if x.rank != 3 or x.shape[2] != gen.channels:
        raise ShapeError(f"input {x.shape} does not match generator channels {gen.channels}")
    filters = gen.filters(mean_hw(x))
    y = depthwise_conv2d(lightweight_nonlocal(x), filters)
    return T.add(y, x)


@dataclass
class CoAttentionParams:
    """Parameters of the cross-level co-attention: a strided 3x3 resize conv
    that brings the earlier (larger) feature map to the later one's grid and
    channel width, and a (c, c) bilinear affinity weight."""

    resize_kernel: Tensor   # (3, 3, c_v, c)
    resize_bias: Tensor     # (c,)
    affinity: Tensor        # (c, c)

    def __post_init__(self):
        c = self.affinity.shape[0]
        if self.affinity.shape != (c, c):
            raise ShapeError(f"affinity must be square, got {self.affinity.shape}")
        if self.resize_kernel.shape[3] != c or self.resize_bias.shape != (c,):
            raise ShapeError("resize conv output width must match affinity size")


def coattention(v: Tensor, x: Tensor, params: CoAttentionParams) -> Tensor:
    """Attend from resized early features v' over late positions of x.

    A = v' W x^T row-softmaxed, z = softmax(A) x. Output rows are convex
    combinations of x positions, matching x's shape. The affinity, softmax
    and weighted sum are one op, ops.attend, which takes them a block of
    rows at a time, so the (n, n) affinity (1024 x 1024 at a 256x256 frame)
    never exists whole.
    """
    if v.rank != 3 or x.rank != 3:
        raise ShapeError("coattention needs (h,w,c) inputs")
    hx, wx, c = x.shape
    hv, wv, _ = v.shape
    if hv % hx or wv % wx or hv // hx != wv // wx:
        raise ShapeError(f"early map {v.shape[:2]} is not an integer multiple of late map {x.shape[:2]}")
    stride = hv // hx
    vres = conv2d(v, params.resize_kernel, params.resize_bias, stride=stride)
    if vres.shape != x.shape:
        raise ShapeError(f"resized early map {vres.shape} does not match {x.shape}")
    n = hx * wx
    vf = T.reshape(vres, (n, c))
    xf = T.reshape(x, (n, c))
    z = attend(T.matmul(vf, params.affinity), xf)
    return T.reshape(z, (hx, wx, c))


@dataclass
class GateParams:
    """1x1 conv + bias feeding a sigmoid gate."""

    weight: Tensor   # (1, 1, c, c)
    bias: Tensor     # (c,)

    def __post_init__(self):
        if self.weight.rank != 4 or self.weight.shape[:2] != (1, 1):
            raise ShapeError(f"gate weight must be (1,1,c,c), got {self.weight.shape}")


def gate(z: Tensor, params: GateParams) -> Tensor:
    """Elementwise sigmoid gate: sigmoid(conv1x1(z) + b) * z."""
    f = T.sigmoid(conv2d(z, params.weight, params.bias, stride=1))
    return T.mul(f, z)

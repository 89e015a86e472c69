"""Neural-net operations on (h, w, c) feature maps.

Convolutions use odd kernels with symmetric zero padding of (k-1)//2 per
side, so spatial extent maps as ceil(h/stride) for the strides used here.
No forward builds a whole patch or affinity matrix: conv2d copies its
strided input windows a band of output rows at a time into one reused
buffer and matmuls each band into the output, and attend takes its
affinity and row softmax a block of rows at a time. Either scratch holds at
most _BLOCK_ELEMS floats; a constant input gets no dx. On a tape an op
keeps its inputs and output, not its scratch: backward rebuilds the whole
patch matrix or softmax once from the kept inputs.
"""

from __future__ import annotations

import functools

import numpy as np

from .tensor import ShapeError, Tensor, _trace

_BLOCK_ELEMS = 1 << 17   # float64 elements (1 MB) of one forward band or block


class EmptyRegionError(ValueError):
    """A pooling region contains no pixels."""


def _rows_per_block(n_rows: int, row_elems: int) -> int:
    """Rows of row_elems floats that fit one _BLOCK_ELEMS block: at least
    one, at most n_rows."""
    return max(1, min(n_rows, _BLOCK_ELEMS // row_elems))


def _softmax_rows_into(q: np.ndarray, xt: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row softmax of q @ xt, max-shifted per row, computed in out."""
    np.matmul(q, xt, out=out)
    out -= out.max(axis=1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def attend(q: Tensor, x: Tensor) -> Tensor:
    """Softmax attention: row softmax of q x^T, times x; (n,c), (m,c) -> (n,c).

    Output rows are convex combinations of the rows of x. The forward runs
    in blocks of rows, so the (n, m) affinity never exists whole.
    """
    if q.rank != 2 or x.rank != 2 or q.shape[1] != x.shape[1]:
        raise ShapeError(f"attend needs (n,c) and (m,c) operands, got {q.shape}, {x.shape}")
    qd, xd = q.data, x.data
    n, m = qd.shape[0], xd.shape[0]
    xt = xd.T.copy()
    out = np.empty(qd.shape)
    rows = _rows_per_block(n, m)
    buf = np.empty((rows, m))
    for r0 in range(0, n, rows):
        s = _softmax_rows_into(qd[r0:r0 + rows], xt, buf[:min(rows, n - r0)])
        np.matmul(s, xd, out=out[r0:r0 + rows])

    def backward(g):
        # The softmax is rebuilt, not kept: it is n x m.
        s = _softmax_rows_into(qd, xt, np.empty((n, m)))
        ds = g @ xd.T
        # da_ij = s_ij * (ds_ij - sum_k ds_ik s_ik)
        da = s * (ds - (ds * s).sum(axis=1, keepdims=True))
        return (da @ xt.T, s.T @ g + (qd.T @ da).T)

    return _trace(out, (q, x), backward)


def _conv_geometry(h: int, w: int, kh: int, kw: int, stride: int):
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv kernel extents must be odd, got {kh}x{kw}")
    if stride < 1:
        raise ShapeError(f"stride must be positive, got {stride}")
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (w + 2 * pw - kw) // stride + 1
    return ph, pw, oh, ow


def _windows(x: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """(oh, ow, kh, kw, c) read-only strided window view of the (h, w, c)
    input zero-padded by (k-1)//2 per side."""
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xp = x
    if ph or pw:
        h, w, c = x.shape
        xp = np.zeros((h + 2 * ph, w + 2 * pw, c), dtype=np.float64)
        xp[ph:ph + h, pw:pw + w, :] = x
    s0, s1, s2 = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (oh, ow, kh, kw, xp.shape[2]), (s0 * stride, s1 * stride, s0, s1, s2),
        writeable=False)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """(h, w, c) input -> (oh*ow, kh*kw*c) patch matrix: the window view
    copied once by the reshape (1x1 stride 1: no copy at all)."""
    return _windows(x, kh, kw, stride, oh, ow).reshape(oh * ow, -1)


def _col2im(dcols: np.ndarray, hp: int, wp: int, c: int, kh: int, kw: int,
            stride: int, oh: int, ow: int) -> np.ndarray:
    """Adjoint of _im2col's patch gather: scatter-add patch gradients back to
    the (hp, wp, c) padded input."""
    dxp = np.zeros((hp, wp, c), dtype=np.float64)
    d = dcols.reshape(oh, ow, kh, kw, c)
    for i in range(kh):
        for j in range(kw):
            dxp[i:i + oh * stride:stride, j:j + ow * stride:stride, :] += d[:, :, i, j, :]
    return dxp


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None, stride: int = 1) -> Tensor:
    """2-D convolution (cross-correlation), (h,w,cin) -> (oh,ow,cout).

    kernel is (kh, kw, cin, cout); bias, when given, is (cout,) added per
    output channel.
    """
    if x.rank != 3 or kernel.rank != 4:
        raise ShapeError(f"conv2d: need (h,w,c) input and rank-4 kernel, got {x.shape}, {kernel.shape}")
    h, w, cin = x.shape
    kh, kw, kcin, cout = kernel.shape
    if kcin != cin:
        raise ShapeError(f"conv2d: kernel expects {kcin} input channels, input has {cin}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} does not match {cout} output channels")
    ph, pw, oh, ow = _conv_geometry(h, w, kh, kw, stride)

    xd = x.data
    k = kh * kw * cin
    wmat = kernel.data.reshape(k, cout)
    out = np.empty((oh, ow, cout))
    out_flat = out.reshape(oh * ow, cout)
    if kh == kw == stride == 1:   # the input is its own patch matrix
        np.matmul(xd.reshape(oh * ow, cin), wmat, out=out_flat)
    else:
        win = _windows(xd, kh, kw, stride, oh, ow)
        rows = _rows_per_block(oh, ow * k)
        buf = np.empty((rows * ow, k))
        for r0 in range(0, oh, rows):
            band = buf[:min(rows, oh - r0) * ow]
            band.reshape(-1, ow, kh, kw, cin)[...] = win[r0:r0 + rows]
            np.matmul(band, wmat, out=out_flat[r0 * ow:r0 * ow + len(band)])
    if bias is not None:
        out_flat += bias.data

    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    x_needs_grad = x.requires_grad

    def backward(g):
        gf = g.reshape(oh * ow, cout)
        # The patch matrix is rebuilt, not kept: it is kh*kw times the input.
        dw = (_im2col(xd, kh, kw, stride, oh, ow).T @ gf).reshape(kh, kw, cin, cout)
        dx = None   # a constant input, such as the frame, gets no gradient
        if x_needs_grad:
            hp, wp = h + 2 * ph, w + 2 * pw
            dx = _col2im(gf @ wmat.T, hp, wp, cin, kh, kw, stride, oh, ow)[ph:hp - ph, pw:wp - pw]
        if bias is None:
            return (dx, dw)
        return (dx, dw, gf.sum(axis=0))

    return _trace(out, inputs, backward)


def depthwise_conv2d(x: Tensor, filters: Tensor) -> Tensor:
    """Per-channel 3x3 convolution at stride 1, no bias.

    filters is (3, 3, c): one spatial filter per input channel, applied to
    that channel only.
    """
    if x.rank != 3 or filters.rank != 3:
        raise ShapeError(f"depthwise_conv2d: got {x.shape}, {filters.shape}")
    h, w, c = x.shape
    kh, kw, fc = filters.shape
    if fc != c:
        raise ShapeError(f"depthwise_conv2d: {fc} filters for {c} channels")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"depthwise kernel extents must be odd, got {kh}x{kw}")
    ph, pw = (kh - 1) // 2, (kw - 1) // 2

    xp = np.pad(x.data, ((ph, ph), (pw, pw), (0, 0)))
    fd = filters.data
    out = np.zeros((h, w, c), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            out += xp[i:i + h, j:j + w, :] * fd[i, j, :]

    def backward(g):
        df = np.empty((kh, kw, c), dtype=np.float64)
        dxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                df[i, j, :] = (xp[i:i + h, j:j + w, :] * g).sum(axis=(0, 1))
                dxp[i:i + h, j:j + w, :] += g * fd[i, j, :]
        dx = dxp[ph:ph + h, pw:pw + w, :] if (ph or pw) else dxp
        return (dx, df)

    return _trace(out, (x, filters), backward)


def mean_hw(x: Tensor) -> Tensor:
    """Mean over the spatial axes, (h,w,c) -> (c,)."""
    if x.rank != 3:
        raise ShapeError(f"mean_hw needs rank 3, got {x.shape}")
    h, w, _ = x.shape
    n = h * w

    def backward(g):
        return (np.broadcast_to(g / n, x.shape).copy(),)

    return _trace(x.data.mean(axis=(0, 1)), (x,), backward)


def masked_avg_pool(x: Tensor, mask: np.ndarray) -> Tensor:
    """Average of x over pixels where mask is nonzero, (h,w,c) -> (c,).

    The mask is a constant (no gradient flows into it). An all-zero mask is
    an empty region and is rejected.
    """
    if x.rank != 3:
        raise ShapeError(f"masked_avg_pool needs rank 3, got {x.shape}")
    m = np.asarray(mask, dtype=np.float64)
    if m.shape != x.shape[:2]:
        raise ShapeError(f"mask shape {m.shape} does not match spatial {x.shape[:2]}")
    total = float(m.sum())
    if total == 0.0:
        raise EmptyRegionError("masked_avg_pool: mask selects no pixels")
    out = (x.data * m[:, :, None]).sum(axis=(0, 1)) / total

    def backward(g):
        return (m[:, :, None] * (g / total),)

    return _trace(out, (x,), backward)


@functools.cache
def _up2_matrix(n: int) -> np.ndarray:
    """Cached, read-only (2n, n) half-pixel-center 2x linear interpolation
    weights along one axis; edge samples clamp to the border, so every row sums to 1."""
    src = np.clip((np.arange(2 * n) + 0.5) / 2.0 - 0.5, 0.0, n - 1.0)
    i0 = np.minimum(np.floor(src).astype(np.int64), max(n - 2, 0))
    rows, t = np.arange(2 * n), src - i0
    m = np.zeros((2 * n, n))
    m[rows, i0] = 1.0 - t
    m[rows, np.minimum(i0 + 1, n - 1)] += t
    m.flags.writeable = False
    return m


def bilinear_upsample_x2(x: Tensor) -> Tensor:
    """Bilinear 2x upsampling with half-pixel centers, (h,w,c) -> (2h,2w,c).

    Edge samples clamp to the border, so constant maps stay constant.
    """
    if x.rank != 3:
        raise ShapeError(f"bilinear_upsample_x2 needs rank 3, got {x.shape}")
    h, w, c = x.shape
    mh, mw = _up2_matrix(h), _up2_matrix(w)
    # Bilinear is separable: rows first, then columns, each one matmul.
    rows = (mh @ x.data.reshape(h, w * c)).reshape(2 * h, w, c)
    out = mw @ rows

    def backward(g):
        drows = (mw.T @ g).reshape(2 * h, w * c)
        return ((mh.T @ drows).reshape(h, w, c),)

    return _trace(out, (x,), backward)


def bce_loss(logit: Tensor, target: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of sigmoid(z) over all pixels, on the logit z:
    mean(softplus(z) - t z), finite with gradient (sigmoid(z) - t) / n at any
    z, however saturated. Targets t are a constant array in [0, 1]."""
    t = np.asarray(target, dtype=np.float64)
    if t.shape != logit.shape:
        raise ShapeError(f"bce_loss: target shape {t.shape} vs logit {logit.shape}")
    z = logit.data
    softplus = np.logaddexp(0.0, z)

    def backward(g):
        # exp(z - softplus(z)) is sigmoid(z); its exponent is never positive.
        return (float(g) * (np.exp(z - softplus) - t) / t.size,)

    return _trace(np.asarray(float(np.mean(softplus - t * z))), (logit,), backward)

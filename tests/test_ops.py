"""Feature-map operations: sliding-window, summation, and adjoint oracles."""

import numpy as np
import pytest

from salattn import ops
from salattn import tensor as T
from salattn.model import SaliencyModel
from salattn.ops import (EmptyRegionError, _im2col, _up2_matrix, attend, bce_loss,
                         bilinear_upsample_x2, conv2d, depthwise_conv2d,
                         masked_avg_pool, mean_hw)
from salattn.tensor import GradTape, ShapeError


def conv_reference(x, k, bias=None, stride=1):
    """Direct sliding-window cross-correlation with zero padding."""
    h, w, cin = x.shape
    kh, kw, _, cout = k.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (w + 2 * pw - kw) // stride + 1
    xp = np.pad(x, ((ph, ph), (pw, pw), (0, 0)))
    out = np.zeros((oh, ow, cout))
    for oi in range(oh):
        for oj in range(ow):
            patch = xp[oi * stride:oi * stride + kh, oj * stride:oj * stride + kw, :]
            for co in range(cout):
                out[oi, oj, co] = np.sum(patch * k[:, :, :, co])
    if bias is not None:
        out += bias
    return out


def attend_reference(q, x):
    """Whole-matrix softmax_rows(q x^T) x."""
    a = q @ x.T
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)) @ x


def record_blocks(monkeypatch):
    """Spy on ops._rows_per_block: a list that collects (n_rows, row_elems,
    rows per block) of every banded conv and attend call."""
    calls, inner = [], ops._rows_per_block

    def spy(n_rows, row_elems):
        rows = inner(n_rows, row_elems)
        calls.append((n_rows, row_elems, rows))
        return rows

    monkeypatch.setattr(ops, "_rows_per_block", spy)
    return calls


# ---------------------------------------------------------------------------
# attend: row softmax (with x the identity, q x^T = q and s x = s exactly)


def softmax_rows(m):
    return attend(m, T.constant(np.eye(m.shape[1])))


def test_softmax_uniform_row():
    out = softmax_rows(T.constant(np.zeros((1, 4)))).data
    assert np.array_equal(out, np.full((1, 4), 0.25))


def test_softmax_large_values_stable():
    with np.errstate(over="raise"):
        out = softmax_rows(T.constant(np.array([[1000.0, 0.0]]))).data
    assert out[0, 0] >= 1.0 - 1e-12
    assert out[0, 1] <= 1e-300


def test_softmax_direct_formula():
    row = np.array([[1.0, 2.0, 3.0]])
    out = softmax_rows(T.constant(row)).data
    ref = np.exp(row) / np.exp(row).sum()
    assert np.max(np.abs(out - ref)) <= 1e-14


def test_softmax_rows_sum_and_shift_invariance():
    rng = np.random.default_rng(51)
    m = rng.standard_normal((5, 7)) * 4.0
    s = softmax_rows(T.constant(m)).data
    assert np.max(np.abs(s.sum(axis=1) - 1.0)) <= 1e-12
    shifted = softmax_rows(T.constant(m + rng.standard_normal((5, 1)))).data
    assert np.max(np.abs(s - shifted)) <= 1e-12


def test_softmax_gradient_full_jacobian():
    # ds_ij/dm_ik = s_ij (delta_jk - s_ik), contracted per row with upstream G
    rng = np.random.default_rng(53)
    m = T.parameter(rng.standard_normal((3, 4)))
    g = rng.standard_normal((3, 4))
    with GradTape() as tape:
        loss = T.sum_all(T.mul(softmax_rows(m), T.constant(g)))
    (dm,) = tape.gradient(loss, [m])
    e = np.exp(m.data - m.data.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    ref = np.zeros_like(dm)
    for i in range(3):
        for k in range(4):
            for j in range(4):
                ref[i, k] += g[i, j] * s[i, j] * ((1.0 if j == k else 0.0) - s[i, k])
    assert np.max(np.abs(dm - ref)) <= 1e-13


@pytest.mark.parametrize("side", [8, 17, 25, 32])
def test_attend_blocked_forward_matches_whole_matrix(side, monkeypatch):
    """Grids of 64 to 1024 positions at the model's width 32, at the default
    _BLOCK_ELEMS (one block up to 512 positions, then several) and cut to 7
    rows per block, which leaves a partial last block on every grid. A
    block's q x^T matmul may round in other last bits than the whole
    matrix's (BLAS picks its kernel by row count), hence 1e-12 relative."""
    n = side * side
    rng = np.random.default_rng(71 + side)
    q = rng.standard_normal((n, 32)) * 0.3
    x = np.abs(rng.standard_normal((n, 32)))
    ref = attend_reference(q, x)
    calls = record_blocks(monkeypatch)
    for block in (ops._BLOCK_ELEMS, 7 * n):
        monkeypatch.setattr(ops, "_BLOCK_ELEMS", block)
        out = attend(T.constant(q), T.constant(x)).data
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert [rows for _, _, rows in calls] == [min(n, (1 << 17) // n), 7]
    assert n % 7 != 0


def test_attend_one_block_is_the_unblocked_chain_bitwise():
    """At the 64 positions of a 64x64 frame the forward is one block, and its
    output and taped gradients are, bit for bit, those of the chain the
    co-attention ran as separate taped ops: matmul(q, transpose(x)) with the
    transpose copied, row softmax, matmul(s, x), each op's backward in
    reverse order, and x's two gradient contributions summed."""
    rng = np.random.default_rng(73)
    qd = rng.standard_normal((64, 32))
    xd = rng.standard_normal((64, 32))
    g = rng.standard_normal((64, 32))
    q, x = T.parameter(qd), T.parameter(xd)
    with GradTape() as tape:
        z = attend(q, x)
        loss = T.sum_all(T.mul(T.constant(g), z))
    dq, dx = tape.gradient(loss, [q, x])

    xt = xd.T.copy()
    a = qd @ xt
    s = a - a.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=1, keepdims=True)
    assert np.array_equal(z.data, s @ xd)
    ds, dx_sum = g @ xd.T, s.T @ g                  # matmul(s, x)
    da = s * (ds - (ds * s).sum(axis=1, keepdims=True))   # row softmax
    dq_ref, dxt = da @ xt.T, qd.T @ da              # matmul(q, xt)
    assert np.array_equal(dq, dq_ref)
    assert np.array_equal(dx, dx_sum + dxt.T)       # transpose(x)


def test_attend_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        attend(T.constant(np.zeros((4, 3))), T.constant(np.zeros((5, 2))))
    with pytest.raises(ShapeError):
        attend(T.constant(np.zeros((4, 3, 1))), T.constant(np.zeros((5, 3))))


def test_default_model_at_64x64_runs_one_band_and_block(monkeypatch):
    """Every patch-copying conv of the default model (enc1-4, the co-attention
    resize, head1-2) and the co-attention's attend run as one band or block
    on a 64x64 frame, taped or not; so training makes the same BLAS calls as
    a whole-matrix forward, and its bits cannot move with _BLOCK_ELEMS."""
    calls = record_blocks(monkeypatch)
    m = SaliencyModel(seed=1)
    frame = np.random.default_rng(75).random((64, 64, 3))
    m.forward(frame)
    with GradTape():
        m.forward(frame)
    assert len(calls) == 16
    assert all(rows == n for n, _, rows in calls)
    assert calls.count((64, 64, 64)) == 2   # attend at n = 64, rows of 64


# ---------------------------------------------------------------------------
# conv2d


def test_conv_1x1_channel_identity():
    rng = np.random.default_rng(61)
    x = rng.standard_normal((4, 5, 3))
    k = np.eye(3).reshape(1, 1, 3, 3)
    out = conv2d(T.constant(x), T.constant(k)).data
    assert np.max(np.abs(out - x)) == 0.0


def test_conv_zero_kernel():
    rng = np.random.default_rng(62)
    x = rng.standard_normal((4, 4, 2))
    out = conv2d(T.constant(x), T.constant(np.zeros((3, 3, 2, 5)))).data
    assert np.array_equal(out, np.zeros((4, 4, 5)))


def test_conv_box_filter_on_constant():
    """Constant 5 input under a 3x3 mean kernel: interior stays 5, the border
    loses mass to the zero padding."""
    x = np.full((5, 5, 1), 5.0)
    k = np.full((3, 3, 1, 1), 1.0 / 9.0)
    out = conv2d(T.constant(x), T.constant(k)).data
    ref = conv_reference(x, k)
    assert np.max(np.abs(out - ref)) <= 1e-12
    assert np.max(np.abs(out[1:-1, 1:-1, 0] - 5.0)) <= 1e-12
    assert abs(out[0, 0, 0] - 5.0 * 4.0 / 9.0) <= 1e-12
    assert abs(out[0, 2, 0] - 5.0 * 6.0 / 9.0) <= 1e-12


def test_conv_random_against_sliding_window(monkeypatch):
    """Kernels 1 and 3 at strides 1, 2 and 4 (co-attention's resize), with
    bias, on even and odd extents; first at the default _BLOCK_ELEMS, one
    band each, then with it cut to two output rows of patches (one where
    the output has two rows), so every conv that copies patches runs in
    several bands, those of odd output height with a partial last band. A
    1x1 stride-1 conv is one matmul on its input either way."""
    rng = np.random.default_rng(63)
    calls = record_blocks(monkeypatch)
    for banded in (False, True):
        calls.clear()
        for k_side in (1, 3):
            for stride in (1, 2, 4):
                for h, w in ((6, 8), (7, 5), (9, 9)):
                    x = rng.standard_normal((h, w, 3))
                    k = rng.standard_normal((k_side, k_side, 3, 4))
                    b = rng.standard_normal(4)
                    oh, ow = -(-h // stride), -(-w // stride)
                    if banded:
                        monkeypatch.setattr(ops, "_BLOCK_ELEMS",
                                            (2 if oh > 2 else 1) * ow * k_side * k_side * 3)
                    out = conv2d(T.constant(x), T.constant(k), T.constant(b), stride=stride).data
                    ref = conv_reference(x, k, b, stride)
                    assert out.shape == ref.shape == (oh, ow, 4)
                    assert np.max(np.abs(out - ref)) <= 1e-12
        assert len(calls) == 15   # every case but the three 1x1 stride-1 ones
        bands = [-(-n // rows) for n, _, rows in calls]
        partial = sum(n % rows != 0 for n, _, rows in calls)
        assert (min(bands), partial) == ((2, 8) if banded else (1, 0))
    assert conv2d(T.constant(rng.standard_normal((5, 7, 2))),
                  T.constant(rng.standard_normal((3, 3, 2, 2))), stride=2).shape == (3, 4, 2)


def test_conv_kernel_gradient_rebuilds_patch_matrix():
    """The backward keeps no patch matrix (the tape keeps the input instead)
    and its kernel gradient is, bit for bit, the rebuilt patch matrix's
    transpose times the output gradient, for every case of the oracle test
    above; the rebuilt patches are the padded input's sliding windows."""
    rng = np.random.default_rng(65)
    for k_side in (1, 3):
        for stride in (1, 2, 4):
            for h, w in ((6, 8), (7, 5), (9, 9)):
                x = rng.standard_normal((h, w, 3))
                k = T.parameter(rng.standard_normal((k_side, k_side, 3, 4)))
                with GradTape() as tape:
                    out = conv2d(T.constant(x), k, T.parameter(rng.standard_normal(4)),
                                 stride=stride)
                (_, _, backward), = tape._records
                held = [c.cell_contents for c in backward.__closure__]
                assert all(np.shares_memory(a, x) or np.shares_memory(a, k.data)
                           for a in held if isinstance(a, np.ndarray))
                oh, ow, _ = out.shape
                g = rng.standard_normal(out.shape)
                cols = _im2col(x, k_side, k_side, stride, oh, ow)
                p = k_side // 2
                xp = np.pad(x, ((p, p), (p, p), (0, 0)))
                windows = [xp[i * stride:i * stride + k_side, j * stride:j * stride + k_side].ravel()
                           for i in range(oh) for j in range(ow)]
                assert np.array_equal(cols, np.array(windows))
                want = (cols.T @ g.reshape(oh * ow, 4)).reshape(k.shape)
                assert np.array_equal(backward(g)[1], want)


def test_conv_constant_input_gets_no_gradient():
    """The recorded backward of a conv on a constant input returns None for
    the input, and the same kernel and bias gradients, bit for bit, as when
    the input requires a gradient."""
    rng = np.random.default_rng(64)
    x = rng.standard_normal((7, 6, 3))
    k = T.parameter(rng.standard_normal((3, 3, 3, 4)))
    b = T.parameter(rng.standard_normal(4))
    g = rng.standard_normal((4, 3, 4))
    grads = []
    for x_t in (T.constant(x), T.parameter(x)):
        with GradTape() as tape:
            conv2d(x_t, k, b, stride=2)
        (_, inputs, backward), = tape._records
        assert inputs[0] is x_t
        grads.append(backward(g))
    (dx_const, dk_const, db_const), (dx, dk, db) = grads
    assert dx_const is None
    assert dx.shape == x.shape
    assert np.array_equal(dk_const, dk) and np.array_equal(db_const, db)


def test_conv_rejects_bad_arguments():
    x = T.constant(np.zeros((4, 4, 2)))
    with pytest.raises(ShapeError):
        conv2d(x, T.constant(np.zeros((2, 2, 2, 3))))  # even kernel
    with pytest.raises(ShapeError):
        conv2d(x, T.constant(np.zeros((3, 3, 5, 3))))  # channel mismatch
    with pytest.raises(ShapeError):
        conv2d(x, T.constant(np.zeros((3, 3, 2, 3))), T.constant(np.zeros(4)))


def test_conv_input_gradient_is_adjoint():
    # bias-free conv is linear in x: <G, conv(x)> = <adjoint(G), x> with the
    # tape gradient playing the adjoint
    rng = np.random.default_rng(67)
    x = T.parameter(rng.standard_normal((5, 6, 2)))
    k = T.constant(rng.standard_normal((3, 3, 2, 3)))
    g = rng.standard_normal((5, 6, 3))
    with GradTape() as tape:
        out = conv2d(x, k)
        loss = T.sum_all(T.mul(out, T.constant(g)))
    (dx,) = tape.gradient(loss, [x])
    assert abs(np.sum(g * out.data) - np.sum(dx * x.data)) <= 1e-10


def test_conv_kernel_gradient_closed_form():
    # d/dk sum(conv(x, k)) = per-tap patch sums, computed here by brute force
    rng = np.random.default_rng(68)
    x = T.constant(rng.standard_normal((4, 4, 2)))
    k = T.parameter(rng.standard_normal((3, 3, 2, 1)))
    with GradTape() as tape:
        loss = T.sum_all(conv2d(x, k))
    (dk,) = tape.gradient(loss, [k])
    xp = np.pad(x.data, ((1, 1), (1, 1), (0, 0)))
    ref = np.zeros((3, 3, 2, 1))
    for i in range(3):
        for j in range(3):
            ref[i, j, :, 0] = xp[i:i + 4, j:j + 4, :].sum(axis=(0, 1))
    assert np.max(np.abs(dk - ref)) <= 1e-12


# ---------------------------------------------------------------------------
# depthwise_conv2d


def test_depthwise_zero_input():
    f = T.constant(np.random.default_rng(0).standard_normal((3, 3, 4)))
    out = depthwise_conv2d(T.constant(np.zeros((5, 5, 4))), f).data
    assert np.array_equal(out, np.zeros((5, 5, 4)))


def test_depthwise_delta_filter_is_identity():
    rng = np.random.default_rng(71)
    x = rng.standard_normal((6, 4, 3))
    f = np.zeros((3, 3, 3))
    f[1, 1, :] = 1.0
    out = depthwise_conv2d(T.constant(x), T.constant(f)).data
    assert np.max(np.abs(out - x)) == 0.0


def test_depthwise_sliding_window_oracle():
    rng = np.random.default_rng(73)
    x = rng.standard_normal((5, 5, 3))
    f = rng.standard_normal((3, 3, 3))
    out = depthwise_conv2d(T.constant(x), T.constant(f)).data
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    ref = np.zeros_like(x)
    for oi in range(5):
        for oj in range(5):
            for ch in range(3):
                ref[oi, oj, ch] = np.sum(xp[oi:oi + 3, oj:oj + 3, ch] * f[:, :, ch])
    assert np.max(np.abs(out - ref)) <= 1e-12
    with pytest.raises(ShapeError):
        depthwise_conv2d(T.constant(x), T.constant(np.zeros((3, 3, 5))))


def test_depthwise_adjoint_identity():
    rng = np.random.default_rng(79)
    x = T.parameter(rng.standard_normal((4, 6, 2)))
    f = T.constant(rng.standard_normal((3, 3, 2)))
    g = rng.standard_normal((4, 6, 2))
    with GradTape() as tape:
        out = depthwise_conv2d(x, f)
        loss = T.sum_all(T.mul(out, T.constant(g)))
    (dx,) = tape.gradient(loss, [x])
    assert abs(np.sum(g * out.data) - np.sum(dx * x.data)) <= 1e-11


# ---------------------------------------------------------------------------
# pooling


def test_mean_hw():
    rng = np.random.default_rng(81)
    x = T.parameter(rng.standard_normal((3, 4, 2)))
    out = mean_hw(x)
    assert np.max(np.abs(out.data - x.data.mean(axis=(0, 1)))) <= 1e-15
    with GradTape() as tape:
        loss = T.sum_all(mean_hw(x))
    (dx,) = tape.gradient(loss, [x])
    assert np.max(np.abs(dx - 1.0 / 12.0)) <= 1e-15


def test_masked_pool_all_ones_is_global_mean():
    rng = np.random.default_rng(83)
    x = rng.standard_normal((4, 4, 3))
    out = masked_avg_pool(T.constant(x), np.ones((4, 4))).data
    assert np.max(np.abs(out - x.mean(axis=(0, 1)))) <= 1e-13


def test_masked_pool_single_pixel():
    rng = np.random.default_rng(84)
    x = rng.standard_normal((4, 4, 3))
    m = np.zeros((4, 4))
    m[2, 1] = 1.0
    out = masked_avg_pool(T.constant(x), m).data
    assert np.array_equal(out, x[2, 1, :])


def test_masked_pool_direct_summation():
    rng = np.random.default_rng(85)
    x = rng.standard_normal((4, 4, 2))
    m = (rng.random((4, 4)) < 0.5).astype(np.float64)
    if m.sum() == 0:
        m[0, 0] = 1.0
    out = masked_avg_pool(T.constant(x), m).data
    ref = np.zeros(2)
    for i in range(4):
        for j in range(4):
            ref += m[i, j] * x[i, j, :]
    ref /= m.sum()
    assert np.max(np.abs(out - ref)) <= 1e-13


def test_masked_pool_empty_region():
    with pytest.raises(EmptyRegionError):
        masked_avg_pool(T.constant(np.ones((3, 3, 2))), np.zeros((3, 3)))


def test_masked_pool_gradient():
    rng = np.random.default_rng(86)
    x = T.parameter(rng.standard_normal((3, 3, 2)))
    m = np.zeros((3, 3))
    m[0, 0] = m[2, 2] = 1.0
    c = rng.standard_normal(2)
    with GradTape() as tape:
        loss = T.sum_all(T.mul(masked_avg_pool(x, m), T.constant(c)))
    (dx,) = tape.gradient(loss, [x])
    ref = m[:, :, None] * (c / 2.0)
    assert np.max(np.abs(dx - ref)) <= 1e-15


# ---------------------------------------------------------------------------
# bilinear upsampling


def upsample_reference(x):
    """Per-output-pixel bilinear evaluation with half-pixel centers."""
    h, w, c = x.shape
    out = np.zeros((2 * h, 2 * w, c))
    for oi in range(2 * h):
        for oj in range(2 * w):
            sy = min(max((oi + 0.5) / 2.0 - 0.5, 0.0), h - 1.0)
            sx = min(max((oj + 0.5) / 2.0 - 0.5, 0.0), w - 1.0)
            y0 = min(int(np.floor(sy)), h - 2) if h > 1 else 0
            x0 = min(int(np.floor(sx)), w - 2) if w > 1 else 0
            ty, tx = sy - y0, sx - x0
            y1 = y0 + 1 if h > 1 else 0
            x1 = x0 + 1 if w > 1 else 0
            out[oi, oj] = ((1 - ty) * (1 - tx) * x[y0, x0] + (1 - ty) * tx * x[y0, x1]
                           + ty * (1 - tx) * x[y1, x0] + ty * tx * x[y1, x1])
    return out


def test_upsample_constant_preserved():
    out = bilinear_upsample_x2(T.constant(np.full((3, 5, 2), 3.0))).data
    assert np.max(np.abs(out - 3.0)) <= 1e-15


def test_upsample_1x1():
    out = bilinear_upsample_x2(T.constant(np.array([[[7.0]]]))).data
    assert np.array_equal(out, np.full((2, 2, 1), 7.0))


def test_upsample_2x2_ramp_closed_form():
    x = np.array([[[0.0], [1.0]], [[2.0], [3.0]]])
    out = bilinear_upsample_x2(T.constant(x)).data
    ref = upsample_reference(x)
    assert out.shape == (4, 4, 1)
    assert np.max(np.abs(out - ref)) <= 1e-14
    # interior sample (1,1) mixes all four corners at weights 3/4,1/4 per axis
    want = 0.75 * (0.75 * 0 + 0.25 * 1) + 0.25 * (0.75 * 2 + 0.25 * 3)
    assert abs(out[1, 1, 0] - want) <= 1e-15


def test_upsample_random_oracle():
    rng = np.random.default_rng(91)
    for h in range(1, 10):
        for w in range(1, 10):
            x = rng.standard_normal((h, w, 2))
            out = bilinear_upsample_x2(T.constant(x)).data
            assert np.max(np.abs(out - upsample_reference(x))) <= 1e-13


def test_upsample_matrix_is_cached_read_only():
    # Every upsample of an extent shares one matrix, so writing to it must fail.
    m = _up2_matrix(5)
    assert _up2_matrix(5) is m
    with pytest.raises(ValueError):
        m[0, 0] = 2.0


def test_upsample_adjoint_identity():
    rng = np.random.default_rng(93)
    x = T.parameter(rng.standard_normal((4, 3, 2)))
    g = rng.standard_normal((8, 6, 2))
    with GradTape() as tape:
        out = bilinear_upsample_x2(x)
        loss = T.sum_all(T.mul(out, T.constant(g)))
    (dx,) = tape.gradient(loss, [x])
    assert abs(np.sum(g * out.data) - np.sum(dx * x.data)) <= 1e-11


# ---------------------------------------------------------------------------
# binary cross-entropy


def test_bce_half_is_ln2():
    rng = np.random.default_rng(95)
    t = (rng.random((6, 6)) < 0.5).astype(np.float64)
    loss = bce_loss(T.constant(np.zeros((6, 6))), t).item()   # sigmoid(0) = 0.5
    assert abs(loss - np.log(2.0)) <= 1e-15


def test_bce_perfect_prediction_tiny():
    t = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = bce_loss(T.constant(40.0 * (2.0 * t - 1.0)), t).item()
    assert 0.0 <= loss <= 1e-17   # log1p(exp(-40)) = 4.2e-18 per pixel at most


def test_bce_2x2_formula_oracle():
    p = np.array([[0.9, 0.1], [0.8, 0.2]])
    t = np.array([[1.0, 0.0], [1.0, 0.0]])
    loss = bce_loss(T.constant(np.log(p / (1.0 - p))), t).item()
    ref = -(np.log(0.9) + np.log(0.9) + np.log(0.8) + np.log(0.8)) / 4.0
    assert abs(loss - ref) <= 1e-14


def test_bce_nonnegative():
    rng = np.random.default_rng(97)
    for _ in range(20):
        z = rng.uniform(-10.0, 10.0, (3, 3))
        t = (rng.random((3, 3)) < 0.5).astype(np.float64)
        assert bce_loss(T.constant(z), t).item() >= 0.0


def test_bce_gradient_interior_and_saturated():
    z = T.parameter(np.array([[np.log(9.0), -np.log(9.0)], [40.0, -40.0]]))
    t = np.array([[1.0, 0.0], [0.0, 1.0]])
    with GradTape() as tape:
        loss = bce_loss(z, t)
    (dz,) = tape.gradient(loss, [z])
    # every pixel follows (sigmoid(z) - t) / n, so a saturated logit with
    # the wrong target still gets about +-1/n and can move back
    assert abs(dz[0, 0] - (0.9 - 1.0) / 4.0) <= 1e-15
    assert abs(dz[0, 1] - (0.1 - 0.0) / 4.0) <= 1e-15
    assert abs(dz[1, 0] - 1.0 / 4.0) <= 1e-15
    assert abs(dz[1, 1] + 1.0 / 4.0) <= 1e-15
    with pytest.raises(ShapeError):
        bce_loss(z, np.zeros((3, 3)))

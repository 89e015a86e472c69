"""Tensor primitives: forward oracles and closed-form gradient contracts."""

import threading
import tracemalloc

import numpy as np
import pytest

from salattn import tensor as T
from salattn.tensor import GradTape, ShapeError, Tensor


def test_matmul_identity():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(T.constant(np.eye(2)), T.constant(b))
    assert np.array_equal(out.data, b)


def test_matmul_zero_annihilator():
    b = np.arange(6.0).reshape(3, 2)
    out = T.matmul(T.constant(np.zeros((3, 3))), T.constant(b))
    assert np.array_equal(out.data, np.zeros((3, 2)))


def test_matmul_triple_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        out = T.matmul(T.constant(a), T.constant(b)).data
        ref = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for t in range(5):
                    ref[i, j] += a[i, t] * b[t, j]
        assert np.max(np.abs(out - ref)) <= 1e-12


def test_matmul_associativity():
    rng = np.random.default_rng(19)
    for _ in range(10):
        a = T.constant(rng.standard_normal((6, 4)))
        b = T.constant(rng.standard_normal((4, 4)))
        c = T.constant(rng.standard_normal((4, 6)))
        left = T.matmul(T.matmul(a, b), c).data
        right = T.matmul(a, T.matmul(b, c)).data
        assert np.max(np.abs(left - right)) <= 1e-10


def test_matmul_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        T.matmul(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        T.matmul(T.constant(np.zeros(3)), T.constant(np.zeros((3, 2))))


def test_elementwise_forward():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    assert np.array_equal(T.add(T.constant(a), T.constant(b)).data, a + b)
    assert np.array_equal(T.sub(T.constant(a), T.constant(b)).data, a - b)
    assert np.array_equal(T.mul(T.constant(a), T.constant(b)).data, a * b)
    assert np.array_equal(T.scale(T.constant(a), -2.5).data, a * -2.5)
    with pytest.raises(ShapeError):
        T.add(T.constant(a), T.constant(b[:2]))


def test_matvec_and_dot_oracles():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 6))
    v = rng.standard_normal(6)
    got = T.matvec(T.constant(m), T.constant(v)).data
    ref = np.array([sum(m[i, j] * v[j] for j in range(6)) for i in range(4)])
    assert np.max(np.abs(got - ref)) <= 1e-12
    u = rng.standard_normal(6)
    assert abs(T.sum_all(T.mul(T.constant(u), T.constant(v))).item() - sum(u * v)) <= 1e-12


def test_transpose_reshape_roundtrip():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 5))
    assert np.array_equal(T.transpose(T.constant(a)).data, a.T)
    r = T.reshape(T.constant(a), (5, 3))
    assert np.array_equal(r.data, a.reshape(5, 3))
    assert np.array_equal(T.reshape(r, (3, 5)).data, a)


def test_concat_and_stack_rows():
    a = np.arange(6.0).reshape(2, 3)
    b = np.arange(6.0, 12.0).reshape(2, 3)
    out = T.concat([T.constant(a), T.constant(b)], axis=1)
    assert np.array_equal(out.data, np.concatenate([a, b], axis=1))
    rows = T.stack_rows([T.constant(a[0]), T.constant(b[0])])
    assert np.array_equal(rows.data, np.stack([a[0], b[0]]))
    with pytest.raises(ShapeError):
        T.stack_rows([T.constant(a[0]), T.constant(np.zeros(4))])


def test_relu_and_sigmoid_forward():
    x = np.array([-2.0, -0.5, 0.5, 3.0])
    assert np.array_equal(T.relu(T.constant(x)).data, np.maximum(x, 0.0))
    s = T.sigmoid(T.constant(x)).data
    assert np.max(np.abs(s - 1.0 / (1.0 + np.exp(-x)))) <= 1e-15


def test_sigmoid_saturation_no_overflow():
    # sign-split evaluation: huge magnitudes stay finite with no warnings
    with np.errstate(over="raise"):
        hi = T.sigmoid(T.constant(np.array([800.0]))).data
        lo = T.sigmoid(T.constant(np.array([-800.0]))).data
    assert hi[0] == 1.0
    assert 0.0 <= lo[0] < 1e-300


def test_logsumexp_value_and_stability():
    v = np.array([1.0, 2.0, 3.0])
    got = T.logsumexp(T.constant(v)).item()
    assert abs(got - np.log(np.sum(np.exp(v)))) <= 1e-14
    big = T.logsumexp(T.constant(np.array([1000.0, 1000.5]))).item()
    assert abs(big - (1000.5 + np.log1p(np.exp(-0.5)))) <= 1e-12
    with pytest.raises(ShapeError):
        T.logsumexp(T.constant(np.zeros((2, 2))))


def test_logsumexp_gradient_is_softmax():
    rng = np.random.default_rng(23)
    for _ in range(5):
        v = T.parameter(rng.standard_normal(7) * 3.0)
        with GradTape() as tape:
            out = T.logsumexp(v)
        (g,) = tape.gradient(out, [v])
        e = np.exp(v.data - np.max(v.data))
        assert np.max(np.abs(g - e / e.sum())) <= 1e-12
        assert abs(g.sum() - 1.0) <= 1e-12


def test_l2_normalize_forward_and_errors():
    v = np.array([3.0, 4.0])
    y = T.l2_normalize(T.constant(v)).data
    assert np.max(np.abs(y - np.array([0.6, 0.8]))) <= 1e-15
    with pytest.raises(ValueError):
        T.l2_normalize(T.constant(np.zeros(3)))
    with pytest.raises(ShapeError):
        T.l2_normalize(T.constant(np.zeros((2, 2))))


def test_l2_normalize_gradient_orthogonal_to_output():
    # dv = (g - y (g.y)) / n lies in the tangent plane of the unit sphere
    rng = np.random.default_rng(29)
    for _ in range(5):
        v = T.parameter(rng.standard_normal(6) + 0.1)
        c = rng.standard_normal(6)
        with GradTape() as tape:
            y = T.l2_normalize(v)
            loss = T.sum_all(T.mul(y, T.constant(c)))
        (g,) = tape.gradient(loss, [v])
        yd = v.data / np.linalg.norm(v.data)
        assert abs(np.dot(g, yd)) <= 1e-12
        n = np.linalg.norm(v.data)
        ref = (c - yd * np.dot(c, yd)) / n
        assert np.max(np.abs(g - ref)) <= 1e-12


def test_matmul_gradient_contract():
    # loss = sum(G * (A @ B)) has dA = G B^T and dB = A^T G
    rng = np.random.default_rng(31)
    a = T.parameter(rng.standard_normal((3, 4)))
    b = T.parameter(rng.standard_normal((4, 2)))
    g = rng.standard_normal((3, 2))
    with GradTape() as tape:
        loss = T.sum_all(T.mul(T.matmul(a, b), T.constant(g)))
    da, db = tape.gradient(loss, [a, b])
    assert np.max(np.abs(da - g @ b.data.T)) <= 1e-12
    assert np.max(np.abs(db - a.data.T @ g)) <= 1e-12


def test_elementwise_gradients_closed_form():
    rng = np.random.default_rng(37)
    a = T.parameter(rng.standard_normal((2, 3)))
    b = T.parameter(rng.standard_normal((2, 3)))
    with GradTape() as tape:
        loss = T.sum_all(T.mul(a, b))
    da, db = tape.gradient(loss, [a, b])
    assert np.array_equal(da, b.data)
    assert np.array_equal(db, a.data)

    with GradTape() as tape:
        loss = T.sum_all(T.scale(T.sub(a, b), 3.0))
    da, db = tape.gradient(loss, [a, b])
    assert np.all(da == 3.0)
    assert np.all(db == -3.0)


def test_transpose_reshape_concat_gradients():
    rng = np.random.default_rng(41)
    a = T.parameter(rng.standard_normal((2, 3)))
    c = rng.standard_normal((3, 2))
    with GradTape() as tape:
        loss = T.sum_all(T.mul(T.transpose(a), T.constant(c)))
    (da,) = tape.gradient(loss, [a])
    assert np.array_equal(da, c.T)

    b = T.parameter(rng.standard_normal((2, 3)))
    w = rng.standard_normal((2, 6))
    with GradTape() as tape:
        cat = T.concat([a, b], axis=1)
        loss = T.sum_all(T.mul(cat, T.constant(w)))
    da, db = tape.gradient(loss, [a, b])
    assert np.array_equal(da, w[:, :3])
    assert np.array_equal(db, w[:, 3:])

    with GradTape() as tape:
        loss = T.sum_all(T.reshape(a, (6,)))
    (da,) = tape.gradient(loss, [a])
    assert np.array_equal(da, np.ones((2, 3)))


def test_gradient_accumulates_over_reuse():
    a = T.parameter(np.array([1.0, -2.0, 3.0]))
    with GradTape() as tape:
        loss = T.sum_all(T.mul(a, a))
    (g,) = tape.gradient(loss, [a])
    assert np.max(np.abs(g - 2.0 * a.data)) <= 1e-15

    with GradTape() as tape:
        loss = T.sum_all(T.add(a, a))
    (g,) = tape.gradient(loss, [a])
    assert np.all(g == 2.0)


def test_gradient_untouched_source_is_zero():
    a = T.parameter(np.ones(3))
    unused = T.parameter(np.ones((2, 2)))
    with GradTape() as tape:
        loss = T.sum_all(a)
    ga, gu = tape.gradient(loss, [a, unused])
    assert np.all(ga == 1.0)
    assert gu.shape == (2, 2)
    assert np.all(gu == 0.0)


def test_gradient_returns_private_writable_arrays():
    """add's backward hands one array to both inputs; each source still gets
    its own writable array, and an intermediate source keeps its gradient."""
    a = T.parameter(np.array([1.0, 2.0]))
    b = T.parameter(np.array([3.0, -4.0]))
    with GradTape() as tape:
        s = T.add(a, b)
        loss = T.sum_all(T.mul(s, s))
    ga, gb, gs = tape.gradient(loss, [a, b, s])
    assert all(g.flags.writeable for g in (ga, gb, gs))
    assert not np.shares_memory(ga, gb)
    assert np.array_equal(gs, 2.0 * s.data)
    ga += 1.0
    assert np.array_equal(gb, 2.0 * s.data)


def test_gradient_holds_few_gradients_at_once():
    """Backward over a chain of 20 same-size ops holds only a few arrays at
    once: an intermediate's gradient is dropped when its record has run.
    Keeping every gradient to the end would hold about 20."""
    x = T.parameter(np.random.default_rng(5).standard_normal((64, 64)))
    with GradTape() as tape:
        y = x
        for i in range(20):
            y = T.relu(y) if i % 2 else T.scale(y, 1.5)
        loss = T.sum_all(y)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tape.gradient(loss, [x])
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 4 * x.data.nbytes


def test_gradient_call_is_repeatable():
    a = T.parameter(np.array([0.3, -1.2]))
    with GradTape() as tape:
        loss = T.sum_all(T.sigmoid(a))
    first = tape.gradient(loss, [a])[0].copy()
    second = tape.gradient(loss, [a])[0]
    assert np.array_equal(first, second)


def test_one_tape_per_thread():
    with GradTape():
        with pytest.raises(RuntimeError):
            with GradTape():
                pass
    # the failed nesting must not corrupt the stack: a fresh tape still works
    a = T.parameter(np.ones(2))
    with GradTape() as tape:
        loss = T.sum_all(a)
    assert np.all(tape.gradient(loss, [a])[0] == 1.0)


def test_ops_outside_tape_record_nothing():
    a = T.parameter(np.array([1.0, 2.0]))
    out = T.sigmoid(a)
    assert not out.requires_grad
    # work done before the tape opens never appears on it
    with GradTape() as tape:
        pass
    (g,) = tape.gradient(T.constant(0.0), [a])
    assert np.all(g == 0.0)


def test_tape_isolated_between_threads():
    """Ops in another thread never land on this thread's tape."""
    a = T.parameter(np.ones(4))
    done = threading.Event()

    def worker():
        for _ in range(50):
            T.sigmoid(a)
        done.set()

    with GradTape() as tape:
        t = threading.Thread(target=worker)
        t.start()
        t.join()
        loss = T.sum_all(T.scale(a, 2.0))
    assert done.is_set()
    assert len(tape._records) == 2  # scale + sum_all only
    (g,) = tape.gradient(loss, [a])
    assert np.all(g == 2.0)


def test_rank_and_scalar_contracts():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2, 2, 2, 2)))
    with pytest.raises(ShapeError):
        T.constant(np.zeros((2, 2))).item()
    assert T.constant(3.5).item() == 3.5
    with GradTape() as tape:
        y = T.mul(T.parameter(np.ones((2, 2))), T.constant(np.ones((2, 2))))
        with pytest.raises(ShapeError):
            tape.gradient(y, [])


def test_ops_do_not_mutate_inputs():
    rng = np.random.default_rng(43)
    a = rng.standard_normal((3, 3))
    keep = a.copy()
    ta = T.parameter(a)
    with GradTape() as tape:
        loss = T.sum_all(T.relu(T.matmul(ta, T.transpose(ta))))
    tape.gradient(loss, [ta])
    assert np.array_equal(ta.data, keep)

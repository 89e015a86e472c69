"""The finite-difference harness: accuracy, negative control, error paths."""

import inspect

import numpy as np
import pytest

from salattn import ops
from salattn import tensor as T
from salattn.attention import DynamicFilterGenerator, self_attention_block
from salattn.gradcheck import (_OP_CASES, COMPOSED_TOL, OP_TOL, GradientCheckError,
                               format_rows, gradient_check, run_suite)


def test_sum_sigmoid_within_1e6():
    rng = np.random.default_rng(251)
    x = T.parameter(rng.uniform(-2.0, 2.0, 10))
    err = gradient_check(lambda ts: T.sum_all(T.sigmoid(ts[0])), [x])
    assert err <= 1e-6


def test_constant_function_error_exactly_zero():
    x = T.parameter(np.ones(5))
    err = gradient_check(lambda ts: T.constant(5.0), [x])
    assert err == 0.0


def test_self_attention_block_within_1e5():
    rng = np.random.default_rng(257)
    x = T.parameter(rng.uniform(-1.0, 1.0, (4, 4, 4)))
    w = T.parameter(rng.uniform(-0.5, 0.5, (4, 36)))
    proj = T.constant(rng.uniform(-1.0, 1.0, (4, 4, 4)))

    def fn(ts):
        out = self_attention_block(ts[0], DynamicFilterGenerator(ts[1]))
        return T.sum_all(T.mul(proj, out))

    assert gradient_check(fn, [x, w]) <= 1e-5


def test_coords_subset_restricts_sweep():
    rng = np.random.default_rng(263)
    x = T.parameter(rng.standard_normal((3, 3)))
    err = gradient_check(lambda ts: T.sum_all(T.mul(ts[0], ts[0])), [x],
                         coords=[(0, 0), (0, 4), (0, 8)])
    assert err <= 1e-8


def test_harness_catches_wrong_backward():
    """Negative control: a 1% bias planted in a backward pass must surface."""
    rng = np.random.default_rng(269)

    def broken_matmul(a, b):
        ad, bd = a.data, b.data
        return T._trace(ad @ bd, (a, b),
                        lambda g: (1.01 * (g @ bd.T), ad.T @ g))

    a = T.parameter(rng.standard_normal((3, 4)))
    b = T.parameter(rng.standard_normal((4, 2)))
    err = gradient_check(lambda ts: T.sum_all(broken_matmul(ts[0], ts[1])), [a, b])
    assert err > 1e-3


def test_non_finite_gradient_aborts_with_location():
    def inf_backward(a):
        return T._trace(np.sum(a.data), (a,),
                        lambda g: (np.full(a.shape, np.inf),))

    x = T.parameter(np.ones(4))
    with pytest.raises(GradientCheckError, match="coordinate"):
        gradient_check(lambda ts: inf_backward(ts[0]), [x])


def test_non_scalar_function_rejected():
    x = T.parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        gradient_check(lambda ts: T.relu(ts[0]), [x])


def test_suite_all_rows_pass():
    rows = run_suite(seed=7)
    assert [r.name for r in rows] == [
        "add", "sub", "mul", "scale", "matmul", "matvec", "transpose", "reshape",
        "concat", "stack_rows", "sum_all", "relu", "sigmoid", "logsumexp",
        "l2_normalize", "attend", "conv2d", "conv2d_stride2", "conv2d_1x1",
        "conv2d_stride4", "depthwise_conv2d", "mean_hw", "masked_avg_pool",
        "bilinear_upsample_x2", "bce_loss", "lightweight_nonlocal", "self_attention_block",
        "coattention", "gate", "infonce_loss", "composed_model"]
    assert rows[-1].name == "composed_model"
    assert rows[-1].tol == COMPOSED_TOL
    for row in rows[:-1]:
        assert row.tol == OP_TOL
    failing = [r.name for r in rows if not r.passed]
    assert failing == []


def test_every_taped_primitive_has_a_suite_row():
    """A public function of tensor or ops that records on the tape (it calls
    _trace, directly or through scale) must be checked by the suite."""
    rows = {name for name, _ in _OP_CASES}
    taped = []
    for mod in (T, ops):
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if fn.__module__ != mod.__name__ or name.startswith("_"):
                continue
            src = inspect.getsource(fn)
            if "_trace(" in src or "scale(" in src:
                taped.append(name)
    assert len(taped) >= 20
    assert sorted(set(taped) - rows) == []


def test_suite_deterministic():
    a = run_suite(seed=11)
    b = run_suite(seed=11)
    assert [(r.name, r.max_err) for r in a] == [(r.name, r.max_err) for r in b]


def test_format_rows_readable():
    rows = run_suite(seed=13)
    text = format_rows(rows)
    lines = text.strip().split("\n")
    assert lines[0].startswith("op")
    assert len(lines) == len(rows) + 1
    assert all(line.endswith("pass") for line in lines[1:])

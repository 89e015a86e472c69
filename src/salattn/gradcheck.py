"""Central-difference verification of every backward pass.

gradient_check runs the function once under a tape for analytic gradients,
then perturbs one input coordinate at a time by +/- h and compares. The
error reported is max over coordinates of |a - f| / max(1, |a|, |f|), so
tiny gradients are compared absolutely and large ones relatively.

run_suite covers each differentiable operation at five seeded points on
small shapes, plus the fully composed model (forward + logit BCE) checked
on a random 20-coordinate parameter subset at a looser tolerance, since a
dozen stacked nonlinear stages amplify finite-difference truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention, contrastive, model, ops
from . import tensor as T
from .tensor import GradTape, Tensor

DEFAULT_STEP = 1e-6
OP_TOL = 1e-5
COMPOSED_TOL = 1e-4


class GradientCheckError(RuntimeError):
    """A non-finite value appeared during gradient verification."""


def gradient_check(fn, inputs, step: float = DEFAULT_STEP, coords=None) -> float:
    """Max relative disagreement between analytic and central-difference
    gradients of a scalar-valued fn over the given inputs.

    coords optionally restricts the sweep to (input_index, flat_index)
    pairs; by default every coordinate of every input is checked.
    """
    inputs = list(inputs)
    with GradTape() as tape:
        out = fn(inputs)
    if out.data.size != 1:
        raise ValueError(f"function under check must be scalar, got shape {out.shape}")
    analytic = tape.gradient(out, inputs)

    if coords is None:
        coords = [(ti, k) for ti, t in enumerate(inputs) for k in range(t.data.size)]
    worst = 0.0
    for ti, k in coords:
        flat = inputs[ti].data.reshape(-1)
        orig = flat[k]
        flat[k] = orig + step
        f_plus = fn(inputs).item()
        flat[k] = orig - step
        f_minus = fn(inputs).item()
        flat[k] = orig
        fd = (f_plus - f_minus) / (2.0 * step)
        a = float(analytic[ti].reshape(-1)[k])
        if not (np.isfinite(fd) and np.isfinite(a)):
            raise GradientCheckError(
                f"non-finite gradient at input {ti} coordinate {k}: analytic {a}, fd {fd}")
        worst = max(worst, abs(a - fd) / max(1.0, abs(a), abs(fd)))
    return worst


@dataclass
class CheckRow:
    name: str
    points: int
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol


def _t(rng, shape, lo=-1.0, hi=1.0) -> Tensor:
    return T.parameter(rng.uniform(lo, hi, shape))


# A case builder maps an rng to (op, inputs): op takes the input tensors
# positionally and returns a tensor. run_suite checks the scalar
# sum(P * op(inputs)) for a random constant P shaped like op's output.


def _projected(op, proj: np.ndarray):
    p = T.constant(proj)
    return lambda ts: T.sum_all(T.mul(p, op(*ts)))


def _uniform(op, *shapes, lo=-1.0, hi=1.0):
    """Builder for an op whose inputs are all drawn uniform on [lo, hi]."""
    return lambda rng: (op, [_t(rng, s, lo, hi) for s in shapes])


def _case_scale(rng):
    s = float(rng.uniform(-2.0, 2.0))
    return (lambda x: T.scale(x, s)), [_t(rng, (2, 3, 2))]


def _case_relu(rng):
    # Points pushed away from the kink at zero.
    x = rng.uniform(0.1, 1.0, (4, 4)) * rng.choice([-1.0, 1.0], (4, 4))
    return T.relu, [T.parameter(x)]


def _case_l2_normalize(rng):
    v = rng.uniform(-1.0, 1.0, 6)
    v += np.sign(v.sum() or 1.0) * 0.5 / 6   # keep the norm well away from zero
    return T.l2_normalize, [T.parameter(v)]


def _case_masked_avg_pool(rng):
    mask = (rng.uniform(0, 1, (4, 4)) < 0.5).astype(np.float64)
    mask.reshape(-1)[int(rng.integers(16))] = 1.0   # never empty
    return (lambda x: ops.masked_avg_pool(x, mask)), [_t(rng, (4, 4, 3))]


def _case_bce_loss(rng):
    target = (rng.uniform(0, 1, (4, 4)) < 0.5).astype(np.float64)
    return (lambda z: ops.bce_loss(z, target)), [_t(rng, (4, 4), -3.0, 3.0)]


def _case_self_attention_block(rng):
    def op(x, gen_w):
        return attention.self_attention_block(x, attention.DynamicFilterGenerator(gen_w))

    return op, [_t(rng, (4, 4, 4)), _t(rng, (4, 36), -0.5, 0.5)]


def _case_coattention(rng):
    def op(v, x, resize_w, resize_b, affinity):
        return attention.coattention(
            v, x, attention.CoAttentionParams(resize_w, resize_b, affinity))

    return op, [_t(rng, (6, 6, 2)),            # early map v
                _t(rng, (3, 3, 4)),            # late map x
                _t(rng, (3, 3, 2, 4), -0.5, 0.5),
                _t(rng, (4,), -0.2, 0.2),
                _t(rng, (4, 4), -0.5, 0.5)]


def _case_gate(rng):
    def op(x, w, b):
        return attention.gate(x, attention.GateParams(w, b))

    return op, [_t(rng, (4, 4, 3)), _t(rng, (1, 1, 3, 3), -0.5, 0.5), _t(rng, (3,), -0.2, 0.2)]


def _case_infonce_loss(rng):
    vecs = [T.parameter(rng.uniform(-1.0, 1.0, 6)) for _ in range(8)]
    polarities = [contrastive.FOREGROUND] * 4 + [contrastive.BACKGROUND] * 4
    frames = [0, 1, 2, 3, 0, 1, 2, 3]
    feats = [contrastive.RegionFeature("v0", f, pol, v, 0.0)
             for f, pol, v in zip(frames, polarities, vecs)]
    batch = contrastive.ContrastiveBatch(feats[0], feats[1:4], feats[4:])
    return (lambda *ts: contrastive.infonce_loss(batch, tau=0.5)), vecs


def _composed_model_case(seed: int):
    """Forward + BCE on a 32x32 frame's logit, checked on 20 parameter coordinates."""
    m = model.SaliencyModel(seed=seed)
    rng = np.random.default_rng(seed)
    frame = rng.uniform(0.0, 1.0, (32, 32, 3))
    target = (rng.uniform(0.0, 1.0, (32, 32)) < 0.3).astype(np.float64)
    inputs = list(m.params.values())

    def fn(ts):
        return ops.bce_loss(m.forward(frame).logit, target)

    coords = []
    for _ in range(20):
        ti = int(rng.integers(len(inputs)))
        coords.append((ti, int(rng.integers(inputs[ti].data.size))))
    return fn, inputs, coords


_OP_CASES = [
    ("add", _uniform(T.add, (3, 4), (3, 4))),
    ("sub", _uniform(T.sub, (3, 4), (3, 4))),
    ("mul", _uniform(T.mul, (3, 4), (3, 4))),
    ("scale", _case_scale),
    ("matmul", _uniform(T.matmul, (4, 5), (5, 3))),
    ("matvec", _uniform(T.matvec, (4, 6), (6,))),
    ("transpose", _uniform(T.transpose, (3, 5))),
    ("reshape", _uniform(lambda x: T.reshape(x, (2, 6)), (3, 4))),
    ("concat", _uniform(lambda *ts: T.concat(ts, axis=1), (3, 2), (3, 3))),
    ("stack_rows", _uniform(lambda *ts: T.stack_rows(ts), (4,), (4,), (4,))),
    ("sum_all", _uniform(T.sum_all, (3, 2, 2))),
    ("relu", _case_relu),
    ("sigmoid", _uniform(T.sigmoid, (4, 4), lo=-3.0, hi=3.0)),
    ("logsumexp", _uniform(T.logsumexp, (9,), lo=-2.0, hi=2.0)),
    ("l2_normalize", _case_l2_normalize),
    ("attend", _uniform(ops.attend, (4, 3), (5, 3), lo=-2.0, hi=2.0)),
    ("conv2d", _uniform(lambda x, k, b: ops.conv2d(x, k, b, stride=1),
                        (5, 5, 3), (3, 3, 3, 4), (4,))),
    ("conv2d_stride2", _uniform(lambda x, k, b: ops.conv2d(x, k, b, stride=2),
                                (6, 6, 3), (3, 3, 3, 2), (2,))),
    ("conv2d_1x1", _uniform(lambda x, k, b: ops.conv2d(x, k, b, stride=1),
                            (5, 4, 3), (1, 1, 3, 2), (2,))),
    ("conv2d_stride4", _uniform(lambda x, k, b: ops.conv2d(x, k, b, stride=4),
                                (9, 7, 2), (3, 3, 2, 3), (3,))),
    ("depthwise_conv2d", _uniform(ops.depthwise_conv2d, (5, 5, 3), (3, 3, 3))),
    ("mean_hw", _uniform(ops.mean_hw, (4, 5, 3))),
    ("masked_avg_pool", _case_masked_avg_pool),
    ("bilinear_upsample_x2", _uniform(ops.bilinear_upsample_x2, (3, 3, 2))),
    ("bce_loss", _case_bce_loss),
    ("lightweight_nonlocal", _uniform(attention.lightweight_nonlocal, (4, 4, 4))),
    ("self_attention_block", _case_self_attention_block),
    ("coattention", _case_coattention),
    ("gate", _case_gate),
    ("infonce_loss", _case_infonce_loss),
]

N_POINTS = 5


def run_suite(seed: int = 7, step: float = DEFAULT_STEP) -> list:
    """Check every op at N_POINTS seeded points, then the composed model."""
    rows = []
    for idx, (name, builder) in enumerate(_OP_CASES):
        worst = 0.0
        for point in range(N_POINTS):
            rng = np.random.default_rng([seed, idx, point])
            op, inputs = builder(rng)
            fn = _projected(op, rng.uniform(-1.0, 1.0, op(*inputs).shape))
            worst = max(worst, gradient_check(fn, inputs, step=step))
        rows.append(CheckRow(name, N_POINTS, worst, OP_TOL))
    worst = 0.0
    for point in range(N_POINTS):
        fn, inputs, coords = _composed_model_case(seed + point)
        worst = max(worst, gradient_check(fn, inputs, step=step, coords=coords))
    rows.append(CheckRow("composed_model", N_POINTS, worst, COMPOSED_TOL))
    return rows


def format_rows(rows) -> str:
    out = [f"{'op':<24}{'points':>7}{'max_rel_err':>14}{'tol':>10}  status"]
    for r in rows:
        out.append(f"{r.name:<24}{r.points:>7}{r.max_err:>14.3e}{r.tol:>10.1e}  "
                   + ("pass" if r.passed else "FAIL"))
    return "\n".join(out) + "\n"

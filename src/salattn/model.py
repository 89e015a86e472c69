"""Toy video saliency model: conv encoder, attention blocks, dual heads.

Four stride-doubling conv stages (widths 8, 16, 32, c) feed a gated pair of
attention branches at the coarsest grid: the dynamic-filter non-local block
over the stage-4 map, and co-attention from the stride-2 map onto stage 4.
The concatenated (x, gated self, gated co) stack passes through two 3x3 head
convs; a 1x1 conv predicts a coarse logit map that is upsampled three times,
each time adding a 1x1 skip prediction from the matching encoder stage.

Deliberately small: the whole parameter set stays under the 200k budget and
trains with plain SGD in float64.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import (CoAttentionParams, DynamicFilterGenerator, GateParams,
                        coattention, gate, self_attention_block)
from .contrastive import build_contrastive_batches, extract_region_features, infonce_loss
from .netpbm import atomic_write_bytes, to_unit
from .ops import bce_loss, conv2d, bilinear_upsample_x2
from .rng import SplitMix64
from .tensor import GradTape, ShapeError, Tensor


class CheckpointError(ValueError):
    """Checkpoint file is malformed or does not match the model manifest."""


@dataclass
class ModelConfig:
    channels: int = 32            # width of stage 4 and the attention blocks
    stem_widths: tuple = (8, 16, 32)
    use_attention: bool = True


@dataclass
class ForwardResult:
    saliency: Tensor   # (H, W) in (0, 1)
    feat: Tensor       # (H/8, W/8, c) head feature map


@dataclass
class TrainSettings:
    lr: float = 1e-4
    tau: float = 0.1
    k_pos: int = 3
    k_neg: int = 4
    use_contrastive: bool = True


@dataclass
class LossRecord:
    loss: float
    bce: float
    contrastive: float


class SaliencyModel:
    """Owns the parameter tensors and wires the forward graph."""

    def __init__(self, config: ModelConfig | None = None, seed: int = 1):
        self.config = config or ModelConfig()
        c = self.config.channels
        w1, w2, w3 = self.config.stem_widths
        rng = SplitMix64(seed)
        self.params: dict[str, Tensor] = {}

        def weight(name, shape, fan_in, gain=12.0):
            # He-style uniform bound with a gain slightly above the
            # variance-preserving constant: activations grow mildly with
            # depth, so gradients reach the deep layers at a usable scale.
            bound = (gain / fan_in) ** 0.5
            data = (rng.f64_array(shape) * 2.0 - 1.0) * bound
            self.params[name] = T.parameter(data)

        def zeros(name, shape):
            self.params[name] = T.parameter(np.zeros(shape))

        bias = zeros

        weight("enc1.weight", (3, 3, 3, w1), 27);        bias("enc1.bias", w1)
        weight("enc2.weight", (3, 3, w1, w2), 9 * w1);   bias("enc2.bias", w2)
        weight("enc3.weight", (3, 3, w2, w3), 9 * w2);   bias("enc3.bias", w3)
        weight("enc4.weight", (3, 3, w3, c), 9 * w3);    bias("enc4.bias", c)
        weight("selfatt.gen.weight", (c, 9 * c), c)
        weight("coatt.resize.weight", (3, 3, w2, c), 9 * w2)
        bias("coatt.resize.bias", c)
        weight("coatt.affinity", (c, c), c)
        weight("gate_self.weight", (1, 1, c, c), c);     bias("gate_self.bias", c)
        weight("gate_co.weight", (1, 1, c, c), c);       bias("gate_co.bias", c)
        weight("head1.weight", (3, 3, 3 * c, c), 27 * c); bias("head1.bias", c)
        weight("head2.weight", (3, 3, c, c), 9 * c);     bias("head2.bias", c)
        # The four logit-producing convs start at zero so the initial
        # saliency is exactly 0.5 everywhere: no pixel can be born in the
        # saturated tail of the sigmoid where gradients vanish. They move
        # immediately (their inputs are nonzero), and the feature stack
        # below them is trained by the contrastive term from step one.
        zeros("predict.weight", (1, 1, c, 1));           bias("predict.bias", 1)
        zeros("skip4.weight", (1, 1, w3, 1));            bias("skip4.bias", 1)
        zeros("skip2.weight", (1, 1, w2, 1));            bias("skip2.bias", 1)
        zeros("skip1.weight", (1, 1, w1, 1));            bias("skip1.bias", 1)

        self.gen = DynamicFilterGenerator(self.params["selfatt.gen.weight"])
        self.coatt = CoAttentionParams(self.params["coatt.resize.weight"],
                                       self.params["coatt.resize.bias"],
                                       self.params["coatt.affinity"])
        self.gate_self = GateParams(self.params["gate_self.weight"], self.params["gate_self.bias"])
        self.gate_co = GateParams(self.params["gate_co.weight"], self.params["gate_co.bias"])

    def param_count(self) -> int:
        return int(sum(t.data.size for t in self.params.values()))

    def forward(self, frame: np.ndarray) -> ForwardResult:
        """Saliency and head features of one (H, W, 3) frame: uint8 levels,
        scaled here as read_ppm scales them, or floats in [0, 1]."""
        f = np.asarray(frame)
        f = to_unit(f) if f.dtype == np.uint8 else f.astype(np.float64, copy=False)
        if f.ndim != 3 or f.shape[2] != 3:
            raise ShapeError(f"frame must be (H, W, 3), got {f.shape}")
        hh, ww, _ = f.shape
        if hh % 8 or ww % 8:
            raise ShapeError(f"frame extents must be divisible by 8, got {hh}x{ww}")
        p = self.params

        x0 = T.constant(f)
        e1 = T.relu(conv2d(x0, p["enc1.weight"], p["enc1.bias"], stride=1))
        e2 = T.relu(conv2d(e1, p["enc2.weight"], p["enc2.bias"], stride=2))
        e3 = T.relu(conv2d(e2, p["enc3.weight"], p["enc3.bias"], stride=2))
        x = T.relu(conv2d(e3, p["enc4.weight"], p["enc4.bias"], stride=2))

        if self.config.use_attention:
            gs = gate(self_attention_block(x, self.gen), self.gate_self)
            gc = gate(coattention(e2, x, self.coatt), self.gate_co)
        else:
            # Ablation: attentive branches contribute nothing, widths unchanged.
            gs = T.constant(np.zeros(x.shape))
            gc = gs
        cat = T.concat([x, gs, gc], axis=2)

        h1 = T.relu(conv2d(cat, p["head1.weight"], p["head1.bias"], stride=1))
        feat = T.relu(conv2d(h1, p["head2.weight"], p["head2.bias"], stride=1))
        logit = conv2d(feat, p["predict.weight"], p["predict.bias"], stride=1)

        for enc, name in ((e3, "skip4"), (e2, "skip2"), (e1, "skip1")):
            up = bilinear_upsample_x2(logit)
            logit = T.add(up, conv2d(enc, p[f"{name}.weight"], p[f"{name}.bias"], stride=1))
        saliency = T.reshape(T.sigmoid(logit), (hh, ww))
        return ForwardResult(saliency, feat)


def total_loss(saliencies, targets, batches, tau: float):
    """L = mean frame BCE + mean batch InfoNCE (zero when no batches).

    Returns (L, L_bce, L_cl) as scalar tensors, summed in fixed list order.
    """
    saliencies = list(saliencies)
    targets = list(targets)
    if len(saliencies) != len(targets) or not saliencies:
        raise ValueError("need one target per saliency map")
    acc = bce_loss(saliencies[0], targets[0])
    for s, t in zip(saliencies[1:], targets[1:]):
        acc = T.add(acc, bce_loss(s, t))
    l_bce = T.scale(acc, 1.0 / len(saliencies))

    batches = list(batches)
    if batches:
        cl = infonce_loss(batches[0], tau)
        for b in batches[1:]:
            cl = T.add(cl, infonce_loss(b, tau))
        l_cl = T.scale(cl, 1.0 / len(batches))
    else:
        l_cl = T.constant(0.0)
    return T.add(l_bce, l_cl), l_bce, l_cl


def train_step(model: SaliencyModel, minibatch, settings: TrainSettings) -> LossRecord:
    """One SGD step over a list of (video_id, frame_idx, frame, mask) items.

    Updates parameters in place (theta <- theta - lr * grad) and returns the
    pre-update loss values. Non-finite loss aborts before any update, naming
    the offending term.
    """
    if not minibatch:
        raise ValueError("empty minibatch")
    params = list(model.params.values())
    with GradTape() as tape:
        sals, targets, feats = [], [], []
        for video_id, frame_idx, frame, mask in minibatch:
            r = model.forward(frame)
            sals.append(r.saliency)
            targets.append(mask)
            feats.append((video_id, frame_idx, r))
        batches = []
        if settings.use_contrastive:
            features = []
            for (video_id, frame_idx, r), mask in zip(feats, targets):
                features.extend(extract_region_features(
                    r.feat, mask, r.saliency.data, video_id, frame_idx))
            batches = build_contrastive_batches(features, settings.k_pos, settings.k_neg)
        loss, l_bce, l_cl = total_loss(sals, targets, batches, settings.tau)

    record = LossRecord(loss.item(), l_bce.item(), l_cl.item())
    for name, value in (("L_bce", record.bce), ("L_cl", record.contrastive), ("L", record.loss)):
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite loss term {name}")
    grads = tape.gradient(loss, params)
    for p, g in zip(params, grads):
        p.data -= settings.lr * g
    for name, p in model.params.items():
        if not np.all(np.isfinite(p.data)):
            raise FloatingPointError(f"non-finite parameter {name} after update")
    return record


# ---------------------------------------------------------------------------
# checkpoint I/O: magic, then per tensor name length, name, rank, extents,
# raw little-endian float64 in row-major order. Integers are little-endian u32.

CHECKPOINT_MAGIC = b"SALATTN1"


def save_checkpoint(path, model: SaliencyModel) -> None:
    blob = bytearray(CHECKPOINT_MAGIC)
    for name, t in model.params.items():
        nb = name.encode("utf-8")
        blob += struct.pack("<I", len(nb))
        blob += nb
        blob += struct.pack("<I", t.data.ndim)
        blob += struct.pack(f"<{t.data.ndim}I", *t.data.shape)
        blob += t.data.astype("<f8").tobytes()
    atomic_write_bytes(path, bytes(blob))


def load_checkpoint(path, model: SaliencyModel) -> None:
    """Load parameters into the model, validating the full shape manifest."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {blob[:8]!r}, expected {CHECKPOINT_MAGIC!r}")
    off = 8
    loaded: dict[str, np.ndarray] = {}

    def take(n, what):
        nonlocal off
        if off + n > len(blob):
            raise CheckpointError(f"truncated checkpoint: {what} at byte {off}")
        piece = blob[off:off + n]
        off += n
        return piece

    while off < len(blob):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        raw = take(name_len, "name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"tensor name {raw[:32]!r} at byte {off - name_len} "
                                  "is not UTF-8") from None
        (rank,) = struct.unpack("<I", take(4, "rank"))
        if rank > 4:
            raise CheckpointError(f"tensor {name}: rank {rank} exceeds 4")
        shape = struct.unpack(f"<{rank}I", take(4 * rank, "extents"))
        # Python ints: a product of uint32 extents can overflow int64, and
        # take() rejects any count larger than the bytes left.
        data = np.frombuffer(take(8 * math.prod(shape), f"data of {name}"), dtype="<f8")
        if name in loaded:
            raise CheckpointError(f"duplicate tensor {name}")
        if not np.isfinite(data).all():
            raise CheckpointError(f"tensor {name} holds a non-finite value")
        loaded[name] = data.astype(np.float64).reshape(shape)

    problems = []
    for name, t in model.params.items():
        if name not in loaded:
            problems.append(f"missing tensor {name}")
        elif loaded[name].shape != t.data.shape:
            problems.append(f"tensor {name}: shape {loaded[name].shape} != expected {t.data.shape}")
    for name in loaded:
        if name not in model.params:
            problems.append(f"unexpected tensor {name}")
    if problems:
        raise CheckpointError("; ".join(problems))
    for name, t in model.params.items():
        t.data = loaded[name]

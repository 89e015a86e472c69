"""Independent re-computations the benchmark checks the program against.

Nothing here imports salattn. Files are read with parsers of the
documented formats, the forward pass follows the formulas in the module
docstrings of salattn.model, salattn.attention and salattn.ops, and the
metrics are recomputed with a sort instead of the threshold cube.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

BETA2 = 0.3


# ---------------------------------------------------------------------------
# file formats


def read_netpbm(path) -> np.ndarray:
    """Binary P5/P6 with maxval 255 -> uint8 array, (h, w) or (h, w, 3)."""
    blob = Path(path).read_bytes()
    tokens, off = [], 0
    while len(tokens) < 4:
        while blob[off:off + 1].isspace():
            off += 1
        if blob[off:off + 1] == b"#":
            off = blob.index(b"\n", off)
            continue
        start = off
        while not blob[off:off + 1].isspace():
            off += 1
        tokens.append(blob[start:off])
    magic, w, h, maxval = tokens[0], int(tokens[1]), int(tokens[2]), int(tokens[3])
    if magic not in (b"P5", b"P6") or maxval != 255:
        raise ValueError(f"{path}: unsupported header {tokens!r}")
    ch = 3 if magic == b"P6" else 1
    raw = np.frombuffer(blob, dtype=np.uint8, count=w * h * ch, offset=off + 1)
    return raw.reshape((h, w, 3) if ch == 3 else (h, w))


def read_checkpoint(path) -> dict:
    """Magic SALATTN1, then per tensor: u32 name length, name, u32 rank,
    u32 extents, little-endian float64 data in row-major order."""
    blob = Path(path).read_bytes()
    if blob[:8] != b"SALATTN1":
        raise ValueError(f"{path}: bad magic {blob[:8]!r}")
    off, out = 8, {}
    while off < len(blob):
        (n,) = struct.unpack_from("<I", blob, off)
        name = blob[off + 4:off + 4 + n].decode("utf-8")
        off += 4 + n
        (rank,) = struct.unpack_from("<I", blob, off)
        shape = struct.unpack_from(f"<{rank}I", blob, off + 4)
        off += 4 + 4 * rank
        count = math.prod(shape)
        out[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape)
        off += 8 * count
    return out


def quantize(a: np.ndarray) -> np.ndarray:
    """Grey level written for a value in [0, 1]: floor(v * 255 + 0.5)."""
    return np.clip(np.floor(a * 255.0 + 0.5), 0, 255).astype(np.int64)


# ---------------------------------------------------------------------------
# reference forward pass


def _sigmoid(z):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _conv(x, k, b, stride):
    """Zero-padded cross-correlation, pad (k-1)//2, out extent (h+2p-k)//s+1."""
    kh, kw, cin, cout = k.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x, ((ph, ph), (pw, pw), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(0, 1))
    win = win[::stride, ::stride]                     # (oh, ow, cin, kh, kw)
    out = np.tensordot(win, k, axes=([3, 4, 2], [0, 1, 2]))
    return out + b if b is not None else out


def _depthwise(x, f):
    h, w, _ = x.shape
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    return sum(xp[i:i + h, j:j + w] * f[i, j] for i in range(3) for j in range(3))


def _upsample_matrix(n):
    """(2n, n) bilinear x2 weights, half-pixel centres, clamped at borders."""
    u = np.zeros((2 * n, n))
    for o in range(2 * n):
        src = min(max((o + 0.5) / 2.0 - 0.5, 0.0), n - 1.0)
        i0 = int(math.floor(src))
        i1 = min(i0 + 1, n - 1)
        u[o, i0] += 1.0 - (src - i0)
        u[o, i1] += src - i0
    return u


def _upsample(x):
    h, w, _ = x.shape
    rows = np.tensordot(_upsample_matrix(h), x, axes=(1, 0))             # (2h, w, c)
    return np.tensordot(rows, _upsample_matrix(w), axes=(1, 1)).transpose(0, 2, 1)


def _softmax_rows(a):
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def forward(p: dict, frame: np.ndarray, use_attention: bool = True) -> tuple:
    """Saliency map (H, W) of an (H, W, 3) frame under checkpoint tensors p,
    and the head feature map (H/8, W/8, c) that the logit conv reads."""
    relu = lambda z: np.maximum(z, 0.0)
    e1 = relu(_conv(frame, p["enc1.weight"], p["enc1.bias"], 1))
    e2 = relu(_conv(e1, p["enc2.weight"], p["enc2.bias"], 2))
    e3 = relu(_conv(e2, p["enc3.weight"], p["enc3.bias"], 2))
    x = relu(_conv(e3, p["enc4.weight"], p["enc4.bias"], 2))
    h, w, c = x.shape
    n = h * w
    if use_attention:
        xf = x.reshape(n, c)
        # self branch: y = x (x^T x) / N, refined by a depthwise 3x3 conv whose
        # filters are generated from the mean feature, plus the residual.
        y = (xf @ (xf.T @ xf) / n).reshape(h, w, c)
        filt = (p["selfatt.gen.weight"].T @ xf.mean(axis=0)).reshape(3, 3, c)
        zs = _depthwise(y, filt) + x
        # co-attention: resized stride-2 map attends over late positions
        vres = _conv(e2, p["coatt.resize.weight"], p["coatt.resize.bias"], e2.shape[0] // h)
        vf = vres.reshape(n, c)
        zc = (_softmax_rows(vf @ p["coatt.affinity"] @ xf.T) @ xf).reshape(h, w, c)
        gs = _sigmoid(_conv(zs, p["gate_self.weight"], p["gate_self.bias"], 1)) * zs
        gc = _sigmoid(_conv(zc, p["gate_co.weight"], p["gate_co.bias"], 1)) * zc
    else:
        gs = gc = np.zeros_like(x)
    cat = np.concatenate([x, gs, gc], axis=2)
    h1 = relu(_conv(cat, p["head1.weight"], p["head1.bias"], 1))
    feat = relu(_conv(h1, p["head2.weight"], p["head2.bias"], 1))
    logit = _conv(feat, p["predict.weight"], p["predict.bias"], 1)
    for enc, name in ((e3, "skip4"), (e2, "skip2"), (e1, "skip1")):
        logit = _upsample(logit) + _conv(enc, p[f"{name}.weight"], p[f"{name}.bias"], 1)
    return _sigmoid(logit[:, :, 0]), feat


# ---------------------------------------------------------------------------
# metrics


def _f_beta(precision, recall):
    denom = BETA2 * precision + recall
    return np.divide((1 + BETA2) * precision * recall, denom,
                     out=np.zeros_like(denom), where=denom > 0)


def max_f_sorted(pred: np.ndarray, gt: np.ndarray) -> float:
    """Best F over thresholds k/255, counting pred >= t by binary search."""
    t = np.arange(256) / 255.0
    allv = np.sort(pred.ravel())
    fgv = np.sort(pred[gt].ravel())
    predicted = allv.size - np.searchsorted(allv, t, side="left")
    tp = fgv.size - np.searchsorted(fgv, t, side="left")
    precision = np.divide(tp, predicted, out=np.zeros(256), where=predicted > 0)
    return float(_f_beta(precision, tp / fgv.size).max())


def constant_map_max_f(gt: np.ndarray) -> float:
    """maxF of a constant map: every pixel predicted at every reachable threshold."""
    share = gt.mean()
    return float(_f_beta(np.array([share]), np.array([1.0]))[0])


def check_eval(pred_dir, gt_dir, tsv_path) -> tuple:
    """Problems in one metrics.tsv, plus (sum maxF, sum constant maxF, frames,
    frames whose prediction binarised at 0.5 is non-empty)."""
    problems = []
    rows = Path(tsv_path).read_text().splitlines()
    if rows[0] != "# frame_id\tmaxF\tS\tMAE\tJ\tboundaryF":
        problems.append(f"{tsv_path}: unexpected header {rows[0]!r}")
    mf_sum = const_sum = 0.0
    binary = 0
    for row in rows[1:]:
        frame_id, *vals = row.split("\t")
        maxf, s, mae, jac, bf = (float(v) for v in vals)
        pred = read_netpbm(Path(pred_dir) / f"{frame_id}.pgm") / 255.0
        gt = read_netpbm(Path(gt_dir) / f"{frame_id}.pgm") >= 128
        p_bin = pred >= 0.5
        want = {"maxF": max_f_sorted(pred, gt),
                "MAE": float(np.abs(pred - gt).mean()),
                "J": float((p_bin & gt).sum() / max(1, (p_bin | gt).sum()))}
        for key, got in (("maxF", maxf), ("MAE", mae), ("J", jac)):
            if abs(got - want[key]) > 1e-6:
                problems.append(f"{tsv_path} {frame_id}: {key} {got} vs recomputed {want[key]:.8f}")
        for key, got in (("S", s), ("boundaryF", bf)):
            if not 0.0 <= got <= 1.0:
                problems.append(f"{tsv_path} {frame_id}: {key} {got} outside [0, 1]")
        mf_sum += maxf
        const_sum += constant_map_max_f(gt)
        binary += bool(p_bin.any())
    return problems, mf_sum, const_sum, len(rows) - 1, binary


def check_infer(ckpt_path, frame_path, pgm_path) -> list:
    """Every output grey level within one of the reference forward."""
    p = read_checkpoint(ckpt_path)
    frame = read_netpbm(frame_path) / 255.0
    want = quantize(forward(p, frame)[0])
    got = read_netpbm(pgm_path).astype(np.int64)
    worst = int(np.abs(got - want).max())
    return [] if worst <= 1 else [f"{pgm_path}: {worst} grey levels from the reference forward"]


# ---------------------------------------------------------------------------
# generated inputs


def check_video(vdir, radius: int) -> list:
    """Masks are disks of radius `radius` (so constant area), object pixels
    are bright, background dark, and the object moves at most 2 px per axis
    between frames. Levels allow half a grey level of quantisation."""
    problems, prev, area = [], None, None
    vdir = Path(vdir)
    half = 0.5 / 255.0
    for fpath in sorted((vdir / "frames").glob("*.ppm")):
        frame = read_netpbm(fpath) / 255.0
        mask = read_netpbm(vdir / "masks" / (fpath.stem + ".pgm")) >= 128
        cy, cx = (int(round(v)) for v in np.argwhere(mask).mean(axis=0))
        ii, jj = np.indices(mask.shape)
        if not np.array_equal(mask, (ii - cy) ** 2 + (jj - cx) ** 2 <= radius * radius):
            problems.append(f"{fpath}: mask is not a disk of radius {radius}")
        if area is not None and mask.sum() != area:
            problems.append(f"{fpath}: mask area {mask.sum()} != {area}")
        area = mask.sum()
        if frame[mask].min() < 0.95 - half or frame[~mask].max() > 0.12 + half:
            problems.append(f"{fpath}: object or background level out of range")
        if prev is not None and max(abs(cy - prev[0]), abs(cx - prev[1])) > 2:
            problems.append(f"{fpath}: object moved more than 2 px")
        prev = (cy, cx)
    return problems

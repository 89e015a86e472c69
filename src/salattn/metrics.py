"""Saliency evaluation: maxF, S-measure, MAE, region and boundary overlap.

Predictions are real-valued maps in [0, 1]; ground truth is binary. maxF
and S consume the raw map, region jaccard and boundary F consume the map
binarized at 0.5 (the caller's job; frame_metrics does it).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

_EPS = np.spacing(1)


def _check_pair(pred: np.ndarray, gt: np.ndarray):
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 2:
        raise ValueError(f"need equal-shape 2-D maps, got {pred.shape} and {gt.shape}")
    return pred, gt


def _check_binary(a: np.ndarray, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if not np.all((a == 0.0) | (a == 1.0)):
        raise ValueError(f"{what} must be binary (0/1)")
    return a


def mae(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean absolute error over all pixels."""
    pred, gt = _check_pair(pred, gt)
    return float(np.abs(pred - gt).mean())


def max_f_measure(pred: np.ndarray, gt: np.ndarray, beta2: float = 0.3) -> float:
    """Best F_beta over the 256 thresholds t = k/255, k = 0..255.

    A pixel is predicted foreground when pred >= t. Precision is 0 when
    nothing is predicted; F is 0 when precision and recall are both 0.
    Ground truth must contain at least one foreground pixel.
    """
    pred, gt = _check_pair(pred, gt)
    g = _check_binary(gt, "ground truth") > 0.5
    n_fg = int(g.sum())
    if n_fg == 0:
        raise ValueError("max_f_measure: ground truth has no foreground")
    thresholds = np.arange(256, dtype=np.float64) / 255.0
    idx = np.searchsorted(thresholds, pred, side="right")   # thresholds <= pred
    idx[np.isnan(pred)] = 0   # NaN sorts last but is predicted at no threshold
    predicted = idx.size - np.cumsum(np.bincount(idx.ravel(), minlength=257))[:256]
    tp = n_fg - np.cumsum(np.bincount(idx[g], minlength=257))[:256]
    precision = np.divide(tp, predicted, out=np.zeros(256), where=predicted > 0)
    recall = tp / n_fg
    denom = beta2 * precision + recall
    f = np.divide((1.0 + beta2) * precision * recall, denom,
                  out=np.zeros(256), where=denom > 0)
    return float(f.max())


# ---------------------------------------------------------------------------
# S-measure (object/region structural similarity against a binary mask)


def _object_score(values: np.ndarray) -> float:
    x = float(np.mean(values))
    if values.size > 1:
        sigma = float(np.std(values, ddof=1))
    else:
        sigma = 0.0
    return 2.0 * x / (x * x + 1.0 + sigma + _EPS)


def _ssim_block(p: np.ndarray, g: np.ndarray) -> float:
    n = p.size
    if n <= 1:
        return 1.0 if float(np.abs(p - g).sum()) == 0.0 else 0.0
    x, y = float(p.mean()), float(g.mean())
    sx = float(((p - x) ** 2).sum() / (n - 1))
    sy = float(((g - y) ** 2).sum() / (n - 1))
    sxy = float(((p - x) * (g - y)).sum() / (n - 1))
    a = 4.0 * x * y * sxy
    b = (x * x + y * y) * (sx + sy)
    if a != 0.0:
        return a / (b + _EPS)
    return 1.0 if b == 0.0 else 0.0


def s_measure(pred: np.ndarray, gt: np.ndarray, alpha: float = 0.5) -> float:
    """Structural similarity of a saliency map against a binary mask.

    alpha weights the object term against the four-quadrant region term
    (quadrants split at the foreground centroid). Degenerate masks reduce
    to mean prediction: all-background gives 1 - mean(pred), all-foreground
    gives mean(pred). Result is clamped to [0, 1].
    """
    pred, gt = _check_pair(pred, gt)
    g = _check_binary(gt, "ground truth")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")
    y = float(g.mean())
    if y == 0.0:
        return float(np.clip(1.0 - pred.mean(), 0.0, 1.0))
    if y == 1.0:
        return float(np.clip(pred.mean(), 0.0, 1.0))

    fg = pred * g
    bg = (1.0 - pred) * (1.0 - g)
    s_obj = y * _object_score(fg[g == 1.0]) + (1.0 - y) * _object_score(bg[g == 0.0])

    h, w = g.shape
    cy, cx = np.argwhere(g > 0.5).mean(axis=0).round().astype(int)
    cy, cx = cy + 1, cx + 1   # split keeps the centroid row/col in the top/left parts
    weights = []
    scores = []
    for rows, cols in (((0, cy), (0, cx)), ((0, cy), (cx, w)),
                       ((cy, h), (0, cx)), ((cy, h), (cx, w))):
        pb = pred[rows[0]:rows[1], cols[0]:cols[1]]
        gb = g[rows[0]:rows[1], cols[0]:cols[1]]
        weights.append(pb.size / (h * w))
        scores.append(_ssim_block(pb, gb) if pb.size else 0.0)
    s_reg = float(np.dot(weights, scores))

    return float(np.clip(alpha * s_obj + (1.0 - alpha) * s_reg, 0.0, 1.0))


def jaccard(pred_bin: np.ndarray, gt: np.ndarray) -> float:
    """Region intersection over union of two binary maps; 1 when both empty."""
    p = _check_binary(pred_bin, "prediction") > 0.5
    g = _check_binary(gt, "ground truth") > 0.5
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {g.shape}")
    union = int((p | g).sum())
    if union == 0:
        return 1.0
    return float((p & g).sum() / union)


def boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """Foreground pixels 4-adjacent to background or to the image border."""
    m = _check_binary(mask, "mask").astype(bool)
    pad = np.pad(m, 1, constant_values=False)
    surrounded = (pad[:-2, 1:-1] & pad[2:, 1:-1] & pad[1:-1, :-2] & pad[1:-1, 2:])
    return m & ~surrounded


def default_boundary_tol(h: int, w: int) -> int:
    """Matching tolerance scaled to the image diagonal, at least 1 pixel."""
    return max(1, int(round(0.0075 * float(np.hypot(h, w)))))


def _dilate_chebyshev(m: np.ndarray, tol: int) -> np.ndarray:
    """OR over the (2 tol + 1)^2 square around each pixel: a row pass, then
    the same pass over the transpose. Shifts are clipped to the image."""
    for _ in range(2):
        out = m.copy()
        for d in range(1, min(tol, m.shape[0] - 1) + 1):
            out[d:] |= m[:-d]
            out[:-d] |= m[d:]
        m = out.T
    return m


def boundary_f(pred_bin: np.ndarray, gt: np.ndarray, tol: int | None = None) -> float:
    """F1 of boundary matching within Chebyshev distance tol.

    Both boundaries empty gives 1; exactly one empty gives 0.
    """
    p = _check_binary(pred_bin, "prediction")
    g = _check_binary(gt, "ground truth")
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {g.shape}")
    h, w = p.shape
    if tol is None:
        tol = default_boundary_tol(h, w)
    if tol < 1:
        raise ValueError(f"tolerance must be >= 1, got {tol}")
    pb = boundary_pixels(p)
    gb = boundary_pixels(g)
    np_b, ng_b = int(pb.sum()), int(gb.sum())
    if np_b == 0 and ng_b == 0:
        return 1.0
    if np_b == 0 or ng_b == 0:
        return 0.0
    precision = float((pb & _dilate_chebyshev(gb, tol)).sum() / np_b)
    recall = float((gb & _dilate_chebyshev(pb, tol)).sum() / ng_b)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# per-frame bundles and report assembly


@dataclass
class FrameMetrics:
    max_f: float    # nan when the frame has empty ground truth
    s: float
    mae: float
    jaccard: float
    boundary_f: float


def frame_metrics(pred: np.ndarray, gt: np.ndarray, tol: int | None = None) -> FrameMetrics:
    """All five metrics for one frame; binarizes the prediction at 0.5
    for the region and boundary terms."""
    pred, gt = _check_pair(pred, gt)
    g = _check_binary(gt, "ground truth")
    p_bin = (pred >= 0.5).astype(np.float64)
    if g.sum() > 0:
        mf = max_f_measure(pred, g)
    else:
        mf = float("nan")
    return FrameMetrics(
        max_f=mf,
        s=s_measure(pred, g),
        mae=mae(pred, g),
        jaccard=jaccard(p_bin, g),
        boundary_f=boundary_f(p_bin, g, tol),
    )


_COLUMNS = ("maxF", "S", "MAE", "J", "boundaryF")


@dataclass
class EvalReport:
    """Per-frame metrics keyed by frame id, plus grouped means.

    Frame ids of the form "<video>/<frame>" group by video; flat ids fall
    into a single "all" group. Frames with empty ground truth contribute to
    every mean except maxF.
    """

    frames: dict

    def _values(self, fm: FrameMetrics) -> tuple:
        return (fm.max_f, fm.s, fm.mae, fm.jaccard, fm.boundary_f)

    def video_groups(self) -> dict:
        groups: dict[str, list] = {}
        for frame_id in self.frames:
            video = frame_id.rsplit("/", 1)[0] if "/" in frame_id else "all"
            groups.setdefault(video, []).append(frame_id)
        return groups

    def _mean_over(self, ids) -> dict:
        out = {}
        for col_idx, col in enumerate(_COLUMNS):
            vals = [self._values(self.frames[i])[col_idx] for i in ids]
            vals = [v for v in vals if not np.isnan(v)]
            out[col] = float(np.mean(vals)) if vals else float("nan")
        return out

    def per_video(self) -> dict:
        return {video: self._mean_over(ids) for video, ids in self.video_groups().items()}

    def overall(self) -> dict:
        return self._mean_over(list(self.frames))

    def lines(self) -> str:
        """Machine-readable block: frame id and the five metrics, tab
        separated, six decimals, one frame per line."""
        rows = ["# frame_id\t" + "\t".join(_COLUMNS)]
        for frame_id, fm in self.frames.items():
            vals = "\t".join(f"{v:.6f}" for v in self._values(fm))
            rows.append(f"{frame_id}\t{vals}")
        return "\n".join(rows) + "\n"

    def table(self) -> str:
        """Aligned text table of per-video and overall means."""
        header = f"{'group':<16}{'frames':>7}" + "".join(f"{c:>11}" for c in _COLUMNS)
        rows = [header]
        groups = self.video_groups()
        for video in sorted(groups):
            m = self._mean_over(groups[video])
            rows.append(f"{video:<16}{len(groups[video]):>7}"
                        + "".join(f"{m[c]:>11.6f}" for c in _COLUMNS))
        o = self.overall()
        rows.append(f"{'overall':<16}{len(self.frames):>7}"
                    + "".join(f"{o[c]:>11.6f}" for c in _COLUMNS))
        return "\n".join(rows) + "\n"


def evaluate_frames(items, tol: int | None = None) -> EvalReport:
    """Build an EvalReport from (frame_id, pred, gt) triples.

    Frames with empty ground truth get a maxF of nan, are skipped by the
    aggregation, and trigger a warning naming the frame.
    """
    frames = {}
    for frame_id, pred, gt in items:
        fm = frame_metrics(pred, gt, tol)
        if np.isnan(fm.max_f):
            warnings.warn(f"frame {frame_id} has empty ground truth, "
                          "excluded from maxF aggregation")
        frames[frame_id] = fm
    return EvalReport(frames)

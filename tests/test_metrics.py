"""Saliency metrics: closed-form cases, brute-force oracles, invariances."""

import numpy as np
import pytest

from salattn.metrics import (EvalReport, _dilate_chebyshev, boundary_f, boundary_pixels,
                             default_boundary_tol, evaluate_frames,
                             frame_metrics, jaccard, mae, max_f_measure,
                             s_measure)


def left_half_mask(h, w):
    g = np.zeros((h, w))
    g[:, :w // 2] = 1.0
    return g


def maxf_bruteforce(pred, gt, beta2=0.3):
    """Independent 256-threshold sweep with scalar loops."""
    best = 0.0
    per_threshold = []
    fg = gt > 0.5
    for k in range(256):
        t = k / 255.0
        hit = pred >= t
        predicted = int(hit.sum())
        tp = int((hit & fg).sum())
        precision = tp / predicted if predicted else 0.0
        recall = tp / int(fg.sum())
        denom = beta2 * precision + recall
        f = (1 + beta2) * precision * recall / denom if denom > 0 else 0.0
        per_threshold.append(f)
        best = max(best, f)
    return best, per_threshold


# ---------------------------------------------------------------------------
# MAE


def test_mae_trivial_cases():
    g = left_half_mask(4, 4)
    assert mae(g, g) == 0.0
    assert mae(1.0 - g, g) == 1.0
    assert mae(np.full((4, 4), 0.5), g) == 0.5
    assert mae(g, 1.0 - g) == mae(1.0 - g, g)
    with pytest.raises(ValueError):
        mae(np.zeros((4, 4)), np.zeros((4, 5)))


# ---------------------------------------------------------------------------
# max F-measure


def test_maxf_perfect_prediction():
    g = left_half_mask(8, 8)
    assert max_f_measure(g, g) == 1.0


def test_maxf_constant_half_formula():
    # at t <= 0.5 everything is predicted: precision 1/2, recall 1,
    # F = 1.3 * 0.5 / (0.3 * 0.5 + 1) = 0.65 / 1.15 = 13/23
    g = left_half_mask(8, 8)
    got = max_f_measure(np.full((8, 8), 0.5), g)
    assert abs(got - 13.0 / 23.0) <= 1e-12
    assert abs(got - 0.565217) <= 1e-6


def test_maxf_equal_precision_recall_half():
    # 2x2: G = top row, P = left column: at t > 0 precision = recall = 1/2,
    # so F there = 1.3 * 0.25 / (0.15 + 0.5) = 0.5 exactly
    g = np.array([[1.0, 1.0], [0.0, 0.0]])
    p = np.array([[1.0, 0.0], [1.0, 0.0]])
    best, per_threshold = maxf_bruteforce(p, g)
    assert abs(per_threshold[255] - 0.5) <= 1e-12
    assert abs(max_f_measure(p, g) - best) <= 1e-12


def test_maxf_matches_bruteforce():
    rng = np.random.default_rng(307)
    for _ in range(5):
        pred = rng.random((10, 12))
        gt = (rng.random((10, 12)) < 0.4).astype(np.float64)
        if gt.sum() == 0:
            gt[0, 0] = 1.0
        best, _ = maxf_bruteforce(pred, gt)
        assert abs(max_f_measure(pred, gt) - best) <= 1e-12


def maxf_cube(pred, gt, beta2=0.3):
    """The (h, w, 256) threshold cube: every pixel against every threshold."""
    g = gt > 0.5
    hits = pred[:, :, None] >= np.arange(256) / 255.0
    predicted = hits.sum(axis=(0, 1)).astype(np.float64)
    tp = (hits & g[:, :, None]).sum(axis=(0, 1)).astype(np.float64)
    precision = np.divide(tp, predicted, out=np.zeros(256), where=predicted > 0)
    recall = tp / g.sum()
    denom = beta2 * precision + recall
    f = np.divide((1.0 + beta2) * precision * recall, denom, out=np.zeros(256), where=denom > 0)
    return float(f.max())


def test_maxf_matches_threshold_cube_exactly():
    """Quantised maps (ties at k/255), unquantised maps, +-inf and NaN
    (predicted at no threshold) give the cube's value bit for bit."""
    rng = np.random.default_rng(313)
    for trial in range(40):
        h, w = rng.integers(1, 24, size=2)
        gt = (rng.random((h, w)) < 0.4).astype(np.float64)
        gt.reshape(-1)[rng.integers(h * w)] = 1.0
        if trial % 2:
            pred = rng.integers(0, 256, size=(h, w)) / 255.0
        else:
            pred = rng.uniform(-0.1, 1.1, (h, w))
        if trial % 4 >= 2:
            specials = rng.choice([np.inf, -np.inf, np.nan], size=(h, w))
            pred = np.where(rng.random((h, w)) < 0.2, specials, pred)
        assert max_f_measure(pred, gt) == maxf_cube(pred, gt)


def test_maxf_empty_ground_truth_rejected():
    with pytest.raises(ValueError):
        max_f_measure(np.ones((4, 4)), np.zeros((4, 4)))


def test_maxf_monotone_remapping_invariance():
    # Remapping by p**gamma preserves >=-comparisons against the threshold
    # grid when adjacent distinct values are far enough apart. For values on
    # the grid {0, 16/255, 32/255, ...}, consecutive levels v1 < v2 satisfy
    # v2**g - v1**g > 1/255 for g in {0.5, 2} (the worst gaps are at the top
    # end for g=0.5 and the bottom for g=2, both > 1/255), so no threshold
    # can separate a remapped pair it did not already separate.
    rng = np.random.default_rng(311)
    for _ in range(5):
        levels = rng.integers(0, 16, size=(9, 9)).astype(np.float64) * 16.0 / 255.0
        gt = (rng.random((9, 9)) < 0.5).astype(np.float64)
        if gt.sum() == 0:
            gt[0, 0] = 1.0
        base = max_f_measure(levels, gt)
        for gamma in (0.5, 2.0):
            assert abs(max_f_measure(levels ** gamma, gt) - base) <= 1e-12


# ---------------------------------------------------------------------------
# S-measure


def test_s_perfect_binary_high():
    g = np.zeros((16, 16))
    g[4:12, 5:11] = 1.0
    assert s_measure(g, g) >= 0.97


def test_s_constant_prediction_scores_lower():
    g = np.zeros((16, 16))
    g[4:12, 5:11] = 1.0
    constant = np.full(g.shape, g.mean())
    assert s_measure(constant, g) < s_measure(g, g)


def test_s_alpha_endpoints_combine():
    # linear in alpha as long as neither endpoint hits the [0, 1] clamp
    rng = np.random.default_rng(313)
    g = np.zeros((12, 12))
    g[3:9, 2:7] = 1.0
    pred = np.clip(0.8 * g + 0.1 + 0.05 * rng.random((12, 12)), 0.0, 1.0)
    s_obj = s_measure(pred, g, alpha=1.0)
    s_reg = s_measure(pred, g, alpha=0.0)
    assert 0.0 < s_obj < 1.0 and 0.0 < s_reg < 1.0
    s_mid = s_measure(pred, g, alpha=0.5)
    assert abs(s_mid - 0.5 * (s_obj + s_reg)) <= 1e-12
    with pytest.raises(ValueError):
        s_measure(pred, g, alpha=1.5)


def test_s_degenerate_masks():
    pred = np.full((8, 8), 0.3)
    assert abs(s_measure(pred, np.zeros((8, 8))) - 0.7) <= 1e-12
    assert abs(s_measure(pred, np.ones((8, 8))) - 0.3) <= 1e-12


def test_s_bounded():
    rng = np.random.default_rng(317)
    for _ in range(10):
        pred = rng.random((10, 10))
        g = (rng.random((10, 10)) < 0.5).astype(np.float64)
        assert 0.0 <= s_measure(pred, g) <= 1.0


# ---------------------------------------------------------------------------
# Jaccard


def test_jaccard_trivials():
    g = left_half_mask(4, 4)
    assert jaccard(g, g) == 1.0
    assert jaccard(np.zeros((4, 4)), np.zeros((4, 4))) == 1.0
    disjoint = np.zeros((4, 4))
    disjoint[:, 2:] = 1.0
    assert jaccard(disjoint, g) == 0.0


def test_jaccard_top_vs_left_half():
    top = np.zeros((4, 4))
    top[:2] = 1.0
    left = left_half_mask(4, 4)
    assert abs(jaccard(top, left) - 1.0 / 3.0) <= 1e-15
    assert jaccard(top, left) == jaccard(left, top)


def test_jaccard_one_iff_equal():
    rng = np.random.default_rng(331)
    for _ in range(10):
        p = (rng.random((6, 6)) < 0.5).astype(np.float64)
        g = (rng.random((6, 6)) < 0.5).astype(np.float64)
        assert (jaccard(p, g) == 1.0) == np.array_equal(p, g)
    with pytest.raises(ValueError):
        jaccard(np.full((2, 2), 0.5), np.zeros((2, 2)))


def test_jaccard_flip_degradation():
    rng = np.random.default_rng(337)
    g = np.zeros((12, 12))
    g[3:9, 3:9] = 1.0
    for k in (1, 4, 16):
        p = g.copy()
        idx = rng.choice(144, size=k, replace=False)
        p.reshape(-1)[idx] = 1.0 - p.reshape(-1)[idx]
        assert jaccard(p, g) <= 1.0


# ---------------------------------------------------------------------------
# boundary F


def test_boundary_pixels_small_cases():
    m = np.ones((3, 3))
    b = boundary_pixels(m)
    want = np.ones((3, 3), dtype=bool)
    want[1, 1] = False
    assert np.array_equal(b, want)
    single = np.zeros((5, 5))
    single[2, 2] = 1.0
    assert np.array_equal(boundary_pixels(single), single.astype(bool))


def test_boundary_f_trivials():
    g = np.zeros((8, 8))
    g[2:6, 2:6] = 1.0
    assert boundary_f(g, g) == 1.0
    assert boundary_f(np.zeros((8, 8)), g) == 0.0
    assert boundary_f(np.zeros((8, 8)), np.zeros((8, 8))) == 1.0


def test_default_tolerance():
    assert default_boundary_tol(16, 16) == 1
    assert default_boundary_tol(480, 854) == 7


def boundary_f_bruteforce(p, g, tol):
    pb = np.argwhere(boundary_pixels(p))
    gb = np.argwhere(boundary_pixels(g))
    if len(pb) == 0 and len(gb) == 0:
        return 1.0
    if len(pb) == 0 or len(gb) == 0:
        return 0.0

    def matched(points, targets):
        hits = 0
        for y, x in points:
            d = min(max(abs(int(y) - int(ty)), abs(int(x) - int(tx))) for ty, tx in targets)
            hits += d <= tol
        return hits / len(points)

    precision = matched(pb, gb)
    recall = matched(gb, pb)
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def test_boundary_f_shifted_square_oracle():
    g = np.zeros((16, 16))
    g[6:10, 6:10] = 1.0
    for shift in (1, 2):
        p = np.zeros((16, 16))
        p[6:10, 6 + shift:10 + shift] = 1.0
        got = boundary_f(p, g, tol=1)
        want = boundary_f_bruteforce(p, g, 1)
        assert abs(got - want) <= 1e-12
    assert boundary_f(np.roll(g, 1, axis=1), g, tol=1) == 1.0
    with pytest.raises(ValueError):
        boundary_f(g, g, tol=0)


def test_boundary_f_tolerance_beyond_image():
    assert boundary_f(np.eye(3), np.eye(3)[::-1].copy(), tol=5) == 1.0
    assert boundary_f(np.eye(3), np.eye(3)[::-1].copy(), tol=4) == 1.0
    p = np.zeros((8, 8))
    p[0, 0] = 1.0
    g = np.zeros((8, 8))
    g[7, 7] = 1.0
    assert boundary_f(p, g, tol=9) == 1.0


def test_dilation_matches_bruteforce_chebyshev():
    rng = np.random.default_rng(349)
    for _ in range(40):
        h, w = (int(n) for n in rng.integers(1, 12, size=2))
        tol = int(rng.integers(1, 14))
        m = rng.random((h, w)) < 0.15
        ys, xs = np.nonzero(m)
        yy, xx = np.mgrid[:h, :w]
        want = np.zeros((h, w), dtype=bool)
        for y, x in zip(ys, xs):
            want |= np.maximum(np.abs(yy - y), np.abs(xx - x)) <= tol
        assert np.array_equal(_dilate_chebyshev(m, tol), want), (h, w, tol)


def test_boundary_f_random_against_bruteforce():
    rng = np.random.default_rng(347)
    for _ in range(5):
        p = (rng.random((10, 10)) < 0.3).astype(np.float64)
        g = (rng.random((10, 10)) < 0.3).astype(np.float64)
        assert abs(boundary_f(p, g, tol=2) - boundary_f_bruteforce(p, g, 2)) <= 1e-12


# ---------------------------------------------------------------------------
# report assembly


def square_mask(h=16, w=16):
    g = np.zeros((h, w))
    g[4:10, 5:12] = 1.0
    return g


def test_report_perfect_video():
    g = square_mask()
    report = evaluate_frames([(f"v0/{i:05d}", g.copy(), g) for i in range(3)])
    overall = report.overall()
    assert overall["maxF"] == 1.0
    assert overall["MAE"] == 0.0
    assert overall["J"] == 1.0
    assert overall["boundaryF"] == 1.0
    assert overall["S"] >= 0.97


def test_report_inverted_and_constant():
    g = square_mask()
    inv = evaluate_frames([("a/00000", 1.0 - g, g)]).overall()
    assert inv["J"] == 0.0
    const = evaluate_frames([("a/00000", np.full(g.shape, 0.5), g)]).overall()
    assert const["MAE"] == 0.5


def test_report_groups_by_video():
    g = square_mask()
    items = [("va/00000", g.copy(), g), ("va/00001", 1.0 - g, g), ("vb/00000", g.copy(), g)]
    report = evaluate_frames(items)
    per = report.per_video()
    assert set(per) == {"va", "vb"}
    assert per["vb"]["J"] == 1.0
    assert abs(per["va"]["J"] - 0.5) <= 1e-15
    text = report.table()
    assert "overall" in text and "va" in text and "vb" in text


def test_report_empty_gt_excluded_from_maxf_only():
    g = square_mask()
    empty = np.zeros(g.shape)
    with pytest.warns(UserWarning, match="empty ground truth"):
        report = evaluate_frames([("v/00000", g.copy(), g), ("v/00001", empty.copy(), empty)])
    overall = report.overall()
    assert overall["maxF"] == 1.0          # only the nonempty frame counts
    assert overall["MAE"] == 0.0           # both frames count
    assert overall["J"] == 1.0
    assert np.isnan(report.frames["v/00001"].max_f)


def test_report_lines_format():
    g = square_mask()
    report = evaluate_frames([("v/00000", g.copy(), g)])
    lines = report.lines().strip().split("\n")
    assert lines[0] == "# frame_id\tmaxF\tS\tMAE\tJ\tboundaryF"
    fields = lines[1].split("\t")
    assert fields[0] == "v/00000"
    assert len(fields) == 6
    assert fields[3] == "0.000000"
    assert all(len(f.split(".")[1]) == 6 for f in fields[1:])


def test_frame_metrics_binarizes_at_half():
    g = square_mask()
    soft = np.where(g > 0.5, 0.7, 0.2)
    fm = frame_metrics(soft, g)
    assert fm.jaccard == 1.0
    assert fm.boundary_f == 1.0
    assert fm.max_f == 1.0
    assert abs(fm.mae - np.abs(soft - g).mean()) <= 1e-15

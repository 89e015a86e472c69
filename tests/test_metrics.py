"""Saliency metrics: closed-form cases, brute-force oracles, invariances,
bitwise equality with the plain formulas, and a memory bound."""

import tracemalloc

import numpy as np
import pytest

from salattn.metrics import (_dilate_chebyshev, _threshold_index, boundary_f,
                             boundary_pixels, default_boundary_tol, evaluate_frames,
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
    header, *rows = evaluate_frames(items).table().splitlines()
    assert header.split() == ["group", "frames", "maxF", "S", "MAE", "J", "boundaryF"]
    table = {row.split()[0]: row.split()[1:] for row in rows}
    assert list(table) == ["va", "vb", "overall"]
    assert [table[k][0] for k in table] == ["2", "1", "3"]
    assert table["va"][4] == "0.500000"
    assert table["vb"][4] == "1.000000"
    assert table["overall"][4] == f"{2.0 / 3.0:.6f}"


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


# ---------------------------------------------------------------------------
# Bitwise oracles. Each metric is an exact rewrite of the plain formula
# below: bool masks, an exact threshold index, no float copies of masks.
# Every float reduction keeps its operands and order, so the values must be
# equal with ==, not merely close.

THRESHOLDS = np.arange(256, dtype=np.float64) / 255.0
EPS = np.spacing(1)


def test_threshold_index_matches_searchsorted():
    rng = np.random.default_rng(401)
    values = np.concatenate([
        THRESHOLDS,
        np.nextafter(THRESHOLDS, -np.inf),
        np.nextafter(THRESHOLDS, np.inf),
        [np.inf, -np.inf, np.nan, -0.0, -1e-300, -0.5 / 255, -1.0, -1e300,
         1.0 + 1e-12, 255.0, 1e300],
        rng.uniform(-0.2, 1.2, 2000),
        rng.integers(0, 256, 2000) / 255.0,
    ])
    want = np.searchsorted(THRESHOLDS, values, side="right")
    want[np.isnan(values)] = 0
    assert np.array_equal(_threshold_index(values), want)
    assert np.array_equal(_threshold_index(values[:4000].reshape(40, 100)),
                          want[:4000].reshape(40, 100))


def maxf_formula(pred, gt, beta2=0.3):
    g = gt > 0.5
    n_fg = int(g.sum())
    idx = np.searchsorted(THRESHOLDS, pred, side="right")
    idx[np.isnan(pred)] = 0
    predicted = idx.size - np.cumsum(np.bincount(idx.ravel(), minlength=257))[:256]
    tp = n_fg - np.cumsum(np.bincount(idx[g], minlength=257))[:256]
    precision = np.divide(tp, predicted, out=np.zeros(256), where=predicted > 0)
    recall = tp / n_fg
    denom = beta2 * precision + recall
    f = np.divide((1.0 + beta2) * precision * recall, denom,
                  out=np.zeros(256), where=denom > 0)
    return float(f.max())


def object_score_formula(values):
    x = float(np.mean(values))
    sigma = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return 2.0 * x / (x * x + 1.0 + sigma + EPS)


def ssim_block_formula(p, g):
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
        return a / (b + EPS)
    return 1.0 if b == 0.0 else 0.0


def s_formula(pred, g, alpha=0.5):
    y = float(g.mean())
    if y == 0.0:
        return float(np.clip(1.0 - pred.mean(), 0.0, 1.0))
    if y == 1.0:
        return float(np.clip(pred.mean(), 0.0, 1.0))
    fg = pred * g
    bg = (1.0 - pred) * (1.0 - g)
    s_obj = (y * object_score_formula(fg[g == 1.0])
             + (1.0 - y) * object_score_formula(bg[g == 0.0]))
    h, w = g.shape
    cy, cx = np.argwhere(g > 0.5).mean(axis=0).round().astype(int) + 1
    weights, scores = [], []
    for r0, r1, c0, c1 in ((0, cy, 0, cx), (0, cy, cx, w), (cy, h, 0, cx), (cy, h, cx, w)):
        pb, gb = pred[r0:r1, c0:c1], g[r0:r1, c0:c1]
        weights.append(pb.size / (h * w))
        scores.append(ssim_block_formula(pb, gb) if pb.size else 0.0)
    s_reg = float(np.dot(weights, scores))
    return float(np.clip(alpha * s_obj + (1.0 - alpha) * s_reg, 0.0, 1.0))


def mae_formula(pred, gt):
    return float(np.abs(pred - gt).mean())


def jaccard_formula(p, g):
    p, g = p > 0.5, g > 0.5
    union = int((p | g).sum())
    return 1.0 if union == 0 else float((p & g).sum() / union)


def dilate_formula(m, tol):
    """A row pass, then the same pass over the transpose."""
    for _ in range(2):
        out = m.copy()
        for d in range(1, min(tol, m.shape[0] - 1) + 1):
            out[d:] |= m[:-d]
            out[:-d] |= m[d:]
        m = out.T
    return m


def boundary_f_formula(p, g):
    tol = default_boundary_tol(*p.shape)
    pb, gb = boundary_pixels(p > 0.5), boundary_pixels(g > 0.5)
    np_b, ng_b = int(pb.sum()), int(gb.sum())
    if np_b == 0 and ng_b == 0:
        return 1.0
    if np_b == 0 or ng_b == 0:
        return 0.0
    precision = float((pb & dilate_formula(gb, tol)).sum() / np_b)
    recall = float((gb & dilate_formula(pb, tol)).sum() / ng_b)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def oracle_cases():
    """(pred, float gt) pairs: shapes 1x1 to 64x64 including 1xn and nx1;
    random, empty, full and single-pixel ground truth; quantised,
    unquantised and empty-at-0.5 predictions."""
    rng = np.random.default_rng(409)
    shapes = [(1, 1), (1, 2), (2, 1), (1, 9), (13, 1), (1, 64), (64, 1), (2, 2),
              (3, 7), (64, 64)]
    shapes += [tuple(int(n) for n in rng.integers(1, 65, size=2)) for _ in range(14)]
    for h, w in shapes:
        single = np.zeros((h, w))
        single.reshape(-1)[rng.integers(h * w)] = 1.0
        gts = [(rng.random((h, w)) < rng.uniform(0.1, 0.7)).astype(np.float64),
               np.zeros((h, w)), np.ones((h, w)), single]
        for gt in gts:
            yield rng.integers(0, 256, size=(h, w)) / 255.0, gt
            yield rng.random((h, w)), gt
            yield 0.49 * rng.random((h, w)), gt


ORACLES = {
    "max_f": (max_f_measure, maxf_formula, False),
    "s": (s_measure, s_formula, False),
    "mae": (mae, mae_formula, False),
    "jaccard": (jaccard, jaccard_formula, True),
    "boundary_f": (boundary_f, boundary_f_formula, True),
}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_metric_equals_plain_formula_bitwise(name):
    """Float 0/1 and bool masks both give the plain formula's value."""
    fn, formula, binarized = ORACLES[name]
    n = 0
    for pred, gt in oracle_cases():
        if name == "max_f" and not gt.any():
            continue
        if binarized:
            pred = (pred >= 0.5).astype(np.float64)
        want = formula(pred, gt)
        assert fn(pred, gt) == want, (name, pred.shape)
        assert fn(pred > 0.5 if binarized else pred, gt > 0.5) == want, (name, pred.shape)
        n += 1
    assert n >= 200


def test_frame_metrics_equals_plain_formulas_bitwise():
    for pred, gt in oracle_cases():
        p = (pred >= 0.5).astype(np.float64)
        want = (maxf_formula(pred, gt) if gt.any() else None, s_formula(pred, gt),
                mae_formula(pred, gt), jaccard_formula(p, gt), boundary_f_formula(p, gt))
        for g in (gt, gt > 0.5):
            fm = frame_metrics(pred, g)
            got = (None if np.isnan(fm.max_f) else fm.max_f, fm.s, fm.mae, fm.jaccard,
                   fm.boundary_f)
            assert got == want, pred.shape


def test_dilation_equals_transpose_formula():
    rng = np.random.default_rng(419)
    for h, w in [(1, 1), (1, 20), (20, 1), (5, 9), (33, 17), (64, 64)]:
        for tol in (1, 2, 5, 70):
            m = rng.random((h, w)) < 0.1
            assert np.array_equal(_dilate_chebyshev(m, tol), dilate_formula(m, tol))


# ---------------------------------------------------------------------------
# memory


def test_frame_metrics_256_peak_memory():
    """One 256x256 frame scores with a traced peak under 1.5 MB, less than
    three float maps: no float copy of either mask and few full-size
    temporaries (the plain formulas peaked at 2.5 MB). The corner object
    makes one S-measure quadrant nearly the whole frame."""
    rng = np.random.default_rng(421)
    yy, xx = np.mgrid[:256, :256]
    for gt in ((yy - 120) ** 2 + (xx - 136) ** 2 < 13 ** 2,
               (yy < 20) & (xx < 20),
               (yy > 5) | (xx > 5)):
        pred = np.clip(np.where(gt, 0.8, 0.1) + 0.2 * rng.random((256, 256)), 0.0, 1.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            frame_metrics(pred, gt)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6, peak

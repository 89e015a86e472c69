"""End-to-end acceptance runs with pinned tolerances.

The expensive part, the full toy pipeline (synth 10 videos -> train 2000
steps -> infer + eval on the 2 held-out videos), runs once in a
module-scoped fixture together with its ablated twin (attention and
contrastive paths disabled) and the bitwise determinism replicas; the
two arms train concurrently as two `salattn train` processes, each held
to its own CPU, and the replicas train in process. The individual tests
then assert one bar each so a failure reads cleanly.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from salattn import metrics
from salattn.attention import (naive_nonlocal_reference, nonlocal_reordered,
                               nonlocal_rowwise, nonlocal_unordered)
from salattn.cli import main
from salattn.contrastive import (FOREGROUND, BACKGROUND, ContrastiveBatch,
                                 RegionFeature, infonce_loss)
from salattn import tensor as T


def tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def write_cfg(path, **entries):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{k}={v}\n" for k, v in entries.items()))
    return str(path)


def overall_row(metrics_txt):
    for line in Path(metrics_txt).read_text().splitlines():
        if line.startswith("overall"):
            parts = line.split()
            return dict(max_f=float(parts[2]), s=float(parts[3]),
                        mae=float(parts[4]), j=float(parts[5]),
                        boundary_f=float(parts[6]))
    raise AssertionError(f"no overall row in {metrics_txt}")


def start_train(base, data_root, tag, use_attention, use_contrastive, k):
    """Launch arm k's default-protocol `train` as its own process, held to
    usable CPU k (modulo their count), so both arms train at once, each in
    one process on the one BLAS thread the CLI pins. Unheld, each would
    split its steps over two processes, four on two cores, and the pair ran
    slower."""
    arm = base / tag
    cfg = write_cfg(arm / "run.cfg", seed=1, dataset_root=data_root,
                    checkpoint_path=arm / "model.ckpt", output_dir=arm / "out",
                    use_attention=use_attention, use_contrastive=use_contrastive)
    src = str(Path(__file__).resolve().parent.parent / "src")
    cpus = sorted(os.sched_getaffinity(0))
    with open(arm / "train.log", "wb") as log:
        proc = subprocess.Popen([sys.executable, "-m", "salattn.cli", "train", "--config", cfg],
                                stdout=log, stderr=subprocess.STDOUT,
                                env=dict(os.environ, PYTHONPATH=src),
                                preexec_fn=lambda: os.sched_setaffinity(0, {cpus[k % len(cpus)]}))
    return proc, time.perf_counter()


def finish_arm(base, data_root, tag, use_attention, use_contrastive, train):
    """Wait for the arm's train process, then infer + eval the held-out videos."""
    arm = base / tag
    proc, t0 = train
    assert proc.wait() == 0, (arm / "train.log").read_text()[-2000:]
    t_train = time.perf_counter() - t0

    t0 = time.perf_counter()
    for vid in ("video08", "video09"):
        icfg = write_cfg(arm / f"infer_{vid}.cfg", seed=1,
                         dataset_root=data_root,
                         checkpoint_path=arm / "model.ckpt",
                         output_dir=arm / "pred" / vid,
                         use_attention=use_attention,
                         use_contrastive=use_contrastive)
        assert main(["infer", "--config", icfg,
                     "--frames", str(Path(data_root) / vid / "frames")]) == 0
        gt = arm / "gt" / vid
        gt.mkdir(parents=True, exist_ok=True)
        for m in sorted((Path(data_root) / vid / "masks").glob("*.pgm")):
            (gt / m.name).write_bytes(m.read_bytes())
    assert main(["eval", "--pred", str(arm / "pred"), "--gt", str(arm / "gt"),
                 "--out", str(arm / "out")]) == 0
    t_eval = time.perf_counter() - t0
    return dict(overall=overall_row(arm / "out" / "metrics.txt"),
                loss_log=(arm / "out" / "loss_log.csv").read_text().splitlines(),
                t_train=t_train, t_infer_eval=t_eval)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    data_root = base / "data"

    t0 = time.perf_counter()
    cfg = write_cfg(base / "synth.cfg", seed=1, dataset_root=data_root)
    assert main(["synth", "--config", cfg]) == 0
    t_synth = time.perf_counter() - t0

    # identically configured second dataset for the determinism criterion
    cfg_b = write_cfg(base / "synth_b.cfg", seed=1, dataset_root=base / "data_b")
    assert main(["synth", "--config", cfg_b]) == 0

    arms = {"full": (1, 1), "ablated": (0, 0)}
    trains = {tag: start_train(base, data_root, tag, *flags, k)
              for k, (tag, flags) in enumerate(arms.items())}
    try:
        # The full arm is reaped first, so its t_train is its own wall time.
        full, ablated = (finish_arm(base, data_root, tag, *flags, trains[tag])
                         for tag, flags in arms.items())
    finally:
        for proc, _ in trains.values():
            proc.kill()      # only an arm left running after a failure

    # short identical-config training runs, repeated, for bitwise comparison
    det_cfg = write_cfg(base / "det.cfg", seed=1, dataset_root=data_root,
                        steps=40, checkpoint_path=base / "det.ckpt",
                        output_dir=base / "det_out")
    assert main(["train", "--config", det_cfg]) == 0
    ckpt_first = (base / "det.ckpt").read_bytes()
    log_first = (base / "det_out" / "loss_log.csv").read_bytes()
    assert main(["train", "--config", det_cfg]) == 0
    ckpt_second = (base / "det.ckpt").read_bytes()
    log_second = (base / "det_out" / "loss_log.csv").read_bytes()

    return dict(base=base, data_root=data_root, t_synth=t_synth,
                full=full, ablated=ablated,
                synth_digests=(tree_digest(data_root), tree_digest(base / "data_b")),
                train_replicas=(ckpt_first, ckpt_second, log_first, log_second))


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_gradient_suite_passes_under_time_budget(capsys):
    t0 = time.perf_counter()
    assert main(["gradcheck"]) == 0
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. attention equivalence


def test_attention_variants_agree_to_1e10():
    rng = np.random.default_rng(20)
    shapes = [(2, 2, 2), (3, 4, 5), (8, 8, 8), (5, 7, 3), (1, 8, 4),
              (6, 2, 8), (4, 4, 1), (7, 3, 6), (8, 1, 8), (2, 6, 7)]
    for shape in shapes:
        x = rng.uniform(-1.0, 1.0, size=shape)
        ref = naive_nonlocal_reference(x)
        for variant in (nonlocal_rowwise, nonlocal_unordered, nonlocal_reordered):
            assert np.max(np.abs(variant(x) - ref)) <= 1e-10


# ---------------------------------------------------------------------------
# 3. flops accounting and wall time


def test_bench_counts_and_reordered_is_faster(capsys):
    assert main(["bench", "64", "64", "32", "--repeats", "3"]) == 0
    out = capsys.readouterr().out
    ratio_line = [ln for ln in out.splitlines()
                  if ln.startswith("time ratio naive/reordered:")][0]
    assert float(ratio_line.split(":")[1]) > 1.0
    assert main(["bench", "16", "16", "32", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "4,194,304" in out
    assert "524,288" in out
    assert "multiply ratio naive/reordered: 8.00" in out


# ---------------------------------------------------------------------------
# 4. InfoNCE oracle


def unit(rng, c):
    v = rng.normal(size=c)
    return v / np.linalg.norm(v)


def feature(vid, frame, polarity, vec, score=0.5):
    return RegionFeature(vid, frame, polarity, T.constant(vec), score)


def batch_of(rng, c, n_pos, n_neg):
    anchor = feature("v", 0, FOREGROUND, unit(rng, c))
    pos = [feature("v", i + 1, FOREGROUND, unit(rng, c)) for i in range(n_pos)]
    neg = [feature("v", int(rng.integers(0, 4)), BACKGROUND, unit(rng, c))
           for _ in range(n_neg)]
    return ContrastiveBatch(anchor, pos, neg)


def direct_grouped_infonce(batch, tau):
    """Plain summation, no stabilization: -log(sum_pos e^s / sum_all e^s)."""
    u = batch.anchor.vec.data
    pos = np.array([float(p.vec.data @ u) for p in batch.positives]) / tau
    neg = np.array([float(n.vec.data @ u) for n in batch.negatives]) / tau
    return float(-np.log(np.exp(pos).sum() / (np.exp(pos).sum() + np.exp(neg).sum())))


def test_infonce_matches_direct_summation_on_100_batches():
    rng = np.random.default_rng(41)
    for trial in range(100):
        c = int(rng.integers(2, 9))
        b = batch_of(rng, c, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        tau = float(rng.uniform(0.05, 2.0))
        got = infonce_loss(b, tau).item()
        assert abs(got - direct_grouped_infonce(b, tau)) <= 1e-12


def test_infonce_symmetric_case_is_ln2():
    rng = np.random.default_rng(7)
    v = unit(rng, 6)
    b = ContrastiveBatch(feature("v", 0, FOREGROUND, v),
                         [feature("v", 1, FOREGROUND, v)],
                         [feature("v", 0, BACKGROUND, v)])
    for tau in (0.1, 0.5, 1.0):
        assert abs(infonce_loss(b, tau).item() - np.log(2.0)) <= 1e-12


def test_infonce_orthogonal_pinned_value():
    u = np.array([1.0, 0.0])
    b = ContrastiveBatch(feature("v", 0, FOREGROUND, u),
                         [feature("v", 1, FOREGROUND, u.copy())],
                         [feature("v", 0, BACKGROUND, np.array([0.0, 1.0]))])
    assert abs(infonce_loss(b, 1.0).item() - 0.313262) <= 1e-6


# ---------------------------------------------------------------------------
# 5. end-to-end toy run


def test_toy_run_max_f(pipeline):
    assert pipeline["full"]["overall"]["max_f"] >= 0.90


def test_toy_run_mae(pipeline):
    assert pipeline["full"]["overall"]["mae"] <= 0.05


def test_toy_run_jaccard(pipeline):
    assert pipeline["full"]["overall"]["j"] >= 0.80


def test_toy_run_within_time_budget(pipeline):
    total = (pipeline["t_synth"] + pipeline["full"]["t_train"]
             + pipeline["full"]["t_infer_eval"])
    assert total < 15 * 60.0


def test_toy_run_training_loss_drops_tenfold(pipeline):
    rows = pipeline["full"]["loss_log"]
    assert rows[0] == "step,L,L_bce,L_cl"
    first = float(rows[1].split(",")[2])
    last = float(rows[-1].split(",")[2])
    assert abs(first - np.log(2.0)) <= 1e-6   # zero logit heads start at ln 2
    assert last < 0.1 * first


# ---------------------------------------------------------------------------
# 6. ablation ordering


def test_full_model_beats_ablated_baseline(pipeline):
    full = pipeline["full"]["overall"]["max_f"]
    ablated = pipeline["ablated"]["overall"]["max_f"]
    assert full >= ablated


# ---------------------------------------------------------------------------
# 7. metric properties


def test_metrics_on_perfect_and_degenerate_predictions():
    rng = np.random.default_rng(99)
    g = (rng.random((24, 24)) < 0.4).astype(np.float64)
    assert metrics.max_f_measure(g, g) == 1.0
    assert metrics.mae(g, g) == 0.0
    assert metrics.jaccard(g, g) == 1.0
    assert metrics.boundary_f(g, g) == 1.0
    assert metrics.s_measure(g, g) >= 0.97
    assert metrics.jaccard(1.0 - g, g) == 0.0
    assert metrics.mae(np.full((24, 24), 0.5), g) == 0.5


def test_max_f_invariant_under_gamma_remapping():
    rng = np.random.default_rng(17)
    gt = (rng.random((16, 16)) < 0.5).astype(np.float64)
    pred = rng.integers(0, 16, size=(16, 16)).astype(np.float64) * (16.0 / 255.0)
    base = metrics.max_f_measure(pred, gt)
    for gamma in (0.5, 2.0):
        assert abs(metrics.max_f_measure(pred ** gamma, gt) - base) <= 1e-12


# ---------------------------------------------------------------------------
# 8. determinism


def test_synth_is_bitwise_deterministic(pipeline):
    a, b = pipeline["synth_digests"]
    assert a == b


def test_train_is_bitwise_deterministic(pipeline):
    ckpt_a, ckpt_b, log_a, log_b = pipeline["train_replicas"]
    assert ckpt_a == ckpt_b
    assert log_a == log_b

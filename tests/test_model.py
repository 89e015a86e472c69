"""Model assembly, loss composition, SGD training step, checkpoints."""

import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from salattn import tensor as T
from salattn.contrastive import (BACKGROUND, FOREGROUND, ContrastiveBatch,
                                 DegenerateBatchWarning, RegionFeature,
                                 infonce_loss)
from salattn.model import (CHECKPOINT_MAGIC, CheckpointError, ModelConfig,
                           SaliencyModel, TrainSettings, load_checkpoint,
                           save_checkpoint, total_loss, train_step)
from salattn.ops import bce_loss
from salattn.netpbm import read_pgm, read_ppm
from salattn.synth import SynthConfig, generate_video, load_dataset, save_video
from salattn.tensor import ShapeError


def zeroed_model():
    m = SaliencyModel(seed=1)
    for t in m.params.values():
        t.data[...] = 0.0
    return m


def tiny_minibatch(n_frames=4, size=32, seed=5):
    video = generate_video(SynthConfig(video_id="t0", seed=seed,
                                       n_frames=n_frames, height=size, width=size))
    return [("t0", i, video.frames[i], video.masks[i]) for i in range(n_frames)]


def simple_batch(pos_dots, neg_dots):
    u = np.array([1.0, 0.0, 0.0])
    anchor = RegionFeature("v", 0, FOREGROUND, T.constant(u), 0.5)
    pos = [RegionFeature("v", i + 1, FOREGROUND,
                         T.constant(np.array([d, np.sqrt(1 - d * d), 0.0])), 0.5)
           for i, d in enumerate(pos_dots)]
    neg = [RegionFeature("v", i, BACKGROUND,
                         T.constant(np.array([d, 0.0, np.sqrt(1 - d * d)])), 0.5)
           for i, d in enumerate(neg_dots)]
    return ContrastiveBatch(anchor, pos, neg)


# ---------------------------------------------------------------------------
# forward


def test_zero_parameters_give_half_everywhere():
    m = zeroed_model()
    out = m.forward(np.random.default_rng(0).random((16, 16, 3)))
    assert np.all(out.logit.data == 0.0)
    assert np.all(out.saliency.data == 0.5)


def test_forward_shape_contract():
    m = SaliencyModel(seed=2)
    out = m.forward(np.zeros((64, 64, 3)))
    assert out.saliency.shape == out.logit.shape == (64, 64)
    assert out.feat.shape == (8, 8, 32)
    out = m.forward(np.zeros((32, 48, 3)))
    assert out.saliency.shape == (32, 48)
    assert out.feat.shape == (4, 6, 32)


def test_forward_rejects_bad_frames():
    m = SaliencyModel(seed=2)
    with pytest.raises(ShapeError):
        m.forward(np.zeros((30, 32, 3)))
    with pytest.raises(ShapeError):
        m.forward(np.zeros((32, 32)))
    with pytest.raises(ShapeError):
        m.forward(np.zeros((32, 32, 4)))


def test_saliency_bounded_and_finite():
    rng = np.random.default_rng(271)
    m = SaliencyModel(seed=9)
    out = m.forward(rng.random((24, 24, 3)))
    assert np.all(out.saliency.data > 0.0)
    assert np.all(out.saliency.data < 1.0)
    assert np.array_equal(out.saliency.data, T.sigmoid(out.logit).data)
    assert np.all(np.isfinite(out.feat.data))


def test_parameter_budget():
    m = SaliencyModel(seed=1)
    assert m.param_count() == sum(t.data.size for t in m.params.values())
    assert m.param_count() <= 200_000


def test_initialization_seeded_and_bounded():
    a = SaliencyModel(seed=4)
    b = SaliencyModel(seed=4)
    c = SaliencyModel(seed=5)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)
    assert any(not np.array_equal(a.params[n].data, c.params[n].data) for n in a.params)
    assert np.max(np.abs(a.params["enc1.weight"].data)) <= (12.0 / 27.0) ** 0.5
    assert np.max(np.abs(a.params["enc1.weight"].data)) > (1.0 / 27.0) ** 0.5
    for name, t in a.params.items():
        if name.endswith(".bias"):
            assert np.all(t.data == 0.0)
    # The four logit-producing convs start at exactly zero so the first
    # forward pass puts every pixel at saliency 0.5 (see model.py).
    for name in ("predict.weight", "skip4.weight", "skip2.weight", "skip1.weight"):
        assert np.all(a.params[name].data == 0.0)
    assert np.any(a.params["enc1.weight"].data != 0.0)


def test_ablation_flag_disables_attention_branches():
    cfg = ModelConfig(use_attention=False)
    m = SaliencyModel(cfg, seed=3)
    full = SaliencyModel(ModelConfig(), seed=3)
    frame = np.random.default_rng(1).random((16, 16, 3))
    out_a = m.forward(frame)
    out_f = full.forward(frame)
    assert m.param_count() == full.param_count()   # same manifest either way
    # Logit heads start at zero, so both nets emit 0.5 saliency before any
    # training; the flag's effect is visible in the embedding features.
    assert np.array_equal(out_a.saliency.data, out_f.saliency.data)
    assert not np.array_equal(out_a.feat.data, out_f.feat.data)


# ---------------------------------------------------------------------------
# losses


def test_total_loss_perfect_predictions():
    rng = np.random.default_rng(277)
    targets = [(rng.random((8, 8)) < 0.5).astype(np.float64) for _ in range(3)]
    logits = [T.constant(40.0 * (2.0 * t - 1.0)) for t in targets]
    total, l_bce, l_cl = total_loss(logits, targets, [], tau=0.1)
    assert total.item() <= 1e-17
    assert l_cl.item() == 0.0
    assert total.item() == l_bce.item()


def test_total_loss_double_ln2():
    targets = [np.zeros((4, 4)), np.ones((4, 4))]
    logits = [T.constant(np.zeros((4, 4))) for _ in range(2)]   # saliency 0.5
    batches = [simple_batch([0.4, 0.4], [0.4, 0.4])]
    total, l_bce, l_cl = total_loss(logits, targets, batches, tau=0.1)
    assert abs(l_bce.item() - np.log(2.0)) <= 1e-12
    assert abs(l_cl.item() - np.log(2.0)) <= 1e-12
    assert abs(total.item() - 2.0 * np.log(2.0)) <= 1e-12


def test_total_loss_recomposition_oracle():
    rng = np.random.default_rng(281)
    targets = [(rng.random((6, 6)) < 0.5).astype(np.float64) for _ in range(4)]
    logits = [T.constant(rng.uniform(-3.0, 3.0, (6, 6))) for _ in range(4)]
    batches = [simple_batch(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 2)),
               simple_batch(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 4))]
    total, l_bce, l_cl = total_loss(logits, targets, batches, tau=0.2)
    ref_bce = np.mean([bce_loss(z, t).item() for z, t in zip(logits, targets)])
    ref_cl = np.mean([infonce_loss(b, 0.2).item() for b in batches])
    assert abs(l_bce.item() - ref_bce) <= 1e-12
    assert abs(l_cl.item() - ref_cl) <= 1e-12
    assert abs(total.item() - (ref_bce + ref_cl)) <= 1e-12


def test_total_loss_needs_frames():
    with pytest.raises(ValueError):
        total_loss([], [], [], tau=0.1)


# ---------------------------------------------------------------------------
# training


def test_train_step_lr_zero_is_identity():
    m = SaliencyModel(seed=6)
    before = {k: v.data.copy() for k, v in m.params.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateBatchWarning)
        train_step(m, tiny_minibatch(), TrainSettings(lr=0.0))
    for k, v in m.params.items():
        assert np.array_equal(v.data, before[k])


def test_train_step_bitwise_deterministic():
    batch = tiny_minibatch()
    results = []
    for _ in range(2):
        m = SaliencyModel(seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateBatchWarning)
            rec = train_step(m, batch, TrainSettings())
        results.append((rec, {k: v.data.copy() for k, v in m.params.items()}))
    (rec_a, pa), (rec_b, pb) = results
    assert rec_a.loss == rec_b.loss
    for k in pa:
        assert np.array_equal(pa[k], pb[k])


def saved_videos(root, n_videos=2, n_frames=4, size=32):
    videos = [generate_video(SynthConfig(video_id=f"v{i}", seed=30 + i, n_frames=n_frames,
                                         height=size, width=size))
              for i in range(n_videos)]
    for v in videos:
        save_video(root, v)
    return load_dataset(root)


def test_forward_scales_uint8_frames_as_read_ppm(tmp_path):
    """A uint8 frame gives bitwise the saliency and features of read_ppm's
    float frame from the same file."""
    saved_videos(tmp_path)
    m = SaliencyModel(seed=3)
    for i in range(2):
        frame = read_ppm(tmp_path / "v0" / "frames" / f"{i:05d}.ppm")
        from_levels = m.forward(np.round(frame * 255.0).astype(np.uint8))
        from_file = m.forward(frame)
        assert np.array_equal(from_levels.saliency.data, from_file.saliency.data)
        assert np.array_equal(from_levels.feat.data, from_file.feat.data)


def test_train_step_same_bits_from_levels_and_floats(tmp_path):
    """A step on load_dataset's uint8 frames and bool masks gives bitwise the
    losses and parameters of a step on read_ppm floats and float masks; the
    benchmark's SGD check feeds train_step the loaded arrays."""
    videos = saved_videos(tmp_path)
    levels = [(v.video_id, i, v.frames[i], v.masks[i]) for v in videos for i in range(4)]
    assert levels[0][2].dtype == np.uint8 and levels[0][3].dtype == np.bool_
    floats = [(v, i, read_ppm(tmp_path / v / "frames" / f"{i:05d}.ppm"),
               (read_pgm(tmp_path / v / "masks" / f"{i:05d}.pgm") >= 0.5).astype(np.float64))
              for v, i, _, _ in levels]
    models = [SaliencyModel(seed=1), SaliencyModel(seed=1)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateBatchWarning)
        records = [train_step(m, batch, TrainSettings(lr=1e-3))
                   for m, batch in zip(models, (levels, floats))]
    assert records[0] == records[1]
    for k, t in models[0].params.items():
        assert np.array_equal(t.data, models[1].params[k].data)


def test_train_step_traced_memory_peak():
    """One default 64x64 step (2 videos x 4 frames) peaks below 30 MB above
    its starting memory: the tape holds op inputs and outputs, but no patch
    matrix and no gradient after use. Keeping both peaked about 49 MB."""
    videos = [generate_video(SynthConfig(video_id=f"v{i}", seed=20 + i, n_frames=4))
              for i in range(2)]
    batch = [(v.video_id, i, v.frames[i], v.masks[i]) for v in videos for i in range(4)]
    m = SaliencyModel(seed=1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        train_step(m, batch, TrainSettings())
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_forward_256_traced_memory_peak():
    """One untaped 256x256 forward peaks below 18 MB above its starting
    memory (about 13 MB): conv patches are copied a band of rows at a time
    and the co-attention takes its 1024x1024 affinity a block of rows at a
    time. Building the whole patch matrices and affinity peaked at 27 MB."""
    m = SaliencyModel(seed=1)
    frame = np.random.default_rng(3).integers(0, 256, (256, 256, 3), dtype=np.uint8)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        m.forward(frame)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 18e6


def test_overfit_single_minibatch_decreases_bce():
    """50 repeated steps on one minibatch must cut BCE by at least 10%.

    The step size is the overfit-sanity one (1e-2), large enough that 50
    steps move a freshly initialized net measurably.
    """
    m = SaliencyModel(seed=6)
    batch = tiny_minibatch()
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateBatchWarning)
        for _ in range(50):
            records.append(train_step(m, batch, TrainSettings(lr=1e-2)))
    assert records[-1].bce <= 0.9 * records[0].bce
    assert all(np.isfinite(r.loss) for r in records)


def test_train_step_empty_minibatch_rejected():
    with pytest.raises(ValueError):
        train_step(SaliencyModel(seed=1), [], TrainSettings())


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    src = SaliencyModel(seed=12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, src)
    dst = SaliencyModel(seed=99)
    load_checkpoint(path, dst)
    for k in src.params:
        assert np.array_equal(dst.params[k].data, src.params[k].data)
    frame = np.random.default_rng(2).random((16, 16, 3))
    assert np.array_equal(dst.forward(frame).saliency.data,
                          src.forward(frame).saliency.data)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path, SaliencyModel(seed=1))


def test_checkpoint_truncated(tmp_path):
    m = SaliencyModel(seed=1)
    path = tmp_path / "cut.ckpt"
    save_checkpoint(path, m)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path, m)


def test_checkpoint_manifest_diff_lists_all_problems(tmp_path):
    # a file holding one alien tensor: everything missing plus one unexpected
    name = b"alien.weight"
    payload = (CHECKPOINT_MAGIC + struct.pack("<I", len(name)) + name
               + struct.pack("<I", 1) + struct.pack("<I", 2)
               + np.zeros(2).astype("<f8").tobytes())
    path = tmp_path / "alien.ckpt"
    path.write_bytes(payload)
    m = SaliencyModel(seed=1)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path, m)
    msg = str(err.value)
    assert "unexpected tensor alien.weight" in msg
    for k in m.params:
        assert f"missing tensor {k}" in msg


def test_checkpoint_duplicate_tensor_rejected(tmp_path):
    m = SaliencyModel(seed=1)
    path = tmp_path / "dup.ckpt"
    save_checkpoint(path, m)
    w = m.params["enc1.weight"].data
    name = b"enc1.weight"
    extra = (struct.pack("<I", len(name)) + name + struct.pack("<I", w.ndim)
             + struct.pack(f"<{w.ndim}I", *w.shape) + np.full(w.shape, 7.0).astype("<f8").tobytes())
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(CheckpointError, match="duplicate tensor enc1.weight"):
        load_checkpoint(path, m)


def test_checkpoint_shape_mismatch_named(tmp_path):
    m = SaliencyModel(seed=1)
    path = tmp_path / "shape.ckpt"
    save_checkpoint(path, m)
    other = SaliencyModel(ModelConfig(channels=16), seed=1)
    with pytest.raises(CheckpointError, match="enc4.weight"):
        load_checkpoint(path, other)
    # the loaded model must be untouched after a failed load
    fresh = SaliencyModel(ModelConfig(channels=16), seed=1)
    for k in other.params:
        assert np.array_equal(other.params[k].data, fresh.params[k].data)


def checkpoint_spans(blob):
    """(start, end) byte spans of the magic and each tensor header, and of
    each tensor payload, walking a well-formed checkpoint."""
    headers, payloads, off = [(0, len(CHECKPOINT_MAGIC))], [], len(CHECKPOINT_MAGIC)
    while off < len(blob):
        (n,) = struct.unpack_from("<I", blob, off)
        (rank,) = struct.unpack_from("<I", blob, off + 4 + n)
        shape = struct.unpack_from(f"<{rank}I", blob, off + 8 + n)
        end = off + 8 + n + 4 * rank
        headers.append((off, end))
        payloads.append((end, end + 8 * math.prod(shape)))
        off = payloads[-1][1]
    return headers, payloads


def test_checkpoint_fuzz_raises_only_checkpoint_error(tmp_path):
    """Truncation at every header byte and at seeded payload offsets, and
    seeded random bytes written into header fields: each file raises
    CheckpointError, never anything else."""
    m = SaliencyModel(ModelConfig(channels=2, stem_widths=(2, 2, 2)), seed=1)
    save_checkpoint(tmp_path / "model.ckpt", m)
    blob = (tmp_path / "model.ckpt").read_bytes()
    headers, payloads = checkpoint_spans(blob)
    assert payloads[-1][1] == len(blob)
    rng = np.random.default_rng(2024)
    cases = [blob[:cut] for start, end in headers for cut in range(start, end)]
    for _ in range(200):
        start, end = payloads[rng.integers(len(payloads))]
        cases.append(blob[:rng.integers(start, end)])
    for _ in range(400):
        start, end = headers[rng.integers(len(headers))]
        at = int(rng.integers(start, end))
        n = int(rng.integers(1, 5))
        case = blob[:at] + rng.bytes(n) + blob[at + n:]
        if case != blob:
            cases.append(case)
    rejected = 0
    for i, case in enumerate(cases):
        path = tmp_path / f"{i}.ckpt"     # a fresh file: rewriting one is slow
        path.write_bytes(case)
        try:
            load_checkpoint(path, m)
        except CheckpointError:
            rejected += 1
        path.unlink()
    # Every header byte is checked against the model's manifest, so only an
    # unchanged file loads.
    assert rejected == len(cases)

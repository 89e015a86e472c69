"""Synthetic moving-shape videos: RNG pinning, geometry, and dataset I/O.

The RNG checks compare the numpy-vectorized generator against an independent
big-integer reimplementation of the same mixing function, so a silent change
to the constants or the draw order fails loudly. The geometry checks pin the
exact foreground pixel counts that the mask construction implies.
"""

import tracemalloc

import numpy as np
import pytest

from salattn.netpbm import read_pgm, read_ppm
from salattn.rng import SplitMix64, mix64
from salattn.synth import (DatasetError, SynthConfig, VideoSequence, generate_video,
                           load_dataset, save_video)

_MASK = (1 << 64) - 1


def reference_stream(seed, n):
    """SplitMix64 via plain python integers, written independently of rng.py."""
    out = []
    state = seed & _MASK
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


# ---------------------------------------------------------------------------
# rng


def test_rng_matches_reference_reimplementation():
    for seed in (0, 1, 1234567, 2**63 + 11):
        rng = SplitMix64(seed)
        got = [rng.next_u64() for _ in range(50)]
        assert got == reference_stream(seed, 50)


def test_rng_pinned_first_outputs():
    rng = SplitMix64(1234567)
    assert rng.next_u64() == 6457827717110365317
    assert rng.next_u64() == 3203168211198807973


def test_rng_vectorized_matches_scalar():
    a = SplitMix64(99)
    b = SplitMix64(99)
    # interleave block and scalar draws; the streams must stay aligned
    block = a.u64_array(17)
    scalars = np.array([b.next_u64() for _ in range(17)], dtype=np.uint64)
    assert np.array_equal(block, scalars)
    assert a.next_u64() == b.next_u64()
    fa = a.f64_array((3, 5))
    fb = np.array([b.next_f64() for _ in range(15)]).reshape(3, 5)
    assert np.array_equal(fa, fb)


def test_rng_doubles_in_unit_interval():
    rng = SplitMix64(7)
    draws = rng.f64_array(1000)
    assert np.all(draws >= 0.0)
    assert np.all(draws < 1.0)
    assert draws.std() > 0.2   # not collapsed


def test_rng_randint_bounds_and_errors():
    rng = SplitMix64(3)
    draws = [rng.randint(6) for _ in range(200)]
    assert set(draws) == {0, 1, 2, 3, 4, 5}
    with pytest.raises(ValueError):
        rng.randint(0)
    with pytest.raises(ValueError):
        SplitMix64(-1)


def test_rng_sample_distinct():
    rng = SplitMix64(11)
    for _ in range(20):
        picks = rng.sample_distinct(10, 4)
        assert len(picks) == 4
        assert len(set(picks)) == 4
        assert all(0 <= p < 10 for p in picks)
    assert sorted(rng.sample_distinct(5, 5)) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        rng.sample_distinct(3, 4)


def test_mix64_masks_to_64_bits():
    assert mix64(2**64 + 5) == mix64(5)
    assert 0 <= mix64(987654321) <= _MASK


# ---------------------------------------------------------------------------
# video generation


def cfg_square(**over):
    base = dict(video_id="v", seed=42, n_frames=8, height=64, width=64,
                shape="square", scale=0.25, step=2, noise=0.1)
    base.update(over)
    return SynthConfig(**base)


def test_generate_video_deterministic():
    a = generate_video(cfg_square())
    b = generate_video(cfg_square())
    assert np.array_equal(a.frames, b.frames)
    assert np.array_equal(a.masks, b.masks)
    c = generate_video(cfg_square(seed=43))
    assert not np.array_equal(a.frames, c.frames)


def test_generate_video_shapes_and_ranges():
    v = generate_video(cfg_square(n_frames=5, height=32, width=48))
    assert v.frames.shape == (5, 32, 48, 3)
    assert v.masks.shape == (5, 32, 48)
    assert v.frames.dtype == np.float64
    assert np.all(v.frames >= 0.0) and np.all(v.frames <= 1.0)
    assert set(np.unique(v.masks)) <= {0.0, 1.0}


def test_square_mask_has_exact_area():
    # side = round(0.25 * 64) = 16, and the walk keeps the square inside the
    # image, so every mask contains exactly 256 foreground pixels.
    v = generate_video(cfg_square(n_frames=16))
    sums = v.masks.sum(axis=(1, 2))
    assert np.all(sums == 256.0)


def test_disk_mask_constant_area_and_inside():
    v = generate_video(cfg_square(shape="disk", n_frames=16, seed=5))
    sums = v.masks.sum(axis=(1, 2))
    assert np.all(sums == sums[0])
    assert sums[0] > 0
    # no foreground on the border rows/cols: the walk range keeps the disk in
    for m in v.masks:
        assert m[0].sum() == 0 and m[-1].sum() == 0
        assert m[:, 0].sum() == 0 and m[:, -1].sum() == 0


def test_step_zero_is_static():
    v = generate_video(cfg_square(step=0, n_frames=6))
    for f in range(1, 6):
        assert np.array_equal(v.masks[f], v.masks[0])
    # frames still differ (fresh noise per frame)
    assert not np.array_equal(v.frames[0], v.frames[1])


def test_object_moves_with_nonzero_step():
    v = generate_video(cfg_square(step=3, n_frames=12, seed=9))
    moved = any(not np.array_equal(v.masks[f], v.masks[0]) for f in range(1, 12))
    assert moved


def test_object_brighter_than_background():
    v = generate_video(cfg_square(seed=21))
    fg = v.frames[0][v.masks[0] == 1.0]
    bg = v.frames[0][v.masks[0] == 0.0]
    assert fg.mean() > 0.85
    assert bg.mean() < 0.15


def test_generate_video_validation_errors():
    with pytest.raises(ValueError, match="unknown shape"):
        generate_video(cfg_square(shape="triangle"))
    with pytest.raises(ValueError, match="at least one frame"):
        generate_video(cfg_square(n_frames=0))
    with pytest.raises(ValueError, match="too small"):
        generate_video(cfg_square(height=4, width=4))
    with pytest.raises(ValueError, match="scale"):
        generate_video(cfg_square(scale=0.05))
    with pytest.raises(ValueError, match="step"):
        generate_video(cfg_square(step=5))


# ---------------------------------------------------------------------------
# dataset save / load


def test_save_load_round_trip(tmp_path):
    vids = [generate_video(cfg_square(video_id=f"vid{i}", seed=100 + i, n_frames=3,
                                      height=16, width=16))
            for i in range(2)]
    for v in vids:
        save_video(tmp_path, v)
    loaded = load_dataset(tmp_path)
    assert [v.video_id for v in loaded] == ["vid0", "vid1"]
    for orig, back in zip(vids, loaded):
        assert back.frames.shape == orig.frames.shape
        assert np.max(np.abs(back.frames / 255.0 - orig.frames)) <= 1.0 / 510.0
        assert np.array_equal(back.masks, orig.masks)
        # Saving the loaded uint8 frames and bool masks rewrites the same files.
        save_video(tmp_path / "again", back)
        for f in (tmp_path / back.video_id).rglob("*.p?m"):
            assert (tmp_path / "again" / f.relative_to(tmp_path)).read_bytes() == f.read_bytes()


def test_load_dataset_keeps_file_levels(tmp_path):
    """Frames stay the files' uint8 levels and masks are bool; scaled, they
    are bitwise what read_ppm and read_pgm(...) >= 0.5 give. The mask file
    holds all 256 grey levels, so the threshold is pinned at every level."""
    v = generate_video(cfg_square(video_id="v0", n_frames=2, height=16, width=16))
    save_video(tmp_path, v)
    vdir = tmp_path / "v0"
    (vdir / "masks" / "00001.pgm").write_bytes(b"P5\n16 16\n255\n" + bytes(range(256)))
    (back,) = load_dataset(tmp_path)
    assert back.frames.dtype == np.uint8 and back.masks.dtype == np.bool_
    for i in range(2):
        assert np.array_equal(back.frames[i] / 255.0, read_ppm(vdir / "frames" / f"{i:05d}.ppm"))
        assert np.array_equal(back.masks[i], read_pgm(vdir / "masks" / f"{i:05d}.pgm") >= 0.5)
    assert back.masks[1].sum() == 128


def test_load_dataset_holds_file_sized_arrays(tmp_path):
    """A default-size set (10 videos x 16 frames x 64x64) holds about its
    2.5 MB of pixels: decoded to float64 it held 20 MB."""
    frame = generate_video(cfg_square(video_id="v", n_frames=1, height=64, width=64))
    for i in range(10):
        save_video(tmp_path, VideoSequence(f"video{i:02d}", np.repeat(frame.frames, 16, axis=0),
                                           np.repeat(frame.masks, 16, axis=0)))
    tracemalloc.start()
    try:
        videos = load_dataset(tmp_path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(v.frames.shape[0] for v in videos) == 160
    assert held < 4e6


def test_load_dataset_missing_root(tmp_path):
    with pytest.raises(DatasetError, match="not a directory"):
        load_dataset(tmp_path / "nope")


def test_load_dataset_empty_root(tmp_path):
    with pytest.raises(DatasetError, match="contains no videos"):
        load_dataset(tmp_path)


def test_load_dataset_missing_mask(tmp_path):
    v = generate_video(cfg_square(video_id="v0", n_frames=3, height=16, width=16))
    save_video(tmp_path, v)
    (tmp_path / "v0" / "masks" / "00001.pgm").unlink()
    with pytest.raises(DatasetError, match=r"missing mask v0/masks/00001\.pgm"):
        load_dataset(tmp_path)


def test_load_dataset_missing_frame(tmp_path):
    v = generate_video(cfg_square(video_id="v0", n_frames=3, height=16, width=16))
    save_video(tmp_path, v)
    (tmp_path / "v0" / "frames" / "00002.ppm").unlink()
    with pytest.raises(DatasetError, match=r"missing frame v0/frames/00002\.ppm"):
        load_dataset(tmp_path)


def test_load_dataset_video_without_frames(tmp_path):
    (tmp_path / "empty" / "frames").mkdir(parents=True)
    with pytest.raises(DatasetError, match="has no frames"):
        load_dataset(tmp_path)

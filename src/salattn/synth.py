"""Synthetic moving-shape videos with exact ground-truth masks.

One bright constant-color object (square or disk) moves over a darker
static sinusoidal texture by a reflecting integer random walk; every pixel
of every frame gets fresh uniform noise. The mask is the exact object
support, so it is never empty and the object never leaves the frame.

All randomness comes from one SplitMix64 stream per video in a fixed draw
order (object color, background base color, texture parameters, initial
position, then per frame: step, noise), so a config is a complete recipe:
the same config yields bitwise-identical frames.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .netpbm import read_levels, write_pgm, write_ppm
from .rng import SplitMix64

SHAPES = ("square", "disk")


class DatasetError(ValueError):
    """Dataset directory layout is missing or inconsistent."""


@dataclass
class SynthConfig:
    video_id: str
    seed: int
    n_frames: int = 16
    height: int = 64
    width: int = 64
    shape: str = "square"
    scale: float = 0.25      # object extent as a fraction of min(height, width)
    step: int = 2            # random-walk step bound per axis per frame
    noise: float = 0.1       # peak-to-peak uniform noise amplitude


@dataclass
class VideoSequence:
    """Frames and masks of one video, in the dtype of their producer.

    `generate_video` gives float64 frames in [0, 1] and float64 masks in
    {0.0, 1.0}; `load_dataset` gives the files' uint8 frames and bool
    masks, and `save_video` writes either. `SaliencyModel.forward` scales a
    uint8 frame to [0, 1] as `read_ppm` does, and the losses read a bool
    mask as {0.0, 1.0}, so training sees the same bits either way.
    """
    video_id: str
    frames: np.ndarray   # (n, H, W, 3)
    masks: np.ndarray    # (n, H, W)


def _reflect(p: int, lo: int, hi: int) -> int:
    """Reflect p into [lo, hi] (mirror at both ends)."""
    if hi <= lo:
        return lo
    period = 2 * (hi - lo)
    q = (p - lo) % period
    return lo + (period - q if q > hi - lo else q)


def generate_video(cfg: SynthConfig) -> VideoSequence:
    if cfg.shape not in SHAPES:
        raise ValueError(f"unknown shape {cfg.shape!r}, expected one of {SHAPES}")
    if cfg.n_frames < 1:
        raise ValueError(f"need at least one frame, got {cfg.n_frames}")
    if cfg.height < 8 or cfg.width < 8:
        raise ValueError(f"image too small: {cfg.height}x{cfg.width}")
    if not 0.1 <= cfg.scale <= 0.4:
        raise ValueError(f"object scale {cfg.scale} outside [0.1, 0.4]")
    if not 0 <= cfg.step <= 3:
        raise ValueError(f"walk step {cfg.step} outside [0, 3]")
    hh, ww = cfg.height, cfg.width
    base = min(hh, ww)

    rng = SplitMix64(cfg.seed)
    obj_color = np.full(3, 1.0)
    bg_color = np.full(3, 0.04)
    theta = rng.next_f64() * np.pi
    wavelength = 12.0
    phase = np.repeat(2.0 * np.pi * rng.next_f64(), 3)
    amp = 0.025

    ii, jj = np.meshgrid(np.arange(hh), np.arange(ww), indexing="ij")
    ramp = (ii * np.sin(theta) + jj * np.cos(theta)) / wavelength
    texture = bg_color + amp * np.sin(2.0 * np.pi * ramp[:, :, None] + phase)

    if cfg.shape == "square":
        side = int(round(cfg.scale * base))
        if side < 1 or side > base:
            raise ValueError(f"square side {side} does not fit in {hh}x{ww}")
        lo_y, hi_y = 0, hh - side
        lo_x, hi_x = 0, ww - side
    else:
        radius = max(1, int(round(cfg.scale * base / 2.0)))
        if 2 * radius + 1 > base:
            raise ValueError(f"disk radius {radius} does not fit in {hh}x{ww}")
        lo_y, hi_y = radius, hh - 1 - radius
        lo_x, hi_x = radius, ww - 1 - radius

    py = lo_y + rng.randint(hi_y - lo_y + 1)
    px = lo_x + rng.randint(hi_x - lo_x + 1)

    frames = np.empty((cfg.n_frames, hh, ww, 3), dtype=np.float64)
    masks = np.empty((cfg.n_frames, hh, ww), dtype=np.float64)
    half = cfg.noise / 2.0
    for f in range(cfg.n_frames):
        if f > 0 and cfg.step > 0:
            py = _reflect(py + rng.randint(2 * cfg.step + 1) - cfg.step, lo_y, hi_y)
            px = _reflect(px + rng.randint(2 * cfg.step + 1) - cfg.step, lo_x, hi_x)
        if cfg.shape == "square":
            mask = np.zeros((hh, ww), dtype=bool)
            mask[py:py + side, px:px + side] = True
        else:
            mask = (ii - py) ** 2 + (jj - px) ** 2 <= radius * radius
        noise = (rng.f64_array((hh, ww, 3)) - 0.5) * 2.0 * half
        frame = texture + noise
        frame[mask] = obj_color + noise[mask]
        frames[f] = np.clip(frame, 0.0, 1.0)
        masks[f] = mask.astype(np.float64)
    return VideoSequence(cfg.video_id, frames, masks)


# ---------------------------------------------------------------------------
# dataset layout: root/<video_id>/frames/NNNNN.ppm and root/<video_id>/masks/NNNNN.pgm

_INDEX = re.compile(r"^(\d{5})\.(ppm|pgm)$")


def save_video(root, video: VideoSequence) -> None:
    vdir = Path(root) / video.video_id
    (vdir / "frames").mkdir(parents=True, exist_ok=True)
    (vdir / "masks").mkdir(parents=True, exist_ok=True)
    for i in range(video.frames.shape[0]):
        write_ppm(vdir / "frames" / f"{i:05d}.ppm", video.frames[i])
        write_pgm(vdir / "masks" / f"{i:05d}.pgm", video.masks[i])


def _indexed_files(dirpath: Path, ext: str) -> dict:
    out = {}
    if not dirpath.is_dir():
        return out
    for name in sorted(os.listdir(dirpath)):
        m = _INDEX.match(name)
        if m and m.group(2) == ext:
            out[int(m.group(1))] = dirpath / name
    return out


def load_dataset(root) -> list:
    """All videos under root, sorted by id: uint8 frames and bool masks,
    a mask pixel True from level 128 up (read_pgm's 0.5).

    Raises DatasetError when the root is missing or empty, when a frame has
    no mask (or a mask no frame), or when frame shapes disagree.
    """
    rootp = Path(root)
    if not rootp.is_dir():
        raise DatasetError(f"dataset root {root} is not a directory")
    video_ids = sorted(d.name for d in rootp.iterdir() if d.is_dir())
    if not video_ids:
        raise DatasetError(f"dataset root {root} contains no videos")
    videos = []
    for vid in video_ids:
        frames_by_idx = _indexed_files(rootp / vid / "frames", "ppm")
        masks_by_idx = _indexed_files(rootp / vid / "masks", "pgm")
        if not frames_by_idx:
            raise DatasetError(f"video {vid} has no frames")
        problems = [f"missing mask {vid}/masks/{i:05d}.pgm"
                    for i in sorted(frames_by_idx) if i not in masks_by_idx]
        problems += [f"missing frame {vid}/frames/{i:05d}.ppm"
                     for i in sorted(masks_by_idx) if i not in frames_by_idx]
        if problems:
            raise DatasetError("; ".join(problems))
        idxs = sorted(frames_by_idx)
        frames = []
        masks = []
        for i in idxs:
            frames.append(read_levels(frames_by_idx[i], b"P6"))
            masks.append(read_levels(masks_by_idx[i], b"P5") >= 128)
            if frames[-1].shape != frames[0].shape:
                raise DatasetError(f"video {vid}: frame {i:05d} shape {frames[-1].shape} "
                                   f"differs from {frames[0].shape}")
        videos.append(VideoSequence(vid, np.stack(frames), np.stack(masks)))
    return videos

"""What the synthetic videos look like, without leaving the terminal.

One video: a bright constant-color object doing a reflected random walk
over a dim sinusoidally textured background, uniform pixel noise on top,
and the exact binary mask alongside. The script prints per-frame object
positions, foreground statistics, and an ASCII rendering of a few frames,
then round-trips the video through the on-disk PPM/PGM layout to show
the quantization error bound.

Run:  python3 demos/synthetic_data_tour.py
"""

import tempfile
from pathlib import Path

import numpy as np

from salattn.synth import SynthConfig, generate_video, load_dataset, save_video

SHADES = " .:-=+*#%@"


def ascii_frame(gray, step=2):
    """Rows of the luminance map as a 10-shade ASCII picture."""
    rows = []
    for r in gray[::step]:
        idx = np.clip((r[::step] * (len(SHADES) - 1)).round().astype(int),
                      0, len(SHADES) - 1)
        rows.append("".join(SHADES[i] for i in idx))
    return "\n".join(rows)


def main():
    cfg = SynthConfig(video_id="tour", seed=11, n_frames=8, height=32, width=32,
                      shape="disk", scale=0.35, step=3, noise=0.1)
    video = generate_video(cfg)

    print(f"video {video.video_id}: frames {video.frames.shape}, masks {video.masks.shape}")
    print()
    print("per-frame object center (row, col) and foreground share")
    for f in range(cfg.n_frames):
        ys, xs = np.nonzero(video.masks[f])
        share = video.masks[f].mean()
        print(f"  frame {f}: center ({ys.mean():5.1f}, {xs.mean():5.1f})"
              f"  fg {share * 100:5.1f}%")

    print()
    for f in (0, 4):
        print(f"frame {f} luminance (left) and mask (right)")
        lum = video.frames[f].mean(axis=2)
        left = ascii_frame(lum).splitlines()
        right = ascii_frame(video.masks[f]).splitlines()
        for a, b in zip(left, right):
            print(f"  {a}   {b}")
        print()

    fg = video.frames[0][video.masks[0] == 1.0]
    bg = video.frames[0][video.masks[0] == 0.0]
    print(f"frame 0 statistics: foreground mean {fg.mean():.3f}, "
          f"background mean {bg.mean():.3f}, noise keeps both in [0, 1]")

    with tempfile.TemporaryDirectory() as tmp:
        save_video(tmp, video)
        files = sorted(p.relative_to(tmp).as_posix() for p in Path(tmp).rglob("*.p?m"))
        print()
        print(f"saved {len(files)} netpbm files, e.g. {files[0]} and {files[-1]}")
        back = load_dataset(tmp)[0]   # the files' uint8 levels and bool masks
        worst = np.max(np.abs(back.frames / 255.0 - video.frames))
        print(f"round trip: max frame error {worst:.6f} (bound 1/510 = {1 / 510:.6f}), "
              f"masks exact: {bool(np.array_equal(back.masks, video.masks))}")


if __name__ == "__main__":
    main()

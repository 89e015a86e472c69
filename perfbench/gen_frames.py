"""Write one synthetic 256x256 clip with salattn's own generator.

    python3 perfbench/gen_frames.py SEED N_FRAMES OUT_DIR

The disk has scale 0.1, so at 256x256 it is about as many pixels wide as
the scale-0.38 disk of the 64x64 training videos. Frames land in
OUT_DIR/clip/frames and masks in OUT_DIR/clip/masks.
"""

import sys

from salattn.rng import mix64
from salattn.synth import SynthConfig, generate_video, save_video

if __name__ == "__main__":
    seed, n_frames, out_dir = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
    save_video(out_dir, generate_video(SynthConfig(
        video_id="clip", seed=mix64(seed), n_frames=n_frames, height=256, width=256,
        shape="disk", scale=0.1)))

"""Command line entry point.

Subcommands: synth, train, infer, eval, bench, gradcheck. Every run is
deterministic given its config file and inputs. Failures exit nonzero
after printing a single machine-parsable line to stderr of the form

    ERROR[category] message

with category one of usage, config, dataset, io, checkpoint, numeric,
memory.
A warning prints one line too, `WARNING[WarningClass] message`, with no
source line.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
import traceback
import warnings
from pathlib import Path

# One BLAS thread per process unless the caller chose a count. OpenBLAS reads
# these when numpy loads it, so this must run before the first numpy import.
# Results are bitwise the same at any thread count, and on this model's small
# matmuls a second thread doubles the CPU time for little wall time.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(v in os.environ for v in _BLAS_VARS):
    os.environ.update(dict.fromkeys(_BLAS_VARS, "1"))

import numpy as np

from . import attention, metrics
from .config import ConfigError, RunConfig, load_config
from .model import (CheckpointError, ModelConfig, SaliencyModel, TrainSettings,
                    load_checkpoint, save_checkpoint, train_step)
from .netpbm import (NetpbmError, atomic_write_text, ppm_shape, read_levels, read_pgm,
                     read_ppm, write_pgm)
from .rng import SplitMix64, mix64
from .synth import DatasetError, SynthConfig, generate_video, load_dataset, save_video


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError("usage", message)


def _load_cfg(path) -> RunConfig:
    return load_config(path) if path else RunConfig()


def _build_model(cfg: RunConfig) -> SaliencyModel:
    mc = ModelConfig(channels=cfg.channels, use_attention=bool(cfg.use_attention))
    return SaliencyModel(mc, seed=cfg.seed)


# ---------------------------------------------------------------------------
# synth


def cmd_synth(cfg: RunConfig, force: bool) -> int:
    root = Path(cfg.dataset_root)
    if root.exists() and any(root.iterdir()):
        if not force:
            raise CliError("io", f"dataset root {root} already exists and is not empty "
                                 "(pass --force to overwrite)")
    master = SplitMix64(cfg.seed)
    for i in range(cfg.n_videos):
        sub_seed = master.next_u64()
        scale = 0.38
        vc = SynthConfig(video_id=f"video{i:02d}", seed=sub_seed,
                         n_frames=cfg.frames_per_video,
                         height=cfg.height, width=cfg.width,
                         shape="disk",
                         scale=scale)
        save_video(root, generate_video(vc))
    print(f"wrote {cfg.n_videos} videos x {cfg.frames_per_video} frames "
          f"({cfg.height}x{cfg.width}) under {root}")
    return 0


# ---------------------------------------------------------------------------
# train


def _sample_minibatch(rng: SplitMix64, videos, batch_videos: int, batch_frames: int):
    picked = rng.sample_distinct(len(videos), batch_videos)
    batch = []
    for vi in picked:
        video = videos[vi]
        n = video.frames.shape[0]
        for fi in rng.sample_distinct(n, batch_frames):
            batch.append((video.video_id, fi, video.frames[fi], video.masks[fi]))
    return batch


def cmd_train(cfg: RunConfig) -> int:
    videos = load_dataset(cfg.dataset_root)
    if cfg.holdout >= len(videos):
        raise CliError("config", f"holdout {cfg.holdout} leaves no training videos "
                                 f"(dataset has {len(videos)})")
    train_videos = videos[:len(videos) - cfg.holdout] if cfg.holdout else videos
    if len(train_videos) < cfg.batch_videos:
        raise CliError("config", f"batch_videos {cfg.batch_videos} exceeds "
                                 f"{len(train_videos)} training videos")
    for v in train_videos:
        if v.frames.shape[0] < cfg.batch_frames:
            raise CliError("config", f"batch_frames {cfg.batch_frames} exceeds "
                                     f"{v.frames.shape[0]} frames of {v.video_id}")

    # Make both output directories now, so a bad path fails before step 1.
    Path(cfg.checkpoint_path).parent.mkdir(parents=True, exist_ok=True)
    Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    model = _build_model(cfg)
    print(f"model parameters: {model.param_count()}")
    settings = TrainSettings(lr=cfg.lr, tau=cfg.tau, k_pos=cfg.k_pos, k_neg=cfg.k_neg,
                             use_contrastive=bool(cfg.use_contrastive))
    sample_rng = SplitMix64(mix64(cfg.seed + 1))
    rows = ["step,L,L_bce,L_cl"]
    report_every = max(1, cfg.steps // 10)
    t0 = time.perf_counter()
    try:
        for step in range(1, cfg.steps + 1):
            batch = _sample_minibatch(sample_rng, train_videos,
                                      cfg.batch_videos, cfg.batch_frames)
            rec = train_step(model, batch, settings)
            rows.append(f"{step},{rec.loss:.8f},{rec.bce:.8f},{rec.contrastive:.8f}")
            if step % report_every == 0 or step == cfg.steps:
                print(f"step {step}/{cfg.steps}  L={rec.loss:.5f}  "
                      f"L_bce={rec.bce:.5f}  L_cl={rec.contrastive:.5f}")
    except FloatingPointError as e:
        # Keep the last finite state and the log collected so far.
        save_checkpoint(cfg.checkpoint_path, model)
        _write_loss_log(cfg, rows)
        raise CliError("numeric", str(e)) from None
    save_checkpoint(cfg.checkpoint_path, model)
    _write_loss_log(cfg, rows)
    dt = time.perf_counter() - t0
    print(f"trained {cfg.steps} steps in {dt:.1f}s, checkpoint at {cfg.checkpoint_path}")
    return 0


def _write_loss_log(cfg: RunConfig, rows) -> None:
    atomic_write_text(Path(cfg.output_dir) / "loss_log.csv", "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# infer


def cmd_infer(cfg: RunConfig, checkpoint, frames_dir) -> int:
    model = _build_model(cfg)
    load_checkpoint(checkpoint or cfg.checkpoint_path, model)
    fdir = Path(frames_dir)
    if not fdir.is_dir():
        raise CliError("dataset", f"frame directory {frames_dir} is not a directory")
    names = sorted(p.name for p in fdir.glob("*.ppm"))
    if not names:
        raise CliError("dataset", f"no .ppm frames under {frames_dir}")
    # Check every header before the first forward, so a bad frame anywhere
    # fails with no map written; then hold one frame at a time.
    shapes = [ppm_shape(fdir / n) for n in names]
    shape0 = shapes[0]
    for name, shape in zip(names, shapes):
        if shape != shape0:
            raise CliError("dataset", f"frame {name} shape {shape} differs from {shape0}")
    if shape0[0] % 8 or shape0[1] % 8:
        raise CliError("dataset", f"frame extents must be divisible by 8, "
                                  f"got {shape0[0]}x{shape0[1]}")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Each map depends only on its frame, so n processes split the frames,
    # one per usable CPU and per 2^17 pixels of the call: below that, the
    # copy-on-write faults of a fork cost more than the split saves.
    cpus = sorted(os.sched_getaffinity(0))
    n = max(1, min(len(names), len(cpus), shape0[0] * shape0[1] * len(names) >> 17))

    def run(i):
        if n > 1:
            # A fresh fork shares its parent's CPU for its first 0.1-0.3 s;
            # start each process on its own, then allow every CPU again.
            os.sched_setaffinity(0, {cpus[i]})
            os.sched_setaffinity(0, cpus)
        for name in names[i::n]:
            # No name binds the frame or its map: one kept alive through the next
            # frame's forward raised this loop's peak RSS by about 2.5 MB at 256x256.
            write_pgm(out / (Path(name).stem + ".pgm"),
                      model.forward(read_ppm(fdir / name)).saliency.data)

    workers = []
    try:
        for i in range(1, n):
            workers.append(_fork_worker(run, i))
        run(0)
    except BaseException:
        for pid, _ in workers:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        ends = [_reap(*w) for w in workers]
    for code, report in ends:
        if code:
            category, _, message = report.partition("\n")
            if category:
                raise CliError(category, message)
            if message:   # an exception main would not catch either
                raise RuntimeError(f"infer worker failed:\n{message}")
            raise ChildProcessError(f"infer worker ended with exit status {code} "
                                    "and no report")
    print(f"wrote {len(names)} saliency maps to {out} "
          f"({n} process{'es' if n > 1 else ''})")
    return 0


def _fork_worker(run, i) -> tuple[int, int]:
    """Fork a process that calls run(i) and leaves only by os._exit, so it
    runs no caller's cleanup and flushes no inherited buffer. Returns its
    pid and the read end of a pipe that carries its failure, if any, as
    "category\\nmessage" (category empty for an exception main would not
    catch, with the traceback as message)."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    code = 1
    try:
        os.close(r)
        run(i)
        code = 0
    except BaseException as e:   # the process boundary: report, then exit below
        category = _category(e)
        report = f"{category}\n{_one_line(e)}" if category else "\n" + traceback.format_exc()
        os.write(w, report.encode())
    finally:
        os.close(w)
        os._exit(code)


def _reap(pid: int, r: int) -> tuple[int, str]:
    """Read a worker's report to its end, then wait for it: (exit code, report)."""
    with open(r, "rb") as pipe:
        report = pipe.read().decode(errors="replace")
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), report


# ---------------------------------------------------------------------------
# eval


def _collect_pgms(root: Path) -> dict:
    found = {}
    for p in sorted(root.rglob("*.pgm")):
        rel = p.relative_to(root).as_posix()
        found[rel[:-len(".pgm")]] = p
    return found


def cmd_eval(pred_dir, gt_dir, out_dir) -> int:
    pred_root, gt_root = Path(pred_dir), Path(gt_dir)
    for r in (pred_root, gt_root):
        if not r.is_dir():
            raise CliError("dataset", f"{r} is not a directory")
    preds = _collect_pgms(pred_root)
    gts = _collect_pgms(gt_root)
    only_pred = sorted(set(preds) - set(gts))
    only_gt = sorted(set(gts) - set(preds))
    if only_pred or only_gt:
        parts = [f"prediction without ground truth: {', '.join(only_pred)}" if only_pred else "",
                 f"ground truth without prediction: {', '.join(only_gt)}" if only_gt else ""]
        raise CliError("dataset", "; ".join(p for p in parts if p))
    if not preds:
        raise CliError("dataset", f"no .pgm files under {pred_dir}")

    def triples():   # one pred/gt pair in memory at a time
        for frame_id in sorted(preds):
            # Level >= 128 is read_pgm(...) >= 0.5 at every level, without
            # the float map.
            pred, gt = read_pgm(preds[frame_id]), read_levels(gts[frame_id], b"P5") >= 128
            if pred.shape != gt.shape:
                raise CliError("dataset", f"frame {frame_id}: prediction shape {pred.shape} "
                                          f"differs from ground truth {gt.shape}")
            yield frame_id, pred, gt

    report = metrics.evaluate_frames(triples())

    out = Path(out_dir) if out_dir else pred_root
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "metrics.tsv", report.lines())
    atomic_write_text(out / "metrics.txt", report.table())
    print(report.table(), end="")
    return 0


# ---------------------------------------------------------------------------
# bench


def _bench_input(h: int, w: int, c: int) -> np.ndarray:
    rng = SplitMix64(mix64(h * 1_000_003 + w * 1_009 + c))
    # Small magnitudes keep the three evaluation orders within 1e-10 even
    # for long accumulations.
    return (rng.f64_array((h, w, c)) - 0.5) * 0.5


def _median_time(fn, x: np.ndarray, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(x)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def cmd_bench(h: int, w: int, c: int, repeats: int) -> int:
    if h < 1 or w < 1 or c < 1 or repeats < 1:
        raise CliError("usage", "bench arguments must be positive")
    x = _bench_input(h, w, c)
    variants = [("naive", attention.nonlocal_rowwise),
                ("unordered", attention.nonlocal_unordered),
                ("reordered", attention.nonlocal_reordered)]
    reference = variants[0][1](x)
    for name, fn in variants[1:]:
        gap = float(np.max(np.abs(fn(x) - reference)))
        if gap > 1e-10:
            raise CliError("numeric", f"variant {name} disagrees with naive by {gap:.3e}")
    print(f"non-local block at h={h} w={w} c={c} (N={h * w}), median of {repeats} runs")
    print(f"{'variant':<12}{'multiplies':>16}{'seconds':>14}")
    times = {}
    for name, fn in variants:
        flops = attention.count_flops(name, h, w, c)
        times[name] = _median_time(fn, x, repeats)
        print(f"{name:<12}{flops:>16,}{times[name]:>14.6f}")
    ratio = attention.count_flops("naive", h, w, c) / attention.count_flops("reordered", h, w, c)
    print(f"multiply ratio naive/reordered: {ratio:.2f}")
    print(f"time ratio naive/reordered: {times['naive'] / max(times['reordered'], 1e-12):.2f}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck() -> int:
    from .gradcheck import format_rows, run_suite
    rows = run_suite()
    print(format_rows(rows), end="")
    bad = [r for r in rows if not r.passed]
    if bad:
        raise CliError("numeric", "gradient check failed for: " + ", ".join(r.name for r in bad))
    print(f"all {len(rows)} checks passed")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="salattn", description="desk-scale video saliency pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic moving-shape dataset")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--force", action="store_true", help="overwrite an existing dataset")

    p = sub.add_parser("train", help="train from a dataset directory")
    p.add_argument("--config", help="key=value config file")

    p = sub.add_parser("infer", help="write saliency maps for a directory of frames")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--checkpoint", help="checkpoint path (default: from config)")
    p.add_argument("--frames", required=True, help="directory of NNNNN.ppm frames")

    p = sub.add_parser("eval", help="score predictions against ground truth masks")
    p.add_argument("--pred", required=True, help="directory of predicted .pgm maps")
    p.add_argument("--gt", required=True, help="directory of ground-truth .pgm masks")
    p.add_argument("--out", help="where to write metrics.tsv/metrics.txt (default: pred dir)")

    p = sub.add_parser("bench", help="count and time the non-local variants")
    p.add_argument("h", type=int)
    p.add_argument("w", type=int)
    p.add_argument("c", type=int)
    p.add_argument("--repeats", type=int, default=5)

    sub.add_parser("gradcheck", help="finite-difference check of every op")
    return parser


def main(argv=None) -> int:
    saved_format = warnings.formatwarning
    warnings.formatwarning = _one_line_warning
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "synth":
            return cmd_synth(_load_cfg(args.config), args.force)
        if args.command == "train":
            return cmd_train(_load_cfg(args.config))
        if args.command == "infer":
            return cmd_infer(_load_cfg(args.config), args.checkpoint, args.frames)
        if args.command == "eval":
            return cmd_eval(args.pred, args.gt, args.out)
        if args.command == "bench":
            return cmd_bench(args.h, args.w, args.c, args.repeats)
        if args.command == "gradcheck":
            return cmd_gradcheck()
        raise CliError("usage", f"unknown command {args.command!r}")
    except Exception as e:
        category = _category(e)
        if category is None:
            raise
        print(f"ERROR[{category}] {_one_line(e)}", file=sys.stderr)
        return 2 if category == "usage" else 1
    finally:
        warnings.formatwarning = saved_format


# Each exception type the CLI reports, with its ERROR[...] category; the
# first match wins.
_CATEGORIES = ((ConfigError, "config"), (DatasetError, "dataset"),
               (CheckpointError, "checkpoint"), ((NetpbmError, OSError), "io"),
               (FloatingPointError, "numeric"), (MemoryError, "memory"))


def _category(e: BaseException) -> str | None:
    """The ERROR[...] category of an exception, or None for one the CLI
    does not catch."""
    if isinstance(e, CliError):
        return e.category
    return next((c for t, c in _CATEGORIES if isinstance(e, t)), None)


def _one_line(e: Exception) -> str:
    return " ".join(str(e).split())


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    return f"WARNING[{category.__name__}] {_one_line(message)}\n"


if __name__ == "__main__":
    sys.exit(main())

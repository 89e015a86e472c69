"""Benchmark of the salattn command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every program call is a fresh
`salattn.cli.main` process (the console-script entry point) on
src/, with no BLAS thread variables set. Workloads:

  train64    one `train` call at the default 64x64 config, then `infer`
             and `eval` of both held-out videos with the set-up checkpoint
  videos64   one `infer` and one `eval` process per held-out 64x64 video
  frames256  one `infer` and one `eval` call over a directory of
             256x256 frames

Set-up makes the inputs from --seed, trains the checkpoint that `infer`
uses, and is repeated SETUP_REPEATS times; the repeats must be
byte-identical. With --trace 0 the last line is the end-to-end result;
with --trace 1 the measured rounds alternate between untraced processes
and processes run under perfbench/trace_main.py on the same inputs, and
the last line holds the per-layer figures and the tracing overhead.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CLI = "import sys; from salattn.cli import main; sys.exit(main())"
UNSET_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
              "GOTO_NUM_THREADS", "SALATTN_THREADS")

SETUP_REPEATS = 3
FRAMES_PER_STEP = 8            # default batch_videos x batch_frames
TRAIN64_STEPS = 30             # steps of the measured train call, default config
# The set-up train that makes the checkpoint `infer` uses. At the default
# lr of 1e-4, tens of steps leave most seeds predicting one grey level;
# 2e-3 trains them in 60 steps at 64x64, and 90 steps make most of them
# transfer to the 256x256 clip.
SETUP_LR = 2e-3
SETUP_STEPS = {"train64": 60, "videos64": 60, "frames256": 90}
TRAIN_VIDEOS = 4               # training videos of the held-out workloads' data set
HELDOUT_VIDEOS = 8
FRAMES256 = 16
RADIUS64 = 12                  # round(0.38 * 64 / 2), the `salattn synth` disk
RADIUS256 = 13                 # round(0.10 * 256 / 2), gen_frames.py
LN2 = math.log(2.0)
# Training quality, judged on the `quality:` line. It does not set
# `correct`: training collapses at step 1 on about half of all seeds (see
# README), so a gate here would pass or fail by seed, not by code.
# Last-tenth mean L_bce as a share of ln 2: the set-up recipe reaches
# 0.07-0.32 on seeds that train; 30 default-lr steps only promise that the
# loss fell. A step-1 collapse reads about 2.5.
BCE_SHARE = {"setup": 0.5, "train64": 1.0}
# Share of scored frames whose prediction, binarised at 0.5, is non-empty,
# so that eval runs the boundary-F dilation on them.
BINARY_SHARE = 0.75

WORKLOADS = ("train64", "videos64", "frames256")


@dataclass
class Call:
    kind: str        # train, infer or eval
    wall: float      # s, launch to exit
    cpu: float       # s, user + system over all threads
    rss_mb: float    # peak resident memory
    units: int       # steps stepped or frames inferred / scored
    ok: bool
    summary: dict | None   # trace summary when traced


class Program:
    """Launches program processes in a directory and records what each cost."""

    def __init__(self):
        env = {k: v for k, v in os.environ.items() if k not in UNSET_VARS}
        env["PYTHONPATH"] = str(SRC)
        self.env = env

    def run(self, cwd: Path, kind: str, args: list, units: int, traced: bool = False) -> Call:
        summary_path = cwd / "trace.json"
        argv = ([sys.executable, str(HERE / "trace_main.py"), str(summary_path)] if traced
                else [sys.executable, "-c", CLI]) + [kind, *args]
        with open(cwd / "stdout.log", "wb") as out, open(cwd / "stderr.log", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = (cwd / "stderr.log").read_text(errors="replace")
        ok = proc.returncode == 0 and "ERROR[" not in stderr
        if not ok:
            print(f"{kind} {' '.join(args)} failed (exit {proc.returncode}): "
                  f"{stderr.strip()[-400:]}", file=sys.stderr)
        summary = json.loads(summary_path.read_text()) if traced and ok else None
        return Call(kind, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                    units, ok, summary)

    def helper(self, cwd: Path, script: str, *args) -> None:
        subprocess.run([sys.executable, str(HERE / script), *map(str, args)], cwd=cwd,
                       env=self.env, check=True, stdout=subprocess.DEVNULL)

    def environment(self) -> dict:
        probe = ("import json, os, sys, ctypes, numpy as np\n"
                 "blas = np.show_config(mode='dicts')['Build Dependencies']['blas']\n"
                 "threads = None\n"
                 "libs = {l.split()[-1] for l in open('/proc/self/maps') if 'blas' in l.lower()}\n"
                 "for path in sorted(libs):\n"
                 "    lib = ctypes.CDLL(path)\n"
                 "    for sym in ('openblas_get_num_threads', 'scipy_openblas_get_num_threads64_',"
                 " 'openblas_get_num_threads64_'):\n"
                 "        if hasattr(lib, sym):\n"
                 "            threads = getattr(lib, sym)()\n"
                 "print(json.dumps({'cores': len(os.sched_getaffinity(0)),"
                 " 'python': sys.version.split()[0], 'numpy': np.__version__,"
                 " 'blas': f\"{blas.get('name')} {blas.get('version')}\","
                 " 'blas_threads': threads}))\n")
        out = subprocess.run([sys.executable, "-c", probe], env=self.env, check=True,
                             capture_output=True, text=True).stdout
        return json.loads(out)


def write_cfg(path: Path, **values) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))


def tree_digest(*paths: Path) -> str:
    """sha256 over the names and bytes of files and of the files under directories."""
    h = hashlib.sha256()
    for top in paths:
        for p in sorted(top.rglob("*")) if top.is_dir() else [top]:
            if p.is_file():
                h.update(p.relative_to(top.parent).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up, one measured round, and output checks of one workload."""

    def __init__(self, name: str, seed: int, prog: Program):
        self.name, self.seed, self.prog = name, seed, prog
        if name == "train64":
            self.targets = [("data/video08", 16), ("data/video09", 16)]   # both, every round
        elif name == "videos64":
            self.targets = [(f"data/video{v:02d}", 16) for v in range(4, 4 + HELDOUT_VIDEOS)]
        else:
            self.targets = [("d256/clip", FRAMES256)]
        self.setup_trains: list[Call] = []   # untraced set-up train calls
        self.setup_digests: list[str] = []
        self.train_digests: set = set()
        self.scored: set = set()              # frame directories inferred and scored

    def setup(self, d: Path, traced: bool) -> list[Call]:
        if self.name == "train64":
            n_train, holdout = 8, 2                     # the default dataset
            write_cfg(d / "train.cfg", seed=self.seed, steps=TRAIN64_STEPS,
                      checkpoint_path="round.ckpt", output_dir="train_out")
        else:
            n_train = TRAIN_VIDEOS
            holdout = HELDOUT_VIDEOS if self.name == "videos64" else 0
        steps = SETUP_STEPS[self.name]
        write_cfg(d / "setup.cfg", seed=self.seed, steps=steps, lr=SETUP_LR,
                  n_videos=n_train + holdout, holdout=holdout, dataset_root="data",
                  checkpoint_path="model.ckpt", output_dir="setup_out")
        calls = [self.prog.run(d, "synth", ["--config", "setup.cfg"], 0, traced),
                 self.prog.run(d, "train", ["--config", "setup.cfg"], steps, traced)]
        if not traced:
            self.setup_trains.append(calls[-1])
        if self.name == "frames256":
            self.prog.helper(d, "gen_frames.py", self.seed, FRAMES256, "d256")
        for frames, _ in self.targets:
            write_cfg(d / f"infer_{Path(frames).name}.cfg", output_dir=f"pred/{Path(frames).name}")
        outputs = [d / "data", d / "d256", d / "model.ckpt", d / "setup_out"]
        self.setup_digests.append(tree_digest(*(p for p in outputs if p.exists())))
        return calls

    def round(self, d: Path, i: int, traced: bool) -> list[Call]:
        """Round i; rounds with the same i run the same processes on the same inputs."""
        calls = []
        targets = [self.targets[i % len(self.targets)]]
        if self.name == "train64":
            calls.append(self.prog.run(d, "train", ["--config", "train.cfg"], TRAIN64_STEPS, traced))
            if calls[0].ok:
                self.train_digests.add(tree_digest(d / "round.ckpt", d / "train_out"))
            targets = self.targets
        for frames, n in targets:
            name = Path(frames).name
            calls.append(self.prog.run(d, "infer", [
                "--config", f"infer_{name}.cfg", "--checkpoint", "model.ckpt",
                "--frames", f"{frames}/frames"], n, traced))
            calls.append(self.prog.run(d, "eval", [
                "--pred", f"pred/{name}", "--gt", f"{frames}/masks", "--out", f"scores/{name}"],
                n, traced))
            self.scored.add(frames)
        return calls

    # -- checks -------------------------------------------------------------

    def check(self, d: Path) -> list[str]:
        import reference as ref
        problems = []
        if len(set(self.setup_digests)) != 1:
            problems.append("set-up repeats from one seed differ in their bytes")
        videos = sorted(p for p in (d / "data").iterdir() if p.is_dir())
        for v in videos:
            problems += ref.check_video(v, RADIUS64)
        if self.name == "frames256":
            problems += ref.check_video(d / "d256" / "clip", RADIUS256)
        logs = [("setup", d / "setup_out", SETUP_STEPS[self.name])]
        if self.name == "train64":
            if len(self.train_digests) != 1:
                problems.append("train calls with one seed wrote different checkpoints or logs")
            problems += check_sgd_update(d / "data", self.seed)
            logs.append(("train64", d / "train_out", TRAIN64_STEPS))
        verdicts = []
        for kind, out_dir, steps in logs:
            found, share = check_loss_log(out_dir / "loss_log.csv", steps)
            problems += found
            verdicts.append(f"{kind} last-tenth L_bce {share:.4f} ln 2 "
                            f"({pass_fail(share < BCE_SHARE[kind])} < {BCE_SHARE[kind]})")
        pick = random.Random(self.seed)
        scored = sorted(self.scored)
        for frames in pick.sample(scored, min(2, len(scored))):
            name = Path(frames).name
            for stem in pick.sample(sorted(p.stem for p in (d / frames / "frames").glob("*.ppm")), 2):
                frame = d / frames / "frames" / f"{stem}.ppm"
                problems += ref.check_infer(d / "model.ckpt", frame, d / "pred" / name / f"{stem}.pgm")
                problems += check_features(d / "model.ckpt", frame)
        mf = const = 0.0
        n_frames = binary = 0
        for frames in scored:
            name = Path(frames).name
            found, a, b, n, nb = ref.check_eval(d / "pred" / name, d / frames / "masks",
                                                d / "scores" / name / "metrics.tsv")
            problems += found
            mf, const, n_frames, binary = mf + a, const + b, n_frames + n, binary + nb
        verdicts.append(f"mean maxF {per(mf, n_frames):.4f} vs {per(const, n_frames):.4f} "
                        f"for a constant map ({pass_fail(mf > const)})")
        verdicts.append(f"{binary} of {n_frames} frames binarise non-empty "
                        f"({pass_fail(binary >= BINARY_SHARE * n_frames)} >= {BINARY_SHARE})")
        print("quality: " + "; ".join(verdicts))
        return problems


def check_loss_log(path: Path, steps: int) -> tuple[list[str], float]:
    """Problems in a loss log, and its last-tenth mean L_bce as a share of ln 2."""
    rows = path.read_text().splitlines()
    if rows[0] != "step,L,L_bce,L_cl" or len(rows) != steps + 1:
        return [f"{path}: expected a header and {steps} rows, got {len(rows)} lines"], 0.0
    vals = [[float(x) for x in row.split(",")] for row in rows[1:]]
    problems = []
    if [int(v[0]) for v in vals] != list(range(1, steps + 1)):
        problems.append(f"{path}: steps are not 1..{steps}")
    if not all(math.isfinite(x) for v in vals for x in v):
        problems.append(f"{path}: non-finite loss")
    if rows[1].split(",")[2] != f"{LN2:.8f}":
        problems.append(f"{path}: step-1 L_bce {rows[1].split(',')[2]} is not ln 2")
    tail = [v[2] for v in vals[-max(1, steps // 10):]]
    return problems, statistics.fmean(tail) / LN2


def pass_fail(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def check_features(ckpt: Path, frame_path: Path) -> list[str]:
    """The program's head features on one frame, in process, against the
    reference forward's within 1e-9 of their largest magnitude. Unlike the
    grey levels, they still tell the forwards apart when a collapsed
    checkpoint drives every output pixel to 0."""
    import numpy as np
    import reference as ref
    from salattn.config import RunConfig
    from salattn.model import ModelConfig, SaliencyModel, load_checkpoint

    model = SaliencyModel(ModelConfig(channels=RunConfig().channels))
    load_checkpoint(ckpt, model)
    frame = ref.read_netpbm(frame_path) / 255.0
    got = model.forward(frame).feat.data
    want = ref.forward(ref.read_checkpoint(ckpt), frame)[1]
    scale = float(np.abs(want).max())
    err = float(np.abs(got - want).max())
    if not (scale > 0 and err <= 1e-9 * scale):
        return [f"{frame_path}: head features {err:.3e} from the reference forward's "
                f"(largest magnitude {scale:.3e})"]
    return []


def check_sgd_update(data_dir: Path, seed: int) -> list[str]:
    """Step 1 in-process on a fixed minibatch: L_bce is ln 2 (zero logit
    convs), and the SGD update along a seeded unit direction is -lr times a
    central difference of L."""
    import numpy as np
    from salattn.config import RunConfig
    from salattn.contrastive import DegenerateBatchWarning
    from salattn.model import ModelConfig, SaliencyModel, TrainSettings, train_step
    from salattn.synth import load_dataset

    cfg = RunConfig(seed=seed)
    batch = [(v.video_id, fi, v.frames[fi], v.masks[fi])
             for v in load_dataset(data_dir)[:cfg.batch_videos] for fi in range(cfg.batch_frames)]
    model = SaliencyModel(ModelConfig(channels=cfg.channels), seed=seed)
    theta0 = {k: t.data.copy() for k, t in model.params.items()}
    drng = np.random.default_rng(seed)
    direction = {k: drng.standard_normal(a.shape) for k, a in theta0.items()}
    norm = math.sqrt(sum(float((a * a).sum()) for a in direction.values()))

    def settings(lr):
        return TrainSettings(lr=lr, tau=cfg.tau, k_pos=cfg.k_pos, k_neg=cfg.k_neg)

    eps = 1e-7    # small enough that ReLU kinks crossed within eps stay below the tolerance
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateBatchWarning)
        rec = train_step(model, batch, settings(cfg.lr))
        moved = sum(float(((model.params[k].data - theta0[k]) * direction[k]).sum())
                    for k in theta0) / norm
        losses = []
        for sign in (1.0, -1.0):
            for k, t in model.params.items():
                t.data = theta0[k] + sign * eps * direction[k] / norm
            losses.append(train_step(model, batch, settings(0.0)).loss)
    want = -cfg.lr * (losses[0] - losses[1]) / (2 * eps)
    problems = []
    if abs(rec.bce - LN2) > 1e-12:
        problems.append(f"step-1 L_bce {rec.bce!r} differs from ln 2 by more than 1e-12")
    if not abs(moved - want) <= 1e-6 * abs(want):
        problems.append(f"SGD step along a seeded direction {moved:.10e} vs "
                        f"-lr x central difference {want:.10e}")
    return problems


# ---------------------------------------------------------------------------
# metrics


def median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(setup_walls, trains, calls) -> dict:
    by = defaultdict(list)
    for c in calls:
        by[c.kind].append(c)
    out = {"setup_s": (median(setup_walls), "s"),
           "train_frames_per_s": (median([c.units * FRAMES_PER_STEP / c.wall for c in trains]),
                                  "frames/s"),
           "train_cpu_ms_per_frame": (median([c.cpu * 1e3 / (c.units * FRAMES_PER_STEP)
                                              for c in trains]), "ms")}
    for kind in ("infer", "eval"):
        cs = by[kind]
        out[f"{kind}_call_s"] = (median([c.wall for c in cs]), "s")
        out[f"{kind}_frames_per_s"] = (median([c.units / c.wall for c in cs]), "frames/s")
        out[f"{kind}_cpu_ms_per_frame"] = (median([c.cpu * 1e3 / c.units for c in cs]), "ms")
    out["peak_rss_mb"] = (max((c.rss_mb for c in calls), default=0.0), "MB")
    return out


class Layers:
    """Trace summaries of several processes, merged."""

    def __init__(self, summaries):
        self.incl = defaultdict(list)
        self.self_ms = Counter()
        self.counts = Counter()
        self.bwd = Counter()
        self.imports = []
        for s in summaries:
            self.imports.append(s["import_ms"])
            for name, e in s["spans"].items():
                self.incl[name] += e["incl_ms"]
                self.self_ms[name] += e["self_ms"]
            self.counts.update(s["counts"])
            self.bwd.update(s["bwd_ms"])

    def calls(self, name):
        return len(self.incl.get(name, ()))

    def total(self, name):
        return sum(self.incl.get(name, ()))


def per(x, n):
    return x / n if n else 0.0


def per_layer(m: Layers, rounds: int) -> dict:
    """name -> (value, unit, samples behind it) for one set of traced processes."""
    fwd = m.calls("model.forward") + m.calls("model.forward_taped")
    taped = m.calls("model.forward_taped")
    steps = m.calls("model.train_step")
    step_ms = m.incl.get("model.train_step", [])
    out = {}

    def put(name, total, n, unit="ms"):
        out[name] = (per(total, n), unit, n)

    def mean(name, span):
        put(name, m.total(span), m.calls(span))

    out["cli.import_ms"] = (median(m.imports), "ms", len(m.imports))
    put("cli.main_self_ms", m.self_ms["cli.main"], m.calls("cli.main"))
    for name in ("synth.generate_video", "synth.save_video", "synth.load_dataset",
                 "netpbm.read_ppm", "netpbm.read_pgm", "netpbm.write_pgm",
                 "model.load_checkpoint", "model.save_checkpoint", "model.forward_taped",
                 "model.forward", "tensor.gradient", "ops.bce", "metrics.s_measure",
                 "metrics.mae", "metrics.jaccard", "metrics.boundary_f"):
        mean(name + "_ms", name)
    mean("metrics.max_f_ms", "metrics.max_f")
    out["model.train_step_ms"] = (median(step_ms), "ms", len(step_ms))
    out["model.train_step_p75_ms"] = (
        statistics.quantiles(step_ms, n=4)[2] if len(step_ms) > 1 else 0.0, "ms", len(step_ms))
    put("model.train_step_self_ms", m.self_ms["model.train_step"], steps)
    for op in ("conv3x3", "conv1x1", "upsample", "depthwise"):
        put(f"ops.{op}_fwd_ms", m.total(f"ops.{op}_fwd"), fwd)
        put(f"ops.{op}_bwd_ms", m.bwd[f"ops.{op}_bwd"], taped)
    for block in ("self_attention", "coattention", "gate"):
        put(f"attention.{block}_ms", m.self_ms[f"attention.{block}"], fwd)
    put("attention.bwd_ms", m.bwd["attention"], taped)
    for stage in ("extract", "mine", "infonce"):
        put(f"contrastive.{stage}_ms", m.total(f"contrastive.{stage}"), steps)
    put("contrastive.bwd_ms", m.bwd["contrastive"], steps)
    for name in ("netpbm.bytes_read", "netpbm.bytes_written"):
        put(name, m.counts[name], rounds, "bytes")
    for name in ("tensor.tape_records", "tensor.grads_computed", "tensor.grads_discarded",
                 "contrastive.anchors", "contrastive.degenerate_pools"):
        put(name, m.counts[name], steps, "count")
    for name in ("ops.conv_macs", "attention.nonlocal_multiplies"):
        put(name, m.counts[name], fwd, "count")
    return out


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "salattn" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'salattn'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    seed = args.seed & 0x7FFFFFFF
    prog = Program()
    wl = Workload(args.workload, seed, prog)
    base = ROOT / ".perfbench_run" / f"{args.workload}-{seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    try:
        return measure(wl, prog, base, args)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:   # another run is still using it
            pass


def measure(wl: Workload, prog: Program, base: Path, args) -> int:
    env = prog.environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))

    setup_walls, setup_calls = [], []
    for i in range(SETUP_REPEATS):
        d = base / f"setup{i}"
        d.mkdir(parents=True)
        traced = bool(args.trace) and i == SETUP_REPEATS - 1
        t0 = time.perf_counter()
        calls = wl.setup(d, traced)
        setup_walls.append(time.perf_counter() - t0)
        setup_calls += calls
        if not all(c.ok for c in calls):
            print("set-up failed", file=sys.stderr)
            return 1
        if i < SETUP_REPEATS - 1:
            shutil.rmtree(d)

    # With --trace 1, round pairs run the same processes untraced, then traced.
    calls, rounds = [], []           # rounds: lists of calls
    min_rounds = 6 if args.trace else 1
    t_start = time.perf_counter()
    r = 0
    while r < min_rounds or time.perf_counter() - t_start < args.seconds or r % (1 + args.trace):
        traced = bool(args.trace) and r % 2 == 1
        rounds.append(wl.round(d, r // 2 if args.trace else r, traced))
        calls += rounds[-1]
        r += 1

    ok_calls = [c for c in calls if c.ok]
    attempted = sum(c.units for c in calls)
    failed = attempted - sum(c.units for c in ok_calls)
    try:
        problems = wl.check(d)
    except Exception as e:   # a missing or malformed output is a failed check
        problems = [f"output check raised {type(e).__name__}: {e}"]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    units = Counter()
    for c in calls:
        units[(c.kind, c.ok)] += c.units
    print(f"accounting: rounds={len(rounds)} processes={len(calls)} "
          f"failed_processes={len(calls) - len(ok_calls)} "
          f"steps={units[('train', True)] + units[('train', False)]} "
          f"failed_steps={units[('train', False)]} "
          f"frames_inferred={units[('infer', True)]} frames_scored={units[('eval', True)]} "
          f"failed_frames={units[('infer', False)] + units[('eval', False)]}")

    if args.trace:
        # Figures come from the traced measured rounds; a layer that runs only
        # in set-up there (synth, and training outside train64) is taken from
        # the traced last set-up repeat.
        measured = per_layer(Layers([c.summary for c in calls if c.summary]), len(rounds) // 2)
        setup = per_layer(Layers([c.summary for c in setup_calls if c.summary]), 1)
        metrics = {k: (v if v[2] else setup[k])[:2] for k, v in measured.items()}
        # Overhead from pairs: a round against its traced twin, and each
        # process against its traced twin, so drift between pairs cancels.
        pairs = list(zip(rounds[0::2], rounds[1::2]))
        round_diff = [sum(t.wall - u.wall for u, t in zip(*p)) for p in pairs]
        shares = [100.0 * (t.wall - u.wall) / u.wall for p in pairs for u, t in zip(*p)]
        q = statistics.quantiles(shares, n=4) if len(shares) > 1 else [shares[0]] * 3
        print(f"tracing overhead per process: median {median(shares):.1f}%, quartiles "
              f"{q[0]:.1f}% to {q[2]:.1f}% over {len(shares)} pairs")
        metrics["trace.overhead_ms"] = (median(round_diff) * 1e3, "ms")
        metrics["trace.overhead_pct"] = (median(shares), "%")
    else:
        trains = [c for c in ok_calls if c.kind == "train"] or wl.setup_trains
        metrics = end_to_end(setup_walls, trains, ok_calls)
    for name, (value, unit) in metrics.items():
        print(f"{name:<32}{value:>16.6f} {unit}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line behavior: config parsing, subcommands, and error reporting.

Everything runs in-process through main(argv) so stdout/stderr and exit
codes are observable with capsys; the final tests go through a real
interpreter subprocess: the one-line warning format, a smoke test, the
one-line memory error, the BLAS thread pin and its bitwise promise,
`infer`'s split over processes and its failures, runs under perfbench's
tracer, and perfbench's SGD check on a loaded dataset. Small
datasets (16x16 or 32x32, a few frames) keep the training-path tests fast.
"""

import hashlib
import json
import os
import signal
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from salattn import cli
from salattn.cli import main
from salattn.config import ConfigError, RunConfig, load_config, parse_config
from salattn.contrastive import DegenerateBatchWarning
from salattn.model import ModelConfig, SaliencyModel, load_checkpoint, save_checkpoint
from salattn.netpbm import read_pgm, read_ppm, write_pgm, write_ppm

# ---------------------------------------------------------------------------
# config parsing


def test_config_defaults_without_file():
    cfg = RunConfig()
    assert cfg.steps == 2000
    assert cfg.lr == 1e-4
    assert cfg.tau == 0.1
    assert cfg.k_pos == 3 and cfg.k_neg == 4
    assert cfg.batch_videos == 2 and cfg.batch_frames == 4
    assert cfg.height == 64 and cfg.width == 64
    assert cfg.holdout == 2


def test_config_parses_values_comments_and_blanks():
    cfg = parse_config("""
# full line comment
seed = 7
steps=12   # trailing comment
lr = 0.5
dataset_root = my/data
use_attention = 0
""")
    assert cfg.seed == 7
    assert cfg.steps == 12
    assert cfg.lr == 0.5
    assert cfg.dataset_root == "my/data"
    assert cfg.use_attention == 0
    assert cfg.tau == 0.1   # untouched default


def test_config_error_messages_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2: unknown key 'sped'"):
        parse_config("seed=1\nsped=3\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key 'seed'"):
        parse_config("seed=1\nsteps=5\nseed=2\n")
    with pytest.raises(ConfigError, match="line 1: expected key=value"):
        parse_config("just words\n")


def test_config_value_validation():
    with pytest.raises(ConfigError, match="steps: expected an integer"):
        parse_config("steps=many\n")
    with pytest.raises(ConfigError, match="seed: must be >= 0"):
        parse_config("seed=-4\n")
    with pytest.raises(ConfigError, match="lr: must be positive"):
        parse_config("lr=0\n")
    # An infinite lr used to load, then fail at step 1 as a non-finite parameter.
    with pytest.raises(ConfigError, match="lr: must be positive and finite, got inf"):
        parse_config("lr=1e400\n")
    with pytest.raises(ConfigError, match="tau: must be positive and finite, got inf"):
        parse_config("tau=inf\n")
    with pytest.raises(ConfigError, match="height: must be divisible by 8"):
        parse_config("height=20\n")
    with pytest.raises(ConfigError, match="width: must be >= 8"):
        parse_config("width=0\n")
    with pytest.raises(ConfigError, match="use_contrastive: expected 0 or 1"):
        parse_config("use_contrastive=yes\n")
    with pytest.raises(ConfigError, match="output_dir: empty path"):
        parse_config("output_dir=\n")
    with pytest.raises(ConfigError, match="output_dir: NUL byte in path"):
        parse_config("output_dir=a\0b\n")
    # Past Python's 4300-digit limit int() fails as for a non-integer; the
    # error names the length and echoes at most 32 characters of any value.
    with pytest.raises(ConfigError, match="seed: integer of 5000 digits is too long$"):
        parse_config("seed=" + "9" * 5000 + "\n")
    with pytest.raises(ConfigError, match=r"steps: expected an integer, got 'x{32}'\.\.\. "
                                          r"\(5000 characters\)$"):
        parse_config("steps=" + "x" * 5000 + "\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "none.cfg")


def test_load_config_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed = 1\xff\n")
    with pytest.raises(ConfigError, match="not UTF-8 at byte 8"):
        load_config(path)
    assert main(["train", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("ERROR[config]")


def test_config_fuzz_raises_only_config_error(tmp_path):
    """Truncation at every byte and seeded random bytes written into keys
    and values: each file either loads or raises ConfigError."""
    blob = (b"# run\nseed = 7\nsteps=12  # short\nlr = 2e-3\ntau=0.1\nheight = 32\n"
            b"use_attention=1\ndataset_root = data\n")
    rng = np.random.default_rng(2026)
    cases = [blob[:cut] for cut in range(len(blob) + 1)]
    for _ in range(300):
        at = int(rng.integers(len(blob)))
        n = int(rng.integers(1, 5))
        cases.append(blob[:at] + rng.bytes(n) + blob[at + n:])
    loaded = 0
    for i, case in enumerate(cases):
        path = tmp_path / f"{i}.cfg"
        path.write_bytes(case)
        try:
            load_config(path)
            loaded += 1
        except ConfigError:
            pass
        path.unlink()
    assert 0 < loaded < len(cases)


# ---------------------------------------------------------------------------
# helpers for pipeline tests


def write_cfg(path, **over):
    entries = dict(seed=1, n_videos=3, frames_per_video=2, height=16, width=16,
                   holdout=0, batch_videos=2, batch_frames=2, steps=0)
    entries.update(over)
    Path(path).write_text("".join(f"{k}={v}\n" for k, v in entries.items()))
    return str(path)


def tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.fixture
def mini(tmp_path):
    """A tiny synthesized dataset plus a config pointing at tmp_path paths."""
    cfg = write_cfg(tmp_path / "run.cfg",
                    dataset_root=tmp_path / "data",
                    checkpoint_path=tmp_path / "model.ckpt",
                    output_dir=tmp_path / "out")
    assert main(["synth", "--config", cfg]) == 0
    return tmp_path, cfg


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_expected_files(mini, capsys):
    tmp_path, _ = mini
    data = tmp_path / "data"
    vids = sorted(d.name for d in data.iterdir())
    assert vids == ["video00", "video01", "video02"]
    for v in vids:
        assert sorted(p.name for p in (data / v / "frames").iterdir()) == \
            ["00000.ppm", "00001.ppm"]
        assert sorted(p.name for p in (data / v / "masks").iterdir()) == \
            ["00000.pgm", "00001.pgm"]


def test_synth_refuses_overwrite_without_force(mini, capsys):
    tmp_path, cfg = mini
    assert main(["synth", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR[io]")
    assert "--force" in err
    assert main(["synth", "--config", cfg, "--force"]) == 0


def test_synth_deterministic_across_runs(tmp_path):
    digests = []
    for name in ("a", "b"):
        cfg = write_cfg(tmp_path / f"{name}.cfg", dataset_root=tmp_path / name)
        assert main(["synth", "--config", cfg]) == 0
        digests.append(tree_digest(tmp_path / name))
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# train


def test_train_zero_steps_saves_initial_model(mini, capsys):
    tmp_path, cfg = mini
    assert main(["train", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "model parameters:" in out
    fresh = SaliencyModel(ModelConfig(), seed=1)
    load_checkpoint(tmp_path / "model.ckpt", fresh)   # shape manifest matches
    log = (tmp_path / "out" / "loss_log.csv").read_text().splitlines()
    assert log == ["step,L,L_bce,L_cl"]


def test_train_few_steps_logs_finite_losses(mini):
    tmp_path, cfg = mini
    cfg2 = write_cfg(tmp_path / "run2.cfg", steps=2,
                     dataset_root=tmp_path / "data",
                     checkpoint_path=tmp_path / "m2.ckpt",
                     output_dir=tmp_path / "out2")
    # two-frame videos leave fewer than k_pos candidates, which warns
    with pytest.warns(DegenerateBatchWarning):
        assert main(["train", "--config", cfg2]) == 0
    rows = (tmp_path / "out2" / "loss_log.csv").read_text().splitlines()
    assert rows[0] == "step,L,L_bce,L_cl"
    assert len(rows) == 3
    for row in rows[1:]:
        step, total, bce, cl = row.split(",")
        assert np.isfinite(float(total)) and np.isfinite(float(bce))
        # first loss with zeroed logit heads: bce is exactly ln 2
    assert abs(float(rows[1].split(",")[2]) - np.log(2.0)) < 1e-6


def test_default_config_step_mines_full_pools(tmp_path):
    """With the default k_pos, k_neg and minibatch (2 videos x 4 frames), an
    anchor has exactly k_pos positives, so training never warns."""
    cfg = write_cfg(tmp_path / "run.cfg", frames_per_video=4, height=32, width=32,
                    batch_frames=4, steps=1, dataset_root=tmp_path / "data",
                    checkpoint_path=tmp_path / "model.ckpt", output_dir=tmp_path / "out")
    assert main(["synth", "--config", cfg]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateBatchWarning)
        assert main(["train", "--config", cfg]) == 0
    step1 = (tmp_path / "out" / "loss_log.csv").read_text().splitlines()[1].split(",")
    assert float(step1[3]) > 0.0   # anchors were mined


def test_train_creates_checkpoint_directory(tmp_path, monkeypatch):
    """A checkpoint path in a directory that does not exist yet gets its
    directory made, so the run keeps both its checkpoint and its loss log."""
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg("run.cfg", frames_per_video=4, batch_frames=4, steps=2,
                    dataset_root="data", checkpoint_path="nodir/model.ckpt", output_dir="out")
    assert main(["synth", "--config", cfg]) == 0
    assert main(["train", "--config", cfg]) == 0
    load_checkpoint(tmp_path / "nodir" / "model.ckpt", SaliencyModel(ModelConfig(), seed=1))
    assert len((tmp_path / "out" / "loss_log.csv").read_text().splitlines()) == 3


def test_train_validates_batch_against_dataset(mini, capsys):
    tmp_path, _ = mini
    bad = write_cfg(tmp_path / "bad.cfg", holdout=3,
                    dataset_root=tmp_path / "data")
    assert main(["train", "--config", bad]) == 1
    assert "ERROR[config]" in capsys.readouterr().err
    bad = write_cfg(tmp_path / "bad2.cfg", batch_videos=5,
                    dataset_root=tmp_path / "data")
    assert main(["train", "--config", bad]) == 1
    assert "batch_videos" in capsys.readouterr().err
    bad = write_cfg(tmp_path / "bad3.cfg", batch_frames=9,
                    dataset_root=tmp_path / "data")
    assert main(["train", "--config", bad]) == 1
    assert "batch_frames" in capsys.readouterr().err


def test_train_missing_dataset(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "run.cfg", dataset_root=tmp_path / "nowhere")
    assert main(["train", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("ERROR[dataset]")


# ---------------------------------------------------------------------------
# infer


def test_infer_fresh_checkpoint_outputs_half_gray(mini):
    tmp_path, cfg = mini
    assert main(["train", "--config", cfg]) == 0   # steps=0: initial weights
    assert main(["infer", "--config", cfg,
                 "--frames", str(tmp_path / "data" / "video00" / "frames")]) == 0
    outs = sorted((tmp_path / "out").glob("*.pgm"))
    assert [p.name for p in outs] == ["00000.pgm", "00001.pgm"]
    # zero logit heads put every pixel at saliency 0.5 -> raster byte 128
    for p in outs:
        raster = p.read_bytes().split(b"255\n", 1)[1]
        assert raster == bytes([128]) * (16 * 16)
        assert np.all(read_pgm(p) == 128.0 / 255.0)


def test_infer_errors(mini, capsys):
    tmp_path, cfg = mini
    assert main(["train", "--config", cfg]) == 0
    assert main(["infer", "--config", cfg, "--frames", str(tmp_path / "none")]) == 1
    assert capsys.readouterr().err.startswith("ERROR[dataset]")
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["infer", "--config", cfg, "--frames", str(empty)]) == 1
    assert "no .ppm frames" in capsys.readouterr().err


def test_infer_rejects_bad_frame_shapes(mini, capsys):
    tmp_path, cfg = mini
    assert main(["train", "--config", cfg]) == 0
    frames = tmp_path / "frames"
    frames.mkdir()
    write_ppm(frames / "00000.ppm", np.zeros((16, 16, 3)))
    write_ppm(frames / "00001.ppm", np.zeros((24, 16, 3)))
    assert main(["infer", "--config", cfg, "--frames", str(frames)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR[dataset]")
    assert "frame 00001.ppm shape (24, 16, 3) differs" in err
    odd = tmp_path / "odd"
    odd.mkdir()
    write_ppm(odd / "00000.ppm", np.zeros((20, 20, 3)))
    assert main(["infer", "--config", cfg, "--frames", str(odd)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR[dataset]")
    assert "divisible by 8, got 20x20" in err


def one_error_line(err, category):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith(f"ERROR[{category}]")


@pytest.mark.parametrize("defect, category", [("shape", "dataset"), ("truncated", "io"),
                                              ("huge-width", "io")])
def test_infer_bad_last_frame_writes_no_map(mini, capsys, defect, category):
    """Frames stream one at a time, but every header is checked first: a
    bad frame that sorts last still fails before any map is written."""
    tmp_path, cfg = mini
    assert main(["train", "--config", cfg]) == 0
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(3):
        write_ppm(frames / f"{i:05d}.ppm", np.full((16, 16, 3), 0.25 * i))
    last = frames / "00003.ppm"
    if defect == "shape":
        write_ppm(last, np.zeros((16, 24, 3)))
    elif defect == "truncated":
        write_ppm(last, np.zeros((16, 16, 3)))
        last.write_bytes(last.read_bytes()[:-1])
    else:
        last.write_bytes(b"P6\n" + b"9" * 5000 + b" 16\n255\n" + bytes(768))
    capsys.readouterr()
    assert main(["infer", "--config", cfg, "--frames", str(frames)]) == 1
    assert one_error_line(capsys.readouterr().err, category)
    assert not list(tmp_path.glob("out/*.pgm"))


def test_infer_missing_and_corrupt_checkpoint(mini, capsys):
    tmp_path, cfg = mini
    frames = str(tmp_path / "data" / "video00" / "frames")
    assert main(["infer", "--config", cfg, "--checkpoint",
                 str(tmp_path / "none.ckpt"), "--frames", frames]) == 1
    assert capsys.readouterr().err.startswith("ERROR[io]")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTMAGIC" + bytes(64))
    assert main(["infer", "--config", cfg, "--checkpoint", str(bad),
                 "--frames", frames]) == 1
    assert capsys.readouterr().err.startswith("ERROR[checkpoint]")


def _corrupt_first_tensor(blob, defect):
    """A copy of a checkpoint whose first tensor carries one defect."""
    (n,) = struct.unpack_from("<I", blob, 8)
    name_at, rank_at = 12, 12 + n
    (rank,) = struct.unpack_from("<I", blob, rank_at)
    data_at = rank_at + 4 + 4 * rank
    b = bytearray(blob)
    if defect == "name":
        b[name_at] = 0xFF                       # never valid in UTF-8
    elif defect == "extents":
        b[rank_at:data_at] = struct.pack("<3I", 2, 0xFFFFFFFF, 0xFFFFFFFF)
    else:
        b[data_at:data_at + 8] = struct.pack("<d", float("nan"))
    return bytes(b)


@pytest.mark.parametrize("defect, message", [
    ("name", "is not UTF-8"),
    ("extents", "truncated checkpoint: data of"),
    ("nan", "holds a non-finite value"),
], ids=["name", "extents", "nan"])
def test_infer_rejects_malformed_checkpoint(mini, capsys, defect, message):
    tmp_path, cfg = mini
    assert main(["train", "--config", cfg]) == 0
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_corrupt_first_tensor((tmp_path / "model.ckpt").read_bytes(), defect))
    assert main(["infer", "--config", cfg, "--checkpoint", str(bad),
                 "--frames", str(tmp_path / "data" / "video00" / "frames")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR[checkpoint]") and message in err
    assert len(err.splitlines()) == 1
    assert not list((tmp_path / "out").glob("*.pgm"))


# ---------------------------------------------------------------------------
# eval


def make_eval_dirs(tmp_path, perfect=True):
    gt = tmp_path / "gt" / "vid"
    pred = tmp_path / "pred" / "vid"
    gt.mkdir(parents=True)
    pred.mkdir(parents=True)
    rng = np.random.default_rng(5)
    for i in range(2):
        mask = (rng.random((16, 16)) < 0.4).astype(np.float64)
        write_pgm(gt / f"{i:05d}.pgm", mask)
        write_pgm(pred / f"{i:05d}.pgm", mask if perfect else 1.0 - mask)
    return tmp_path / "pred", tmp_path / "gt"


def test_eval_perfect_predictions(tmp_path, capsys):
    pred, gt = make_eval_dirs(tmp_path)
    out = tmp_path / "scores"
    assert main(["eval", "--pred", str(pred), "--gt", str(gt),
                 "--out", str(out)]) == 0
    table = capsys.readouterr().out
    assert "overall" in table
    assert (out / "metrics.tsv").exists()
    lines = (out / "metrics.tsv").read_text().splitlines()
    assert lines[0] == "# frame_id\tmaxF\tS\tMAE\tJ\tboundaryF"
    assert len(lines) == 3
    first = lines[1].split("\t")
    assert first[0] == "vid/00000"
    assert float(first[1]) == 1.0     # maxF
    assert float(first[3]) == 0.0     # MAE


def test_eval_defaults_output_to_pred_dir(tmp_path):
    pred, gt = make_eval_dirs(tmp_path)
    assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 0
    assert (pred / "metrics.tsv").exists()
    assert (pred / "metrics.txt").exists()


def test_eval_reports_mismatched_ids(tmp_path, capsys):
    pred, gt = make_eval_dirs(tmp_path)
    write_pgm(pred / "vid" / "00009.pgm", np.zeros((16, 16)))
    (gt / "vid" / "00001.pgm").rename(gt / "vid" / "00008.pgm")
    assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR[dataset]")
    assert "prediction without ground truth: vid/00001, vid/00009" in err
    assert "ground truth without prediction: vid/00008" in err


def test_eval_missing_directory(tmp_path, capsys):
    assert main(["eval", "--pred", str(tmp_path / "a"),
                 "--gt", str(tmp_path / "b")]) == 1
    assert capsys.readouterr().err.startswith("ERROR[dataset]")


def test_eval_rejects_shape_mismatch(tmp_path, capsys):
    pred, gt = make_eval_dirs(tmp_path)
    write_pgm(gt / "vid" / "00001.pgm", np.zeros((8, 8)))
    assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR[dataset]")
    assert "vid/00001" in err
    assert not (pred / "metrics.tsv").exists()


def test_eval_unreadable_last_pair_writes_no_report(tmp_path, capsys):
    """Pairs stream one at a time, but the report is written only once every
    pair has scored (test_eval_rejects_shape_mismatch covers a last-pair
    shape mismatch)."""
    pred, gt = make_eval_dirs(tmp_path)
    last = pred / "vid" / "00001.pgm"
    last.write_bytes(last.read_bytes()[:-1])
    assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 1
    assert one_error_line(capsys.readouterr().err, "io")
    assert not list(pred.glob("metrics.*"))


def traced_peak(argv):
    """tracemalloc peak of one in-process main(argv), which must exit 0."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_infer_and_eval_hold_one_frame_at_a_time(tmp_path):
    """From 2 to 12 frames of 128x128, the traced peak of `infer` and of
    `eval` grows by less than one float64 frame. Holding every frame and
    map grew infer's peak by about 5 MB and eval's by about 2.5 MB."""
    save_checkpoint(tmp_path / "model.ckpt", SaliencyModel(ModelConfig(), seed=1))
    rng = np.random.default_rng(11)
    frame_bytes = 128 * 128 * 3 * 8
    peaks = {}
    for n in (2, 12):
        frames, gt = tmp_path / f"frames{n}", tmp_path / f"gt{n}"
        frames.mkdir()
        gt.mkdir()
        for i in range(n):
            write_ppm(frames / f"{i:05d}.ppm", rng.random((128, 128, 3)))
            write_pgm(gt / f"{i:05d}.pgm", (rng.random((128, 128)) < 0.3).astype(np.float64))
        cfg = write_cfg(tmp_path / f"infer{n}.cfg", checkpoint_path=tmp_path / "model.ckpt",
                        output_dir=tmp_path / f"pred{n}")
        peaks["infer", n] = traced_peak(["infer", "--config", cfg, "--frames", str(frames)])
        peaks["eval", n] = traced_peak(["eval", "--pred", str(tmp_path / f"pred{n}"),
                                        "--gt", str(gt)])
    for cmd in ("infer", "eval"):
        assert peaks[cmd, 12] - peaks[cmd, 2] < frame_bytes, (cmd, peaks)


# ---------------------------------------------------------------------------
# bench


def test_bench_pinned_multiply_counts(capsys):
    assert main(["bench", "16", "16", "32", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "4,194,304" in out
    assert "524,288" in out
    assert "multiply ratio naive/reordered: 8.00" in out


def test_bench_rejects_nonpositive_sizes(capsys):
    assert main(["bench", "0", "4", "4"]) == 2
    assert capsys.readouterr().err.startswith("ERROR[usage]")


# ---------------------------------------------------------------------------
# argument errors and the subprocess smoke test


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err.startswith("ERROR[usage]")
    assert main(["frobnicate"]) == 2
    assert capsys.readouterr().err.startswith("ERROR[usage]")
    assert main(["infer"]) == 2   # missing --frames
    assert capsys.readouterr().err.startswith("ERROR[usage]")


def test_cli_prints_each_warning_as_one_line(tmp_path):
    """eval on two all-zero masks exits 0 and warns once per frame, one
    stderr line each, with no source echo and no ERROR[ prefix."""
    (tmp_path / "pred").mkdir()
    (tmp_path / "gt").mkdir()
    for name in ("00000", "00001"):
        write_pgm(tmp_path / "pred" / f"{name}.pgm", np.full((8, 8), 0.3))
        write_pgm(tmp_path / "gt" / f"{name}.pgm", np.zeros((8, 8)))
    proc = run_python(["-m", "salattn.cli", "eval", "--pred", str(tmp_path / "pred"),
                       "--gt", str(tmp_path / "gt"), "--out", str(tmp_path / "scores")])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 2
    for name, line in zip(("00000", "00001"), lines):
        assert line.startswith("WARNING[UserWarning] frame " + name)
        assert "ERROR[" not in line


def test_cli_runs_in_subprocess():
    proc = run_python(["-c", "import sys; from salattn.cli import main; sys.exit(main(sys.argv[1:]))",
                       "bench", "8", "8", "8", "--repeats", "1"])
    assert proc.returncode == 0
    assert "multiply ratio naive/reordered" in proc.stdout


def test_unallocatable_size_is_one_memory_error_line():
    """`bench 100000 100000 64` asks for a 4.66 TiB input: one ERROR[memory]
    line and exit 1, not a traceback. The child caps its own address space
    at 4 GiB first, so the request fails at once even where the kernel would
    overcommit it, and nothing is paged in."""
    proc = run_python(["-c", "import resource, sys; "
                             "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)); "
                             "from salattn.cli import main; sys.exit(main(sys.argv[1:]))",
                       "bench", "100000", "100000", "64"])
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR[memory] "), proc.stderr


ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(args, **env):
    """A fresh interpreter on src/ with no BLAS thread variable but those in env."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=300,
                          env=dict(base, PYTHONPATH=str(ROOT / "src"), **env))


# The same ctypes getter perfbench's environment probe uses.
BLAS_THREADS_PROBE = """
import ctypes, sys
import salattn
print("numpy" in sys.modules)
import salattn.cli
threads = None
for path in sorted({l.split()[-1] for l in open("/proc/self/maps") if "blas" in l.lower()}):
    lib = ctypes.CDLL(path)
    for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_"):
        if hasattr(lib, sym):
            threads = getattr(lib, sym)()
print(threads)
"""


@pytest.mark.parametrize("env, want", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)],
                         ids=["unset", "caller-set-2"])
def test_cli_import_pins_blas_threads_unless_set(env, want):
    proc = run_python(["-c", BLAS_THREADS_PROBE], **env)
    assert proc.returncode == 0, proc.stderr
    numpy_after_package, threads = proc.stdout.split()
    assert numpy_after_package == "False"   # so salattn.cli can pin before numpy loads
    if threads == "None":
        pytest.skip("no OpenBLAS thread getter in this numpy")
    assert int(threads) == want


def test_train_bitwise_identical_across_blas_threads(tmp_path):
    """The README's promise: results do not depend on the BLAS thread count."""
    cfg = write_cfg(tmp_path / "synth.cfg", height=32, width=32, frames_per_video=4,
                    dataset_root=tmp_path / "data")
    assert main(["synth", "--config", cfg]) == 0
    outputs = []
    for threads in ("1", "2"):
        cfg = write_cfg(tmp_path / f"train{threads}.cfg", height=32, width=32,
                        frames_per_video=4, batch_frames=4, steps=3,
                        dataset_root=tmp_path / "data",
                        checkpoint_path=tmp_path / f"model{threads}.ckpt",
                        output_dir=tmp_path / f"out{threads}")
        proc = run_python(["-m", "salattn.cli", "train", "--config", cfg],
                          OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append(((tmp_path / f"model{threads}.ckpt").read_bytes(),
                        (tmp_path / f"out{threads}" / "loss_log.csv").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def clips(tmp_path_factory):
    """A checkpoint whose maps are not flat grey (its zero-initialised logit
    convs get random weights), a 16-frame 64x64 clip, a 4-frame 256x256
    clip, and each clip's maps written frame by frame in this process."""
    root = tmp_path_factory.mktemp("clips")
    model = SaliencyModel(ModelConfig(), seed=3)
    rng = np.random.default_rng(23)
    for name in ("predict", "skip4", "skip2", "skip1"):
        w = model.params[f"{name}.weight"].data
        w[...] = rng.normal(0.0, 0.5, w.shape)
    save_checkpoint(root / "model.ckpt", model)
    want = {}
    for size, n in ((64, 16), (256, 4)):
        frames = root / f"frames{size}"
        frames.mkdir()
        for i in range(n):
            frame = rng.random((size, size, 3))
            write_ppm(frames / f"{i:05d}.ppm", frame)
            write_pgm(root / "want.pgm", model.forward(read_ppm(frames / f"{i:05d}.ppm"))
                      .saliency.data)
            want[size, f"{i:05d}.pgm"] = (root / "want.pgm").read_bytes()
    return root, want


def run_infer(root, size, out, **popen):
    """`python -m salattn.cli infer` of the `clips` clip of this size into
    out: the finished Popen, its stdout and its stderr."""
    cfg = write_cfg(out.with_suffix(".cfg"), checkpoint_path=root / "model.ckpt", output_dir=out)
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    with subprocess.Popen([sys.executable, "-m", "salattn.cli", "infer", "--config", cfg,
                           "--frames", str(root / f"frames{size}")],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=dict(base, PYTHONPATH=str(ROOT / "src")), **popen) as proc:
        try:
            out, err = proc.communicate(timeout=300)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    return proc, out, err


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.parametrize("size, restrict, processes", [
    (64, None, 1),        # 16 x 64x64 = 2^16 pixels: below the 2^17 a fork needs
    (256, None, 2),       # 4 x 256x256 = 2^18 pixels, one process per usable CPU
    (256, _one_cpu, 1),   # the same clip with one usable CPU
], ids=["64x64-16", "256x256-4", "256x256-4-one-cpu"])
def test_infer_process_count(clips, tmp_path, size, restrict, processes):
    """infer splits its frames over one process per 2^17 pixels, at most one
    per usable CPU, names the count on its summary line, and every split
    writes the maps of a frame-by-frame forward, byte for byte."""
    if processes > 1 and len(os.sched_getaffinity(0)) < processes:
        pytest.skip(f"needs {processes} usable CPUs")
    root, want = clips
    proc, out, err = run_infer(root, size, tmp_path / "pred", preexec_fn=restrict)
    assert proc.returncode == 0, err
    n, count = 16 if size == 64 else 4, f"{processes} process{'es' if processes > 1 else ''}"
    assert out == f"wrote {n} saliency maps to {tmp_path / 'pred'} ({count})\n"
    got = {(size, p.name): p.read_bytes() for p in sorted((tmp_path / "pred").iterdir())}
    assert got == {k: v for k, v in want.items() if k[0] == size}


@pytest.mark.parametrize("blocked", ["00001.pgm", "00000.pgm"], ids=["worker", "parent"])
def test_infer_failure_in_either_process_is_one_error_line(clips, tmp_path, blocked):
    """A directory at one frame's .pgm path fails that frame's write: in the
    forked worker (frames 1 and 3) or in the parent (frames 0 and 2). Either
    way the run prints one ERROR[io] line, exits 1 and leaves no process of
    its session running."""
    root, _ = clips
    (tmp_path / "pred" / blocked).mkdir(parents=True)
    proc, _, err = run_infer(root, 256, tmp_path / "pred", start_new_session=True)
    assert proc.returncode == 1, err
    assert one_error_line(err, "io"), err
    assert blocked in err
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.parametrize("fault", ["killed", "bug"])
def test_infer_worker_killed_or_failing_unexpectedly(clips, tmp_path, monkeypatch, capsys, fault):
    """A worker killed before it can report is one ERROR[io] line naming its
    exit status; an exception main does not catch reaches the caller as in
    a one-process run, carrying the worker's traceback."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs 2 usable CPUs")
    root, _ = clips
    parent, write = os.getpid(), cli.write_pgm

    def write_or_fail(path, img):
        if os.getpid() != parent:
            if fault == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise KeyError("no such level")
        write(path, img)

    monkeypatch.setattr(cli, "write_pgm", write_or_fail)
    cfg = write_cfg(tmp_path / "infer.cfg", checkpoint_path=root / "model.ckpt",
                    output_dir=tmp_path / "pred")
    argv = ["infer", "--config", cfg, "--frames", str(root / "frames256")]
    if fault == "killed":
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert one_error_line(err, "io") and f"exit status {-signal.SIGKILL}" in err, err
    else:
        with pytest.raises(RuntimeError, match=r"(?s)infer worker failed.*KeyError"):
            main(argv)


def test_perfbench_tracer_runs_train(tmp_path):
    """perfbench's tracer wraps the tape from outside the program: a 2-step
    train under it exits 0, builds no gradient it then throws away, and
    times the backward of every conv and upsample kind."""
    cfg = write_cfg(tmp_path / "run.cfg", n_videos=3, frames_per_video=4, height=32, width=32,
                    holdout=1, batch_videos=2, batch_frames=4, steps=2,
                    dataset_root=tmp_path / "data", checkpoint_path=tmp_path / "model.ckpt",
                    output_dir=tmp_path / "out")
    assert main(["synth", "--config", cfg]) == 0
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_main.py"), str(tmp_path / "trace.json"),
         "train", "--config", cfg],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "trace.json").read_text())
    assert summary["counts"]["tensor.grads_computed"] > 0
    assert summary["counts"]["tensor.grads_discarded"] == 0
    for kind in ("ops.conv3x3_bwd", "ops.conv1x1_bwd", "ops.upsample_bwd"):
        assert kind in summary["bwd_ms"]


def test_perfbench_tracer_runs_infer_256(tmp_path):
    """A traced 2-frame 256x256 `infer` exits 0 and its summary holds the
    3x3 conv forward and co-attention spans: the tracer still finds
    ops.conv2d by name and calls it as (x, kernel, bias, stride)."""
    save_checkpoint(tmp_path / "model.ckpt", SaliencyModel(ModelConfig(), seed=1))
    frames = tmp_path / "frames"
    frames.mkdir()
    rng = np.random.default_rng(17)
    for i in range(2):
        write_ppm(frames / f"{i:05d}.ppm", rng.random((256, 256, 3)))
    cfg = write_cfg(tmp_path / "infer.cfg", checkpoint_path=tmp_path / "model.ckpt",
                    output_dir=tmp_path / "pred")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_main.py"), str(tmp_path / "trace.json"),
         "infer", "--config", cfg, "--frames", str(frames)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    assert len(spans["model.forward"]["incl_ms"]) == 2
    assert len(spans["attention.coattention"]["incl_ms"]) == 2
    assert len(spans["ops.conv3x3_fwd"]["incl_ms"]) == 2 * 7
    assert len(list((tmp_path / "pred").glob("*.pgm"))) == 2


def test_perfbench_tracer_runs_eval_256(tmp_path):
    """A traced 2-frame 256x256 `eval` exits 0 and each of the five metric
    spans appears once per frame: frame_metrics still calls the metric
    functions by the module-level names the tracer swaps."""
    rng = np.random.default_rng(19)
    yy, xx = np.mgrid[:256, :256]
    for d in ("pred", "gt"):
        (tmp_path / d).mkdir()
    for i in range(2):
        mask = (yy - 100 - 20 * i) ** 2 + (xx - 128) ** 2 < 30 ** 2
        write_pgm(tmp_path / "gt" / f"{i:05d}.pgm", mask.astype(np.float64))
        write_pgm(tmp_path / "pred" / f"{i:05d}.pgm",
                  np.clip(0.7 * mask + 0.3 * rng.random((256, 256)), 0.0, 1.0))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_main.py"), str(tmp_path / "trace.json"),
         "eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
         "--out", str(tmp_path / "scores")],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    for name in ("metrics.max_f", "metrics.s_measure", "metrics.mae", "metrics.jaccard",
                 "metrics.boundary_f"):
        assert len(spans[name]["incl_ms"]) == 2, name
    assert len((tmp_path / "scores" / "metrics.tsv").read_text().splitlines()) == 3


SGD_CHECK = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
print(json.dumps(run.check_sgd_update(sys.argv[2], int(sys.argv[3]))))
"""


def test_perfbench_sgd_check_reads_loaded_frames(tmp_path):
    """perfbench's check_sgd_update feeds load_dataset's uint8 frames and
    bool masks to train_step: it runs and finds step 1's L_bce at ln 2.
    Its other finding, the SGD move against a central difference, is not
    asserted: that comparison misses its 1e-6 tolerance on about 1 seed in
    30 (ReLU kinks crossed within eps, and the difference's own rounding),
    whatever the program does."""
    cfg = write_cfg(tmp_path / "run.cfg", n_videos=2, frames_per_video=4,
                    dataset_root=tmp_path / "data")
    assert main(["synth", "--config", cfg]) == 0
    proc = run_python(["-c", SGD_CHECK, str(ROOT / "perfbench"), str(tmp_path / "data"), "1"])
    assert proc.returncode == 0, proc.stderr
    problems = json.loads(proc.stdout.splitlines()[-1])
    assert not [p for p in problems if "L_bce" in p]

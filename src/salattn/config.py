"""Run configuration: plain key=value text, UTF-8, # comments.

Unknown keys are rejected so a typo cannot silently fall back to a
default. Every value is validated on parse; image extents must be
divisible by 8 to match the three stride-2 encoder stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


class ConfigError(ValueError):
    """Unparseable, unknown, or out-of-range configuration entry."""


@dataclass
class RunConfig:
    seed: int = 1
    steps: int = 2000
    lr: float = 1e-4
    tau: float = 0.1
    k_pos: int = 3
    k_neg: int = 4
    batch_videos: int = 2
    batch_frames: int = 4
    n_videos: int = 10
    frames_per_video: int = 16
    height: int = 64
    width: int = 64
    channels: int = 32
    holdout: int = 2
    use_attention: int = 1
    use_contrastive: int = 1
    dataset_root: str = "data"
    checkpoint_path: str = "model.ckpt"
    output_dir: str = "out"


def _echo(raw: str) -> str:
    """raw quoted for an error line, cut to its first 32 characters."""
    return repr(raw) if len(raw) <= 32 else f"{raw[:32]!r}... ({len(raw)} characters)"


def _int_at_least(minimum):
    def convert(key, raw):
        try:
            v = int(raw, 0)
        except ValueError:
            # A long run of digits that int() refuses is past Python's limit
            # on digits per conversion (or carries leading zeros).
            digits = raw.lstrip("+-")
            if digits.isdigit() and len(digits) > 32:
                raise ConfigError(f"{key}: integer of {len(digits)} digits is too long") from None
            raise ConfigError(f"{key}: expected an integer, got {_echo(raw)}") from None
        if v < minimum:
            raise ConfigError(f"{key}: must be >= {minimum}, got {v}")
        return v
    return convert


def _positive_float(key, raw):
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {_echo(raw)}") from None
    if not 0.0 < v < math.inf:
        raise ConfigError(f"{key}: must be positive and finite, got {v}")
    return v


def _extent(key, raw):
    v = _int_at_least(8)(key, raw)
    if v % 8:
        raise ConfigError(f"{key}: must be divisible by 8, got {v}")
    return v


def _flag(key, raw):
    if raw not in ("0", "1"):
        raise ConfigError(f"{key}: expected 0 or 1, got {_echo(raw)}")
    return int(raw)


def _path(key, raw):
    if not raw:
        raise ConfigError(f"{key}: empty path")
    if "\0" in raw:   # the OS cannot open such a path
        raise ConfigError(f"{key}: NUL byte in path")
    return raw


_VALIDATORS = {
    "seed": _int_at_least(0),
    "steps": _int_at_least(0),
    "lr": _positive_float,
    "tau": _positive_float,
    "k_pos": _int_at_least(1),
    "k_neg": _int_at_least(1),
    "batch_videos": _int_at_least(1),
    "batch_frames": _int_at_least(1),
    "n_videos": _int_at_least(1),
    "frames_per_video": _int_at_least(1),
    "height": _extent,
    "width": _extent,
    "channels": _int_at_least(1),
    "holdout": _int_at_least(0),
    "use_attention": _flag,
    "use_contrastive": _flag,
    "dataset_root": _path,
    "checkpoint_path": _path,
    "output_dir": _path,
}

assert set(_VALIDATORS) == {f.name for f in fields(RunConfig)}


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    seen = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {_echo(raw_line.strip())}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _VALIDATORS:
            raise ConfigError(f"line {lineno}: unknown key {_echo(key)}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        setattr(cfg, key, _VALIDATORS[key](key, value))
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e.strerror}") from None
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"config {path} is not UTF-8 at byte {e.start}") from None
    return parse_config(text)

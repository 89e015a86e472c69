"""Run the salattn command line with spans around each module's public functions.

    python3 perfbench/trace_main.py SUMMARY.json CLI_ARGS...

behaves like `salattn CLI_ARGS...` and, on exit, writes per-span call
counts, inclusive and self times, backward time per op kind and layer,
and work counters to SUMMARY.json. Wrappers are installed from here, so
the program itself is unchanged; a span's self time is its duration
minus the union of its child spans, which keeps concurrent children from
the infer/eval thread pools from being counted twice.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

_T0 = time.perf_counter()
import salattn.cli as cli  # noqa: E402  (the import is what cli.import_ms times)

IMPORT_MS = (time.perf_counter() - _T0) * 1e3

from salattn import (attention, contrastive, metrics, model, netpbm, ops,  # noqa: E402
                     synth, tensor)


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent] lists
        self.local = threading.local()
        self.root = None
        self.counts = Counter()
        self.bwd_ms = defaultdict(float)
        self.tape = None           # active GradTape, if any
        self.tags = {}             # id(record output) -> layer, for the active tape
        self.lock = threading.Lock()   # counters are bumped from pool threads too

    def add(self, key, n):
        with self.lock:
            self.counts[key] += n

    def _stack(self):
        st = getattr(self.local, "stack", None)
        if st is None:
            st = self.local.stack = []
        return st

    def call(self, name, fn, *args, **kwargs):
        st = self._stack()
        span = [name, 0.0, 0.0, st[-1] if st else self.root]
        self.spans.append(span)
        st.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            st.pop()

    def tagged(self, layer, name, fn, *args, **kwargs):
        """Call fn in a span and tag the tape records it appends with layer."""
        n0 = len(self.tape._records) if self.tape is not None else None
        out = self.call(name, fn, *args, **kwargs)
        if n0 is not None:
            for rec in self.tape._records[n0:]:
                self.tags[id(rec[0])] = layer
        return out

    def summary(self) -> dict:
        children = defaultdict(list)
        for s in self.spans:
            if s[3] is not None:
                children[id(s[3])].append((s[1], s[2]))
        out = {}
        for s in self.spans:
            covered, end = 0.0, float("-inf")
            for a, b in sorted(children[id(s)]):
                a = max(a, end)
                if b > a:
                    covered += b - a
                    end = b
            entry = out.setdefault(s[0], {"incl_ms": [], "self_ms": 0.0})
            entry["incl_ms"].append((s[2] - s[1]) * 1e3)
            entry["self_ms"] += (s[2] - s[1] - covered) * 1e3
        return {"import_ms": IMPORT_MS, "spans": out, "counts": dict(self.counts),
                "bwd_ms": dict(self.bwd_ms)}


TR = Tracer()


def _span(name):
    return lambda fn: lambda *a, **k: TR.call(name, fn, *a, **k)


def _layer(layer, name):
    return lambda fn: lambda *a, **k: TR.tagged(layer, name, fn, *a, **k)


def _conv2d(fn):
    def wrapper(x, kernel, bias=None, stride=1):
        out = TR.call(f"ops.conv{kernel.shape[0]}x{kernel.shape[1]}_fwd", fn, x, kernel, bias, stride)
        oh, ow, cout = out.shape
        kh, kw, cin, _ = kernel.shape
        TR.add("ops.conv_macs", oh * ow * kh * kw * cin * cout)
        return out
    return wrapper


def _self_attention(fn):
    def wrapper(x, gen):
        h, w, c = x.shape
        TR.add("attention.nonlocal_multiplies", attention.count_flops("reordered", h, w, c))
        return TR.tagged("attention", "attention.self_attention", fn, x, gen)
    return wrapper


def _mine(fn):
    def wrapper(features, k_pos, k_neg):
        batches = TR.tagged("contrastive", "contrastive.mine", fn, features, k_pos, k_neg)
        TR.add("contrastive.anchors", len(batches))
        TR.add("contrastive.degenerate_pools", sum(
            len(b.positives) < k_pos or len(b.negatives) < k_neg for b in batches))
        return batches
    return wrapper


def _file_io(name, counter, after):
    def deco(fn):
        def wrapper(path, *a):
            if not after:
                TR.add(counter, _size(path))
            out = TR.call(name, fn, path, *a)
            if after:
                TR.add(counter, _size(path))
            return out
        return wrapper
    return deco


def _size(path):
    return os.stat(path).st_size


def _forward(fn):
    def wrapper(self, frame):
        name = "model.forward_taped" if TR.tape is not None else "model.forward"
        return TR.call(name, fn, self, frame)
    return wrapper


def _enter(fn):
    def wrapper(self):
        out = fn(self)
        TR.tape, TR.tags = self, {}
        return out
    return wrapper


def _exit(fn):
    def wrapper(self, *exc):
        TR.tape = None
        return fn(self, *exc)
    return wrapper


_BWD_KIND = {"bilinear_upsample_x2": "ops.upsample_bwd", "depthwise_conv2d": "ops.depthwise_bwd"}


def _timed_backward(backward, inputs, kind, layer):
    def wrapper(g):
        t0 = time.perf_counter()
        grads = backward(g)
        dt = (time.perf_counter() - t0) * 1e3
        for key in (kind, layer):
            if key is not None:
                TR.bwd_ms[key] += dt
        for t, gt in zip(inputs, grads):
            if gt is not None:
                TR.add("tensor.grads_computed", 1)
                TR.add("tensor.grads_discarded", not t.requires_grad)
        return grads
    return wrapper


def _gradient(fn):
    def wrapper(tape, loss, sources):
        records = tape._records
        TR.add("tensor.tape_records", len(records))
        timed = []
        for out, inputs, backward in records:
            op = backward.__qualname__.split(".")[0]
            kind = (f"ops.conv{inputs[1].shape[0]}x{inputs[1].shape[1]}_bwd"
                    if op == "conv2d" else _BWD_KIND.get(op))
            timed.append((out, inputs, _timed_backward(backward, inputs, kind,
                                                       TR.tags.get(id(out)))))
        tape._records = timed
        try:
            return TR.call("tensor.gradient", fn, tape, loss, sources)
        finally:
            tape._records = records
    return wrapper


FUNCTIONS = {
    synth.generate_video: _span("synth.generate_video"),
    synth.save_video: _span("synth.save_video"),
    synth.load_dataset: _span("synth.load_dataset"),
    netpbm.read_ppm: _file_io("netpbm.read_ppm", "netpbm.bytes_read", after=False),
    netpbm.read_pgm: _file_io("netpbm.read_pgm", "netpbm.bytes_read", after=False),
    netpbm.write_pgm: _file_io("netpbm.write_pgm", "netpbm.bytes_written", after=True),
    netpbm.write_ppm: _file_io("netpbm.write_ppm", "netpbm.bytes_written", after=True),
    model.load_checkpoint: _span("model.load_checkpoint"),
    model.save_checkpoint: _span("model.save_checkpoint"),
    model.train_step: _span("model.train_step"),
    ops.conv2d: _conv2d,
    ops.depthwise_conv2d: _span("ops.depthwise_fwd"),
    ops.bilinear_upsample_x2: _span("ops.upsample_fwd"),
    ops.bce_loss: _span("ops.bce"),
    attention.self_attention_block: _self_attention,
    attention.coattention: _layer("attention", "attention.coattention"),
    attention.gate: _layer("attention", "attention.gate"),
    contrastive.extract_region_features: _layer("contrastive", "contrastive.extract"),
    contrastive.build_contrastive_batches: _mine,
    contrastive.infonce_loss: _layer("contrastive", "contrastive.infonce"),
    metrics.max_f_measure: _span("metrics.max_f"),
    metrics.s_measure: _span("metrics.s_measure"),
    metrics.mae: _span("metrics.mae"),
    metrics.jaccard: _span("metrics.jaccard"),
    metrics.boundary_f: _span("metrics.boundary_f"),
}

METHODS = [
    (model.SaliencyModel, "forward", _forward),
    (tensor.GradTape, "__enter__", _enter),
    (tensor.GradTape, "__exit__", _exit),
    (tensor.GradTape, "gradient", _gradient),
]


def install() -> None:
    """Replace every module-level reference to a traced function, since the
    package binds names at import with `from .x import y`."""
    wrapped = {fn: deco(fn) for fn, deco in FUNCTIONS.items()}
    for name, mod in list(sys.modules.items()):
        if name == "salattn" or name.startswith("salattn."):
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
    for cls, attr, deco in METHODS:
        setattr(cls, attr, deco(getattr(cls, attr)))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    install()
    TR.root = root = ["cli.main", time.perf_counter(), 0.0, None]
    TR.spans.append(root)
    try:
        return cli.main(argv)
    finally:
        root[2] = time.perf_counter()
        with open(out_path, "w") as fh:
            json.dump(TR.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())

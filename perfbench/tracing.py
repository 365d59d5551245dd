"""Span tracing for the benchmark's traced runs.

The tracer wraps the public functions of each lesionseg layer where they
are imported, from the benchmark's side: nothing under ``src/`` knows it
exists. Each wrapped call records one span (name, start, end, parent span,
run id) in memory, and the spans are written out when the run ends. A
span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the time of the root
calls the benchmark made.

Backward time per op comes from wrapping the tape node that the op's
forward call appended, so it is recorded as a child span of the tape's
``backward`` replay.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# Per-layer metrics of a traced run: (metric, unit, kind, source).
# kind "self" sums the self time of spans named `source`, "calls" counts
# them, and "count" reads a counter the wrappers add to.
LAYER_METRICS = (
    ("autodiff.conv2d.fwd_ms", "ms", "self", "autodiff.conv2d"),
    ("autodiff.conv2d.bwd_ms", "ms", "self", "autodiff.conv2d.bwd"),
    ("autodiff.conv2d.calls", "count", "calls", "autodiff.conv2d"),
    ("autodiff.conv2d.flops_computed", "flop", "count", "autodiff.conv2d.flops"),
    ("autodiff.tape.backward_ms", "ms", "self", "autodiff.tape.backward"),
    ("autodiff.tape.nodes", "count", "count", "autodiff.tape.nodes"),
    ("autodiff.matmul.fwd_ms", "ms", "self", "autodiff.matmul"),
    ("autodiff.matmul.bwd_ms", "ms", "self", "autodiff.matmul.bwd"),
    ("autodiff.softmax_rows.fwd_ms", "ms", "self", "autodiff.softmax_rows"),
    ("autodiff.softmax_rows.bwd_ms", "ms", "self", "autodiff.softmax_rows.bwd"),
    ("backbone.encode.ms", "ms", "self", "backbone.encode"),
    ("backbone.encode.calls", "count", "calls", "backbone.encode"),
    ("backbone.decode.ms", "ms", "self", "backbone.decode"),
    ("temporal.memory_read.ms", "ms", "self", "temporal.memory_read"),
    ("temporal.memory_read.positions", "count", "count", "temporal.memory_read.positions"),
    ("temporal.score_bytes_computed", "bytes", "count", "temporal.score_bytes"),
    ("spatial.apply_prior.ms", "ms", "self", "spatial.apply_prior"),
    ("spatial.spatial_read.ms", "ms", "self", "spatial.spatial_read"),
    ("model.merge_branches.ms", "ms", "self", "model.merge_branches"),
    ("propagation.init.ms", "ms", "self", "propagation.init"),
    ("propagation.init.calls", "count", "calls", "propagation.init"),
    ("propagation.step.ms", "ms", "self", "propagation.step"),
    ("propagation.step.calls", "count", "calls", "propagation.step"),
    ("train.train.ms", "ms", "self", "train.train"),
    ("train.clip_loss.ms", "ms", "self", "train.clip_loss"),
    ("train.sgd_apply.ms", "ms", "self", "train.sgd_apply"),
    ("train.sgd_apply.calls", "count", "calls", "train.sgd_apply"),
    ("data.sample_clips.wait_ms", "ms", "self", "data.sample_clips"),
    ("metrics.segmentation_metrics.ms", "ms", "self", "metrics.segmentation_metrics"),
    ("metrics.ce_loss.ms", "ms", "self", "metrics.ce_loss"),
    ("evaluate.evaluate.ms", "ms", "self", "evaluate.evaluate"),
    ("data.load_dataset.ms", "ms", "self", "data.load_dataset"),
    ("netpbm.read.ms", "ms", "self", "netpbm.read"),
    ("netpbm.read.bytes", "bytes", "count", "netpbm.read.bytes"),
    ("netpbm.write_mask.ms", "ms", "self", "netpbm.write_mask"),
    ("netpbm.write_mask.bytes", "bytes", "count", "netpbm.write_mask.bytes"),
    ("checkpoint.save.ms", "ms", "self", "checkpoint.save"),
    ("checkpoint.save.bytes", "bytes", "count", "checkpoint.save.bytes"),
    ("checkpoint.load.ms", "ms", "self", "checkpoint.load"),
    ("checkpoint.load.bytes", "bytes", "count", "checkpoint.load.bytes"),
)
OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio")


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


class Tracer:
    """In-memory span recorder plus the layer patches that feed it.

    ``install()`` replaces the traced functions and ``uninstall()`` puts
    the originals back; use them in a ``try``/``finally``.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.run_ids: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.run_ids.append(self.run_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, *args, **kwargs)`` runs outside it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return traced

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time in seconds, and call count."""
        n = len(self.names)
        if n == 0:
            return {}, {}
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=duration[nested], minlength=n)
        own = duration - children
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, value in zip(self.names, own.tolist()):
            seconds[name] += value
            calls[name] += 1
        return dict(seconds), dict(calls)

    def root_seconds(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0)

    def layer_metrics(self, units: int) -> dict[str, float]:
        """Every per-layer metric, per unit of work over `units` traced units.

        Per unit, the counts are exact and the times compare across runs
        that fit a different number of units into their time.
        """
        seconds, calls = self.self_times()
        out = {}
        for metric, _, kind, source in LAYER_METRICS:
            if kind == "self":
                total = 1000.0 * seconds.get(source, 0.0)
            elif kind == "calls":
                total = calls.get(source, 0)
            else:
                total = self.counts.get(source, 0)
            out[metric] = total / units
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span, times relative to the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        lines = ["run_id\tspan\tparent\tname\tstart_s\tend_s\n"]
        for i, (name, s, e, p, r) in enumerate(zip(self.names, self.starts, self.ends,
                                                   self.parents, self.run_ids)):
            lines.append(f"{r}\t{i}\t{p}\t{name}\t{s - t0:.9f}\t{e - t0:.9f}\n")
        Path(path).write_text("".join(lines))

    # -- patches -------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _trace(self, owner, attr: str, name: str, after=None) -> None:
        self._patch(owner, attr, self.wrap(name, owner.__dict__[attr], after))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every traced function at the site the package calls it from."""
        from lesionseg import (autodiff, backbone, checkpoint, data, evaluate, model,
                               propagation, temporal, train)

        def node_timer(bwd_name):
            def after(out, *args, **kwargs):
                self._time_backward(autodiff, out, bwd_name)
            return after

        def conv_after(out, x, weight, *args, **kwargs):
            cout, cin, kh, kw = weight.shape
            self.counts["autodiff.conv2d.flops"] += (
                2 * cout * cin * kh * kw * out.shape[1] * out.shape[2])
            self._time_backward(autodiff, out, "autodiff.conv2d.bwd")

        def tape_after(_, tape, *args, **kwargs):
            self.counts["autodiff.tape.nodes"] += len(tape.nodes)

        def memory_after(_, bank, query_key, **kwargs):
            _, h, w = query_key.shape
            positions = len(bank) * h * w
            self.counts["temporal.memory_read.positions"] += positions
            self.counts["temporal.score_bytes"] += h * w * positions * 8

        def file_bytes(counter):
            def after(_, path, *args, **kwargs):
                self.counts[counter] += os.path.getsize(path)
            return after

        def dir_bytes(counter):
            def after(_, path, *args, **kwargs):
                self.counts[counter] += _dir_bytes(path)
            return after

        # every Conv layer (encoder, decoder, fusion lift, coarse tap) calls
        # backbone's conv2d; both attention reads use temporal's matmul/softmax
        self._trace(backbone, "conv2d", "autodiff.conv2d", conv_after)
        self._trace(temporal, "matmul", "autodiff.matmul", node_timer("autodiff.matmul.bwd"))
        self._trace(temporal, "softmax_rows", "autodiff.softmax_rows",
                    node_timer("autodiff.softmax_rows.bwd"))
        self._trace(autodiff.Tape, "backward", "autodiff.tape.backward", tape_after)
        self._trace(backbone.Encoder, "encode", "backbone.encode")
        self._trace(backbone.Decoder, "decode", "backbone.decode")
        self._trace(propagation, "memory_read", "temporal.memory_read", memory_after)
        self._trace(propagation, "apply_prior", "spatial.apply_prior")
        self._trace(propagation, "spatial_read", "spatial.spatial_read")
        self._trace(model.SegmentationModel, "merge_branches", "model.merge_branches")
        for owner in (propagation, train):
            self._trace(owner, "init", "propagation.init")
            self._trace(owner, "step", "propagation.step")
        self._trace(train, "train", "train.train")
        self._trace(train, "clip_loss", "train.clip_loss")
        self._trace(train, "ce_loss", "metrics.ce_loss")
        self._trace(train.SGD, "apply", "train.sgd_apply")
        self._patch(train, "sample_clips", self._timed_stream(train.sample_clips))
        self._trace(evaluate, "evaluate", "evaluate.evaluate")
        self._trace(evaluate, "segmentation_metrics", "metrics.segmentation_metrics")
        self._trace(evaluate, "write_mask", "netpbm.write_mask",
                    file_bytes("netpbm.write_mask.bytes"))
        self._trace(data, "load_dataset", "data.load_dataset")
        self._trace(data, "read_netpbm", "netpbm.read", file_bytes("netpbm.read.bytes"))
        self._trace(data, "read_mask", "netpbm.read", file_bytes("netpbm.read.bytes"))
        self._trace(checkpoint, "save_checkpoint", "checkpoint.save",
                    dir_bytes("checkpoint.save.bytes"))
        self._trace(checkpoint, "load_checkpoint", "checkpoint.load",
                    dir_bytes("checkpoint.load.bytes"))

    def _time_backward(self, autodiff, out, name: str) -> None:
        """Wrap the tape node the op just appended, if it appended one."""
        if not (out.requires_grad and autodiff._TAPE_STACK):
            return
        node = autodiff._TAPE_STACK[-1].nodes[-1]
        if node.output is not out:
            return
        inner = node.backward

        def backward(g):
            idx = self.begin(name)
            try:
                inner(g)
            finally:
                self.end(idx)
        node.backward = backward

    def _timed_stream(self, sample_clips):
        """Clip generator whose every ``next`` is a ``data.sample_clips`` span."""
        @functools.wraps(sample_clips)
        def stream(seq, rng):
            clips = sample_clips(seq, rng)
            while True:
                idx = self.begin("data.sample_clips")
                try:
                    clip = next(clips)
                except StopIteration:
                    return
                finally:
                    self.end(idx)
                yield clip
        return stream

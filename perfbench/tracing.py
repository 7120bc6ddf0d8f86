"""Spans and counters recorded from outside the program.

The tracer replaces each public function of a segan module at the name its
caller looks it up by (``cli`` imports ``evaluate_student`` by name, so the
wrapper goes on ``segan.cli``; ``tensor`` calls ``kernels.conv2d_forward``
through the module, so it goes on ``segan.kernels``). Each call records a
span ``[name, start, end, parent]``; counters are kept per top-level span
(the set-up, and each timed round). Everything stays in memory until
:meth:`Tracer.dump` writes it out at the end of the run.

:func:`layer_metrics` turns the spans and counters of one top-level span
into the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Patcher:
    """Replaces attributes and puts the originals back."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@contextmanager
def conv_shapes(record: set):
    """Record every (kernel, per-sample shape, weight shape, stride, pad,
    dtype) the conv kernels see.

    Used on the untimed warm-up round, so the kernel oracles can replay each
    configuration the workload ran without a wrapper in the timed rounds.
    """
    from segan import kernels

    fwd, bwd_in, bwd_w = kernels.conv2d_forward, kernels.conv2d_bwd_input, kernels.conv2d_bwd_weight

    def forward(x, w, stride=1, pad=0):
        record.add(("forward", x.shape[1:], w.shape, stride, pad, x.dtype.name))
        return fwd(x, w, stride, pad)

    def bwd_input(g, w, input_hw, stride=1, pad=0):
        x_shape = (input_hw[0], input_hw[1], w.shape[2])
        record.add(("bwd_input", x_shape, w.shape, stride, pad, g.dtype.name))
        return bwd_in(g, w, input_hw, stride, pad)

    def bwd_weight(x, g, kernel_hw, stride=1, pad=0):
        w_shape = (kernel_hw[0], kernel_hw[1], x.shape[3], g.shape[3])
        record.add(("bwd_weight", x.shape[1:], w_shape, stride, pad, x.dtype.name))
        return bwd_w(x, g, kernel_hw, stride, pad)

    p = Patcher()
    p.patch(kernels, "conv2d_forward", forward)
    p.patch(kernels, "conv2d_bwd_input", bwd_input)
    p.patch(kernels, "conv2d_bwd_weight", bwd_weight)
    try:
        yield record
    finally:
        p.restore()


class Tracer:
    """In-memory spans and per-phase counters around the program's layers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._patcher = Patcher()

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def add(self, key: str, value: float = 1.0) -> None:
        """Add to a counter of the current top-level span."""
        if self._stack:
            self.counts[self._stack[0]][key] += value

    def traced(self, fn, name, after=None):
        """``fn`` wrapped in a span; ``name`` may be a function of the call's
        arguments; ``after(args, kwargs, result)`` may add counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name, after=None) -> None:
        self._patcher.patch(owner, attr, self.traced(getattr(owner, attr), name, after))

    def count_calls(self, owner, attr: str, key: str) -> None:
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.add(key)
            return fn(*args, **kwargs)

        self._patcher.patch(owner, attr, counted)

    def wrap_factory(self, owner, attr: str, name: str) -> None:
        """Trace the function a factory returns, not the factory."""
        factory = getattr(owner, attr)
        tracer = self

        @functools.wraps(factory)
        def make(*args, **kwargs):
            return tracer.traced(factory(*args, **kwargs), name)

        self._patcher.patch(owner, attr, make)

    def restore(self) -> None:
        self._patcher.restore()

    # -- the program's layers ---------------------------------------------

    def install(self) -> None:
        """Wrap every public function the workloads reach."""
        from segan import bounds, cli, datagen, kernels, networks, optim, sgt, tensor, trainer

        add = self.add

        # 2 flops per multiply-add: each output cell of a conv sums kh*kw*ci
        # products, and each backward kernel does the same work as its forward.
        def forward_flop(args, kwargs, result):
            add("conv_flop", 2 * result.size * math.prod(args[1].shape[:3]))

        def bwd_input_flop(args, kwargs, result):  # (g, w, input_hw, ...)
            add("conv_flop", 2 * args[0].size * math.prod(args[1].shape[:3]))

        def bwd_weight_flop(args, kwargs, result):  # (x, g, kernel_hw, ...)
            add("conv_flop", 2 * args[1].size * math.prod(args[2]) * args[0].shape[3])

        self.wrap(kernels, "conv2d_forward", "kernels.conv2d_forward", forward_flop)
        self.wrap(kernels, "conv2d_bwd_input", "kernels.conv2d_bwd_input", bwd_input_flop)
        self.wrap(kernels, "conv2d_bwd_weight", "kernels.conv2d_bwd_weight", bwd_weight_flop)
        self.wrap(kernels, "upsample_nearest", "kernels.upsample_nearest")
        self.wrap(kernels, "upsample_nearest_bwd", "kernels.upsample_nearest_bwd")

        for owner in (tensor, trainer, networks):
            self.wrap(owner, "forward", "tensor.forward")
        for owner in (tensor, trainer):
            self.wrap(owner, "backward", "tensor.backward")

        self.wrap(optim.SGD, "step", "optim.sgd_step")
        self.wrap(optim.Adam, "step", "optim.adam_step")

        def eval_name(args, kwargs):
            scales = _arg(args, kwargs, 3, "scales", None)
            return "trainer.evaluate_student" if scales is None else "trainer.evaluate_student_mst"

        def evaluated(args, kwargs, result):
            ds = args[1]
            add(eval_name(args, kwargs) + ".images", result.pixel_count // (ds.h * ds.w))

        for owner in (cli, trainer):
            self.wrap(owner, "evaluate_student", eval_name, evaluated)
        self.wrap(trainer, "ema_update", "trainer.ema_update")
        self.wrap(trainer, "train_segan", "trainer.train_segan")
        self.wrap(trainer, "self_train", "trainer.self_train")
        self.wrap(trainer, "generate_pseudo_labels", "trainer.generate_pseudo_labels")
        for attr in ("run_ablation", "train_tgstn", "pretrain_phi"):
            self.wrap(cli, attr, f"trainer.{attr}")
        for attr in ("oracle_style_fn", "tgstn_style_fn"):
            self.wrap_factory(cli, attr, "trainer.style_fn")

        def predicted(args, kwargs, result):
            add("predict_images", result[1].shape[0] if result[1].ndim == 3 else 1)

        for owner in (networks, trainer, cli):
            self.wrap(owner, "predict_segmentation", "networks.predict_segmentation", predicted)
        self.wrap(trainer, "multi_scale_predict", "networks.multi_scale_predict")
        self.wrap(bounds, "spectral_norm", "networks.spectral_norm")
        self.count_calls(networks.ConvOperator, "matvec", "power_iterations")

        self.wrap(trainer, "confusion_matrix", "metrics.confusion_matrix")
        self.wrap(cli, "measure_discriminator", "bounds.measure_discriminator")
        self.wrap(cli, "bound_report", "bounds.bound_report")

        for attr in ("generate_dataset", "save_dataset", "load_dataset"):
            self.wrap(datagen, attr, f"datagen.{attr}")

        def file_bytes(counter):
            def after(args, kwargs, result):  # the path is the first argument
                add(f"files_{counter}")
                add(f"bytes_{counter}", os.path.getsize(args[0]))
            return after

        self.wrap(sgt, "read_sgt", "sgt.read_sgt", file_bytes("read"))
        self.wrap(sgt, "write_sgt", "sgt.write_sgt", file_bytes("written"))
        self.wrap(sgt, "load_checkpoint", "sgt.load_checkpoint", file_bytes("read"))
        self.wrap(sgt, "save_checkpoint", "sgt.save_checkpoint", file_bytes("written"))

    # -- output -------------------------------------------------------------

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[3] == -1 and s[0] == name]

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({
                "fields": ["name", "start", "end", "parent"],
                "spans": self.spans,
                "counts": {str(k): dict(v) for k, v in self.counts.items()},
            }, f)


def _phase_range(spans, root: int) -> range:
    end = root + 1
    while end < len(spans) and spans[end][3] != -1:
        end += 1
    return range(root, end)


def layer_metrics(tracer: Tracer, root: int) -> dict[str, float]:
    """Per-layer figures of one top-level span (the set-up or one round)."""
    spans = tracer.spans
    counts = tracer.counts[root]
    idx = _phase_range(spans, root)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child: dict[int, float] = defaultdict(float)
    for i in idx:
        name, start, end, parent = spans[i]
        total[name] += end - start
        calls[name] += 1
        child[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    for i in idx:
        name, start, end, _ = spans[i]
        self_time[name] += (end - start) - child[i]

    def stage(name):
        """Steps and backward calls of a training stage: a step is one
        forward call the stage makes itself, not one an evaluation makes."""
        steps = backwards = 0
        for i in idx:
            parent = spans[i][3]
            if parent >= 0 and spans[parent][0] == name:
                steps += spans[i][0] == "tensor.forward"
                backwards += spans[i][0] == "tensor.backward"
        return steps, backwards

    def per_step_ms(name):
        steps, _ = stage(name)
        return 1000.0 * total[name] / steps if steps else 0.0

    def images_per_s(eval_name):
        return counts[eval_name + ".images"] / total[eval_name] if total[eval_name] else 0.0

    conv_s = (total["kernels.conv2d_forward"] + total["kernels.conv2d_bwd_input"]
              + total["kernels.conv2d_bwd_weight"])
    gflop = counts["conv_flop"] / 1e9
    adv = "trainer.train_tgstn" if calls["trainer.train_tgstn"] else "trainer.train_segan"
    adv_steps, adv_backwards = stage(adv)
    m = {
        "kernels.conv_fwd_s": total["kernels.conv2d_forward"],
        "kernels.conv_fwd_calls": calls["kernels.conv2d_forward"],
        "kernels.conv_bwd_input_s": total["kernels.conv2d_bwd_input"],
        "kernels.conv_bwd_input_calls": calls["kernels.conv2d_bwd_input"],
        "kernels.conv_bwd_weight_s": total["kernels.conv2d_bwd_weight"],
        "kernels.conv_bwd_weight_calls": calls["kernels.conv2d_bwd_weight"],
        "kernels.conv_gflop": gflop,
        "kernels.conv_gflop_per_s": gflop / conv_s if conv_s else 0.0,
        "kernels.upsample_s": total["kernels.upsample_nearest"] + total["kernels.upsample_nearest_bwd"],
        "tensor.forward_s": total["tensor.forward"],
        "tensor.forward_calls": calls["tensor.forward"],
        "tensor.forward_self_s": self_time["tensor.forward"],
        "tensor.backward_s": total["tensor.backward"],
        "tensor.backward_calls": calls["tensor.backward"],
        "tensor.backward_self_s": self_time["tensor.backward"],
        "tensor.backward_per_step": adv_backwards / adv_steps if adv_steps else 0.0,
        "optim.sgd_step_s": total["optim.sgd_step"],
        "optim.adam_step_s": total["optim.adam_step"],
        "trainer.ema_s": total["trainer.ema_update"],
        "trainer.eval_s": total["trainer.evaluate_student"] + total["trainer.evaluate_student_mst"],
        "trainer.pseudo_label_s": total["trainer.generate_pseudo_labels"],
        "trainer.style_fn_s": total["trainer.style_fn"],
        "networks.predict_s": total["networks.predict_segmentation"],
        "networks.predict_images": counts["predict_images"],
        "networks.spectral_norm_s": total["networks.spectral_norm"],
        "networks.spectral_norm_calls": calls["networks.spectral_norm"],
        "networks.power_iterations": counts["power_iterations"],
        "metrics.confusion_s": total["metrics.confusion_matrix"],
        "bounds.measure_s": total["bounds.measure_discriminator"],
        "bounds.report_s": total["bounds.bound_report"],
        "datagen.generate_s": total["datagen.generate_dataset"],
        "datagen.save_s": total["datagen.save_dataset"],
        "datagen.load_s": total["datagen.load_dataset"],
        "sgt.files_read": counts["files_read"],
        "sgt.bytes_read": counts["bytes_read"],
        "sgt.files_written": counts["files_written"],
        "sgt.bytes_written": counts["bytes_written"],
        "sgt.checkpoint_save_s": total["sgt.save_checkpoint"],
        "sgt.checkpoint_load_s": total["sgt.load_checkpoint"],
        "stage.segan_step_ms": per_step_ms("trainer.train_segan"),
        "stage.selftrain_step_ms": per_step_ms("trainer.self_train"),
        "stage.tgstn_step_ms": per_step_ms("trainer.train_tgstn"),
        "stage.eval_images_per_s": images_per_s("trainer.evaluate_student"),
        "stage.mst_images_per_s": images_per_s("trainer.evaluate_student_mst"),
        "stage.bounds_s": total["op.bounds"],
        "stage.data_write_s": total["op.save_dataset"],
        "stage.data_load_s": total["op.load_dataset"],
        "trace.wall_s": spans[root][2] - spans[root][1],
        "trace.spans": len(idx),
    }
    return m

"""Timing hooks put on cftseg's public functions from outside the package.

`Probes` stamps the boundaries a user of the package sees: the start of
every forward pass, the end of every optimizer step and the end of every
confusion-matrix update (one per evaluated batch). They stay installed for
the whole measurement and cost one clock read per boundary.

`Tracer` wraps every layer the per-layer metrics name and adds up self
time and call counts per layer. It is installed only around the calls it
traces, so untraced calls run exactly the code the probes leave.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

import cftseg.blocks
import cftseg.checkpoint
import cftseg.data
import cftseg.functional
import cftseg.losses
import cftseg.model
import cftseg.tensor
from cftseg.metrics import ConfusionMatrix
from cftseg.model import SegModel
from cftseg.optim import AdamW

# forward-pass numeric ops; a call outside SegModel.forward (the loss
# resizes its mask logits, for one) is left to the module that made it
KERNELS = (
    (cftseg.tensor, "gelu"), (cftseg.tensor, "bmm"),
    (cftseg.functional, "depthwise_conv3x3"), (cftseg.functional, "conv1x1"),
    (cftseg.functional, "linear"), (cftseg.functional, "layer_norm"),
    (cftseg.functional, "softmax"), (cftseg.functional, "bilinear_resize"),
    (cftseg.functional, "adaptive_avg_pool"),
)

MODULE_FUNCTIONS = (
    ("model.backbone", cftseg.model, "toy_backbone"),
    ("model.lateral", cftseg.model, "lateral_project"),
    ("model.decode", cftseg.model, "decode_head"),
    ("losses.total_loss", cftseg.losses, "total_loss"),
    ("tensor.backward", cftseg.tensor, "backward"),
    ("checkpoint.load", cftseg.checkpoint, "load_checkpoint"),
    ("data.gen", cftseg.data, "gen_synthetic_dataset"),
)

MODULE_METHODS = (
    ("model.forward", SegModel, "forward"),
    ("optim.step", AdamW, "step"),
    ("metrics.confusion_update", ConfusionMatrix, "update"),
)

# A module runs its stages inside one call. The kernel that opens each
# stage marks where the stage begins: backbone stage k starts at its
# pooling, lateral k is the k-th 1x1 projection.
STAGE_MARKS = {("model.backbone", "adaptive_avg_pool"),
               ("model.lateral", "conv1x1")}


class _Patches:
    """Rebinds names in cftseg's modules and classes; `undo` restores them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def function(self, original, wrapper) -> None:
        """Point every cftseg module name bound to `original` at `wrapper`."""
        for name, module in list(sys.modules.items()):
            if name != "cftseg" and not name.startswith("cftseg."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def method(self, cls, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        setattr(cls, name, make_wrapper(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Probes:
    """Operation boundaries of the current call; the caller clears them."""

    def __init__(self):
        self.forward_starts: list[float] = []
        self.forward_sizes: list[int] = []
        self.step_ends: list[float] = []
        self.update_ends: list[float] = []
        self.capture_next = False
        self.captured = None  # (model, images, outputs) of one forward pass
        self._patches = _Patches()

    def clear(self) -> None:
        self.forward_starts.clear()
        self.forward_sizes.clear()
        self.step_ends.clear()
        self.update_ends.clear()

    def install(self) -> None:
        probes = self

        def forward(original):
            def wrapped(model, images):
                probes.forward_starts.append(perf_counter())
                probes.forward_sizes.append(images.shape[0])
                out = original(model, images)
                if probes.capture_next:
                    probes.capture_next = False
                    probes.captured = (model, images, out)
                return out
            return wrapped

        def step(original):
            def wrapped(optimizer, grads, lr):
                original(optimizer, grads, lr)
                probes.step_ends.append(perf_counter())
            return wrapped

        def update(original):
            def wrapped(cm, prediction, target):
                original(cm, prediction, target)
                probes.update_ends.append(perf_counter())
            return wrapped

        self._patches.method(SegModel, "forward", forward)
        self._patches.method(AdamW, "step", step)
        self._patches.method(ConfusionMatrix, "update", update)

    def uninstall(self) -> None:
        self._patches.undo()

    def step_ms(self) -> list[float]:
        """Each step runs from the end of the one before it (the first from
        its forward pass) to the end of its optimizer update."""
        starts = self.forward_starts[:1] + self.step_ends[:-1]
        return [(end - start) * 1e3 for start, end in zip(starts, self.step_ends)]

    def batch_ms(self) -> list[float]:
        """Each evaluated batch runs from its forward pass to its update."""
        return [(end - start) * 1e3
                for start, end in zip(self.forward_starts, self.update_ends)]


class Tracer:
    """Self time (ms) and call counts per layer, kept apart per phase.

    Spans nest at two levels: modules (model stages, loss, backward,
    optimizer, checkpoint I/O, data generation, metrics) and the kernels
    of the forward pass. A span's self time is its duration minus that of
    the spans nested directly in it at the same level.
    """

    def __init__(self):
        self.phase = "setup"
        self.ms: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.calls: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.tape_records: dict[str, int] = defaultdict(int)
        self.checkpoint_bytes = 0
        self._modules: list[list] = []  # open module spans: [name, child_ms, stage marks]
        self._kernels: list[list] = []  # open kernel spans: [child_ms]
        self._patches = _Patches()

    def _count(self, name: str, ms: float) -> None:
        self.ms[self.phase][name] += ms
        self.calls[self.phase][name] += 1

    def _module(self, name_of, original, after=None):
        tracer = self

        def wrapped(*args, **kwargs):
            span = [name_of(kwargs), 0.0, []]
            tracer._modules.append(span)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._modules.pop()
                tracer._close_module(span, t0, t1)
            if after is not None:
                after(result)
            return result
        return wrapped

    def _close_module(self, span: list, t0: float, t1: float) -> None:
        name, child_ms, marks = span
        dur = (t1 - t0) * 1e3
        self._count(name, dur - child_ms)
        if self._modules:
            self._modules[-1][1] += dur
        for k, (start, end) in enumerate(zip(marks, marks[1:] + [t1]), start=1):
            self._count(f"{name}.s{k}", (end - start) * 1e3)

    def _kernel(self, name: str, original):
        tracer = self
        key = f"kernel.{name}"

        def wrapped(*args, **kwargs):
            if not any(span[0] == "model.forward" for span in tracer._modules):
                return original(*args, **kwargs)
            t0 = perf_counter()
            if not tracer._kernels and (tracer._modules[-1][0], name) in STAGE_MARKS:
                tracer._modules[-1][2].append(t0)
            span = [0.0]
            tracer._kernels.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                dur = (perf_counter() - t0) * 1e3
                tracer._kernels.pop()
                tracer._count(key, dur - span[0])
                if tracer._kernels:
                    tracer._kernels[-1][0] += dur
        return wrapped

    def _count_tape(self, original):
        tracer = self

        def wrapped(loss):
            tape = original(loss)
            tracer.tape_records[tracer.phase] += len(tape)
            return tape
        return wrapped

    def _record_bytes(self, path) -> None:
        self.checkpoint_bytes = os.path.getsize(path)

    def install(self) -> None:
        patch = self._patches
        for name, module, attr in MODULE_FUNCTIONS:
            original = getattr(module, attr)
            patch.function(original, self._module(lambda kw, n=name: n, original))
        save = cftseg.checkpoint.save_checkpoint
        patch.function(save, self._module(lambda kw: "checkpoint.save", save,
                                          after=self._record_bytes))
        # top_down_aggregate passes stage = x_low stage + 1, by keyword
        fuse = cftseg.blocks.apply_variant
        patch.function(fuse, self._module(
            lambda kw: f"model.aggregate.s{kw['stage'] - 1}", fuse))
        patch.function(cftseg.tensor.trace, self._count_tape(cftseg.tensor.trace))
        for module, attr in KERNELS:
            original = getattr(module, attr)
            patch.function(original, self._kernel(attr, original))
        for name, cls, attr in MODULE_METHODS:
            patch.method(cls, attr, lambda original, n=name: self._module(
                lambda kw: n, original))

    def uninstall(self) -> None:
        self._patches.undo()

"""One benchmark run: set up, train, evaluate, check, and measure.

Every workload is the same user session with its own configuration:
generate data and build a model (set-up), then, for the measuring window,
calls to `cftseg.train.train` (train phase) interleaved with calls to
`cftseg.train.evaluate` on the trained checkpoint (eval phase). One
closed-loop caller issues the calls one after another from this process.
The workload's primary phase gets most of the call time and is the one the
per-layer metrics describe.
"""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import cftseg.checkpoint
import cftseg.data
import cftseg.train
from cftseg.checkpoint import Checkpoint, model_state
from cftseg.config import TrainConfig, config_to_text
from cftseg.errors import DivergedError
from cftseg.flops import count_flops
from cftseg.tensor import Tensor

from probes import KERNELS, Probes, Tracer


@dataclass(frozen=True)
class Workload:
    config: TrainConfig  # one train() call; total_iters is its length
    eval_size: int       # side of the held-out images evaluate() sees
    heldout: int         # held-out image count
    train_per_eval: int  # train() calls per evaluate() call in the window
    primary: str         # "train" or "eval"


# Training calls are short, so a run holds many; the loss that ends each
# one depends on its data, hence DATASETS sets per seed whose mean final
# loss is steady across seeds. Calls cycle through the sets and the extra
# call on set 0 checks that training repeats bit for bit.
WORKLOADS = {
    # ROADMAP headline config: arrays fit in cache, so per-op tape cost,
    # the FFN gelu/depthwise, the mask loss, backward and AdamW all weigh
    "train_acceptance": Workload(
        TrainConfig(baselr=4e-3, total_iters=15), eval_size=64, heldout=32,
        train_per_eval=1, primary="train"),
    # pixel-to-pixel attention: bmm and softmax take about a third of the
    # forward pass (under 3% on train_acceptance); no category embedding
    # and no mask loss
    "train_naive_128": Workload(
        TrainConfig(baselr=4e-3, total_iters=6, crop_size=128, variant="naive",
                    batch_size=2), eval_size=128, heldout=32,
        train_per_eval=2, primary="train"),
    # train on 64 px crops, evaluate at 256 px under no_grad: FFN maps far
    # beyond L2, L = 16 widens the mask and decode heads
    "eval_highres": Workload(
        TrainConfig(baselr=4e-3, total_iters=5, num_categories=16),
        eval_size=256, heldout=32, train_per_eval=3, primary="eval"),
}

DATASETS = 8
SETUP_SECONDS = 2.0   # set-up repeats until it has taken this long ...
SETUP_REPEATS = (3, 25)  # ... within these bounds on the repeat count
MIN_EVAL_CALLS = 2
TAIL_BEYOND = 10

MODEL_LAYERS = ("model.backbone", "model.lateral", "model.aggregate.s3",
                "model.aggregate.s2", "model.aggregate.s1", "model.decode")
PHASE_LAYERS = {
    "train": MODEL_LAYERS + ("losses.total_loss", "tensor.backward", "optim.step"),
    "eval": MODEL_LAYERS + ("metrics.confusion_update",),
}


def derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def median_and_tail(samples: list[float]) -> dict:
    """Median, and the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > TAIL_BEYOND:
        tail, pct = ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = ordered[-1], 100.0
    return {"p50": statistics.median(ordered), "tail": tail,
            "tail_percentile": pct, "samples": n}


@dataclass
class Checks:
    """Correctness checks and operations attempted, with the ones that failed."""
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def ops(self, count: int) -> None:
        self.attempted += count

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


@dataclass
class PhaseLog:
    """Samples of one phase, split by whether the tracer was on."""
    op_ms: dict = field(default_factory=lambda: {False: [], True: []})
    images_per_s: list[float] = field(default_factory=list)
    traced_images: int = 0
    traced_ms: float = 0.0
    spent: float = 0.0
    calls: int = 0


class Session:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 work_dir: Path):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.work = work_dir
        self.checks = Checks()
        self.probes = Probes()
        self.tracer = Tracer() if trace else None
        self.train = PhaseLog()
        self.eval = PhaseLog()
        self.final_losses: dict[int, str] = {}
        self.eval_report: dict | None = None

    # -- set-up ------------------------------------------------------------

    def setup_once(self):
        cfg = self.w.config
        datasets = [cftseg.data.gen_synthetic_dataset(
            derived_seed(self.seed, d), n_images=cfg.n_images,
            size=cfg.crop_size, num_categories=cfg.num_categories)
            for d in range(DATASETS)]
        heldout = cftseg.data.gen_synthetic_dataset(
            derived_seed(self.seed, DATASETS), n_images=self.w.heldout,
            size=self.w.eval_size, num_categories=cfg.num_categories)
        model = cftseg.train.build_model(cfg)
        saved = Checkpoint(iteration=0, config_text=config_to_text(cfg),
                           arrays=model_state(model.named_parameters()))
        path = cftseg.checkpoint.save_checkpoint(self.work / "init.ckpt", saved)
        loaded = cftseg.checkpoint.load_checkpoint(path)
        round_trip = (loaded.config_text == saved.config_text
                      and loaded.arrays.keys() == saved.arrays.keys()
                      and all(np.array_equal(loaded.arrays[k], v)
                              for k, v in saved.arrays.items()))
        return datasets, heldout, round_trip

    def setup(self) -> list[float]:
        times = []
        if self.tracer:
            self.tracer.phase = "setup"
            self.tracer.install()
        try:
            least, most = SETUP_REPEATS
            while len(times) < least or (sum(times) < SETUP_SECONDS
                                         and len(times) < most):
                t0 = perf_counter()
                self.datasets, self.heldout, round_trip = self.setup_once()
                times.append(perf_counter() - t0)
                self.checks.check("checkpoint round trip", round_trip)
        finally:
            if self.tracer:
                self.tracer.uninstall()
        return times

    # -- phases ------------------------------------------------------------

    def _call(self, phase: str, log: PhaseLog, fn):
        """Run one call; in traced runs every second call of a phase is traced."""
        traced = self.tracer is not None and log.calls % 2 == 1
        self.probes.clear()
        if traced:
            self.tracer.phase = phase
            self.tracer.install()
        t0 = perf_counter()
        try:
            return traced, fn()
        finally:
            self.last_wall = perf_counter() - t0
            log.spent += self.last_wall
            log.calls += 1
            if traced:
                self.tracer.uninstall()

    def _next_phase(self, elapsed: float) -> str | None:
        """Rounds of `train_per_eval` train calls and one eval call, so both
        phases sample the whole window in the same order on every run. The
        window ends before a call that would overrun it, once each phase has
        its minimum number of calls."""
        position = (self.train.calls + self.eval.calls) % (self.w.train_per_eval + 1)
        phase = "train" if position < self.w.train_per_eval else "eval"
        log = getattr(self, phase)
        if elapsed + log.spent / max(log.calls, 1) <= self.seconds:
            return phase
        if self.train.calls < DATASETS + 1:
            return "train"
        if self.eval.calls < MIN_EVAL_CALLS:
            return "eval"
        return None

    def train_call(self) -> None:
        cfg = self.w.config
        d = self.train.calls % DATASETS
        try:
            traced, result = self._call("train", self.train, lambda: cftseg.train.train(
                cfg, self.work / f"train{d}", dataset=self.datasets[d]))
        except DivergedError:
            self.checks.check(f"train call {self.train.calls - 1} diverged", False)
            return
        steps = self.probes.step_ms()
        self.checks.ops(len(steps))
        self.train.op_ms[traced].extend(steps)
        if traced:
            self.train.traced_images += len(steps) * cfg.batch_size
            self.train.traced_ms += sum(steps)
        else:
            self.train.images_per_s.append(
                cfg.total_iters * cfg.batch_size / self.last_wall)
        rows = result.rows
        totals = [row["total"] for row in rows]
        self.checks.check("train losses finite",
                          all(math.isfinite(row[k]) for row in rows
                              for k in ("ce", "dice", "focal", "total")))
        self.checks.check("train loss decreases", totals[-1] < totals[0])
        final = repr(totals[-1])
        if d in self.final_losses:
            self.checks.check("train loss repeats bit for bit",
                              self.final_losses[d] == final)
        self.final_losses[d] = final
        if d == 0:
            self.checkpoint = result.checkpoint_path

    def eval_call(self) -> None:
        self.probes.capture_next = self.eval.calls == 0
        traced, report = self._call("eval", self.eval, lambda: cftseg.train.evaluate(
            self.checkpoint, self.heldout))
        batches = self.probes.batch_ms()
        self.checks.ops(len(batches))
        self.eval.op_ms[traced].extend(
            ms / n for ms, n in zip(batches, self.probes.forward_sizes))
        if traced:
            self.eval.traced_images += self.w.heldout
            self.eval.traced_ms += sum(batches)
        else:
            self.eval.images_per_s.append(self.w.heldout / self.last_wall)
        self.checks.check("per_category_iou has L entries",
                          len(report["per_category_iou"]) == self.w.config.num_categories)
        if self.eval_report is None:
            self.eval_report = report
        else:
            self.checks.check("evaluation repeats bit for bit",
                              report == self.eval_report)

    def check_no_grad_forward(self) -> None:
        """The first batch's no_grad logits equal a grad-enabled forward."""
        model, images, (logits, _) = self.probes.captured
        self.probes.captured = None
        with_grad, _ = model(Tensor(images.data))
        self.checks.check("no_grad logits equal grad-enabled logits",
                          np.array_equal(logits.data, with_grad.data))

    # -- the run -----------------------------------------------------------

    def run(self) -> None:
        self.setup_times = self.setup()
        # warm-up: the allocator and BLAS settle before anything is timed
        warm = replace(self.w.config, total_iters=2)
        cftseg.train.train(warm, self.work / "warmup", dataset=self.datasets[0])
        self.probes.install()
        try:
            started = perf_counter()
            while phase := self._next_phase(perf_counter() - started):
                if phase == "train":
                    self.train_call()
                else:
                    self.eval_call()
            self.window_s = perf_counter() - started
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            self.check_no_grad_forward()
        finally:
            self.probes.uninstall()

    # -- metrics -----------------------------------------------------------

    def end_to_end(self) -> dict:
        step = median_and_tail(self.train.op_ms[False])
        image = median_and_tail(self.eval.op_ms[False])
        losses = [float(loss) for loss in self.final_losses.values()]
        return {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "train_step_ms_p50": (step["p50"], "ms"),
            "train_step_ms_tail": (step["tail"], "ms"),
            "train_images_per_s": (statistics.median(self.train.images_per_s), "1/s"),
            "train_loss_final": (statistics.fmean(losses), "loss"),
            "eval_image_ms_p50": (image["p50"], "ms"),
            "eval_image_ms_tail": (image["tail"], "ms"),
            "eval_images_per_s": (statistics.median(self.eval.images_per_s), "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def tail_details(self) -> dict:
        return {"train_step_ms_tail": median_and_tail(self.train.op_ms[False]),
                "eval_image_ms_tail": median_and_tail(self.eval.op_ms[False])}

    def per_layer(self) -> dict:
        tr = self.tracer
        cfg = self.w.config
        log = getattr(self, self.w.primary)
        n_ops = len(log.op_ms[True])  # steps, or batches
        ms, calls = tr.ms[self.w.primary], tr.calls[self.w.primary]
        out = {}
        for name in MODEL_LAYERS:
            out[f"{name}.ms"] = (ms[name] / n_ops, "ms")
        size = cfg.crop_size if self.w.primary == "train" else self.w.eval_size
        flops = count_flops(cfg.model_config(), (size, size), cfg.variant).flops
        for key, per_image in flops.items():
            spent = ms[f"model.{key}"] / 1e3
            rate = per_image * log.traced_images / spent / 1e9 if spent else 0.0
            out[f"model.{key}.gflops"] = (rate, "GFLOP/s")
        for _, kernel in KERNELS:
            out[f"kernel.{kernel}.ms"] = (ms[f"kernel.{kernel}"] / n_ops, "ms")
            out[f"kernel.{kernel}.calls"] = (calls[f"kernel.{kernel}"] / n_ops, "count")
        steps = len(self.train.op_ms[True])
        train_ms = tr.ms["train"]
        out["losses.total_loss.ms"] = (train_ms["losses.total_loss"] / steps, "ms")
        out["tensor.backward.ms"] = (train_ms["tensor.backward"] / steps, "ms")
        out["tensor.tape.records"] = (tr.tape_records["train"] / steps, "count")
        out["optim.step.ms"] = (train_ms["optim.step"] / steps, "ms")
        for name in ("checkpoint.save", "checkpoint.load", "data.gen"):
            total = sum(tr.ms[p][name] for p in list(tr.ms))
            count = sum(tr.calls[p][name] for p in list(tr.calls))
            out[f"{name}.ms"] = (total / count, "ms")
        out["checkpoint.bytes"] = (tr.checkpoint_bytes, "B")
        batches = len(self.eval.op_ms[True])
        out["metrics.confusion_update.ms"] = (
            tr.ms["eval"]["metrics.confusion_update"] / batches, "ms")
        untraced = statistics.median(log.op_ms[False])
        traced = statistics.median(log.op_ms[True])
        out["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
        listed = sum(ms[name] for name in PHASE_LAYERS[self.w.primary])
        out["trace.unaccounted_pct"] = (100.0 * (1.0 - listed / log.traced_ms), "%")
        return out

"""The benchmark's tracer still finds every function it times.

`bench/probes.py` times layers from outside the package by rebinding
public names (`blocks.apply_variant` with its `stage=` keyword, the
kernels in `KERNELS`, `tensor.trace`). A renamed or re-signatured hook
would otherwise surface only in the slow benchmark smoke test.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import cftseg.tensor
from cftseg import Tensor
from cftseg.model import ModelConfig, SegModel
from scalar import dot

PROBES = Path(__file__).resolve().parent.parent / "bench" / "probes.py"


def load_probes():
    spec = importlib.util.spec_from_file_location("bench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("variant", ["cft", "c"])
def test_tracer_counts_every_hook(variant):
    probes = load_probes()
    config = ModelConfig(num_categories=4, embed_channels=8, num_heads=2,
                         ffn_ratio=2, backbone_channels=(4, 6, 8, 10))
    model = SegModel(config, variant=variant, rng=np.random.default_rng(0))
    images = Tensor(np.random.default_rng(1).standard_normal((1, 3, 32, 32)))
    tracer = probes.Tracer()
    tracer.phase = "check"
    tracer.install()
    try:
        logits, _ = model(images)
        cftseg.tensor.backward(dot(logits, logits) * (1.0 / logits.size))
    finally:
        tracer.uninstall()
    calls = tracer.calls["check"]
    wanted = [f"model.aggregate.s{k}" for k in (1, 2, 3)]
    wanted += [f"kernel.{name}" for _, name in probes.KERNELS]
    assert [name for name in wanted if calls[name] < 1] == []
    assert tracer.tape_records["check"] > 0

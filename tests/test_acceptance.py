"""End-to-end acceptance gate.

Each test prints exactly one line, `ACCEPTANCE PASS <name>` or
`ACCEPTANCE FAIL <name>`, so `pytest -s tests/test_acceptance.py` reads
as a checklist. The two training criteria dominate the runtime (a few
minutes); everything else finishes in seconds.
"""

import time

import numpy as np

import cftseg.blocks as B
import cftseg.functional as F
from cftseg.config import TrainConfig
from cftseg.checkpoint import load_checkpoint, model_state, save_checkpoint, Checkpoint
from cftseg.flops import count_flops
from cftseg.losses import LossBreakdown
from cftseg.optim import AdamW, poly_lr
from cftseg.tensor import Tensor
import cftseg.tensor as T
import cftseg.train as TR

import oracles as O


def check(name: str, ok: bool, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'} {name}{suffix}")
    assert ok, f"{name}{suffix}"


def make_block(seed: int, channels=8, cats=3, heads=2, zero=False):
    return B.CftBlockParams.create(channels, cats, heads, ffn_ratio=2,
                                   rng=np.random.default_rng(seed),
                                   zero_residual_paths=zero)


def test_gradient_fidelity():
    t0 = time.perf_counter()
    rows = TR.grad_check_suite(seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(r.max_rel_error for r in rows)
    check("gradient-fidelity",
          all(r.passed(1e-4) for r in rows) and elapsed < 60.0,
          f"{len(rows)} groups, worst rel {worst:.2e}, {elapsed:.1f}s")


def test_mask_normalization():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(100):
        params = make_block(seed=trial)
        f = Tensor(rng.standard_normal((2, 8, 4, 5)) * rng.uniform(0.2, 5.0))
        _, masks = B.category_feature_embedding(f, params)
        b, l, h, w = masks.shape
        weights = F.softmax(T.reshape(masks, (b, l, h * w)), axis=2)
        worst = max(worst, float(np.abs(weights.data.sum(axis=2) - 1.0).max()))
    check("mask-normalization", worst < 1e-6,
          f"100 inputs, worst |sum-1| {worst:.1e}")


def test_convex_hull():
    rng = np.random.default_rng(1)
    ok = True
    for trial in range(100):
        params = make_block(seed=1000 + trial)
        f = Tensor(rng.standard_normal((2, 8, 5, 5)) * rng.uniform(0.2, 5.0))
        emb, _ = B.category_feature_embedding(f, params)
        normed = F.layer_norm(f, params.norm_embed.gamma, params.norm_embed.beta)
        projected = F.conv1x1(normed, params.phi_feat.w, params.phi_feat.b).data
        flat = projected.reshape(2, 8, -1)
        lo = flat.min(axis=2) - 1e-12
        hi = flat.max(axis=2) + 1e-12
        vectors = emb.data
        ok = ok and bool(np.all(vectors >= lo[:, :, None]) and
                         np.all(vectors <= hi[:, :, None]))
    check("convex-hull", ok, "100 trials, per-channel min/max bounds")


def test_joint_permutation_invariance():
    rng = np.random.default_rng(2)
    params = make_block(seed=7)
    f = rng.standard_normal((2, 8, 4, 6))
    base, _ = B.category_feature_embedding(Tensor(f), params)
    worst = 0.0
    for _ in range(20):
        perm = rng.permutation(24)
        shuffled = f.reshape(2, 8, 24)[:, :, perm].reshape(2, 8, 4, 6)
        emb, _ = B.category_feature_embedding(Tensor(shuffled), params)
        worst = max(worst, float(np.abs(emb.data - base.data).max()))
    check("joint-permutation-invariance", worst < 1e-9,
          f"20 permutations, worst drift {worst:.1e}")


def test_residual_identity():
    rng = np.random.default_rng(3)
    ok = True
    for seed in range(5):
        params = make_block(seed=seed, zero=True)
        f_high = Tensor(rng.standard_normal((2, 8, 3, 3)))
        x_low = Tensor(rng.standard_normal((2, 8, 6, 6)))
        out, _ = B.apply_variant("cft", f_high, x_low, params, stage=2,
                                 kv_pool_hw=(3, 3))
        ok = ok and np.array_equal(out.data, x_low.data)
    check("residual-identity", ok, "zeroed projections, 5 fresh blocks")


def test_oracle_equivalence():
    cases = [(1, 4, 1, (2, 2), (4, 4)),  # b, c, heads, hi, lo
             (2, 8, 2, (3, 3), (6, 6))]
    worst = 0.0
    for b, c, heads, hi, lo in cases:
        rng = np.random.default_rng(b * 31 + c)
        params = B.CftBlockParams.create(c, 3, heads, ffn_ratio=2,
                                         rng=np.random.default_rng(c),
                                         zero_residual_paths=False)
        f_high = rng.standard_normal((b, c) + hi)
        x_low = rng.standard_normal((b, c) + lo)
        pool = (2, 2)
        oracles = {
            "cft": lambda f, x: O.cft_block_o(f, x, params)[0],
            "naive": lambda f, x: O.variant_naive_o(f, x, params),
            "avgpool": lambda f, x: O.variant_avgpool_o(f, x, params, pool),
            "a": lambda f, x: O.variant_a_o(f, x, params, pool),
            "b": lambda f, x: O.variant_b_o(f, x, params, pool),
            "c": lambda f, x: O.variant_c_o(f, x, params, pool),
        }
        assert set(oracles) == set(B.VARIANTS)
        for variant, oracle in oracles.items():
            got, _ = B.apply_variant(variant, Tensor(f_high), Tensor(x_low), params,
                                     stage=2, kv_pool_hw=pool)
            want = np.stack([oracle(f_high[i], x_low[i]) for i in range(b)])
            worst = max(worst, float(np.abs(got.data - want).max()))
    check("oracle-equivalence", worst <= 1e-10,
          f"6 wirings x 2 shapes, worst |diff| {worst:.1e}")


def test_complexity_ordering():
    cfg = TrainConfig().model_config()
    naive = count_flops(cfg, (128, 128), "naive").total_flops
    avgpool = count_flops(cfg, (128, 128), "avgpool").total_flops
    cft = count_flops(cfg, (128, 128), "cft").total_flops
    ratios = []
    for size in (64, 128, 256):
        hw = (size, size)
        ratios.append(count_flops(cfg, hw, "naive").aggregation_flops /
                      count_flops(cfg, hw, "cft").aggregation_flops)
    ordered = naive > avgpool >= cft
    growing = ratios[0] < ratios[1] < ratios[2]
    check("complexity-ordering", ordered and growing,
          f"naive {naive:,} > avgpool {avgpool:,} >= cft {cft:,}; "
          f"ratio {ratios[0]:.1f} -> {ratios[1]:.1f} -> {ratios[2]:.1f}")


def test_loss_arithmetic():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(1000):
        ce, dice, focal = (Tensor(np.asarray(v)) for v in rng.uniform(0, 10, 3))
        got = LossBreakdown.combine(ce, dice, focal).total.data
        ok = ok and got == ce.data + 2.0 * dice.data + 5.0 * focal.data
    check("loss-arithmetic", ok, "1000 random triples, exact equality")


def test_schedule_and_optimizer():
    endpoints = (poly_lr(6e-5, 0, 500) == 6e-5 and
                 poly_lr(6e-5, 500, 500) == 0.0)
    x = Tensor(np.array(5.0), requires_grad=True)
    opt = AdamW({"x": x}, weight_decay=0.0)
    steps = 0
    for steps in range(1, 201):
        opt.step({x: 2.0 * x.data}, lr=0.1)  # d/dx of x^2
        if abs(float(x.data)) < 1e-3:
            break
    converged = abs(float(x.data)) < 1e-3
    check("schedule-and-optimizer", endpoints and converged,
          f"poly endpoints exact; |x| {abs(float(x.data)):.1e} after {steps} steps")


def test_determinism_and_persistence(tmp_path):
    cfg = TrainConfig(baselr=1e-3, total_iters=4, batch_size=2, crop_size=32,
                      num_categories=3, embed_channels=8, num_heads=2,
                      ffn_ratio=2, backbone_channels=(4, 6, 8, 10), n_images=2)
    a = TR.train(cfg, tmp_path / "a")
    b = TR.train(cfg, tmp_path / "b")
    logs_equal = a.log_path.read_bytes() == b.log_path.read_bytes()

    ds = TR.default_dataset(cfg)
    first = load_checkpoint(a.checkpoint_path)
    model, _ = TR.model_from_checkpoint(first)
    rewritten = tmp_path / "rewritten.ckpt"
    save_checkpoint(rewritten, Checkpoint(iteration=first.iteration,
                                          config_text=first.config_text,
                                          arrays=first.arrays))
    second = load_checkpoint(rewritten)
    arrays_equal = (set(first.arrays) == set(second.arrays) and
                    all(np.array_equal(first.arrays[k], second.arrays[k])
                        for k in first.arrays))
    model2, _ = TR.model_from_checkpoint(second)
    evals_equal = TR.evaluate(model, ds) == TR.evaluate(model2, ds)
    check("determinism-and-persistence",
          logs_equal and arrays_equal and evals_equal,
          "byte-identical logs; round-tripped arrays and metrics bit-exact")


def test_learnability(tmp_path):
    cfg = TrainConfig(baselr=4e-3, total_iters=1500, n_images=8,
                      crop_size=64, num_categories=4, log_every=100, seed=0)
    t0 = time.perf_counter()
    result = TR.train(cfg, tmp_path / "acceptance_learnability")
    elapsed = time.perf_counter() - t0
    report = TR.evaluate(result.checkpoint_path, TR.default_dataset(cfg))
    ok = (report["miou"] >= 0.95 and report["pixel_accuracy"] >= 0.99
          and elapsed < 900.0)
    check("learnability", ok,
          f"miou {report['miou']:.4f}, pixel acc {report['pixel_accuracy']:.4f}, "
          f"{elapsed:.0f}s for 1500 iterations")


def test_mask_loss_effect(tmp_path):
    cfg = TrainConfig(baselr=4e-3, total_iters=1500, n_images=32,
                      crop_size=64, num_categories=4, log_every=100, seed=0)
    rows = TR.run_ablation(cfg, tmp_path / "acceptance_mask_effect",
                           variants=("cft",),
                           mask_modes=("cumulative", "off"))
    by_mode = {r["mask_mode"]: r for r in rows}
    with_mask = by_mode["cumulative"]["mask_agreement"]
    without = by_mode["off"]["mask_agreement"]
    ok = (set(by_mode) == {"cumulative", "off"} and with_mask is not None
          and without is not None and with_mask >= 0.80)
    check("mask-loss-effect", ok,
          f"held-out stage-mask agreement {with_mask:.3f} with the mask loss "
          f"vs {without:.3f} without")

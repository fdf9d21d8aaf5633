"""Aggregation scaling report: measured time against analytic FLOPs.

    python3 bench/scaling.py

The paper's claim is that category attention costs O(L) per fine pixel
where pixel attention costs O(coarse pixels). This times
`cftseg.model.top_down_aggregate` under no_grad for the cft, naive and
avgpool wirings at 64, 128 and 256 px with L = 4 and L = 16 (batch 1,
acceptance widths), puts each median time next to
`count_flops(...).aggregation_flops`, and gives the naive/cft wall-clock
ratio per size. It prints a table and writes bench/out/scaling.json. It
is a report, not a gated metric of the benchmark.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

import bootstrap

SIZES = (64, 128, 256)
CATEGORIES = (4, 16)
VARIANTS = ("cft", "naive", "avgpool")
REPEATS = 5
SEED = 0


def measure(size: int, num_categories: int, variant: str) -> dict:
    from cftseg.config import TrainConfig
    from cftseg.data import gen_synthetic_dataset
    from cftseg.flops import count_flops
    from cftseg.model import lateral_project, top_down_aggregate, toy_backbone
    from cftseg.tensor import Tensor, no_grad
    from cftseg.train import build_model

    config = TrainConfig(crop_size=size, num_categories=num_categories,
                         variant=variant)
    model = build_model(config)
    images = Tensor(gen_synthetic_dataset(SEED, n_images=1, size=size,
                                          num_categories=num_categories).images)
    samples = []
    with no_grad():
        laterals = lateral_project(toy_backbone(images, model.backbone),
                                   model.laterals)
        for _ in range(REPEATS):
            t0 = perf_counter()
            top_down_aggregate(laterals, model.blocks, variant)
            samples.append((perf_counter() - t0) * 1e3)
    flops = count_flops(config.model_config(), (size, size), variant).aggregation_flops
    ms = statistics.median(samples)
    return {"size": size, "L": num_categories, "variant": variant, "ms": ms,
            "aggregation_flops": flops, "gflops_per_s": flops / ms / 1e6}


def main() -> int:
    try:
        bootstrap.prepare()
    except bootstrap.SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    rows = [measure(size, num_categories, variant)
            for size in SIZES for num_categories in CATEGORIES
            for variant in VARIANTS]
    by_key = {(r["size"], r["L"], r["variant"]): r for r in rows}
    for r in rows:
        r["naive_over_cft"] = (by_key[(r["size"], r["L"], "naive")]["ms"]
                               / by_key[(r["size"], r["L"], "cft")]["ms"])
    print("| size | L | variant | ms | aggregation MFLOP | GFLOP/s | naive/cft time |")
    print("|---|---|---|---|---|---|---|")
    for r in rows:
        print(f"| {r['size']} | {r['L']} | {r['variant']} | {r['ms']:.2f} | "
              f"{r['aggregation_flops'] / 1e6:.1f} | {r['gflops_per_s']:.2f} | "
              f"{r['naive_over_cft']:.2f} |")
    out = bootstrap.BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / "scaling.json").write_text(json.dumps(
        {"manifest": bootstrap.manifest(), "repeats": REPEATS, "seed": SEED,
         "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

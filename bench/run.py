"""cftseg benchmark: one workload, one seed, a fixed measuring window.

    python3 bench/run.py --workload train_acceptance --seed 1 --seconds 30 --trace 0

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it reports the per-layer metrics from a run in which every
second call is traced. Each metric is printed on its own line with its
unit, the run's manifest and tail details go to bench/out/, and the last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import bootstrap

OUT_DIR = bootstrap.BENCH_DIR / "out"


def parse_args(argv=None) -> argparse.Namespace:
    from session import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        bootstrap.prepare()
    except bootstrap.SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    from session import Session
    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        session = Session(args.workload, args.seed, args.seconds,
                          bool(args.trace), Path(work))
        session.run()
        metrics = session.per_layer() if args.trace else session.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = session.checks
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        for name, tail in session.tail_details().items():
            print(f"{name}: p{tail['tail_percentile']:.1f} of {tail['samples']} samples")
    print(f"failed_share = {checks.failed / checks.attempted:.6g} "
          f"({checks.failed} of {checks.attempted} operations and checks)")
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "window_s": session.window_s,
        "manifest": bootstrap.manifest(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "tails": session.tail_details(),
        "failures": checks.failures,
    }
    if args.trace:
        report["layers"] = {phase: dict(ms) for phase, ms in session.tracer.ms.items()}
    result_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"manifest: {json.dumps(report['manifest'], sort_keys=True)}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": report["metrics"],
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

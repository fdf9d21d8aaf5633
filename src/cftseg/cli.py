"""Command-line entry point.

Verbs: train, eval, ablate, gradcheck, flops, gen-data.  Settings come
from defaults, then an optional --config file, then per-flag overrides.
Failures print one JSON line on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import data as data_mod
from . import train as train_mod
from .checkpoint import load_checkpoint
from .config import VARIANT_CHOICES, load_config
from .errors import CheckpointError, DivergedError
from .flops import count_flops


# config keys a verb may override by flag, and their flags' arguments
_OVERRIDES = {"seed": {"type": int},
              "variant": {"help": "aggregation variant override"}}


def _add_common(parser: argparse.ArgumentParser, out_default: str,
                *overrides: str) -> None:
    """--config, --out and a flag per config key in `overrides` that the verb reads."""
    parser.add_argument("--config", type=Path, default=None,
                        help="key=value config file")
    for key in overrides:
        parser.add_argument(f"--{key}", default=None, **_OVERRIDES[key])
    parser.add_argument("--out", type=Path, default=Path(out_default))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cftseg")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("train", help="train on synthetic data")
    _add_common(p, "runs/train", "seed", "variant")
    p.add_argument("--resume", type=Path, default=None,
                   help="checkpoint to continue from")
    p.add_argument("--data", type=Path, default=None,
                   help="directory written by gen-data")

    p = sub.add_parser("eval", help="score a checkpoint")
    p.add_argument("checkpoint", type=Path)
    p.add_argument("--data", type=Path, default=None,
                   help="directory written by gen-data (default: the "
                        "training dataset echoed in the checkpoint)")
    p.add_argument("--out", type=Path, default=None,
                   help="write the JSON report here instead of stdout")

    p = sub.add_parser("ablate", help="train and score aggregation variants")
    _add_common(p, "runs/ablate", "seed", "variant")
    p.add_argument("--mask-modes", default=None,
                   help="comma list from cumulative,final,off")

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)

    p = sub.add_parser("flops", help="count multiply-adds and parameters")
    _add_common(p, "-", "variant")
    p.add_argument("--size", type=int, default=128, help="square input size")

    p = sub.add_parser("gen-data", help="write a synthetic dataset to disk")
    _add_common(p, "runs/data", "seed")
    return parser


def _config_from_args(args: argparse.Namespace):
    overrides = {key: str(getattr(args, key)) for key in _OVERRIDES
                 if getattr(args, key, None) is not None}
    return load_config(args.config, overrides=overrides)


def _emit(report: dict, out: Path | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out is None or str(out) == "-":
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)


def _cmd_train(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    dataset = data_mod.load_dataset(args.data) if args.data else None
    result = train_mod.train(config, args.out, dataset=dataset,
                             resume=args.resume)
    final = result.final
    print(f"finished {config.total_iters} iterations: "
          f"total={final['total']:.6f} ce={final['ce']:.6f}")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"log: {result.log_path}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    ck = load_checkpoint(args.checkpoint)
    model, config = train_mod.model_from_checkpoint(ck)
    if args.data:
        dataset = data_mod.load_dataset(args.data)
    else:
        dataset = train_mod.default_dataset(config)
    _emit(train_mod.evaluate(model, dataset), args.out)
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    modes = tuple(args.mask_modes.split(",")) if args.mask_modes \
        else (config.mask_loss_mode,)
    variants = (args.variant,) if args.variant else VARIANT_CHOICES
    rows = train_mod.run_ablation(config, args.out, variants=variants,
                                  mask_modes=modes)
    for row in rows:
        agreement = row["mask_agreement"]
        print(f"{row['variant']:>8} {row['mask_mode']:>10} "
              f"params={row['params']:>8} miou={row['miou']:.4f} "
              f"masks={'-' if agreement is None else format(agreement, '.4f')}")
    print(f"table: {Path(args.out) / 'ablation.csv'}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    rows = train_mod.grad_check_suite(seed=args.seed)
    failures = 0
    for row in rows:
        ok = row.passed(args.tol)
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {row.name:<28} "
              f"max_rel={row.max_rel_error:.3e}")
    print(f"{len(rows) - failures}/{len(rows)} parameter groups within "
          f"{args.tol:g}")
    return 1 if failures else 0


def _cmd_flops(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    report = count_flops(config.model_config(), (args.size, args.size),
                         config.variant)
    _emit(report.as_dict(), args.out)
    return 0


def _cmd_gen_data(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    dataset = train_mod.default_dataset(config)
    data_mod.save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} images ({config.crop_size}x"
          f"{config.crop_size}, {config.num_categories} categories) "
          f"to {args.out}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "gradcheck": _cmd_gradcheck,
    "flops": _cmd_flops,
    "gen-data": _cmd_gen_data,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (CheckpointError, DivergedError, OSError, ValueError) as err:
        line = json.dumps({"error": type(err).__name__, "message": str(err)})
        print(line, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line entry points.

Subcommands: synth, pretrain, finetune, infer, eval, gradcheck, bench.
Exit codes: 0 success, 2 usage or configuration error, 3 missing input
files, 4 numeric failure (non-finite loss or values).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import dataset as ds
from .bench import run_bench
from .config import FINETUNE_EPOCHS_DEFAULT, RunConfig, load_config
from .errors import (CheckpointError, InvalidInputError, NumericError, WhamkitError)
from .fileio import atomic_write
# infer_bundle stays importable from here: the benchmark's span tracer
# (perfbench/spans.py) wraps it in this module by name.
from .evaluate import (INFER_BLOCK, AblationFlags, evaluate_split, infer_bundle,  # noqa: F401
                       infer_bundles)
from .gradcheck import grad_check
from .losses import LossWeights
from .model import ModelDims, WhamModel, WhamParams
from .synth import SynthConfig
from .train import STAGES, TrainingModule, build_batch, load_model, make_chunks, run_training

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4


def _seed(text: str) -> int:
    """An argparse type: a seed is a non-negative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _positive(text: str) -> float:
    """An argparse type: a finite positive number."""
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _overrides(args, cls) -> dict:
    """Config values from the --set pairs, then from each given flag that
    names a field of the config dataclass cls."""
    out = {}
    for pair in args.set or []:
        if "=" not in pair:
            raise InvalidInputError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    for f in fields(cls):
        if getattr(args, f.name, None) is not None:
            out[f.name] = getattr(args, f.name)
    return out


def cmd_synth(args) -> int:
    cfg = load_config(overrides=_overrides(args, SynthConfig), cls=SynthConfig)
    manifest = ds.synthesize_dataset(args.out, cfg, args.seed, args.count)
    for split in ("train", "val", "test"):
        for k in manifest["splits"][split]:
            ds.load_bundle(args.out, k, cfg.feature_dim)  # self-validation pass
    print(f"wrote {manifest['count']} sequences to {args.out} "
          f"(splits {[len(manifest['splits'][s]) for s in ('train', 'val', 'test')]})")
    return EXIT_OK


def _run_config(args, stage: str):
    overrides = _overrides(args, RunConfig)
    defaults = {"epochs": FINETUNE_EPOCHS_DEFAULT} if stage == "finetune" else {}
    cfg = load_config(args.config, overrides, defaults=defaults)
    if not os.path.isdir(cfg.dataset):
        raise FileNotFoundError(f"dataset directory {cfg.dataset!r} does not exist")
    return cfg


def cmd_train(args) -> int:
    stage = args.command
    path = run_training(_run_config(args, stage), stage,
                        init_checkpoint=getattr(args, "init", None), resume=args.resume)
    print(f"{stage} checkpoint: {path}")
    return EXIT_OK


def _ablation_flags(args) -> AblationFlags:
    return AblationFlags(**{f.name: getattr(args, f.name) for f in fields(AblationFlags)})


def cmd_infer(args) -> int:
    model, _ = load_model(args.checkpoint)
    blocks = ds.split_blocks(args.dataset, args.split, INFER_BLOCK)
    os.makedirs(args.out, exist_ok=True)
    flags = _ablation_flags(args)
    count = 0
    for block in blocks:
        for bundle, out in zip(block, infer_bundles(model, block, flags)):
            ds.save_output(os.path.join(args.out, f"out_{bundle.index}.ndjson"), out)
        count += len(block)
    print(f"inferred {count} sequences to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = None
    if not args.oracle:
        if args.checkpoint is None:
            raise InvalidInputError("eval needs --checkpoint (or --oracle)")
        model, _ = load_model(args.checkpoint)
    aggregate = evaluate_split(model, args.dataset, args.split, args.out,
                               flags=_ablation_flags(args), oracle=args.oracle,
                               write_svg=not args.no_svg)
    print(json.dumps({"aggregate": aggregate}, sort_keys=True))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = SynthConfig(seq_len=max(args.frames, 2), noise_std_px=1.0,
                      feature_dim=args.feature_dim, speed_min=1.0, speed_max=1.0)
    seqs = [ds.synthesize_sequence(cfg, seed, args.seed)
            for seed in np.random.SeedSequence(args.seed).spawn(args.batch)]
    bundles = [ds.SequenceBundle(*parts, index=i) for i, parts in enumerate(seqs)]
    chunks = make_chunks(bundles, cfg.seq_len)
    batch = build_batch(chunks, with_features=True)
    dims = ModelDims(hidden=args.hidden, feature_dim=args.feature_dim,
                     integrator_hidden=args.hidden, init_hidden=2 * args.hidden)
    module = TrainingModule(WhamModel(WhamParams(dims, seed=args.seed)),
                            LossWeights(), stage="finetune")
    report = grad_check(module, batch, delta=args.delta, tol=args.tol)
    print(report)
    return EXIT_OK if report.passed else EXIT_NUMERIC


def cmd_bench(args) -> int:
    model, _ = load_model(args.checkpoint)
    report = run_bench(model, frames=args.frames, runs=args.runs, seed=args.seed)
    text = json.dumps(report, sort_keys=True, indent=1)
    print(text)
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(text + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="whamkit",
                                     description="synthetic world-grounded motion lifting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--seq-len", type=int, default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a synthesis config field")
    p.set_defaults(func=cmd_synth)

    for stage in STAGES:
        p = sub.add_parser(stage, help=f"{stage} the model")
        p.add_argument("--dataset", default=None)
        p.add_argument("--out-dir", dest="out_dir", default=None)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--seed", type=_seed, default=None)
        p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
        p.add_argument("--resume", action="store_true")
        p.add_argument("--set", action="append", metavar="KEY=VALUE")
        if stage == "finetune":
            p.add_argument("--init", required=True, help="pretrain checkpoint")
        p.set_defaults(func=cmd_train)

    def add_ablations(p):
        for f in fields(AblationFlags):  # use_neural_init: --no-neural-init
            p.add_argument("--no-" + f.name.removeprefix("use_").replace("_", "-"),
                           dest=f.name, action="store_false")

    p = sub.add_parser("infer", help="run inference, write output NDJSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True)
    add_ablations(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="metric suite over a dataset split")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="score the ground truth against itself")
    p.add_argument("--no-svg", action="store_true")
    add_ablations(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--feature-dim", dest="feature_dim", type=int, default=8)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--delta", type=_positive, default=1e-5)
    p.add_argument("--tol", type=_positive, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="core inference throughput")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--frames", type=int, default=81)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except WhamkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads: set-up, timed rounds, output checks.

A workload runs whole rounds, one after another with a single caller, until
the measuring time has passed and at least its minimum of rounds is done.
The end-to-end figures are medians over rounds. With a tracer the same rounds
run with whamkit's public functions wrapped, and the result holds the
per-layer figures instead.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np

from whamkit import autodiff as ad
from whamkit import cli, dataset as ds, evaluate, optim, synth, train
from whamkit.body import CONTACT_LANDMARKS, L
from whamkit.config import RunConfig
from whamkit.errors import SynthesisError
from whamkit.gradcheck import forward_backward
from whamkit.model import CONTACT_THRESHOLD, ModelDims, WhamModel, WhamParams

import checks

FRAMES = synth.SynthConfig().seq_len    # 81: one chunk per sequence
SETUP_REPEATS = 3
SEED_STRIDE = 1_000_003          # next dataset seed when synthesis fails
HIPS = (L["left_hip"], L["right_hip"])

# name: (sequences, batch, pretrain epochs, finetune epochs)
TRAIN_SPECS = {
    "train_desk": (20, 2, 1, 1),
    "train_b64": (91, 64, 1, 1),
}
TRAIN_MIN_ROUNDS = 3
GRAD_DIRECTIONS = 12             # candidates for the 3 compared directions
GRAD_BATCH = 2                   # chunks in the gradient-checked batch

EVAL_COUNT = 60                  # test split of 9 sequences
ORACLE_SEED = 42                 # oracle inputs do not depend on --seed
ORACLE_COUNT = 20
ORACLE_SPLIT = "train"           # 14 sequences: 7 walk, 3 turn, 3 stairs, 1 stand
EVAL_MIN_ROUNDS = 6              # 18 infer_bundle calls a round

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pretrain_or_eval_frames_per_s": "frames/s",
    "finetune_or_infer_frames_per_s": "frames/s",
}

# Per-layer metric: (span name, unit, how it is normalised).
#   call: mean inclusive time per call    forward: time per model.forward
#   step: self time per optimizer step    p50 / p90: percentile per call
LAYER_SPANS = {
    "dataset.load_split_ms": ("dataset.load_split", "call"),
    "dataset.load_bundle_ms": ("dataset.load_bundle", "call"),
    "train.build_batch_ms": ("train.build_batch", "call"),
    "train.run_training_self_ms": ("train.run_training", "step"),
    "gradcheck.forward_backward_ms": ("gradcheck.forward_backward", "call"),
    "model.forward_ms": ("model.forward", "call"),
    "model.encode_ms": ("model.encode", "call"),
    "model.integrate_ms": ("model.integrate", "call"),
    "model.decode_motion_ms": ("model.decode_motion", "call"),
    "model.decode_trajectory_ms": ("model.decode_trajectory", "call"),
    "model.adjust_velocity_ms": ("model.adjust_velocity", "call"),
    "model.refine_trajectory_ms": ("model.refine_trajectory", "call"),
    "model.rollout_ms": ("model.rollout", "forward"),
    "layers.gru_step_ms": ("layers.gru_step", "forward"),
    "losses.total_loss_ms": ("losses.total_loss", "call"),
    "autodiff.backward_ms": ("autodiff.backward", "call"),
    "optim.adam_step_ms": ("optim.adam_step", "call"),
    "optim.save_checkpoint_ms": ("optim.save_checkpoint", "call"),
    "optim.load_checkpoint_ms": ("optim.load_checkpoint", "call"),
    "evaluate.infer_bundle_ms": ("evaluate.infer_bundle", "p50"),
    "evaluate.infer_bundle_ms_p90": ("evaluate.infer_bundle", "p90"),
    "metrics.compute_report_ms": ("metrics.compute_report", "call"),
    "svg.render_topdown_ms": ("svg.render_topdown", "call"),
    "dataset.save_output_ms": ("dataset.save_output", "call"),
}
LAYER_UNITS = {
    **{name: "ms" for name in LAYER_SPANS},
    "dataset.synthesize_dataset_s": "s",
    "layers.gru_step_calls": "count",
    "autodiff.tape_nodes": "count",
    "autodiff.tape_mb": "MB",
    "traced.pretrain_or_eval_frames_per_s": "frames/s",
    "traced.finetune_or_infer_frames_per_s": "frames/s",
}


class Run:
    """Counters, problems and figures of one benchmark run."""

    def __init__(self, workdir: str, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.synth_s: list[float] = []
        self.data_seeds: dict[tuple, int] = {}
        self.passed_over_s = 0.0
        self.first: list[float] = []      # frames/s of the round's first command
        self.second: list[float] = []     # frames/s of the round's second command

    def check(self, problems: list[str], where: str) -> None:
        self.problems.extend(f"{where}: {p}" for p in problems)

    def set_up(self, make):
        """Run make(dir) SETUP_REPEATS times; keep the first result."""
        kept = None
        for i in range(SETUP_REPEATS):
            path = os.path.join(self.workdir, f"setup{i}")
            start = time.perf_counter()
            self.passed_over_s = 0.0
            made = make(path)
            self.setup_s.append(time.perf_counter() - start - self.passed_over_s)
            if kept is None:
                kept = made
            else:
                shutil.rmtree(path)
        return kept

    def synthesize(self, out_dir: str, seed: int, count: int) -> None:
        """Synthesize a default-config dataset from the first of the seeds
        seed, seed + SEED_STRIDE, ... for which synthesis succeeds. Some
        seeds raise SynthesisError (see CHANGES.md); the time spent on them
        is not set-up time."""
        data_seed = self.data_seeds.get((seed, count), seed)
        while True:
            start = time.perf_counter()
            try:
                ds.synthesize_dataset(out_dir, synth.SynthConfig(), data_seed, count)
                break
            except SynthesisError as exc:
                print(f"dataset seed {data_seed}: {exc}; trying seed {data_seed + SEED_STRIDE}",
                      file=sys.stderr)
                shutil.rmtree(out_dir)
                self.passed_over_s += time.perf_counter() - start
                data_seed += SEED_STRIDE
        self.synth_s.append(time.perf_counter() - start)
        self.data_seeds[(seed, count)] = data_seed

    def rounds(self, seconds: float, min_rounds: int, one_round) -> None:
        """Closed loop of whole rounds; traced when a tracer is given."""
        if self.tracer is not None:
            self.tracer.install()
        try:
            start = time.perf_counter()
            r = 0
            while r < min_rounds or time.perf_counter() - start < seconds:
                one_round(r)
                r += 1
        finally:
            if self.tracer is not None:
                self.tracer.remove()

    def result(self) -> dict:
        e2e = {
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pretrain_or_eval_frames_per_s": statistics.median(self.first),
            "finetune_or_infer_frames_per_s": statistics.median(self.second),
        }
        if self.tracer is None:
            values, units = e2e, E2E_UNITS
        else:
            values, units = self.layer_metrics(e2e), LAYER_UNITS
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": values[name], "unit": units[name]}
                            for name in units}}

    def layer_metrics(self, e2e: dict) -> dict:
        summary = self.tracer.summary()
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        forwards = summary.get("model.forward", empty)["calls"]
        steps = summary.get("optim.adam_step", empty)["calls"]
        out = {}
        for metric, (span, how) in LAYER_SPANS.items():
            entry = summary.get(span, empty)
            if how in ("p50", "p90"):
                q = 0.5 if how == "p50" else 0.9
                value = float(np.quantile(entry["durations"], q)) if entry["calls"] else 0.0
            else:
                seconds = entry["self_s"] if how == "step" else entry["total_s"]
                calls = {"call": entry["calls"], "forward": forwards, "step": steps}[how]
                value = seconds / calls if calls else 0.0
            out[metric] = value * 1000.0
        gru_calls = summary.get("layers.gru_step", empty)["calls"]
        tapes = self.tracer.tapes
        out["layers.gru_step_calls"] = gru_calls / forwards if forwards else 0.0
        # Every round has the same steps, so these means repeat exactly.
        out["autodiff.tape_nodes"] = statistics.fmean(n for n, _ in tapes) if tapes else 0.0
        out["autodiff.tape_mb"] = statistics.fmean(b for _, b in tapes) / 2 ** 20 if tapes else 0.0
        out["dataset.synthesize_dataset_s"] = statistics.median(
            sum(self.synth_s[i::SETUP_REPEATS]) for i in range(SETUP_REPEATS))
        out["traced.pretrain_or_eval_frames_per_s"] = e2e["pretrain_or_eval_frames_per_s"]
        out["traced.finetune_or_infer_frames_per_s"] = e2e["finetune_or_infer_frames_per_s"]
        return out


# -- training ------------------------------------------------------------------

def _module(stage: str, seed: int) -> train.TrainingModule:
    """The training objective of a stage at the initial weights of seed."""
    return train.TrainingModule(WhamModel(WhamParams(ModelDims(), seed=seed)),
                                RunConfig().loss_weights(), stage)


def _loss(module: train.TrainingModule, params_vec: np.ndarray, batch: dict) -> float:
    module.params.set_flat(params_vec)
    with ad.no_grad():
        return module.loss(batch).item()


def gated_loss(module, batch: dict):
    """loss_at for checks.directional_gradient_problems: the module's loss at
    a flat parameter vector, with the contact gate of the velocity
    adjustment as the loss's one branch."""
    model = module.model
    outputs = []
    forward = model.forward

    def recording_forward(*args, **kwargs):
        outputs.append(forward(*args, **kwargs))
        return outputs[-1]

    model.forward = recording_forward

    def loss_at(vec):
        loss = _loss(module, vec, batch)
        return loss, outputs.pop().contact.data > CONTACT_THRESHOLD

    return loss_at


def check_gradients(run: Run, chunks: list, seed: int) -> None:
    """Analytic gradient of each stage against central differences along
    fixed directions of the whole parameter vector, at the initial weights."""
    for stage in train.STAGES:
        batch = train.build_batch(chunks[:GRAD_BATCH], with_features=(stage == "finetune"))
        module = _module(stage, seed)
        base = module.params.get_flat()
        _, grad = forward_backward(module, batch)
        problems, _ = checks.directional_gradient_problems(
            gated_loss(module, batch), base, grad,
            checks.fixed_directions(base.size, GRAD_DIRECTIONS))
        run.check(problems, f"{stage} gradient")


def run_train(name: str, seed: int, seconds: float, run: Run) -> None:
    count, batch_size, pre_epochs, fin_epochs = TRAIN_SPECS[name]

    def make(path):
        run.synthesize(os.path.join(path, "data"), seed, count)
        return os.path.join(path, "data")

    data = run.set_up(make)
    chunks = train.make_chunks(ds.load_split(data, "train"), FRAMES)
    steps_per_epoch = math.ceil(len(chunks) / batch_size)
    frames_per_epoch = FRAMES * len(chunks)
    train_batch = train.build_batch(chunks, with_features=True)
    check_gradients(run, chunks, seed)
    # The first step at a new batch size grows the heap by the tape's size
    # (about 1 GB at batch 64), which a training run pays once; it is taken
    # here, before timing.
    forward_backward(_module("finetune", seed),
                     train.build_batch(chunks[:batch_size], with_features=True))
    final_params = []                # round 0's trained parameters

    def one_round(r):
        out_dir = os.path.join(run.workdir, f"round{r}")
        stages = []
        for stage, epochs in (("pretrain", pre_epochs), ("finetune", fin_epochs)):
            cfg = RunConfig(dataset=data, out_dir=out_dir, seed=seed, epochs=epochs,
                            batch_size=batch_size)
            init = stages[-1] if stages else None
            start = time.perf_counter()
            path = train.run_training(cfg, stage, init_checkpoint=init)
            elapsed = time.perf_counter() - start
            (run.first if stage == "pretrain" else run.second).append(
                epochs * frames_per_epoch / elapsed)
            run.attempted += epochs * steps_per_epoch
            # Finetune rewrites train_log.csv, so each log is read right away.
            run.check(checks.train_log_problems(os.path.join(out_dir, "train_log.csv"),
                                                epochs), f"round {r} {stage} log")
            _, meta, saved = optim.load_checkpoint(path)
            if meta["adam_step"] != epochs * steps_per_epoch or meta["epoch"] != epochs:
                run.check([f"adam_step {meta['adam_step']} epoch {meta['epoch']}, expected "
                           f"{epochs * steps_per_epoch} and {epochs}"], f"round {r} {stage}")
            stages.append(path)
        if not final_params:
            final_params.append(saved["params"])
        elif not np.array_equal(saved["params"], final_params[0]):
            run.check(["final parameters differ from round 0"], f"round {r}")
        shutil.rmtree(out_dir)

    run.rounds(seconds, TRAIN_MIN_ROUNDS, one_round)

    # The loss over the whole training split; a 3-sequence validation split
    # can rise after so few steps (seeds 2 and 8 of train_desk do).
    module = _module("finetune", seed)
    before = _loss(module, module.params.get_flat(), train_batch)
    after = _loss(module, final_params[0], train_batch)
    if not after < before:
        run.check([f"training-split loss {after!r} not below initial {before!r}"], "training")


# -- evaluation ------------------------------------------------------------------

def _cli(argv: list[str]) -> float:
    """Run one whamkit command in-process; returns its wall time."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"whamkit {' '.join(argv)} exited with {code}")
    return elapsed


def check_batch_independence(run: Run, model, bundles: list) -> None:
    """The test sequences forwarded as one batch match their batch-1 outputs."""
    stack = lambda arrays: np.stack(arrays, axis=1)
    with ad.no_grad():
        out = model.forward(stack([b.enc_input for b in bundles]),
                            stack([b.cams.omega for b in bundles]),
                            features=stack([b.features for b in bundles]),
                            neural_init_mode="self")
    for i, bundle in enumerate(bundles):
        single = evaluate.infer_bundle(model, bundle)
        for field in ("local_pose", "contact", "root_rot", "vel", "root_pos", "cam_root_pos"):
            gap = np.abs(getattr(out, field).data[:, i] - getattr(single, field)).max()
            if not gap <= checks.EXACT_TOL:
                run.check([f"{field} differs by {gap:.3e}"], f"batch of seq {bundle.index}")


def run_eval(seed: int, seconds: float, run: Run) -> None:
    def make(path):
        run.synthesize(os.path.join(path, "data"), seed, EVAL_COUNT)
        run.synthesize(os.path.join(path, "oracle"), ORACLE_SEED, ORACLE_COUNT)
        dims = ModelDims()
        ckpt = os.path.join(path, "model.ckpt")
        optim.save_checkpoint(ckpt, dims.to_dict(), WhamParams(dims, seed=seed).params.get_flat(),
                              meta={"stage": "pretrain", "epoch": 0, "seed": seed,
                                    "adam_step": 0})
        return path

    root = run.set_up(make)
    data, oracle, ckpt = (os.path.join(root, p) for p in ("data", "oracle", "model.ckpt"))
    test = ds.read_manifest(data)["splits"]["test"]
    truth = {str(k): checks.frame_array(checks.read_ndjson(
        os.path.join(data, f"seq_{k}.ndjson"))[1], "local", (-1, 3)) for k in test}
    oracle_truth = {str(k): checks.OracleTruth(checks.read_ndjson(
        os.path.join(oracle, f"seq_{k}.ndjson"))[1], HIPS, CONTACT_LANDMARKS)
        for k in ds.read_manifest(oracle)["splits"][ORACLE_SPLIT]}
    expected_failures = {k for k, t in oracle_truth.items() if t.straight_path}

    model, _ = train.load_model(ckpt)
    bundles = ds.load_split(data, "test")
    check_batch_independence(run, model, bundles)

    dirs = {name: os.path.join(run.workdir, name) for name in ("eval", "infer", "oracle")}
    frames = FRAMES * len(test)

    def one_round(r):
        run.first.append(frames / _cli(["eval", "--checkpoint", ckpt, "--dataset", data,
                                        "--split", "test", "--out", dirs["eval"]]))
        run.second.append(frames / _cli(["infer", "--checkpoint", ckpt, "--dataset", data,
                                         "--split", "test", "--out", dirs["infer"]]))
        _cli(["eval", "--oracle", "--dataset", oracle, "--split", ORACLE_SPLIT,
              "--out", dirs["oracle"]])

        rows = checks.read_metrics_rows(os.path.join(dirs["eval"], "metrics.csv"))
        for k in map(str, test):
            _, out_frames = checks.read_ndjson(os.path.join(dirs["infer"], f"out_{k}.ndjson"))
            run.check(checks.infer_output_problems(out_frames), f"round {r} infer seq {k}")
            pred = checks.frame_array(out_frames, "local", (-1, 3))
            run.check(checks.metrics_row_problems(k, rows[k], pred, truth[k], HIPS),
                      f"round {r} eval")
        oracle_rows = checks.read_metrics_rows(os.path.join(dirs["oracle"], "metrics.csv"))
        failed = set()
        for k, t in oracle_truth.items():
            problems = checks.oracle_row_problems(oracle_rows[k], t)
            if problems:
                failed.add(k)
                if k not in expected_failures:
                    run.check(problems, f"round {r} oracle seq {k}")
        if failed != expected_failures:
            run.check([f"failed {sorted(failed)}, expected the straight-path sequences "
                       f"{sorted(expected_failures)}"], f"round {r} oracle")
        run.attempted += 2 * len(test) + len(oracle_truth)
        run.failed += len(failed)

    run.rounds(seconds, EVAL_MIN_ROUNDS, one_round)


WORKLOADS = {
    "train_desk": functools.partial(run_train, "train_desk"),
    "train_b64": functools.partial(run_train, "train_b64"),
    "eval_split": run_eval,
}

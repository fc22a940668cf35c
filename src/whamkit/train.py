"""Two-stage training: pretraining on keypoints only, then fine-tuning with
the feature integrator enabled at per-module learning rates.

Pretraining leaves the integrator out of the graph entirely (identity
pass-through), so its parameters receive zero gradient and stay at their
initialization. Fine-tuning resumes from a pretrain checkpoint and scales
the learning rate down on every pretrained block.
"""

from __future__ import annotations

import csv
import os
from contextlib import suppress

import numpy as np

from . import dataset as ds
from .config import RunConfig
from .errors import CheckpointError, InvalidInputError
from .fileio import atomic_write
from .gradcheck import forward_backward
from .losses import LossWeights, total_loss
from .model import ModelDims, WhamModel, WhamParams
from .optim import AdamState, adam_step, load_checkpoint, save_checkpoint

STAGES = ("pretrain", "finetune")


def make_chunks(bundles: list, chunk_len: int) -> list[tuple]:
    """(bundle, start) windows of exactly chunk_len frames (shorter
    sequences are used whole when they still have >= 2 frames)."""
    chunks = []
    for b in bundles:
        n = b.num_frames
        if n < chunk_len:
            if n >= 2:
                chunks.append((b, 0, n))
            continue
        for start in range(0, n - chunk_len + 1, chunk_len):
            chunks.append((b, start, start + chunk_len))
    return chunks


def build_batch(chunks: list[tuple], with_features: bool) -> dict:
    """Stack chunk windows into (T, B, ...) training arrays."""
    if not chunks:
        raise InvalidInputError("zero-length batch")
    lengths = {stop - start for _, start, stop in chunks}
    if len(lengths) != 1:
        raise InvalidInputError("all chunks in a batch must share one length")
    pick = lambda arr, start, stop: arr[start:stop]
    stack1 = lambda key: np.stack([pick(getattr(b, key), s, e) for b, s, e in chunks], axis=1)

    batch = {
        "kp_input": stack1("enc_input"),
        "kp_px": stack1("kp_px"),
        "features": stack1("features") if with_features else None,
    }
    batch["omega"] = np.stack([b.cams.omega[s:e] for b, s, e in chunks], axis=1)
    batch["kp_vis"] = np.stack([b.kps.mask[s:e].astype(bool) for b, s, e in chunks], axis=1)
    batch["local_pose"] = np.stack([b.seq.local_pose[s:e] for b, s, e in chunks], axis=1)
    batch["root_rot"] = np.stack([b.seq.root_rot[s:e] for b, s, e in chunks], axis=1)
    batch["root_vel"] = np.stack([b.root_vel[s:e] for b, s, e in chunks], axis=1)
    batch["contacts"] = np.stack([b.seq.contacts[s:e] for b, s, e in chunks], axis=1)
    batch["cam_rot"] = np.stack([b.cams.rotations[s:e] for b, s, e in chunks], axis=1)
    batch["bone_scales"] = np.stack([b.seq.bone_scales for b, _, _ in chunks], axis=0)
    batch["focal"] = np.array([b.cams.pinhole.f for b, _, _ in chunks])
    batch["cx"] = np.array([b.cams.pinhole.cx for b, _, _ in chunks])
    batch["cy"] = np.array([b.cams.pinhole.cy for b, _, _ in chunks])
    batch["image_w"] = float(chunks[0][0].cams.pinhole.w)
    batch["init_pose"] = batch["local_pose"][0].reshape(len(chunks), -1)
    return batch


class TrainingModule:
    """Model + objective bundle exposing the loss(batch) protocol used by
    forward_backward and grad_check."""

    def __init__(self, model: WhamModel, weights: LossWeights, stage: str = "pretrain"):
        if stage not in STAGES:
            raise InvalidInputError(f"unknown stage {stage!r}")
        self.model = model
        self.weights = weights
        self.stage = stage
        self.last_breakdown: dict = {}

    @property
    def params(self):
        return self.model.params

    def loss(self, batch: dict):
        features = batch.get("features") if self.stage == "finetune" else None
        out = self.model.forward(batch["kp_input"], batch["omega"], features=features,
                                 init_pose=batch["init_pose"], neural_init_mode="truth")
        total, breakdown = total_loss(out, batch, self.weights)
        self.last_breakdown = breakdown
        return total


LOG_HEADER = ["stage", "epoch", "term", "value"]


def _append_log(path, stage: str, epoch: int, breakdown: dict) -> None:
    """Write one epoch's rows of a stage to the loss log, in place of that
    stage's rows from this epoch on: epoch 0 starts the stage afresh, and a
    run resumed after a lost checkpoint write drops the rows it repeats.
    The rows of a later stage go too, since they came from the weights this
    write replaces; an earlier stage's rows stay. A log that does not parse
    or has another header is replaced. The whole file is rewritten through
    fileio.atomic_write, so a write that fails partway leaves the previous
    rows intact."""
    rows = []
    with suppress(FileNotFoundError, ValueError, csv.Error), open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [LOG_HEADER]:
        rows = [LOG_HEADER]
    later = [[s] for s in STAGES[STAGES.index(stage) + 1:]]
    rows = [r for r in rows if r[:1] not in later
            and (r[:1] != [stage] or r[1:2] and r[1].isdecimal() and int(r[1]) < epoch)]
    rows += [[stage, epoch, term, repr(breakdown[term])] for term in sorted(breakdown)]
    with atomic_write(path, newline="") as fh:
        csv.writer(fh).writerows(rows)


def _lr_scale(params, integrator_lr: float, pretrained_lr: float) -> np.ndarray:
    """Multipliers on the integrator's learning rate: 1 on the integrator
    block, pretrained_lr / integrator_lr on every other parameter."""
    scale = np.full(params.size, pretrained_lr / integrator_lr)
    scale[params.block_slices()["integrator"]] = 1.0
    return scale


def run_training(cfg: RunConfig, stage: str, init_checkpoint: str | None = None,
                 resume: bool = False) -> str:
    """Train one stage; returns the checkpoint path.

    Checkpoints carry parameters, optimizer moments, and the epoch counter,
    so a run can resume. On a non-finite loss the last good checkpoint is
    kept and NumericError propagates.
    """
    if stage not in STAGES:
        raise InvalidInputError(f"unknown stage {stage!r}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    ckpt_path = os.path.join(cfg.out_dir, f"{stage}.ckpt")
    log_path = os.path.join(cfg.out_dir, "train_log.csv")

    dims = cfg.model_dims()
    adam = AdamState(lr=cfg.lr if stage == "pretrain" else cfg.lr_integrator)

    resuming = resume and os.path.exists(ckpt_path)
    source = ckpt_path if resuming else init_checkpoint if stage == "finetune" else None
    if stage == "finetune" and (source is None or not os.path.exists(source)):
        raise CheckpointError("finetune requires an existing pretrain checkpoint")
    if source is None:
        weights, start_epoch = WhamParams(dims, seed=cfg.seed), 0
    else:
        weights, meta = _read_checkpoint(source, dims, adam if resuming else None)
        start_epoch = meta["epoch"] if resuming else 0
    adam.ensure(weights.params.size)

    if stage == "finetune":
        adam.lr_scale = _lr_scale(weights.params, cfg.lr_integrator, cfg.lr_pretrained)

    model = WhamModel(weights)
    module = TrainingModule(model, cfg.loss_weights(), stage)
    bundles = ds.load_split(cfg.dataset, "train")
    chunks = make_chunks(bundles, cfg.chunk_len)
    if cfg.epochs > 0 and not chunks:
        raise InvalidInputError("training split is empty")

    def save(epoch: int) -> None:
        save_checkpoint(ckpt_path, dims.to_dict(), weights.params.get_flat(),
                        meta={"stage": stage, "epoch": epoch, "seed": cfg.seed,
                              "adam_step": adam.step_count,
                              "loss_weights": cfg.loss_weights().to_dict()},
                        extra_sections={"adam_m": adam.m, "adam_v": adam.v})

    if cfg.epochs == 0 or start_epoch >= cfg.epochs:
        save(start_epoch)
        return ckpt_path

    for epoch in range(start_epoch, cfg.epochs):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(len(chunks))
        sums: dict[str, float] = {}
        n_batches = 0
        for lo in range(0, len(order), cfg.batch_size):
            picked = [chunks[i] for i in order[lo:lo + cfg.batch_size]]
            batch = build_batch(picked, with_features=(stage == "finetune"))
            _, grads = forward_backward(module, batch)
            weights.params.set_flat(adam_step(adam, weights.params.get_flat(), grads))
            for term, value in module.last_breakdown.items():
                sums[term] = sums.get(term, 0.0) + value
            n_batches += 1
        means = {term: v / n_batches for term, v in sums.items()}
        _append_log(log_path, stage, epoch, means)
        save(epoch + 1)
    return ckpt_path


def _read_checkpoint(path, dims: ModelDims | None = None,
                     adam: AdamState | None = None) -> tuple[WhamParams, dict]:
    """The weights and meta of a checkpoint. With dims, the checkpoint's
    dims must equal them; with adam, its moments and step count are
    restored from the checkpoint, whose meta must then also hold the epoch;
    without it, only the params section is read. Anything that does not fit
    raises CheckpointError."""
    saved_dims, meta, sections = load_checkpoint(path, ("params",) if adam is None else None)
    if dims is not None and saved_dims != dims.to_dict():
        raise CheckpointError(f"{path}: checkpoint dims do not match the config")
    # The params section must fit the header's dims before any weight array
    # is made: the weights grow with hidden squared, so a few bytes of header
    # could otherwise claim gigabytes. The arrays start at zeros, not drawn.
    try:
        model_dims = ModelDims(**saved_dims)
        count = model_dims.param_count()
        if sections["params"].size != count:
            raise ValueError(f"{sections['params'].size} values, expected {count}")
        weights = WhamParams(model_dims, seed=None)
        weights.params.set_flat(sections["params"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: parameters do not fit the model dims "
                              f"{saved_dims}: {exc}") from exc
    if adam is not None:
        size = (weights.params.size,)
        moments = (sections.get("adam_m"), sections.get("adam_v"))
        counters = (meta.get("adam_step"), meta.get("epoch"))
        if not (all(m is not None and m.shape == size for m in moments)
                and all(type(c) is int and c >= 0 for c in counters)):
            raise CheckpointError(f"{path}: missing or malformed optimizer state")
        adam.m, adam.v = moments
        adam.step_count = counters[0]
    return weights, meta


def load_model(checkpoint_path: str) -> tuple[WhamModel, dict]:
    """Instantiate a model from a checkpoint; returns (model, meta)."""
    weights, meta = _read_checkpoint(checkpoint_path)
    return WhamModel(weights), meta

"""Evaluation orchestration: inference over a dataset split, metric reports,
CSV emission, and top-down trajectory plots."""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import dataset as ds
from . import geom, metrics, svg
from .dataset import SequenceBundle
from .model import WhamModel, WhamOutput

CSV_COLUMNS = ("seq",) + metrics.MetricReport.FIELDS + ("segments", "flags")


@dataclass
class AblationFlags:
    use_integrator: bool = True
    use_omega: bool = True
    use_refiner: bool = True
    use_neural_init: bool = True


# Sequences per batched inference forward, at most. Per-frame dispatch, not
# arithmetic, dominates a forward at small batch, so batching equal-length
# sequences divides that cost; this bound caps the activations held at once.
INFER_BLOCK = 64


def infer_bundles(model: WhamModel, bundles: list[SequenceBundle],
                  flags: AblationFlags = AblationFlags()) -> list[WhamOutput]:
    """Inference over bundles, returned in input order.

    Consecutive blocks of at most INFER_BLOCK bundles; within a block, the
    bundles of one length run as one batched forward. Outputs match
    per-sequence inference up to float reassociation, not bit for bit."""
    stack = lambda arrays: np.stack(list(arrays), axis=1)
    outputs: list[WhamOutput | None] = [None] * len(bundles)
    for lo in range(0, len(bundles), INFER_BLOCK):
        groups: dict[int, list[int]] = {}
        for i in range(lo, min(lo + INFER_BLOCK, len(bundles))):
            groups.setdefault(bundles[i].num_frames, []).append(i)
        for members in groups.values():
            group = [bundles[i] for i in members]
            batch = model.infer_batch(
                stack(b.enc_input for b in group), stack(b.cams.omega for b in group),
                features=stack(b.features for b in group),
                fps=[b.seq.fps for b in group],
                use_integrator=flags.use_integrator,
                use_omega=flags.use_omega,
                use_refiner=flags.use_refiner,
                neural_init_mode="self" if flags.use_neural_init else "zero")
            for i, out in zip(members, batch):
                outputs[i] = out
    return outputs


def infer_bundle(model: WhamModel, bundle: SequenceBundle,
                 flags: AblationFlags = AblationFlags()) -> WhamOutput:
    return infer_bundles(model, [bundle], flags)[0]


def report_for(pred: WhamOutput, bundle: SequenceBundle) -> metrics.MetricReport:
    truth = bundle.seq
    return metrics.compute_report(
        pred_local=pred.local_pose, truth_local=truth.local_pose,
        pred_world=pred.world_landmarks_all(), truth_world=truth.world_landmarks_all(),
        truth_contacts=truth.contacts, fps=truth.fps,
        pred_rot0=pred.root_rot[0], truth_rot0=truth.root_rot[0])


def oracle_output(bundle: SequenceBundle) -> WhamOutput:
    """A prediction equal to the ground truth (for pipeline self-checks)."""
    seq = bundle.seq
    n = seq.num_frames
    from .model import extract_velocities
    vel = extract_velocities(seq.root_rot, seq.root_pos)
    cam_rot = np.einsum("tij,tjk->tik", bundle.cams.rotations, seq.root_rot)
    cam_pos = (np.einsum("tij,tj->ti", bundle.cams.rotations, seq.root_pos)
               + bundle.cams.translations)
    return WhamOutput(fps=seq.fps, local_pose=seq.local_pose.copy(),
                      contact=seq.contacts.copy(), cam_root_pos=cam_pos,
                      cam_root_rot=cam_rot,
                      bone_scales=np.tile(seq.bone_scales, (n, 1)),
                      kp3d_cascade=seq.local_pose.copy(),
                      root_rot0=seq.root_rot.copy(), vel0=vel.copy(),
                      vel_adj=vel.copy(), root_rot=seq.root_rot.copy(),
                      vel=vel.copy(), root_pos=seq.root_pos.copy())


def _fmt(value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def _aligned_pred_roots(pred_world: np.ndarray, truth_world: np.ndarray) -> np.ndarray:
    pred_roots = pred_world[:, list(metrics.HIP_PAIR), :].mean(axis=1)
    truth_roots = truth_world[:, list(metrics.HIP_PAIR), :].mean(axis=1)
    tf, _ = geom.kabsch_align(pred_roots, truth_roots, with_scale=False)
    return tf.apply(pred_roots), truth_roots


def evaluate_split(model: WhamModel | None, dataset_dir: str, split: str, out_dir: str,
                   flags: AblationFlags = AblationFlags(), oracle: bool = False,
                   write_svg: bool = True) -> dict:
    """Evaluate every sequence of a split; returns the aggregate row.

    Writes metrics.csv (one row per sequence plus an aggregate row of
    per-column means over defined values) and one trajectory SVG per
    sequence. oracle=True scores the ground truth against itself.
    """
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for block in ds.split_blocks(dataset_dir, split, INFER_BLOCK):
        preds = ([oracle_output(b) for b in block] if oracle
                 else infer_bundles(model, block, flags))
        for bundle, pred in zip(block, preds):
            rows.append((bundle.index, report_for(pred, bundle)))
            if write_svg:
                pred_xy, truth_xy = _aligned_pred_roots(pred.world_landmarks_all(),
                                                        bundle.seq.world_landmarks_all())
                svg.render_topdown(os.path.join(out_dir, f"traj_{bundle.index}.svg"),
                                   truth_xy[:, [0, 2]], pred_xy[:, [0, 2]],
                                   title=f"seq {bundle.index} root path")

    aggregate = {}
    for name in metrics.MetricReport.FIELDS:
        vals = [getattr(r, name) for _, r in rows if not math.isnan(getattr(r, name))]
        aggregate[name] = float(np.mean(vals)) if vals else math.nan

    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for index, report in rows:
            writer.writerow([index] + [_fmt(getattr(report, n)) for n in metrics.MetricReport.FIELDS]
                            + [json.dumps(report.segments, sort_keys=True),
                               ";".join(report.flags)])
        writer.writerow(["aggregate"] + [_fmt(aggregate[n]) for n in metrics.MetricReport.FIELDS]
                        + ["", ""])
    return aggregate


def read_metrics_csv(path: str) -> tuple[list[dict], dict]:
    """Parse metrics.csv back into per-sequence rows and the aggregate."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    parsed = []
    aggregate = {}
    for row in rows:
        values = {k: (float(row[k]) if row[k] else math.nan)
                  for k in metrics.MetricReport.FIELDS}
        if row["seq"] == "aggregate":
            aggregate = values
        else:
            parsed.append({"seq": int(row["seq"]), **values, "flags": row["flags"]})
    return parsed, aggregate

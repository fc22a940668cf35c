"""Evaluation orchestration: inference over a dataset split, metric reports,
CSV emission, and top-down trajectory plots."""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from . import dataset as ds
from . import geom, metrics, svg
from .body import world_landmarks
from .dataset import SequenceBundle
from .fileio import atomic_write
from .model import AblationFlags, WhamModel, WhamOutput

CSV_COLUMNS = ("seq",) + metrics.MetricReport.FIELDS + ("segments", "flags")

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
                fps=[b.seq.fps for b in group], flags=flags)
            for i, out in zip(members, batch):
                outputs[i] = out
    return outputs


def infer_bundle(model: WhamModel, bundle: SequenceBundle,
                 flags: AblationFlags = AblationFlags()) -> WhamOutput:
    return infer_bundles(model, [bundle], flags)[0]


def report_for(pred: WhamOutput, bundle: SequenceBundle, pred_world: np.ndarray,
               truth_world: np.ndarray) -> metrics.MetricReport:
    """The metric report of pred against the bundle's ground truth, given
    the world landmarks of both."""
    truth = bundle.seq
    return metrics.compute_report(
        pred_local=pred.local_pose, truth_local=truth.local_pose,
        pred_world=pred_world, truth_world=truth_world,
        truth_contacts=truth.contacts, fps=truth.fps,
        pred_rot0=pred.root_rot[0], truth_rot0=truth.root_rot[0])


def oracle_output(bundle: SequenceBundle) -> WhamOutput:
    """A prediction equal to the ground truth (for pipeline self-checks)."""
    seq, cams, vel = bundle.seq, bundle.cams, bundle.root_vel
    return WhamOutput(fps=seq.fps, local_pose=seq.local_pose, contact=seq.contacts,
                      cam_root_pos=np.einsum("tij,tj->ti", cams.rotations, seq.root_pos)
                      + cams.translations,
                      cam_root_rot=np.einsum("tij,tjk->tik", cams.rotations, seq.root_rot),
                      bone_scales=np.tile(seq.bone_scales, (seq.num_frames, 1)),
                      root_rot0=seq.root_rot, vel0=vel, vel_adj=vel,
                      root_rot=seq.root_rot, vel=vel, root_pos=seq.root_pos)


def _fmt(value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def _aligned_pred_roots(pred_world: np.ndarray, truth_world: np.ndarray) -> np.ndarray:
    pred_roots, truth_roots = metrics.roots(pred_world), metrics.roots(truth_world)
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
            pred_world, truth_world = world_landmarks(pred), world_landmarks(bundle.seq)
            rows.append((bundle.index, report_for(pred, bundle, pred_world, truth_world)))
            if write_svg:
                pred_xy, truth_xy = _aligned_pred_roots(pred_world, truth_world)
                svg.render_topdown(os.path.join(out_dir, f"traj_{bundle.index}.svg"),
                                   truth_xy[:, [0, 2]], pred_xy[:, [0, 2]],
                                   title=f"seq {bundle.index} root path")

    aggregate = {}
    for name in metrics.MetricReport.FIELDS:
        vals = [getattr(r, name) for _, r in rows if not math.isnan(getattr(r, name))]
        aggregate[name] = float(np.mean(vals)) if vals else math.nan

    with atomic_write(os.path.join(out_dir, "metrics.csv"), newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for index, report in rows:
            writer.writerow([index] + [_fmt(getattr(report, n)) for n in metrics.MetricReport.FIELDS]
                            + [json.dumps(report.segments, sort_keys=True),
                               ";".join(report.flags)])
        writer.writerow(["aggregate"] + [_fmt(aggregate[n]) for n in metrics.MetricReport.FIELDS]
                        + ["", ""])
    return aggregate

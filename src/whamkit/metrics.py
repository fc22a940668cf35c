"""Camera-frame and world-frame evaluation metrics.

Camera-frame pose metrics (MPJPE, PA-MPJPE, Accel) operate on per-frame
landmark arrays; world metrics operate on world landmark trajectories.
Distances are reported in millimeters unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geom
from .body import CONTACT_LANDMARKS, CONTACT_THRESHOLD, HIPS
from .errors import InvalidInputError, UndefinedMetricError

MM = 1000.0
SEGMENT_LEN = 100  # frames per world-MPJPE segment


def _check_shapes(pred, truth):
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or pred.ndim != 3:
        raise InvalidInputError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    return pred, truth


def mpjpe(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean per-joint position error (mm) after per-frame pelvis centering."""
    pred, truth = _check_shapes(pred, truth)
    d = (pred - roots(pred)[:, None]) - (truth - roots(truth)[:, None])
    return float(np.linalg.norm(d, axis=-1).mean() * MM)


def pa_mpjpe(pred: np.ndarray, truth: np.ndarray) -> float:
    """MPJPE (mm) after per-frame similarity (Procrustes) alignment, all
    frames aligned by one batched geom.kabsch_align call."""
    pred, truth = _check_shapes(pred, truth)
    tf, s = geom.kabsch_align(pred, truth, with_scale=True)
    aligned = (s[:, None, None] * (pred @ np.swapaxes(tf.rotation, -1, -2))
               + tf.translation[:, None, :])
    return float(np.linalg.norm(aligned - truth, axis=-1).mean(axis=-1).mean() * MM)


def accel_error(pred: np.ndarray, truth: np.ndarray, fps: float) -> float:
    """Mean acceleration difference in m/s^2 (second finite difference)."""
    pred, truth = _check_shapes(pred, truth)
    if pred.shape[0] < 3:
        raise UndefinedMetricError("acceleration error needs at least 3 frames")
    a_p = (pred[2:] - 2.0 * pred[1:-1] + pred[:-2]) * fps * fps
    a_t = (truth[2:] - 2.0 * truth[1:-1] + truth[:-2]) * fps * fps
    return float(np.linalg.norm(a_p - a_t, axis=-1).mean())


def jitter(pred_world: np.ndarray, fps: float) -> float:
    """Motion roughness: mean norm of the third finite difference of world
    positions, in units of 10 m/s^3."""
    x = np.asarray(pred_world, dtype=float)
    if x.shape[0] < 4:
        raise UndefinedMetricError("jitter needs at least 4 frames")
    d3 = x[3:] - 3.0 * x[2:-1] + 3.0 * x[1:-2] - x[:-3]
    return float(np.linalg.norm(d3, axis=-1).mean() * fps ** 3 / 10.0)


def foot_slide(pred_foot_world: np.ndarray, contact_truth: np.ndarray) -> float:
    """Mean per-frame displacement (mm) of foot landmarks over frames whose
    ground-truth contact probability exceeds CONTACT_THRESHOLD."""
    x = np.asarray(pred_foot_world, dtype=float)
    p = np.asarray(contact_truth, dtype=float)
    if x.shape[0] != p.shape[0] or x.shape[1] != p.shape[1]:
        raise InvalidInputError("foot positions and contact truth lengths differ")
    disp = np.linalg.norm(x[1:] - x[:-1], axis=-1)  # (T-1, F)
    mask = p[1:] > CONTACT_THRESHOLD
    if not mask.any():
        raise UndefinedMetricError("no frames in contact")
    return float(disp[mask].mean() * MM)


def roots(world: np.ndarray) -> np.ndarray:
    """(T, 3) root path, the hip midpoints of (T, 21, 3) landmarks."""
    return world[:, HIPS, :].mean(axis=1)


def _yaw_of_heading(h: np.ndarray) -> float:
    """Rotation angle about +y mapping +x onto the ground-plane heading."""
    return math.atan2(-h[2], h[0])


def _forward_yaw(rot: np.ndarray) -> float:
    fwd = rot @ np.array([1.0, 0.0, 0.0])
    return _yaw_of_heading(fwd)


@dataclass
class SegmentDetail:
    start: int
    length: int
    mpjpe_mm: float
    root_sse: float
    flags: list = field(default_factory=list)


def _segments(n: int):
    for start in range(0, n, SEGMENT_LEN):
        stop = min(start + SEGMENT_LEN, n)
        if stop - start >= 2:
            yield start, stop


def world_mpjpe_100(pred_world: np.ndarray, truth_world: np.ndarray, mode: str,
                    pred_rot0: np.ndarray | None = None,
                    truth_rot0: np.ndarray | None = None
                    ) -> tuple[float, list[SegmentDetail]]:
    """World MPJPE (mm) over segments of SEGMENT_LEN frames.

    mode "W": each segment is aligned by its first two frames, a translation
    matching the frame-0 roots plus a gravity-axis yaw matching the heading
    (root_1 - root_0 projected onto the ground plane). When the heading norm
    is below 1 mm the yaw falls back to the frame-0 root orientations (or 0
    if not given) and the segment is flagged. mode "WA": a full-segment rigid
    Procrustes on the root trajectories. The transform is applied to all
    landmarks; the error is the mean over segments of per-segment MPJPE.
    """
    pred, truth = _check_shapes(pred_world, truth_world)
    if mode not in ("W", "WA"):
        raise InvalidInputError(f"unknown world MPJPE mode {mode!r}")
    pred_roots = roots(pred)
    truth_roots = roots(truth)
    details = []
    for start, stop in _segments(pred.shape[0]):
        p, q = pred[start:stop], truth[start:stop]
        pr, qr = pred_roots[start:stop], truth_roots[start:stop]
        flags = []
        if mode == "WA":
            tf, _ = geom.kabsch_align(pr, qr, with_scale=False)
            aligned = p @ tf.rotation.T + tf.translation
            root_aligned = pr @ tf.rotation.T + tf.translation
        else:
            hp = (pr[1] - pr[0]) * [1.0, 0.0, 1.0]
            hq = (qr[1] - qr[0]) * [1.0, 0.0, 1.0]
            if np.linalg.norm(hp) < 1e-3 or np.linalg.norm(hq) < 1e-3:
                flags.append("w_heading_fallback")
                if pred_rot0 is not None and truth_rot0 is not None:
                    yaw = _forward_yaw(truth_rot0) - _forward_yaw(pred_rot0)
                else:
                    yaw = 0.0
            else:
                yaw = _yaw_of_heading(hq) - _yaw_of_heading(hp)
            r = geom.rot_y(yaw)
            aligned = (p - pr[0]) @ r.T + qr[0]
            root_aligned = (pr - pr[0]) @ r.T + qr[0]
        err = np.linalg.norm(aligned - q, axis=-1).mean() * MM
        sse = float(((root_aligned - qr) ** 2).sum())
        details.append(SegmentDetail(start=start, length=stop - start,
                                     mpjpe_mm=float(err), root_sse=sse, flags=flags))
    if not details:
        raise InvalidInputError("no segment of at least 2 frames to evaluate")
    return float(np.mean([d.mpjpe_mm for d in details])), details


def rte(pred_roots: np.ndarray, truth_roots: np.ndarray) -> float:
    """Root translation error over the whole trajectory, percent.

    Rigidly aligns (rotation + translation) the predicted root path to the
    truth, then divides the mean position error by the truth path length.
    """
    p = np.asarray(pred_roots, dtype=float)
    q = np.asarray(truth_roots, dtype=float)
    if p.shape != q.shape or p.ndim != 2:
        raise InvalidInputError("root trajectories must share a (T, 3) shape")
    path_len = float(np.linalg.norm(np.diff(q, axis=0), axis=-1).sum())
    if path_len <= 0.1:
        raise UndefinedMetricError(f"truth path length {path_len:.3f} m is too short")
    tf, _ = geom.kabsch_align(p, q, with_scale=False)
    err = np.linalg.norm(tf.apply(p) - q, axis=-1).mean()
    return float(err / path_len * 100.0)


@dataclass
class MetricReport:
    """All metric values for one evaluated sequence.

    jitter_err is the absolute difference between the prediction's and the
    truth's raw jitter, so a perfect prediction scores zero on every field.
    Metrics undefined for a sequence (RTE on a static subject, FS with no
    contact, Accel under 3 frames, jitter under 4) are NaN and mentioned in
    flags.
    """

    mpjpe: float
    pa_mpjpe: float
    accel_err: float
    w_mpjpe_100: float
    wa_mpjpe_100: float
    rte: float
    jitter_err: float
    fs: float
    segments: list = field(default_factory=list)
    flags: list = field(default_factory=list)

    FIELDS = ("mpjpe", "pa_mpjpe", "accel_err", "w_mpjpe_100",
              "wa_mpjpe_100", "rte", "jitter_err", "fs")

    def values(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}

    def validate(self) -> None:
        if self.pa_mpjpe > self.mpjpe + 1e-9:
            raise InvalidInputError("PA-MPJPE exceeds MPJPE")
        for name, v in self.values().items():
            if not math.isnan(v) and v < 0:
                raise InvalidInputError(f"negative metric {name}")


def _or_nan(compute, flag: str, flags: list) -> float:
    """compute(), or NaN with flag appended to flags when the metric is
    undefined for the sequence."""
    try:
        return compute()
    except UndefinedMetricError:
        flags.append(flag)
        return math.nan


def compute_report(pred_local: np.ndarray, truth_local: np.ndarray,
                   pred_world: np.ndarray, truth_world: np.ndarray,
                   truth_contacts: np.ndarray, fps: float,
                   pred_rot0: np.ndarray | None = None,
                   truth_rot0: np.ndarray | None = None) -> MetricReport:
    """Full metric suite for one sequence (local = root-relative landmarks)."""
    w_val, w_det = world_mpjpe_100(pred_world, truth_world, "W",
                                   pred_rot0=pred_rot0, truth_rot0=truth_rot0)
    wa_val, wa_det = world_mpjpe_100(pred_world, truth_world, "WA")
    flags = [f for d in w_det for f in d.flags]
    rte_val = _or_nan(lambda: rte(roots(pred_world), roots(truth_world)), "rte_undefined", flags)
    accel_val = _or_nan(lambda: accel_error(pred_local, truth_local, fps), "accel_undefined",
                        flags)
    jitter_val = _or_nan(lambda: abs(jitter(pred_world, fps) - jitter(truth_world, fps)),
                         "jitter_undefined", flags)
    feet = list(CONTACT_LANDMARKS)
    fs_val = _or_nan(lambda: foot_slide(pred_world[:, feet, :], truth_contacts), "fs_undefined",
                     flags)
    report = MetricReport(
        mpjpe=mpjpe(pred_local, truth_local),
        pa_mpjpe=pa_mpjpe(pred_local, truth_local),
        accel_err=accel_val,
        w_mpjpe_100=w_val,
        wa_mpjpe_100=wa_val,
        rte=rte_val,
        jitter_err=jitter_val,
        fs=fs_val,
        segments=[{"mode": "W", **d.__dict__} for d in w_det]
                 + [{"mode": "WA", **d.__dict__} for d in wa_det],
        flags=flags)
    report.validate()
    return report

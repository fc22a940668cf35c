"""Training objective: motion-reconstruction and trajectory terms.

Every term but contact is a mean over frames and batch (and landmarks where
applicable) of a squared error. The contact term is the mean Bernoulli KL
divergence from the soft labels to the predicted probabilities, taken on
the logits: a saturated wrong prediction still gets gradient p - y, where a
squared error through the sigmoid would vanish. Every term is therefore
nonnegative and exactly zero at ground truth. The weighted total is linear
in each weight. Rotation terms use the squared Frobenius distance between
rotation matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, asdict

import numpy as np

from . import autodiff as ad
from . import rotops
from .autodiff import Tensor
from .body import NUM_KEYPOINTS_2D
from .errors import InvalidInputError, NumericError
from .model import FOOT_SLICE, ForwardOutputs

MIN_REPROJECTION_DEPTH = 1e-3
DEPTH_HINGE = 0.1  # soft floor (m) pushing early depth predictions positive


@dataclass
class LossWeights:
    """Loss term coefficients. Zeroing a weight removes its gradient while
    the raw term still appears in the breakdown."""

    pose: float = 1.0
    shape: float = 0.1
    kp3d: float = 1.0
    kp2d: float = 1.0
    cascade: float = 0.5
    root_rot: float = 1.0
    root_vel: float = 1.0
    contact: float = 1.0
    ang_vel: float = 0.5
    cam_rot: float = 0.5
    foot_slide: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise InvalidInputError(f"loss weight {f.name} must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)


def _mean_sq_norm(diff: Tensor) -> Tensor:
    """Mean over all leading axes of the squared norm over the last axis."""
    return ad.tmean(ad.tsum(ad.square(diff), axis=-1))


def _mean_sq(diff: Tensor) -> Tensor:
    return ad.tmean(ad.square(diff))


def reprojection_loss(cam_points: Tensor, kp_px: np.ndarray, visible: np.ndarray,
                      focal: np.ndarray, cx: np.ndarray, cy: np.ndarray,
                      image_w: float) -> tuple[Tensor, int]:
    """Full-perspective reprojection error, normalized by image width.

    cam_points (T, B, 17, 3) are predicted camera-frame landmarks; kp_px and
    visible give the pixel targets and their mask. Depths are clamped at
    MIN_REPROJECTION_DEPTH instead of failing, and a hinge on shallow depths
    keeps gradients pushing the prediction in front of the camera. Returns
    the loss and the visible-landmark count (0 means the term is zero and
    carries no signal).
    """
    b = cam_points.shape[1]
    z = cam_points[..., 2:3]
    z_safe = ad.clip(z, MIN_REPROJECTION_DEPTH, None)
    center = np.stack([cx, cy], axis=-1).reshape(1, b, 1, 2)
    pred = cam_points[..., :2] / z_safe * Tensor(focal.reshape(1, b, 1, 1)) + Tensor(center)
    err = (pred - Tensor(kp_px)) * (1.0 / image_w)
    weights = visible.astype(float)[..., None]
    count = int(visible.sum())
    if count == 0:
        return ad.tsum(err * 0.0), 0
    sq = ad.tsum(ad.square(err) * Tensor(weights), axis=-1)
    loss = ad.tsum(sq) * (1.0 / count)
    hinge = _mean_sq(ad.relu(DEPTH_HINGE - z))
    return loss + hinge, count


def contact_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean of KL(y || sigmoid(z)) over frames, batch and contact channels.

    Per element this is the cross-entropy softplus(z) - y z minus the label
    entropy H(y), so it is zero where sigmoid(z) = y, soft labels included,
    and its gradient in z is sigmoid(z) - y.
    """
    y = np.asarray(labels, dtype=float)
    entropy = -(y * np.log(np.where(y > 0.0, y, 1.0))
                + (1.0 - y) * np.log(np.where(y < 1.0, 1.0 - y, 1.0)))
    return ad.tmean(ad.softplus(logits) - logits * Tensor(y) - Tensor(entropy))


def foot_sliding_loss(foot_velocities: Tensor, contact_truth: np.ndarray) -> Tensor:
    """Contact-masked squared foot speed, averaged over frames and feet.

    foot_velocities is (T-1, B, 4, 3) world displacement per frame;
    contact_truth (T-1, B, 4) masks it before squaring.
    """
    masked = foot_velocities * Tensor(contact_truth[..., None])
    return _mean_sq_norm(masked)


def predicted_camera_rotation(out: ForwardOutputs) -> Tensor:
    """Camera orientation implied by the two predicted root orientations:
    R = Gamma_cam @ Gamma_world^T."""
    return ad.matmul(out.cam_root_rot, ad.swap_last(out.root_rot))


def total_loss(out: ForwardOutputs, truth: dict, weights: LossWeights) -> tuple[Tensor, dict]:
    """Weighted training objective and per-term breakdown.

    truth is a dict of numpy arrays: local_pose (T,B,21,3), bone_scales
    (B,20), root_rot (T,B,3,3), root_vel (T,B,3), contacts (T,B,4), cam_rot
    (T,B,3,3), omega (T,B,3), kp_px (T,B,17,2), kp_vis (T,B,17), focal/cx/cy
    (B,), image_w (scalar).
    """
    t, b = out.vel0.shape[0], out.vel0.shape[1]
    pose_t = Tensor(truth["local_pose"])

    terms: dict[str, Tensor] = {}
    terms["pose"] = _mean_sq_norm(out.local_pose - pose_t)
    terms["shape"] = _mean_sq(out.bone_scales - Tensor(truth["bone_scales"][None, :, :]))
    terms["kp3d"] = _mean_sq_norm(out.kp3d_cascade - pose_t) + terms["pose"]
    terms["cascade"] = _mean_sq_norm(out.kp3d_cascade - out.local_pose)

    cam_pts = (ad.matmul(out.local_pose[:, :, :NUM_KEYPOINTS_2D, :],
                         ad.swap_last(out.cam_root_rot))
               + ad.reshape(out.cam_root_pos, (t, b, 1, 3)))
    terms["kp2d"], _ = reprojection_loss(cam_pts, truth["kp_px"], truth["kp_vis"],
                                         truth["focal"], truth["cx"], truth["cy"],
                                         truth["image_w"])

    # A (T, B, 3, 3) rotation difference as (T, B, 9) rows, whose squared
    # norm is the squared Frobenius norm.
    rows = lambda diff: ad.reshape(diff, (t, b, 9))
    rot_t = Tensor(truth["root_rot"])
    vel_t = Tensor(truth["root_vel"])
    terms["root_rot"] = (_mean_sq_norm(rows(out.root_rot0 - rot_t))
                         + _mean_sq_norm(rows(out.root_rot - rot_t)))
    terms["root_vel"] = _mean_sq_norm(out.vel0 - vel_t) + _mean_sq_norm(out.vel - vel_t)
    terms["contact"] = contact_loss(out.contact_logit, truth["contacts"])

    cam_rot_pred = predicted_camera_rotation(out)
    terms["cam_rot"] = _mean_sq_norm(rows(cam_rot_pred - Tensor(truth["cam_rot"])))
    rel = ad.matmul(ad.swap_last(cam_rot_pred[:-1]), cam_rot_pred[1:])
    omega_pred = rotops.so3_log(rel)
    terms["ang_vel"] = _mean_sq_norm(omega_pred - Tensor(truth["omega"][1:]))

    feet_w = (ad.matmul(out.local_pose[:, :, FOOT_SLICE, :], ad.swap_last(out.root_rot))
              + ad.reshape(out.root_pos, (t, b, 1, 3)))
    terms["foot_slide"] = foot_sliding_loss(feet_w[1:] - feet_w[:-1],
                                            truth["contacts"][:-1])

    total = None
    breakdown = {}
    for name, term in terms.items():
        value = term.item()
        if not np.isfinite(value):
            raise NumericError(f"loss term {name!r} is non-finite")
        breakdown[name] = value
        weighted = term * getattr(weights, name)
        total = weighted if total is None else total + weighted
    breakdown["total"] = total.item()
    return total, breakdown

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


def _mean_sq_error(pred: Tensor, target, norm_axes: int = 1) -> Tensor:
    """Mean over the leading axes of the squared norm of pred - target over
    its last norm_axes axes (the plain squares when norm_axes is 0).

    One tape node: its backward recomputes the difference, so the node
    keeps no array of its own. The forward and the backward run the
    operations of the composed subtract, square, sum and mean nodes in
    their order, which keeps the value and the gradients bit-identical."""
    pred, target = ad.as_tensor(pred), ad.as_tensor(target)
    diff = pred.data - target.data
    if norm_axes:
        diff = diff.reshape(diff.shape[:diff.ndim - norm_axes] + (-1,))
    sq = diff * diff
    if norm_axes:
        sq = sq.sum(axis=-1)
    count = sq.size

    def bw(g):
        diff = pred.data - target.data
        gd = g / count * 2.0 * diff
        return (ad._unbroadcast(gd, pred.shape) if pred.requires_grad else None,
                ad._unbroadcast(-gd, target.shape) if target.requires_grad else None)

    return ad._node(sq.mean(), (pred, target), bw)


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
    weights = visible.astype(float)[..., None]
    count = int(visible.sum())
    if count == 0:
        return ad.tsum((pred - Tensor(kp_px)) * (1.0 / image_w) * 0.0), 0
    # The visibility-weighted squared error is one tape node: like
    # _mean_sq_error, its backward recomputes the error, and its value and
    # gradient are those of the composed ops bit for bit.
    scale, norm = 1.0 / image_w, 1.0 / count
    err = (pred.data - kp_px) * scale
    loss = ad._node(((err * err) * weights).sum(axis=-1).sum() * norm, (pred,),
                    lambda g: (g * norm * weights * 2.0 * ((pred.data - kp_px) * scale) * scale,))
    hinge = _mean_sq_error(ad.relu(DEPTH_HINGE - z), 0.0, norm_axes=0)
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
    return _mean_sq_error(masked, 0.0)


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
    terms["pose"] = _mean_sq_error(out.local_pose, pose_t)
    terms["shape"] = _mean_sq_error(out.bone_scales, truth["bone_scales"][None, :, :],
                                    norm_axes=0)
    terms["kp3d"] = _mean_sq_error(out.kp3d_cascade, pose_t) + terms["pose"]
    terms["cascade"] = _mean_sq_error(out.kp3d_cascade, out.local_pose)

    cam_pts = (ad.matmul(out.local_pose[:, :, :NUM_KEYPOINTS_2D, :],
                         ad.swap_last(out.cam_root_rot))
               + ad.reshape(out.cam_root_pos, (t, b, 1, 3)))
    terms["kp2d"], _ = reprojection_loss(cam_pts, truth["kp_px"], truth["kp_vis"],
                                         truth["focal"], truth["cx"], truth["cy"],
                                         truth["image_w"])

    # Rotation terms take the squared Frobenius norm over the last two axes.
    rot_t = Tensor(truth["root_rot"])
    vel_t = Tensor(truth["root_vel"])
    terms["root_rot"] = (_mean_sq_error(out.root_rot0, rot_t, norm_axes=2)
                         + _mean_sq_error(out.root_rot, rot_t, norm_axes=2))
    terms["root_vel"] = _mean_sq_error(out.vel0, vel_t) + _mean_sq_error(out.vel, vel_t)
    terms["contact"] = contact_loss(out.contact_logit, truth["contacts"])

    cam_rot_pred = predicted_camera_rotation(out)
    terms["cam_rot"] = _mean_sq_error(cam_rot_pred, truth["cam_rot"], norm_axes=2)
    rel = ad.matmul(ad.swap_last(cam_rot_pred[:-1]), cam_rot_pred[1:])
    omega_pred = rotops.so3_log(rel)
    terms["ang_vel"] = _mean_sq_error(omega_pred, truth["omega"][1:])

    feet_w = (ad.matmul(out.local_pose[:, :, FOOT_SLICE, :], ad.swap_last(out.root_rot))
              + ad.reshape(out.root_pos, (t, b, 1, 3)))
    terms["foot_slide"] = foot_sliding_loss(feet_w[1:] - feet_w[:-1],
                                            truth["contacts"][:-1])

    breakdown = {}
    for name, term in terms.items():
        value = term.item()
        if not np.isfinite(value):
            raise NumericError(f"loss term {name!r} is non-finite")
        breakdown[name] = value
    total = _weighted_sum(terms, weights)
    breakdown["total"] = total.item()
    return total, breakdown


def _weighted_sum(terms: dict[str, Tensor], weights: LossWeights) -> Tensor:
    """The sum over terms of term * its weight, as one tape node. The forward
    multiplies and adds in the order of the composed multiply and add nodes,
    and each term's gradient is the output gradient times its weight, as
    theirs is, so value and gradients are bit-identical."""
    coeffs = [getattr(weights, name) for name in terms]
    total = None
    for term, c in zip(terms.values(), coeffs):
        weighted = term.data * c
        total = weighted if total is None else total + weighted
    return ad._node(total, tuple(terms.values()), lambda g: tuple(g * c for c in coeffs))

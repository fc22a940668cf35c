"""Synthetic training data: virtual camera motion, projected 2D keypoint
sequences with noise and masking, contact labels, and proxy visual features.

Every function is a deterministic function of its inputs and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import geom
from .body import (CONTACT_LANDMARKS, NUM_KEYPOINTS_2D, NUM_LANDMARKS, MotionSequence,
                   world_landmarks)
from .constants import CAMERA_BASE
from .errors import InvalidInputError, SynthesisError

CONTACT_VEL_THRESHOLD = 0.01  # m/frame at which contact probability is 0.5
CONTACT_STEEPNESS = 5.0


@dataclass
class SynthConfig:
    """Distribution parameters of the synthesis pipeline.

    Angles are degrees, translations meters, pixel noise pixels. Setting a
    std (or a degenerate depth range) to zero collapses that draw to its
    mean, which is useful for tests.
    """

    seq_len: int = 81
    focal: float = 500.0
    image_w: float = 1000.0
    image_h: float = 1000.0
    pitch_mean_deg: float = 5.0
    pitch_std_deg: float = 22.5
    roll_std_deg: float = 5.0
    depth_min: float = 2.0
    depth_max: float = 12.0
    lateral_std: float = 0.25
    dyaw_std_deg: float = 45.0
    dpitch_std_deg: float = 22.5
    droll_std_deg: float = 22.5
    dtrans_std: float = 1.0
    timestamp_noise: float = 0.2
    min_subject_depth: float = 1.2
    noise_std_px: float = 2.0
    mask_prob: float = 0.15
    bbox_margin: float = 0.2
    feature_dim: int = 32
    feature_noise_std: float = 0.05
    speed_min: float = 0.5
    speed_max: float = 1.5
    shape_noise_std: float = 0.1
    gait_kinds: tuple = ("walk", "turn", "stairs", "stand")
    gait_weights: tuple = (0.4, 0.25, 0.25, 0.1)
    fps: float = 30.0

    def __post_init__(self):
        if not 0.0 <= self.mask_prob <= 1.0:
            raise InvalidInputError("mask_prob must lie in [0, 1]")
        if self.seq_len < 2:
            raise InvalidInputError("seq_len must be >= 2")
        weights = self.gait_weights
        if (len(weights) != len(self.gait_kinds) or any(w < 0 for w in weights)
                or not sum(weights) > 0):
            raise InvalidInputError("gait_weights needs one nonnegative weight per gait "
                                    "kind, with a positive sum")

    def pinhole(self) -> geom.Pinhole:
        return geom.Pinhole(f=self.focal, w=self.image_w, h=self.image_h)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["gait_kinds"] = list(self.gait_kinds)
        d["gait_weights"] = list(self.gait_weights)
        return d


@dataclass
class CameraTrajectory:
    """Per-frame pinhole extrinsics with derived angular velocity."""

    pinhole: geom.Pinhole
    rotations: np.ndarray      # (T, 3, 3), x_cam = R @ x_world + T_cam
    translations: np.ndarray   # (T, 3)
    omega: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.omega is None:
            self.omega = geom.angular_velocity(self.rotations)

    @property
    def num_frames(self) -> int:
        return self.rotations.shape[0]


@dataclass
class KeypointSequence2D:
    """Normalized 2D keypoints with visibility and bounding-box conditioning.

    keypoints are normalized to the per-frame box: (px - center) / (scale/2),
    so visible landmarks lie in [-1, 1]. center is normalized by (w, h) and
    scale by w. Masked entries are zero-filled with mask bit 0. carried marks
    frames whose box was copied from the previous frame (< 2 visible points).
    """

    image_w: float
    image_h: float
    keypoints: np.ndarray  # (T, 17, 2)
    mask: np.ndarray       # (T, 17) 1 = visible
    center: np.ndarray     # (T, 2)
    scale: np.ndarray      # (T,)
    carried: np.ndarray    # (T,) bool

    @property
    def num_frames(self) -> int:
        return self.keypoints.shape[0]

    def to_pixels(self) -> np.ndarray:
        """Invert the box normalization; masked entries are meaningless."""
        cx = self.center[:, 0] * self.image_w
        cy = self.center[:, 1] * self.image_h
        half = 0.5 * self.scale * self.image_w
        px = self.keypoints * half[:, None, None]
        px[..., 0] += cx[:, None]
        px[..., 1] += cy[:, None]
        return px


def max_lateral_displacement(pinhole: geom.Pinhole, depth: float) -> float:
    """Largest camera offset keeping a point at the given depth in view:
    d = w * depth / (2 f)."""
    return pinhole.w * depth / (2.0 * pinhole.f)


def apply_root_yaw(seq: MotionSequence, yaw: float) -> MotionSequence:
    """Rotate a whole motion about the world up axis (data augmentation)."""
    r = geom.rot_y(yaw)
    return MotionSequence(fps=seq.fps, local_pose=seq.local_pose.copy(),
                          bone_scales=seq.bone_scales.copy(),
                          root_rot=np.einsum("ij,tjk->tik", r, seq.root_rot),
                          root_pos=seq.root_pos @ r.T,
                          contacts=seq.contacts.copy())


def _initial_rotation(roll: float, pitch: float) -> np.ndarray:
    return geom.rot_z(roll) @ geom.rot_x(pitch) @ CAMERA_BASE


def synth_camera(seq: MotionSequence, pinhole: geom.Pinhole, cfg: SynthConfig,
                 seed: int = 0) -> CameraTrajectory:
    """Sample a moving virtual camera observing the subject.

    The initial pose draws roll and pitch from Gaussians and places the
    subject at a uniform depth with Gaussian lateral offsets proportional to
    the in-view displacement bound d = w * depth / 2f. Endpoint deltas on the
    Euler angles and translation define a final pose; the path interpolates
    between the two (geodesic rotation, linear translation) at jittered
    timestamps. Draws are rejected (up to 100 times) until the frame-0 root
    projects inside the image and the root stays in front of the camera.
    """
    n = seq.num_frames
    if n < 2:
        raise InvalidInputError("camera synthesis needs a sequence of >= 2 frames")
    rng = np.random.default_rng(seed)
    root0 = seq.root_pos[0]
    roots = seq.root_pos

    for _ in range(100):
        roll = math.radians(rng.normal(0.0, cfg.roll_std_deg))
        pitch = math.radians(rng.normal(cfg.pitch_mean_deg, cfg.pitch_std_deg))
        r0 = _initial_rotation(roll, pitch)
        depth = rng.uniform(cfg.depth_min, cfg.depth_max)
        d = max_lateral_displacement(pinhole, depth)
        rt = r0 @ root0
        t0 = np.array([rng.normal(0.0, cfg.lateral_std) * d - rt[0],
                       rng.normal(0.0, cfg.lateral_std) * d - rt[1],
                       depth - rt[2]])

        dyaw = math.radians(rng.normal(0.0, cfg.dyaw_std_deg))
        droll = math.radians(rng.normal(0.0, cfg.droll_std_deg))
        dpitch = math.radians(rng.normal(0.0, cfg.dpitch_std_deg))
        r_end = (geom.rot_z(roll + droll) @ geom.rot_x(pitch + dpitch)
                 @ geom.rot_y(dyaw) @ CAMERA_BASE)
        t_end = t0 + rng.normal(0.0, cfg.dtrans_std, size=3)

        # Jittered interpolation timestamps; steps of 1 +- 2*noise stay
        # monotone for noise < 0.5. Endpoints are pinned.
        stamps = (np.arange(n) + cfg.timestamp_noise * rng.uniform(-1.0, 1.0, size=n)) / (n - 1)
        stamps[0], stamps[-1] = 0.0, 1.0

        rotations = geom.slerp(r0, r_end, stamps)
        translations = t0 + stamps[:, None] * (t_end - t0)

        root_cam0 = rotations[0] @ root0 + translations[0]
        if root_cam0[2] <= geom.MIN_PROJECT_DEPTH:
            continue
        uv = geom.project(pinhole, root_cam0[None, :])[0]
        if not (0.0 <= uv[0] <= pinhole.w and 0.0 <= uv[1] <= pinhole.h):
            continue
        depths = np.einsum("tij,tj->ti", rotations, roots)[:, 2] + translations[:, 2]
        if depths.min() < cfg.min_subject_depth:
            continue
        return CameraTrajectory(pinhole=pinhole, rotations=rotations, translations=translations)

    raise SynthesisError("no camera draw kept the subject in view after 100 attempts")


def synth_keypoints(seq: MotionSequence, cams: CameraTrajectory, cfg: SynthConfig,
                    seed: int = 0) -> KeypointSequence2D:
    """Project, corrupt, and box-normalize the 17 COCO keypoints.

    Pipeline, over all frames at once: world -> camera -> pixels, additive
    Gaussian pixel noise, independent masking with probability
    cfg.mask_prob, tight box over each frame's visible points grown by
    cfg.bbox_margin, box normalization. Points at or behind the camera plane
    are masked rather than projected. Frames with fewer than two visible
    points reuse the latest earlier box (the image-centered half-width box
    before the first) and get the carried flag; visible points falling
    outside a carried box are re-masked to keep normalized coordinates in
    [-1, 1].
    """
    n = seq.num_frames
    if cams.num_frames != n:
        raise InvalidInputError("sequence and camera trajectory lengths differ")
    rng = np.random.default_rng(seed)
    world = world_landmarks(seq)[:, :NUM_KEYPOINTS_2D]

    # Fixed-size draws keep the stream layout independent of visibility.
    pixel_noise = rng.normal(0.0, 1.0, size=(n, NUM_KEYPOINTS_2D, 2))
    mask_draw = rng.uniform(0.0, 1.0, size=(n, NUM_KEYPOINTS_2D))

    w, h = cams.pinhole.w, cams.pinhole.h
    cam_pts = world @ np.swapaxes(cams.rotations, -1, -2) + cams.translations[:, None, :]
    in_front = cam_pts[..., 2] > geom.MIN_PROJECT_DEPTH
    px = np.zeros((n, NUM_KEYPOINTS_2D, 2))
    px[in_front] = geom.project(cams.pinhole, cam_pts[in_front])
    px += cfg.noise_std_px * pixel_noise
    visible = in_front & (mask_draw >= cfg.mask_prob)

    # Box 0 is the initial box and box k the k-th frame with its own box, so
    # the count of such frames up to t picks frame t's box.
    own = visible.sum(axis=1) >= 2
    own_px, own_vis = px[own], visible[own][..., None]
    lo = np.where(own_vis, own_px, np.inf).min(axis=1)
    hi = np.where(own_vis, own_px, -np.inf).max(axis=1)
    side = (1.0 + cfg.bbox_margin) * np.maximum((hi - lo).max(axis=1), 1e-6)
    pick = np.cumsum(own)
    center_px = np.vstack([[w / 2.0, h / 2.0], 0.5 * (lo + hi)])[pick]
    scale_px = np.concatenate([[w / 2.0], np.maximum(side, 1.0)])[pick]

    half = 0.5 * scale_px[:, None, None]
    norm = (px - center_px[:, None]) / half
    visible &= own[:, None] | (np.abs(norm).max(axis=2) <= 1.0)
    kp = np.where(visible[..., None], norm, 0.0)
    return KeypointSequence2D(image_w=w, image_h=h, keypoints=kp,
                              mask=visible.astype(np.uint8), center=center_px / [w, h],
                              scale=scale_px / w, carried=~own)


def contact_probability(velocity: np.ndarray) -> np.ndarray:
    """Soft contact label from foot speed (m/frame): a falling logistic with
    value 0.5 exactly at the threshold speed."""
    v = np.asarray(velocity, dtype=float)
    z = CONTACT_STEEPNESS * (v - CONTACT_VEL_THRESHOLD) / CONTACT_VEL_THRESHOLD
    return 1.0 / (1.0 + np.exp(z))


def generate_contact_labels(seq: MotionSequence) -> np.ndarray:
    """Per-frame soft contact labels for the four foot landmarks.

    Uses only foot speed (per-frame displacement of the toe and heel
    landmarks); frame 0 copies frame 1.
    """
    if seq.num_frames < 2:
        raise InvalidInputError("contact labels need at least 2 frames")
    world = world_landmarks(seq)[:, list(CONTACT_LANDMARKS)]
    disp = np.linalg.norm(np.diff(world, axis=0), axis=-1)  # (T-1, 4)
    vel = np.concatenate([disp[:1], disp], axis=0)
    return contact_probability(vel)


def feature_matrix(dim: int, seed: int) -> np.ndarray:
    """Fixed random encoding matrix shared across a dataset."""
    if dim < 1:
        raise InvalidInputError("feature dim must be >= 1")
    in_dim = 3 * NUM_LANDMARKS
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / math.sqrt(in_dim), size=(dim, in_dim))


def synth_visual_features(seq: MotionSequence, dim: int, noise_std: float,
                          seed: int = 0, matrix_seed: int | None = None) -> np.ndarray:
    """Proxy per-frame visual features: a fixed linear encoding of the local
    pose plus Gaussian noise. Stands in for an image-encoder channel so the
    feature-integration path has informative input."""
    a = feature_matrix(dim, seed if matrix_seed is None else matrix_seed)
    flat = seq.local_pose.reshape(seq.num_frames, -1)
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, 1.0, size=(seq.num_frames, dim))
    return flat @ a.T + noise_std * eps

"""Landmark skeleton, ground-truth motion container, and a procedural gait
generator used as the motion-capture source for synthetic training data.

The skeleton has 21 landmarks: the 17 COCO-style joints plus toe and heel
landmarks on each foot. The root is the pelvis, defined as the midpoint of
the hips; local poses are expressed in the root frame (x forward, y up).

The gait generator is footstep-driven: foot plants are placed along the root
path and the whole foot triangle (ankle, heel, toe) is held rigidly fixed in
world coordinates for the duration of each stance, so stance-foot velocity is
exactly zero by construction. Knees are solved with two-bone analytic IK, so
bone lengths match the scaled rest lengths to float precision on every frame.
The generator has no per-frame loop: the root path, arm swing, foot plan
(each frame's plant index by `floor`, stance or swing by `where`) and IK are
computed over whole (T, ...) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import geom
from .errors import InvalidInputError, SynthesisError

LANDMARK_NAMES = (
    "nose", "left_eye", "right_eye", "left_ear", "right_ear",
    "left_shoulder", "right_shoulder", "left_elbow", "right_elbow",
    "left_wrist", "right_wrist", "left_hip", "right_hip",
    "left_knee", "right_knee", "left_ankle", "right_ankle",
    "left_toe", "right_toe", "left_heel", "right_heel",
)
NUM_LANDMARKS = len(LANDMARK_NAMES)
NUM_KEYPOINTS_2D = 17  # the COCO subset, used for 2D projection

L = {name: i for i, name in enumerate(LANDMARK_NAMES)}

HIPS = [L["left_hip"], L["right_hip"]]  # the root is their midpoint

# Contact channel order follows landmark order 17..20, which FOOT_SLICE
# picks as a basic slice (a gather would move the tape's getitem backward to
# np.add.at); a landmark is in contact where p > CONTACT_THRESHOLD.
CONTACT_LANDMARKS = (L["left_toe"], L["right_toe"], L["left_heel"], L["right_heel"])
FOOT_SLICE = slice(CONTACT_LANDMARKS[0], CONTACT_LANDMARKS[-1] + 1)
CONTACT_THRESHOLD = 0.5

# Canonical rest positions in the root frame (meters), standing upright.
# Pelvis (midpoint of hips) at the origin, ground at y = -0.93.
CANONICAL = np.array([
    [0.10, 0.63, 0.00],    # nose
    [0.11, 0.68, 0.03],    # left_eye
    [0.11, 0.68, -0.03],   # right_eye
    [0.02, 0.66, 0.07],    # left_ear
    [0.02, 0.66, -0.07],   # right_ear
    [0.00, 0.52, 0.18],    # left_shoulder
    [0.00, 0.52, -0.18],   # right_shoulder
    [0.00, 0.24, 0.20],    # left_elbow
    [0.00, 0.24, -0.20],   # right_elbow
    [0.00, -0.02, 0.21],   # left_wrist
    [0.00, -0.02, -0.21],  # right_wrist
    [0.00, 0.00, 0.10],    # left_hip
    [0.00, 0.00, -0.10],   # right_hip
    [0.00, -0.42, 0.10],   # left_knee
    [0.00, -0.42, -0.10],  # right_knee
    [0.00, -0.85, 0.10],   # left_ankle
    [0.00, -0.85, -0.10],  # right_ankle
    [0.15, -0.93, 0.10],   # left_toe
    [0.15, -0.93, -0.10],  # right_toe
    [-0.06, -0.93, 0.10],  # left_heel
    [-0.06, -0.93, -0.10], # right_heel
])

# Bone tree over the 21 landmarks, rooted at left_hip. 20 bones.
BONES = (
    ("left_hip", "right_hip"),
    ("left_hip", "left_knee"),
    ("left_knee", "left_ankle"),
    ("left_ankle", "left_heel"),
    ("left_ankle", "left_toe"),
    ("right_hip", "right_knee"),
    ("right_knee", "right_ankle"),
    ("right_ankle", "right_heel"),
    ("right_ankle", "right_toe"),
    ("left_hip", "left_shoulder"),
    ("right_hip", "right_shoulder"),
    ("left_shoulder", "left_elbow"),
    ("left_elbow", "left_wrist"),
    ("right_shoulder", "right_elbow"),
    ("right_elbow", "right_wrist"),
    ("left_shoulder", "nose"),
    ("nose", "left_eye"),
    ("nose", "right_eye"),
    ("left_eye", "left_ear"),
    ("right_eye", "right_ear"),
)
NUM_BONES = len(BONES)
BONE_INDEX = {pair: i for i, pair in enumerate(BONES)}
BONE_PARENTS = np.array([L[p] for p, _ in BONES])
BONE_CHILDREN = np.array([L[c] for _, c in BONES])
REST_LENGTHS = np.linalg.norm(CANONICAL[BONE_CHILDREN] - CANONICAL[BONE_PARENTS], axis=1)

SKELETON_VERSION = "coco17+feet4/v1"

GAIT_KINDS = ("walk", "turn", "stairs", "stand")

# Gait configuration values (not biomechanical claims).
STEP_LENGTH = 0.6        # m, per step at unit scale
CADENCE = 1.8            # steps per second
DUTY_FACTOR = 0.6        # stance fraction of one foot cycle
STAIR_RISE = 0.17        # m per tread
SWING_CLEARANCE = 0.05   # m foot lift at mid swing
TURN_RATE = 0.45         # rad/s heading change for the turn gait
BOB_AMPLITUDE = 0.012    # m vertical pelvis oscillation (walk and turn)


def bone_lengths(local_pose: np.ndarray) -> np.ndarray:
    """Measured bone lengths of a (21, 3) or (T, 21, 3) local pose."""
    pose = np.asarray(local_pose, dtype=float)
    return np.linalg.norm(pose[..., BONE_CHILDREN, :] - pose[..., BONE_PARENTS, :], axis=-1)


def scales_from_pose(local_pose: np.ndarray) -> np.ndarray:
    """Per-bone scales recovered from measured bone lengths."""
    return bone_lengths(local_pose) / REST_LENGTHS


@dataclass
class MotionSequence:
    """Ground-truth world motion of one subject.

    local_pose   (T, 21, 3) root-frame landmark positions, pelvis at origin
    bone_scales  (20,) positive multipliers on the rest bone lengths
    root_rot     (T, 3, 3) world root orientation per frame
    root_pos     (T, 3) world root translation per frame, meters
    contacts     (T, 4) contact truth in [0, 1], channels CONTACT_LANDMARKS
    fps          frames per second
    """

    fps: float
    local_pose: np.ndarray
    bone_scales: np.ndarray
    root_rot: np.ndarray
    root_pos: np.ndarray
    contacts: np.ndarray

    @property
    def num_frames(self) -> int:
        return self.local_pose.shape[0]

    def validate(self, tol: float = 1e-6) -> None:
        t = self.num_frames
        if t < 2:
            raise InvalidInputError("motion sequence needs at least 2 frames")
        if self.local_pose.shape != (t, NUM_LANDMARKS, 3):
            raise InvalidInputError("local_pose shape mismatch")
        mid_hip = self.local_pose[:, HIPS].mean(axis=1)
        if np.abs(mid_hip).max() > tol:
            raise InvalidInputError("pelvis (hip midpoint) must sit at the root-frame origin")
        if not np.isfinite(world_landmarks(self)).all():
            raise InvalidInputError("non-finite world landmarks")
        if self.contacts.min() < -1e-12 or self.contacts.max() > 1 + 1e-12:
            raise InvalidInputError("contact values must lie in [0, 1]")


def world_landmarks(motion) -> np.ndarray:
    """(T, 21, 3) world landmark positions of a MotionSequence or a
    WhamOutput: its local_pose placed by its root_rot and root_pos."""
    return (np.einsum("tij,tkj->tki", motion.root_rot, motion.local_pose)
            + motion.root_pos[:, None, :])


def _smoothstep(u: np.ndarray | float):
    return u * u * (3.0 - 2.0 * u)


def _two_bone_ik(hip: np.ndarray, ankle: np.ndarray, l1: np.ndarray,
                 l2: np.ndarray) -> np.ndarray:
    """Knee positions (..., 3) for hip and ankle positions (..., 3) and
    segment lengths l1, l2 broadcast over the leading axes, bending toward
    +x projected perpendicular to the hip-ankle axis (toward +y where that
    axis is x). The first unreachable target in row-major order raises
    SynthesisError."""
    d = ankle - hip
    dist, l1, l2 = np.broadcast_arrays(np.linalg.norm(d, axis=-1), l1, l2)
    bad = (dist >= l1 + l2 - 1e-9) | (dist <= np.abs(l1 - l2) + 1e-9)
    if bad.any():
        i = np.argmax(bad)
        raise SynthesisError(f"leg target unreachable: |hip-ankle|={dist.flat[i]:.4f}, "
                             f"segments {l1.flat[i]:.4f}+{l2.flat[i]:.4f}")
    dhat = d / dist[..., None]
    a = (l1 * l1 - l2 * l2 + dist * dist) / (2.0 * dist)
    r = np.sqrt(np.maximum(l1 * l1 - a * a, 0.0))
    w = np.array([1.0, 0.0, 0.0]) - dhat[..., :1] * dhat
    w_up = np.array([0.0, 1.0, 0.0]) - dhat[..., 1:2] * dhat
    w = np.where(np.linalg.norm(w, axis=-1, keepdims=True) < 1e-9, w_up, w)
    return hip + a[..., None] * dhat + (r / np.linalg.norm(w, axis=-1))[..., None] * w


def generate_gait(kind: str, num_frames: int, fps: float = 30.0, seed: int = 0,
                  bone_scales: np.ndarray | None = None) -> MotionSequence:
    """Deterministic procedural gait of the given kind.

    Contact truth comes from the generator's own stance schedule, eroded by
    one frame on each side so that both backward and forward frame
    differences of a contact-labeled foot are exactly zero.
    """
    if kind not in GAIT_KINDS:
        raise InvalidInputError(f"unknown gait kind {kind!r}, expected one of {GAIT_KINDS}")
    if num_frames < 2:
        raise InvalidInputError("need at least 2 frames")
    rng = np.random.default_rng(seed)
    scales = np.ones(NUM_BONES) if bone_scales is None else np.asarray(bone_scales, dtype=float)
    if scales.shape != (NUM_BONES,) or (scales <= 0).any():
        raise InvalidInputError("bone_scales must be 20 positive values")

    s_of = lambda p, c: scales[BONE_INDEX[(p, c)]]
    # Per-leg values, columns left and right.
    s_leg = lambda p, c: np.array([s_of(f"{side}_{p}", f"{side}_{c}") for side in ("left", "right")])
    thigh, shin = 0.42 * s_leg("hip", "knee"), 0.43 * s_leg("knee", "ankle")
    heel_scale, toe_scale = s_leg("ankle", "heel"), s_leg("ankle", "toe")
    ankle_h = 0.08 * heel_scale
    leg_min = (thigh + shin).min()
    hip_half = 0.10 * s_of("left_hip", "right_hip")

    step_len = max(STEP_LENGTH * leg_min / 0.85, 0.2)
    speed = 0.0 if kind == "stand" else step_len * CADENCE  # m/s
    turn_rate = TURN_RATE if kind == "turn" else 0.0
    rise = STAIR_RISE if kind == "stairs" else 0.0
    cycle = 2.0 * fps / CADENCE  # frames per foot cycle
    stance_len = DUTY_FACTOR * cycle
    bob_amp = 0.0 if kind in ("stairs", "stand") else BOB_AMPLITUDE * leg_min / 0.85

    # Pelvis height keeping the legs reachable at stride extremes. The foot
    # sweeps +-duty*step relative to the root during stance; stairs add up to
    # one tread of extra vertical offset between the root ramp and a plant.
    horiz = 1.05 * DUTY_FACTOR * step_len if kind != "stand" else 0.0
    # A plant can sit a full tread below the ramp while the root leads by the
    # stance sweep, so the vertical gap reaches (1 + duty) treads.
    slack = (1.0 + DUTY_FACTOR) * STAIR_RISE if kind == "stairs" else 0.0
    inside = (0.97 * leg_min) ** 2 - horiz * horiz
    if inside <= 0:
        raise SynthesisError("leg geometry cannot cover the stride")
    pelvis_h = ankle_h.max() + math.sqrt(inside) - slack - bob_amp

    arm_amp = float(rng.uniform(0.25, 0.45)) if kind != "stand" else 0.0
    bob_phase = float(rng.uniform(0.0, 2.0 * math.pi))

    def ground_pose(t: np.ndarray):
        """Ground-plane positions (y = 0) and headings of the root path at
        fractional frames t: a circular arc for the turn gait, otherwise a
        line along x (at rest for the stand gait)."""
        sec = t / fps
        pos = np.zeros(t.shape + (3,))
        if turn_rate:
            pos[:, 0] = speed / turn_rate * np.sin(turn_rate * sec)
            pos[:, 2] = speed / turn_rate * (np.cos(turn_rate * sec) - 1.0)
            return pos, turn_rate * sec
        pos[:, 0] = speed * sec
        return pos, np.zeros(t.shape)

    def plant(k: np.ndarray, offset: float, sign: float):
        """World anchor positions and yaws of plants k of one foot: the
        mid-stance root pose moved sideways by the hip half-width, on the
        stair tread under it."""
        t_mid = k * cycle + offset + 0.5 * stance_len
        pos, yaw = ground_pose(t_mid)
        pos += sign * hip_half * np.stack([np.sin(yaw), np.zeros(yaw.shape), np.cos(yaw)], axis=-1)
        pos[:, 1] = rise * np.floor(speed * t_mid / fps / step_len + 1e-9)
        return pos, yaw

    # Root path, with the pelvis over the smoothed stair ramp and bobbing.
    t = np.arange(num_frames, dtype=float)
    root_pos, yaw = ground_pose(t)
    root_pos[:, 1] = (pelvis_h + rise * (speed * t / fps) / step_len
                      + bob_amp * np.cos(4.0 * math.pi * t / cycle + bob_phase))
    root_rot = geom.rot_y(yaw)

    # Rigid upper-body offsets, each scaled by its own bone scale.
    def child_offset(parent, child):
        return s_of(parent, child) * (CANONICAL[L[child]] - CANONICAL[L[parent]])

    rest = np.zeros((NUM_LANDMARKS, 3))
    rest[L["left_hip"]], rest[L["right_hip"]] = [0.0, 0.0, hip_half], [0.0, 0.0, -hip_half]
    for parent, child in (("left_hip", "left_shoulder"), ("right_hip", "right_shoulder"),
                          ("left_shoulder", "nose"), ("nose", "left_eye"), ("nose", "right_eye"),
                          ("left_eye", "left_ear"), ("right_eye", "right_ear")):
        rest[L[child]] = rest[L[parent]] + child_offset(parent, child)
    local = np.repeat(rest[None], num_frames, axis=0)

    swing = arm_amp * np.sin(2.0 * math.pi * t / cycle)
    for side, sgn in (("left", +1.0), ("right", -1.0)):
        elbow = (rest[L[f"{side}_shoulder"]]
                 + geom.rot_z(sgn * swing) @ child_offset(f"{side}_shoulder", f"{side}_elbow"))
        local[:, L[f"{side}_elbow"]] = elbow
        local[:, L[f"{side}_wrist"]] = (
            elbow + geom.rot_z(sgn * 1.2 * swing) @ child_offset(f"{side}_elbow", f"{side}_wrist"))

    # Foot plans: in stance the foot rests at the plant of its cycle k; in
    # swing it moves toward plant k + 1 along a smoothstep, lifted by a sine.
    # The right foot trails the left by half a cycle; standing feet never
    # swing.
    stance = np.zeros((num_frames, 2), dtype=bool)  # columns: left, right
    for i, (side, sign) in enumerate((("left", +1.0), ("right", -1.0))):
        offset = 0.5 * cycle * i
        k = np.floor((t - offset) / cycle)
        phase = (t - offset) - k * cycle
        (p0, y0), (p1, y1) = plant(k, offset, sign), plant(k + 1, offset, sign)
        stance[:, i] = (phase < stance_len) | (kind == "stand")
        u = (phase - stance_len) / (cycle - stance_len)
        us = _smoothstep(u)
        swing_pos = p0 + (p1 - p0) * us[:, None]
        swing_pos[:, 1] += SWING_CLEARANCE * np.sin(math.pi * u)
        anchor = np.where(stance[:, i, None], p0, swing_pos)
        ry = geom.rot_y(np.where(stance[:, i], y0, y0 + (y1 - y0) * us))
        ankle_w = anchor + ry @ np.array([0.0, ankle_h[i], 0.0])
        heel_w = ankle_w + ry @ (heel_scale[i] * np.array([-0.06, -0.08, 0.0]))
        toe_w = ankle_w + ry @ (toe_scale[i] * np.array([0.15, -0.08, 0.0]))
        for name, world in (("ankle", ankle_w), ("heel", heel_w), ("toe", toe_w)):
            local[:, L[f"{side}_{name}"]] = np.einsum("tji,tj->ti", root_rot, world - root_pos)

    local[:, [L["left_knee"], L["right_knee"]]] = _two_bone_ik(
        local[:, HIPS], local[:, [L["left_ankle"], L["right_ankle"]]], thigh, shin)

    # Erode stance by one frame on each side so labeled frames have zero
    # velocity under both difference conventions.
    prev_s = np.concatenate([stance[:1], stance[:-1]])
    next_s = np.concatenate([stance[1:], stance[-1:]])
    contacts = (stance & prev_s & next_s)[:, [0, 1, 0, 1]].astype(float)

    seq = MotionSequence(fps=fps, local_pose=local, bone_scales=scales,
                         root_rot=root_rot, root_pos=root_pos, contacts=contacts)
    seq.validate()
    return seq


def resample_speed(seq: MotionSequence, factor: float) -> MotionSequence:
    """Uniformly speed a motion up (factor > 1) or down (factor < 1).

    Landmarks and translation are interpolated linearly, orientation
    geodesically. Contact truth is recomputed from the resampled foot
    velocities. factor == 1.0 returns an unchanged copy.
    """
    if not 0.5 <= factor <= 1.5:
        raise InvalidInputError(f"speed factor {factor} outside [0.5, 1.5]")
    if factor == 1.0:
        return replace(seq, local_pose=seq.local_pose.copy(), root_rot=seq.root_rot.copy(),
                       root_pos=seq.root_pos.copy(), contacts=seq.contacts.copy(),
                       bone_scales=seq.bone_scales.copy())
    t_src = seq.num_frames
    n_out = int(round(t_src / factor))
    if n_out < 2:
        raise InvalidInputError("resampled sequence would be shorter than 2 frames")
    times = np.arange(n_out) * ((t_src - 1) / (n_out - 1))
    i0 = np.minimum(times.astype(int), t_src - 2)
    frac = times - i0

    local = (1.0 - frac)[:, None, None] * seq.local_pose[i0] + frac[:, None, None] * seq.local_pose[i0 + 1]
    root_pos = (1.0 - frac)[:, None] * seq.root_pos[i0] + frac[:, None] * seq.root_pos[i0 + 1]
    root_rot = geom.slerp(seq.root_rot[i0], seq.root_rot[i0 + 1], frac)
    out = MotionSequence(fps=seq.fps, local_pose=local, bone_scales=seq.bone_scales.copy(),
                         root_rot=root_rot, root_pos=root_pos,
                         contacts=np.zeros((n_out, len(CONTACT_LANDMARKS))))
    from .synth import generate_contact_labels  # local import to avoid a cycle
    out.contacts = generate_contact_labels(out)
    return out

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

# Contact channel order follows landmark order 17..20.
CONTACT_LANDMARKS = (L["left_toe"], L["right_toe"], L["left_heel"], L["right_heel"])

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
        mid_hip = 0.5 * (self.local_pose[:, L["left_hip"]] + self.local_pose[:, L["right_hip"]])
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


def _two_bone_ik(hip: np.ndarray, ankle: np.ndarray, l1: float, l2: float,
                 bend_dir: np.ndarray) -> np.ndarray:
    """Knee position for given hip/ankle and segment lengths, bending toward
    bend_dir (projected perpendicular to the hip-ankle axis)."""
    d = ankle - hip
    dist = float(np.linalg.norm(d))
    if dist >= l1 + l2 - 1e-9 or dist <= abs(l1 - l2) + 1e-9:
        raise SynthesisError(
            f"leg target unreachable: |hip-ankle|={dist:.4f}, segments {l1:.4f}+{l2:.4f}")
    dhat = d / dist
    a = (l1 * l1 - l2 * l2 + dist * dist) / (2.0 * dist)
    r = math.sqrt(max(l1 * l1 - a * a, 0.0))
    w = bend_dir - (bend_dir @ dhat) * dhat
    wn = np.linalg.norm(w)
    if wn < 1e-9:
        w = np.array([0.0, 1.0, 0.0]) - dhat[1] * dhat
        wn = np.linalg.norm(w)
    return hip + a * dhat + (r / wn) * w


class _FootPlan:
    """Per-foot stance/swing schedule with world-space plant poses."""

    def __init__(self, lateral_sign, phase_offset, cycle, stance_len, path, lateral):
        self.sign = lateral_sign
        self.offset = phase_offset
        self.cycle = cycle
        self.stance_len = stance_len
        self.path = path
        self.lateral = lateral

    def plant(self, k: int):
        """World anchor position and yaw of plant k (mid-stance root pose)."""
        t_mid = k * self.cycle + self.offset + 0.5 * self.stance_len
        base, yaw = self.path.ground_pose(t_mid)
        n = np.array([math.sin(yaw), 0.0, math.cos(yaw)])
        pos = base + self.sign * self.lateral * n
        pos[1] = self.path.ground_level(t_mid)
        return pos, yaw

    def anchor(self, t: int):
        """(position, yaw, in_stance) of the foot anchor at frame t."""
        k = math.floor((t - self.offset) / self.cycle)
        phase = (t - self.offset) - k * self.cycle
        p0, y0 = self.plant(k)
        if phase < self.stance_len:
            return p0, y0, True
        p1, y1 = self.plant(k + 1)
        u = (phase - self.stance_len) / (self.cycle - self.stance_len)
        us = _smoothstep(u)
        pos = p0 + (p1 - p0) * us
        pos = pos + np.array([0.0, SWING_CLEARANCE * math.sin(math.pi * u), 0.0])
        return pos, y0 + (y1 - y0) * us, False


class _RootPath:
    """Analytic root path: straight line, circular arc, or stair ramp."""

    def __init__(self, kind, speed, fps, step_len):
        self.kind = kind
        self.speed = speed
        self.fps = fps
        self.step_len = step_len
        self.turn_rate = TURN_RATE if kind == "turn" else 0.0

    def ground_pose(self, t: float):
        """Ground-plane position (y = 0) and heading at fractional frame t."""
        sec = t / self.fps
        if self.kind == "stand":
            return np.zeros(3), 0.0
        if self.kind == "turn":
            w = self.turn_rate
            x = self.speed / w * math.sin(w * sec)
            z = self.speed / w * (math.cos(w * sec) - 1.0)
            return np.array([x, 0.0, z]), w * sec
        return np.array([self.speed * sec, 0.0, 0.0]), 0.0

    def arc(self, t: float) -> float:
        return 0.0 if self.kind == "stand" else self.speed * t / self.fps

    def ground_level(self, t: float) -> float:
        """Ground height under the walker (stair treads for the stairs gait)."""
        if self.kind != "stairs":
            return 0.0
        return STAIR_RISE * math.floor(self.arc(t) / self.step_len + 1e-9)

    def root_level(self, t: float) -> float:
        """Smoothed, monotone ground reference for the pelvis height."""
        if self.kind != "stairs":
            return 0.0
        return STAIR_RISE * self.arc(t) / self.step_len


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
    thigh = {"l": 0.42 * s_of("left_hip", "left_knee"), "r": 0.42 * s_of("right_hip", "right_knee")}
    shin = {"l": 0.43 * s_of("left_knee", "left_ankle"), "r": 0.43 * s_of("right_knee", "right_ankle")}
    leg = {f: thigh[f] + shin[f] for f in "lr"}
    leg_min = min(leg.values())
    hip_half = 0.10 * s_of("left_hip", "right_hip")
    heel_scale = {"l": s_of("left_ankle", "left_heel"), "r": s_of("right_ankle", "right_heel")}
    toe_scale = {"l": s_of("left_ankle", "left_toe"), "r": s_of("right_ankle", "right_toe")}
    ankle_h = {f: 0.08 * heel_scale[f] for f in "lr"}

    step_len = max(STEP_LENGTH * leg_min / 0.85, 0.2)
    speed = step_len * CADENCE  # m/s
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
    pelvis_h = max(ankle_h.values()) + math.sqrt(inside) - slack - bob_amp

    path = _RootPath(kind, speed, fps, step_len)
    feet = {
        "l": _FootPlan(+1.0, 0.0, cycle, stance_len, path, hip_half),
        "r": _FootPlan(-1.0, 0.5 * cycle, cycle, stance_len, path, hip_half),
    }

    arm_amp = float(rng.uniform(0.25, 0.45)) if kind != "stand" else 0.0
    bob_phase = float(rng.uniform(0.0, 2.0 * math.pi))

    # Rigid upper-body offsets, each scaled by its own bone scale.
    def child_offset(parent, child):
        return s_of(parent, child) * (CANONICAL[L[child]] - CANONICAL[L[parent]])

    local = np.zeros((num_frames, NUM_LANDMARKS, 3))
    root_rot = np.zeros((num_frames, 3, 3))
    root_pos = np.zeros((num_frames, 3))
    stance = np.zeros((num_frames, 2), dtype=bool)  # columns: left, right

    for t in range(num_frames):
        base, yaw = path.ground_pose(float(t))
        gam = geom.rot_y(yaw)
        bob = bob_amp * math.cos(4.0 * math.pi * t / cycle + bob_phase)
        tau = base + np.array([0.0, pelvis_h + path.root_level(float(t)) + bob, 0.0])
        root_rot[t] = gam
        root_pos[t] = tau

        pose = np.zeros((NUM_LANDMARKS, 3))
        lh = np.array([0.0, 0.0, hip_half])
        rh = np.array([0.0, 0.0, -hip_half])
        pose[L["left_hip"]], pose[L["right_hip"]] = lh, rh
        pose[L["left_shoulder"]] = lh + child_offset("left_hip", "left_shoulder")
        pose[L["right_shoulder"]] = rh + child_offset("right_hip", "right_shoulder")
        swing = arm_amp * math.sin(2.0 * math.pi * t / cycle)
        for side, sgn in (("left", +1.0), ("right", -1.0)):
            rz = geom.rot_z(sgn * swing)
            sh = pose[L[f"{side}_shoulder"]]
            el = sh + rz @ child_offset(f"{side}_shoulder", f"{side}_elbow")
            wr = el + geom.rot_z(sgn * 1.2 * swing) @ child_offset(f"{side}_elbow", f"{side}_wrist")
            pose[L[f"{side}_elbow"]], pose[L[f"{side}_wrist"]] = el, wr
        pose[L["nose"]] = pose[L["left_shoulder"]] + child_offset("left_shoulder", "nose")
        pose[L["left_eye"]] = pose[L["nose"]] + child_offset("nose", "left_eye")
        pose[L["right_eye"]] = pose[L["nose"]] + child_offset("nose", "right_eye")
        pose[L["left_ear"]] = pose[L["left_eye"]] + child_offset("left_eye", "left_ear")
        pose[L["right_ear"]] = pose[L["right_eye"]] + child_offset("right_eye", "right_ear")

        for f, side in (("l", "left"), ("r", "right")):
            if kind == "stand":
                n = np.array([0.0, 0.0, 1.0]) * feet[f].sign
                anchor = hip_half * n
                anchor[1] = 0.0
                foot_yaw, in_stance = 0.0, True
            else:
                anchor, foot_yaw, in_stance = feet[f].anchor(t)
            ry = geom.rot_y(foot_yaw)
            ankle_w = anchor + ry @ np.array([0.0, ankle_h[f], 0.0])
            heel_w = ankle_w + ry @ (heel_scale[f] * np.array([-0.06, -0.08, 0.0]))
            toe_w = ankle_w + ry @ (toe_scale[f] * np.array([0.15, -0.08, 0.0]))
            ankle = gam.T @ (ankle_w - tau)
            pose[L[f"{side}_ankle"]] = ankle
            pose[L[f"{side}_heel"]] = gam.T @ (heel_w - tau)
            pose[L[f"{side}_toe"]] = gam.T @ (toe_w - tau)
            hip = lh if f == "l" else rh
            pose[L[f"{side}_knee"]] = _two_bone_ik(
                hip, ankle, thigh[f], shin[f], np.array([1.0, 0.0, 0.0]))
            stance[t, 0 if f == "l" else 1] = in_stance
        local[t] = pose

    # Erode stance by one frame on each side so labeled frames have zero
    # velocity under both difference conventions.
    contacts = np.zeros((num_frames, 4))
    for col, foot in ((0, 0), (1, 1), (2, 0), (3, 1)):
        s = stance[:, foot]
        prev_s = np.concatenate([[s[0]], s[:-1]])
        next_s = np.concatenate([s[1:], [s[-1]]])
        contacts[:, col] = (s & prev_s & next_s).astype(float)

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
    root_rot = np.stack([geom.slerp(seq.root_rot[a], seq.root_rot[a + 1], u)
                         for a, u in zip(i0, frac)])
    out = MotionSequence(fps=seq.fps, local_pose=local, bone_scales=seq.bone_scales.copy(),
                         root_rot=root_rot, root_pos=root_pos,
                         contacts=np.zeros((n_out, 4)))
    from .synth import generate_contact_labels  # local import to avoid a cycle
    out.contacts = generate_contact_labels(out)
    return out

"""Rotation algebra, rigid alignment, pinhole projection, angular velocity.

All functions are pure and operate on plain float64 numpy arrays. Rotations
are 3x3 row-major orthonormal matrices with det +1; axis-angle vectors are in
radians with the angle encoded as the vector norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BehindCameraError, InvalidInputError

def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector (cross-product operator)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def exp_so3(axis_angle: np.ndarray) -> np.ndarray:
    """Rodrigues exponential map from an axis-angle vector to a rotation.

    exp_so3(0) is the identity. Small angles use a series expansion of the
    sin(t)/t and (1-cos(t))/t^2 coefficients for stability.
    """
    v = np.asarray(axis_angle, dtype=float).reshape(3)
    t2 = float(v @ v)
    k = hat(v)
    if t2 < 1e-16:
        a = 1.0 - t2 / 6.0
        b = 0.5 - t2 / 24.0
    else:
        t = np.sqrt(t2)
        a = np.sin(t) / t
        b = (1.0 - np.cos(t)) / t2
    return np.eye(3) + a * k + b * (k @ k)


def log_so3(r: np.ndarray) -> np.ndarray:
    """Principal axis-angle vector of a rotation, norm in [0, pi].

    Near zero the first-order skew extraction is used directly; near pi the
    trace-robust branch recovers the axis from the symmetric part, with the
    sign fixed deterministically.
    """
    r = np.asarray(r, dtype=float)
    cos_t = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(cos_t))
    skew = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if theta < 1e-7:
        # sin(t)/t ~ 1; skew already equals sin(t) * axis.
        return skew * (1.0 + theta * theta / 6.0)
    if theta > np.pi - 1e-4:
        # (R + I)/2 = a a^T + cos-ish terms; diagonal dominates along the axis.
        s = (r + np.eye(3)) / 2.0
        axis = np.sqrt(np.maximum(np.diag(s), 0.0))
        # Off-diagonal signs relative to the largest component.
        i = int(np.argmax(axis))
        if axis[i] < 1e-12:
            return np.zeros(3)
        for j in range(3):
            if j != i:
                axis[j] = np.copysign(axis[j], s[i, j])
        axis = axis / np.linalg.norm(axis)
        if axis[np.argmax(np.abs(axis))] < 0:
            axis = -axis
        # Refine the angle from the skew part when it still carries signal.
        sin_t = np.linalg.norm(skew)
        ang = np.pi - np.arcsin(np.clip(sin_t, -1.0, 1.0)) if np.trace(r) < 1.0 else theta
        return axis * ang
    return skew * (theta / np.sin(theta))


def rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def slerp(r_a: np.ndarray, r_b: np.ndarray, u: float) -> np.ndarray:
    """Geodesic interpolation on SO(3); u=0 returns r_a exactly."""
    if u == 0.0:
        return np.array(r_a, dtype=float)
    rel = log_so3(np.asarray(r_a).T @ np.asarray(r_b))
    return np.asarray(r_a) @ exp_so3(u * rel)


@dataclass(frozen=True)
class RigidTransform:
    """Rotation followed by translation: x -> R @ x + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points) @ self.rotation.T + self.translation


def kabsch_align(source: np.ndarray, target: np.ndarray,
                 with_scale: bool = False) -> tuple[RigidTransform, float]:
    """Least-squares rigid (optionally similarity) alignment source -> target.

    Minimizes sum ||s * R @ p_i + t - q_i||^2 over rotations R, translations t
    and, when with_scale is set, a single positive scale s. Reflections are
    excluded by sign-correcting the smallest singular value. Rank-deficient
    point sets yield the deterministic solution picked by numpy's SVD sign
    convention. Returns (transform, scale); scale is 1.0 in rigid mode.
    """
    src = np.asarray(source, dtype=float).reshape(-1, 3)
    tgt = np.asarray(target, dtype=float).reshape(-1, 3)
    if src.shape != tgt.shape:
        raise InvalidInputError(f"point set shapes differ: {src.shape} vs {tgt.shape}")
    if src.shape[0] < 1:
        raise InvalidInputError("kabsch_align needs at least one point")
    mu_s = src.mean(axis=0)
    mu_t = tgt.mean(axis=0)
    ps = src - mu_s
    pt = tgt - mu_t
    cov = ps.T @ pt
    u, sig, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    if d == 0.0:
        d = 1.0
    corr = np.array([1.0, 1.0, d])
    rot = vt.T @ np.diag(corr) @ u.T
    scale = 1.0
    if with_scale:
        var_s = float((ps * ps).sum())
        if var_s > 1e-30:
            scale = float((sig * corr).sum() / var_s)
    t = mu_t - scale * rot @ mu_s
    return RigidTransform(rot, t), scale


@dataclass(frozen=True)
class Pinhole:
    """Pinhole intrinsics in pixels; principal point defaults to the center."""

    f: float
    w: float
    h: float
    cx: float = field(default=None)  # type: ignore[assignment]
    cy: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.f <= 0 or self.w <= 0 or self.h <= 0:
            raise InvalidInputError("pinhole needs positive focal length and image size")
        if self.cx is None:
            object.__setattr__(self, "cx", self.w / 2.0)
        if self.cy is None:
            object.__setattr__(self, "cy", self.h / 2.0)


MIN_PROJECT_DEPTH = 1e-6


def project(pinhole: Pinhole, cam_points: np.ndarray, frame: int | None = None) -> np.ndarray:
    """Perspective projection of camera-frame points to pixel coordinates.

    Raises BehindCameraError listing the offending landmark indices when any
    depth is at or below MIN_PROJECT_DEPTH.
    """
    pts = np.asarray(cam_points, dtype=float).reshape(-1, 3)
    z = pts[:, 2]
    bad = np.nonzero(z <= MIN_PROJECT_DEPTH)[0]
    if bad.size:
        where = f"frame {frame}, " if frame is not None else ""
        raise BehindCameraError(
            f"{where}landmarks {bad.tolist()} are at or behind the camera plane",
            landmark_indices=bad.tolist(), frame=frame)
    u = pinhole.f * pts[:, 0] / z + pinhole.cx
    v = pinhole.f * pts[:, 1] / z + pinhole.cy
    return np.stack([u, v], axis=1)


def angular_velocity(rotations: np.ndarray) -> np.ndarray:
    """Per-frame angular velocity of a rotation sequence, radians per frame.

    omega[t] = log_so3(R[t-1].T @ R[t]) for t >= 1, expressed in the frame of
    t-1; omega[0] copies omega[1]. Composing exp_so3(omega[t]) from R[0]
    reconstructs the sequence.
    """
    rots = np.asarray(rotations, dtype=float)
    if rots.ndim != 3 or rots.shape[1:] != (3, 3) or rots.shape[0] < 2:
        raise InvalidInputError("angular_velocity needs at least two 3x3 rotations")
    n = rots.shape[0]
    omega = np.zeros((n, 3))
    for t in range(1, n):
        omega[t] = log_so3(rots[t - 1].T @ rots[t])
    omega[0] = omega[1]
    return omega

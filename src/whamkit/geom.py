"""Rotation algebra, rigid alignment, pinhole projection, angular velocity.

All functions are pure and operate on plain float64 numpy arrays. Rotations
are 3x3 row-major orthonormal matrices with det +1; axis-angle vectors are in
radians with the angle encoded as the vector norm. The SO(3) helpers take a
single value or a stack over leading axes and return the matching shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BehindCameraError, InvalidInputError


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrices (..., 3, 3) of (..., 3) vectors (the
    cross-product operator)."""
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    k = np.zeros(v.shape + (3,))
    k[..., 0, 1], k[..., 0, 2], k[..., 1, 2] = -z, y, -x
    k[..., 1, 0], k[..., 2, 0], k[..., 2, 1] = z, -y, x
    return k


def exp_so3(axis_angle: np.ndarray) -> np.ndarray:
    """Rodrigues exponential map from (..., 3) axis-angle vectors to
    (..., 3, 3) rotations.

    exp_so3(0) is exactly the identity. Small angles use a series expansion
    of the sin(t)/t and (1-cos(t))/t^2 coefficients for stability.
    """
    v = np.asarray(axis_angle, dtype=float)
    t2 = (v * v).sum(axis=-1)[..., None, None]
    small = t2 < 1e-16
    safe_t2 = np.where(small, 1.0, t2)
    t = np.sqrt(safe_t2)
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(t) / t)
    b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(t)) / safe_t2)
    k = hat(v)
    return np.eye(3) + a * k + b * (k @ k)


def log_so3(r: np.ndarray) -> np.ndarray:
    """Principal axis-angle vectors (..., 3), norm in [0, pi], of (..., 3, 3)
    rotations.

    Near zero the first-order skew extraction is used directly; near pi the
    trace-robust branch recovers the axis from the symmetric part, with the
    sign fixed deterministically.
    """
    r = np.asarray(r, dtype=float)
    cos_t = np.clip((np.trace(r, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_t)
    skew = 0.5 * np.stack([r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0],
                           r[..., 1, 0] - r[..., 0, 1]], axis=-1)
    small = theta < 1e-7
    # Near zero sin(t)/t ~ 1, and skew already equals sin(t) * axis.
    factor = np.where(small, 1.0 + theta * theta / 6.0,
                      theta / np.sin(np.where(small, 1.0, theta)))
    out = skew * factor[..., None]
    near_pi = theta > np.pi - 1e-4
    if near_pi.any():
        out[near_pi] = [_log_near_pi(m, s, t)
                        for m, s, t in zip(r[near_pi], skew[near_pi], theta[near_pi])]
    return out


def _log_near_pi(r: np.ndarray, skew: np.ndarray, theta: float) -> np.ndarray:
    """log_so3 of one rotation whose angle is within 1e-4 of pi."""
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


def _plane_rotation(angle, i: int, j: int) -> np.ndarray:
    """(..., 3, 3) rotations by the given angles taking axis i toward axis j."""
    c, s = np.cos(angle), np.sin(angle)
    r = np.zeros(np.shape(angle) + (3, 3))
    r[..., [0, 1, 2], [0, 1, 2]] = 1.0
    r[..., i, i] = r[..., j, j] = c
    r[..., i, j], r[..., j, i] = -s, s
    return r


def rot_x(angle) -> np.ndarray:
    return _plane_rotation(angle, 1, 2)


def rot_y(angle) -> np.ndarray:
    return _plane_rotation(angle, 2, 0)


def rot_z(angle) -> np.ndarray:
    return _plane_rotation(angle, 0, 1)


def slerp(r_a: np.ndarray, r_b: np.ndarray, u) -> np.ndarray:
    """Geodesic interpolation on SO(3), broadcast over (..., 3, 3) rotation
    stacks and the fractions u; u = 0 returns r_a exactly, because
    exp_so3(0) is exactly the identity."""
    rel = log_so3(np.swapaxes(r_a, -1, -2) @ r_b)
    return r_a @ exp_so3(np.asarray(u, dtype=float)[..., None] * rel)


@dataclass(frozen=True)
class RigidTransform:
    """Rotation followed by translation: x -> R @ x + t.

    A batch of transforms holds (..., 3, 3) rotations and (..., 3)
    translations; apply maps (..., N, 3) points with the matching batch."""

    rotation: np.ndarray
    translation: np.ndarray

    def apply(self, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points) @ np.swapaxes(self.rotation, -1, -2)
                + self.translation[..., None, :])


def kabsch_align(source: np.ndarray, target: np.ndarray,
                 with_scale: bool = False) -> tuple[RigidTransform, float | np.ndarray]:
    """Least-squares rigid (optionally similarity) alignment source -> target,
    batched over the leading axes of (..., N, 3) point sets (Umeyama 1991).

    For each item, minimizes sum ||s * R @ p_i + t - q_i||^2 over rotations
    R, translations t and, when with_scale is set, a single positive scale
    s. Reflections are excluded by sign-correcting the smallest singular
    value. Rank-deficient point sets yield the deterministic solution picked
    by numpy's SVD sign convention; a source with no spread keeps scale 1.
    Returns (transform, scale): a (3, 3) rotation, (3,) translation and
    float scale for (N, 3) input, (..., 3, 3), (..., 3) and (...) arrays for
    batched input. The scale is 1 in rigid mode.
    """
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if src.shape != tgt.shape:
        raise InvalidInputError(f"point set shapes differ: {src.shape} vs {tgt.shape}")
    if src.ndim < 2 or src.shape[-1] != 3:
        raise InvalidInputError(f"kabsch_align needs (..., N, 3) point sets, got {src.shape}")
    if src.shape[-2] < 1:
        raise InvalidInputError("kabsch_align needs at least one point")
    batch = src.shape[:-2]
    mu_s = src.mean(axis=-2)
    mu_t = tgt.mean(axis=-2)
    ps = src - mu_s[..., None, :]
    pt = tgt - mu_t[..., None, :]
    cov = np.swapaxes(ps, -1, -2) @ pt
    u, sig, vt = np.linalg.svd(cov)
    v, ut = np.swapaxes(vt, -1, -2), np.swapaxes(u, -1, -2)
    d = np.sign(np.linalg.det(v @ ut))
    diag = np.zeros(batch + (3, 3))
    diag[..., 0, 0] = diag[..., 1, 1] = 1.0
    diag[..., 2, 2] = np.where(d == 0.0, 1.0, d)
    rot = v @ diag @ ut
    scale = np.ones(batch)
    if with_scale:
        var_s = (ps * ps).reshape(batch + (-1,)).sum(axis=-1)
        corr = np.diagonal(diag, axis1=-2, axis2=-1)
        np.divide((sig * corr).sum(axis=-1), var_s, out=scale, where=var_s > 1e-30)
    t = mu_t - ((scale[..., None, None] * rot) @ mu_s[..., None])[..., 0]
    # scale[()] is a float for a single point set and the array otherwise.
    return RigidTransform(rot, t), scale[()]


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


def project(pinhole: Pinhole, cam_points: np.ndarray) -> np.ndarray:
    """Perspective projection of camera-frame points to pixel coordinates.

    Raises BehindCameraError listing the offending landmark indices when any
    depth is at or below MIN_PROJECT_DEPTH.
    """
    pts = np.asarray(cam_points, dtype=float).reshape(-1, 3)
    z = pts[:, 2]
    bad = np.nonzero(z <= MIN_PROJECT_DEPTH)[0]
    if bad.size:
        raise BehindCameraError(f"landmarks {bad.tolist()} are at or behind the camera plane",
                                landmark_indices=bad.tolist())
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
    omega = log_so3(np.swapaxes(rots[:-1], -1, -2) @ rots[1:])
    return np.concatenate([omega[:1], omega])

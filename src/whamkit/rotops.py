"""Differentiable rotation utilities on autodiff Tensors.

Operates on batched stacks of rotations; so3_log mirrors geom.log_so3.
The 6D representation is the first two matrix columns; decoding is
Gram-Schmidt, so any head output yields a valid rotation. Feeding the
identity 6D vector through decode reproduces the identity bit-exactly,
which the residual heads rely on.

rotation6d_to_matrix and so3_log each record one tape node with an
analytic backward in numpy. Their forwards run the numpy operations of the
elementwise chains they replace, in the same order, so their values are
those of the composed autodiff ops bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

IDENTITY_6D = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
_NORM_FLOOR = 1e-12
_COS_CLAMP = 1.0 - 1e-7     # keeps the arccos input strictly inside (-1, 1)
_DIAG = ([0, 1, 2], [0, 1, 2])
# The vee of R - R^T: (R21 - R12, R02 - R20, R10 - R01).
_VEE_PLUS = ([2, 0, 1], [1, 2, 0])
_VEE_MINUS = ([1, 2, 0], [2, 0, 1])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a * b).sum(axis=-1, keepdims=True)


def _normalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a over its norm clipped at _NORM_FLOOR, and that clipped norm."""
    norm = np.clip(np.sqrt((a * a).sum(axis=-1, keepdims=True)), _NORM_FLOOR, None)
    return a / norm, norm


def _normalize_backward(g, unit, norm):
    """The gradient through _normalize: the tangential part of g over the
    norm, or g over the floor where the clip holds the norm constant."""
    return np.where(norm > _NORM_FLOOR, g - unit * _dot(unit, g), g) / norm


def rotation6d_to_matrix(v: Tensor) -> Tensor:
    """Gram-Schmidt (..., 6) -> (..., 3, 3) with columns [b1 b2 b1 x b2]."""
    a1, a2 = v.data[..., 0:3], v.data[..., 3:6]
    b1, n1 = _normalize(a1)
    dot = _dot(b1, a2)
    b2, n2 = _normalize(a2 - dot * b1)
    b3 = _cross(b1, b2)

    def bw(g):
        g3 = g[..., 2]
        gb1 = g[..., 0] + _cross(b2, g3)
        gu2 = _normalize_backward(g[..., 1] + _cross(g3, b1), b2, n2)
        gdot = -_dot(gu2, b1)
        gb1 = gb1 - dot * gu2 + gdot * a2
        return (np.concatenate([_normalize_backward(gb1, b1, n1),
                                gu2 + gdot * b1], axis=-1),)

    return ad._node(np.stack([b1, b2, b3], axis=-1), (v,), bw)


def matrix_to_6d(r: Tensor) -> Tensor:
    """First two columns of (..., 3, 3) rotations as a (..., 6) tensor."""
    return r[..., [0, 1, 2, 0, 1, 2], [0, 0, 0, 1, 1, 1]]


def so3_log(rel: Tensor) -> Tensor:
    """Axis-angle of a stack of rotations, differentiable.

    Small angles use a series in u = 1 - cos(theta) so no gradient path
    touches the arccos singularity at the identity; the exact branch input
    is clamped strictly inside (-1, 1) so both branches stay finite.
    """
    r = rel.data
    c = (r[(..., *_DIAG)].sum(axis=-1, keepdims=True) - 1.0) * 0.5
    u = 1.0 - c
    small = u < 1e-6
    s_small = u * (1.0 / 6.0) + 0.5 + u * u * (1.0 / 15.0)
    clamped = np.clip(c, -_COS_CLAMP, _COS_CLAMP)
    theta = np.arccos(clamped)
    sin2 = np.sin(theta) * 2.0
    s = np.where(small, s_small, theta / sin2)
    vee = r[(..., *_VEE_PLUS)] - r[(..., *_VEE_MINUS)]

    def bw(g):
        gs = _dot(g, vee)
        g_series = gs * (1.0 / 6.0) + gs * (1.0 / 15.0) * 2.0 * u
        g_theta = gs / sin2 - gs * theta / (sin2 * sin2) * 2.0 * np.cos(theta)
        g_exact = -g_theta / np.sqrt(1.0 - clamped * clamped) * (np.abs(c) < _COS_CLAMP)
        gr = np.zeros_like(r)
        gr[(..., *_DIAG)] = np.where(small, -g_series, g_exact) * 0.5
        gvee = g * s
        gr[(..., *_VEE_PLUS)] = gvee
        gr[(..., *_VEE_MINUS)] = -gvee
        return (gr,)

    return ad._node(vee * s, (rel,), bw)

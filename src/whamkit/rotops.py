"""Differentiable rotation utilities on autodiff Tensors.

Operates on batched stacks of rotations; so3_log mirrors geom.log_so3.
The 6D representation is the first two matrix columns; decoding is
Gram-Schmidt, so any head output yields a valid rotation. Feeding the
identity 6D vector through decode reproduces the identity bit-exactly,
which the residual heads rely on.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

IDENTITY_6D = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


def cross(a: Tensor, b: Tensor) -> Tensor:
    """Cross product over the trailing axis of (..., 3) tensors."""
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


def rotation6d_to_matrix(v: Tensor) -> Tensor:
    """Gram-Schmidt (..., 6) -> (..., 3, 3) with columns [b1 b2 b1 x b2]."""
    a1 = v[..., 0:3]
    a2 = v[..., 3:6]
    n1 = ad.clip(ad.sqrt(ad.tsum(ad.square(a1), axis=-1, keepdims=True)), 1e-12, None)
    b1 = a1 / n1
    dot = ad.tsum(b1 * a2, axis=-1, keepdims=True)
    u2 = a2 - dot * b1
    n2 = ad.clip(ad.sqrt(ad.tsum(ad.square(u2), axis=-1, keepdims=True)), 1e-12, None)
    b2 = u2 / n2
    b3 = cross(b1, b2)
    return ad.stack([b1, b2, b3], axis=-1)


def matrix_to_6d(r: Tensor) -> Tensor:
    """First two columns of (..., 3, 3) rotations as a (..., 6) tensor."""
    return r[..., [0, 1, 2, 0, 1, 2], [0, 0, 0, 1, 1, 1]]


def so3_log(rel: Tensor) -> Tensor:
    """Axis-angle of a stack of rotations, differentiable.

    Small angles use a series in u = 1 - cos(theta) so no gradient path
    touches the arccos singularity at the identity; the exact branch input
    is clamped strictly inside (-1, 1) so both branches stay finite.
    """
    tr = ad.tsum(rel[..., [0, 1, 2], [0, 1, 2]], axis=-1, keepdims=True)
    c = (tr - 1.0) * 0.5
    u = 1.0 - c
    small = u.data < 1e-6
    s_small = 0.5 + u * (1.0 / 6.0) + ad.square(u) * (1.0 / 15.0)
    theta = ad.arccos(ad.clip(c, -1.0 + 1e-7, 1.0 - 1e-7))
    s_large = theta / (2.0 * ad.sin(theta))
    s = ad.where(small, s_small, s_large)
    vee = rel[..., [2, 0, 1], [1, 2, 0]] - rel[..., [1, 2, 0], [2, 0, 1]]
    return vee * s

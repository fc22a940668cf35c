"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor wraps an ndarray and, while gradients are enabled, records a
backward closure and its parents on a tape. Calling backward() on a scalar
accumulates gradients into every reachable Tensor with requires_grad set.
Inside no_grad() the same ops run without building the tape, which is the
inference fast path.

Supported shapes are ndim >= 2 for matmul (including equal-batch and
broadcast-batched stacks); elementwise ops broadcast like numpy.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bw")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._bw = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Reverse accumulation from a scalar output."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._bw is None:
                continue
            grads = node._bw(node.grad)
            for p, g in zip(node._parents, grads):
                if g is None or not p.requires_grad:
                    continue
                p.grad = g if p.grad is None else p.grad + g

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, bw) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._bw = bw
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- arithmetic -------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.data.shape),
                            _unbroadcast(g * a.data, b.data.shape)))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data / b.data, (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.data.shape),
                            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _node(-a.data, (a,), lambda g: (-g,))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")

    def bw(g):
        ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _node(a.data @ b.data, (a, b), bw)


# -- shape ops ----------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def swap_last(a) -> Tensor:
    """Transpose the trailing two axes."""
    a = as_tensor(a)
    return _node(a.data.swapaxes(-1, -2), (a,), lambda g: (g.swapaxes(-1, -2),))


def getitem(a, idx) -> Tensor:
    """Basic slicing or a gather by index arrays. A gather may pick one
    element more than once, so its backward accumulates with np.add.at
    where an assignment would keep only the last of the repeats."""
    a = as_tensor(a)
    gather = any(isinstance(i, (list, np.ndarray))
                 for i in (idx if isinstance(idx, tuple) else (idx,)))

    def bw(g):
        full = np.zeros_like(a.data)
        if gather:
            np.add.at(full, idx, g)
        else:
            full[idx] = g
        return (full,)

    return _node(a.data[idx], (a,), bw)


def concat(parts, axis=-1) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bw)


def stack(parts, axis=0) -> Tensor:
    parts = [as_tensor(p) for p in parts]

    def bw(g):
        return tuple(np.moveaxis(g, axis, 0)[i] for i in range(len(parts)))

    return _node(np.stack([p.data for p in parts], axis=axis), tuple(parts), bw)


# -- reductions ---------------------------------------------------------------

def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    shape = a.data.shape

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)


def cumsum(a, axis=0) -> Tensor:
    """Running sum along one axis, accumulated in index order."""
    a = as_tensor(a)
    return _node(np.cumsum(a.data, axis=axis), (a,),
                 lambda g: (np.flip(np.cumsum(np.flip(g, axis), axis=axis), axis),))


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    shape = a.data.shape
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([shape[ax] for ax in axes]))

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g / count, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, shape).copy(),)

    return _node(a.data.mean(axis=axis, keepdims=keepdims), (a,), bw)


# -- elementwise nonlinearities ----------------------------------------------

def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)
    return _node(out_data, (a,), lambda g: (g * out_data,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data)
    return _node(out_data, (a,), lambda g: (g * 0.5 / out_data,))


def square(a) -> Tensor:
    a = as_tensor(a)
    return _node(a.data * a.data, (a,), lambda g: (g * 2.0 * a.data,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function. exp(-x) would overflow for x < -709; capping its
    argument at 700 keeps the result below 1e-304 there, and leaves every
    other value bit-identical to the plain formula."""
    return 1.0 / (1.0 + np.exp(np.minimum(-x, 700.0)))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = _sigmoid(a.data)
    return _node(out_data, (a,), lambda g: (g * out_data * (1.0 - out_data),))


def softplus(a) -> Tensor:
    """log(1 + exp(a)), evaluated without overflow; the gradient is
    sigmoid(a)."""
    a = as_tensor(a)
    return _node(np.logaddexp(0.0, a.data), (a,), lambda g: (g * _sigmoid(a.data),))


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    return _node(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def clip(a, lo=None, hi=None) -> Tensor:
    """Clamp with constant bounds; gradient is zero in the clamped region."""
    a = as_tensor(a)
    out_data = np.clip(a.data, lo, hi)
    inside = np.ones_like(a.data, dtype=bool)
    if lo is not None:
        inside &= a.data > lo
    if hi is not None:
        inside &= a.data < hi
    return _node(out_data, (a,), lambda g: (g * inside,))


def where(cond, a, b) -> Tensor:
    """Select by a constant boolean mask."""
    cond = np.asarray(cond, dtype=bool)
    a, b = as_tensor(a), as_tensor(b)
    return _node(np.where(cond, a.data, b.data), (a, b),
                 lambda g: (_unbroadcast(g * cond, a.data.shape),
                            _unbroadcast(g * ~cond, b.data.shape)))


def arccos(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.arccos(a.data), (a,),
                 lambda g: (-g / np.sqrt(1.0 - a.data * a.data),))


def sin(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.sin(a.data), (a,), lambda g: (g * np.cos(a.data),))

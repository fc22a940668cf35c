"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor wraps an ndarray and, while gradients are enabled, records a
backward closure and its parents on a tape. Calling backward() on a scalar
accumulates gradients into every reachable leaf with requires_grad set.
backward() consumes the tape: each node drops its gradient, closure and
parents as soon as its own backward has run, so the arrays a node saved
for backward are freed along the way and only leaves keep .grad. A second
backward() through a consumed node raises ValueError. Inside no_grad() the
same ops run without building the tape, which is the inference fast path.

An elementwise op is its forward function plus its backward formulas:
_unary(fn, bw) records a node whose backward is bw(g, x, out), _binary(fn,
bwx, bwy) one that forms bwx(g, x, y) or bwy(g, x, y) only for an operand
that takes a gradient. matmul, clip, the shape ops and the reductions
write their node by hand.

Other modules write whole stages as one node each through _node, with a
backward that reads only what that stage needs, so the tape keeps no
intermediate of theirs: layers.Dense; layers.DenseStack (the integrator
and the initializer) and layers.GruLayer.sequence, whose input parts are
never joined on the tape; model.center_pose and model.rollout; rotops'
6D decode and SO(3) log; and in losses each squared-error term, the
reprojection error and the weighted total.

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
        """Reverse accumulation from a scalar output into the leaves.

        Consumes the tape: once a node has passed its gradient on, its
        .grad, backward closure and parents are dropped, so only leaves
        keep .grad and a second backward() through any node of this tape
        raises ValueError."""
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
        while order:
            node = order.pop()
            if node._bw is None:
                continue
            grads = node._bw(node.grad)
            for p, g in zip(node._parents, grads):
                if g is None or not p.requires_grad:
                    continue
                p.grad = g if p.grad is None else p.grad + g
            node.grad, node._bw, node._parents = None, _consumed, ()

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

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)


def _consumed(g):
    """The backward of a node whose backward has already run."""
    raise ValueError("backward() already ran through this tape")


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


def _unary(fn, bw):
    """An op computing fn(x), whose node's backward is bw(g, x, out)."""
    def op(a) -> Tensor:
        a = as_tensor(a)
        x = a.data
        out = fn(x)
        return _node(out, (a,), lambda g: (bw(g, x, out),))
    return op


def _binary(fn, bwx, bwy):
    """An op computing fn(x, y), whose node's backward forms bwx(g, x, y)
    and bwy(g, x, y), each summed back to its operand's shape, only for an
    operand that takes a gradient; the other gets None."""
    def op(a, b) -> Tensor:
        a, b = as_tensor(a), as_tensor(b)
        x, y = a.data, b.data

        def backward(g):
            return (_unbroadcast(bwx(g, x, y), x.shape) if a.requires_grad else None,
                    _unbroadcast(bwy(g, x, y), y.shape) if b.requires_grad else None)

        return _node(fn(x, y), (a, b), backward)
    return op


# -- arithmetic -------------------------------------------------------------

add = _binary(np.add, lambda g, x, y: g, lambda g, x, y: g)
sub = _binary(np.subtract, lambda g, x, y: g, lambda g, x, y: -g)
mul = _binary(np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)
div = _binary(np.divide, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


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


# -- reductions ---------------------------------------------------------------

def _spread(g, shape, axis, keepdims) -> np.ndarray:
    """A reduction's output gradient broadcast back over the reduced axes."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    shape = a.data.shape
    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,),
                 lambda g: (_spread(g, shape, axis, keepdims),))


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    shape = a.data.shape
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([shape[ax] for ax in axes]))
    return _node(a.data.mean(axis=axis, keepdims=keepdims), (a,),
                 lambda g: (_spread(g / count, shape, axis, keepdims),))


# -- elementwise nonlinearities ----------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function. exp(-x) would overflow for x < -709; capping its
    argument at 700 keeps the result below 1e-304 there, and leaves every
    other value bit-identical to the plain formula."""
    return 1.0 / (1.0 + np.exp(np.minimum(-x, 700.0)))


# exp overflows to inf without a warning; the loss's per-term finite check
# reports that inf as a NumericError naming the term.
exp = _unary(np.errstate(over="ignore")(np.exp), lambda g, x, out: g * out)
sigmoid = _unary(_sigmoid, lambda g, x, out: g * out * (1.0 - out))
# log(1 + exp(x)) without overflow; its gradient is sigmoid(x).
softplus = _unary(lambda x: np.logaddexp(0.0, x), lambda g, x, out: g * _sigmoid(x))
relu = _unary(lambda x: np.where(x > 0, x, 0.0), lambda g, x, out: g * (x > 0))


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


# Each constructor-built op is named after the public name it is bound to.
for _name, _op in list(globals().items()):
    if getattr(_op, "__qualname__", "").startswith(("_unary.", "_binary.")):
        _op.__name__ = _name
del _name, _op

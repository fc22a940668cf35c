"""Network building blocks: parameter registry, Dense, DenseStack, and a GRU cell.

Parameters are float64 and live in a ParamSet, which provides the flat-vector
view used by the optimizer, the checkpoint format, and gradient checking.
Weight init is uniform +-1/sqrt(fan_in), seeded, or zeros without a generator.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InvalidInputError, NumericError


class ParamSet:
    """Ordered name -> Tensor registry with a flat float64 view."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise InvalidInputError(f"duplicate parameter name {name!r}")
        t = Tensor(np.array(value, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    @property
    def size(self) -> int:
        return sum(p.data.size for p in self._params.values())

    def slices(self) -> dict[str, slice]:
        out, offset = {}, 0
        for name, p in self._params.items():
            out[name] = slice(offset, offset + p.data.size)
            offset += p.data.size
        return out

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.data.ravel() for p in self._params.values()])

    def set_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.size,):
            raise InvalidInputError(f"flat vector has size {vec.size}, expected {self.size}")
        offset = 0
        for p in self._params.values():
            n = p.data.size
            p.data = vec[offset:offset + n].reshape(p.data.shape).copy()
            offset += n

    def grads_flat(self) -> np.ndarray:
        parts = []
        for p in self._params.values():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            parts.append(np.asarray(g).ravel())
        return np.concatenate(parts)

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = None

    def block_slices(self) -> dict[str, slice]:
        """Contiguous slices per top-level name prefix (parameters are
        registered module by module, so prefixes are contiguous)."""
        blocks: dict[str, list[int]] = {}
        for name, sl in self.slices().items():
            block = name.split(".", 1)[0]
            lo, hi = blocks.get(block, (sl.start, sl.stop))
            blocks[block] = (min(lo, sl.start), max(hi, sl.stop))
        return {b: slice(lo, hi) for b, (lo, hi) in blocks.items()}


def _init_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def _initial(rng: np.random.Generator | None, shape, fan_in: int) -> np.ndarray:
    """Weights drawn by _init_uniform, or zeros when rng is None."""
    return np.zeros(shape) if rng is None else _init_uniform(rng, shape, fan_in)


def _join(xs, in_dim: int, name: str) -> tuple[tuple[Tensor, ...], np.ndarray]:
    """The parts of xs (one Tensor or a tuple joined on the last axis) and
    their joined data, once their leading axes and total width are checked."""
    parts = (xs,) if isinstance(xs, Tensor) else tuple(xs)
    lead = parts[0].shape[:-1]
    if sum(p.shape[-1] for p in parts) != in_dim or any(p.shape[:-1] != lead for p in parts):
        raise InvalidInputError(f"{name}: input dims do not match the layer")
    return parts, (parts[0].data if len(parts) == 1
                   else np.concatenate([p.data for p in parts], axis=-1))


def _part_grads(parts, g: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, list]:
    """Given the gradient g of (rows, out) outputs joined(parts) @ w, the
    gradient of w, each part forming its own rows, and the input gradient
    split into a view per part (all None when no part takes a gradient)."""
    rows, widths = g.shape[0], [p.shape[-1] for p in parts]
    dw = np.concatenate([p.data.reshape(rows, k).T @ g for p, k in zip(parts, widths)])
    if not any(p.requires_grad for p in parts):
        return dw, [None] * len(parts)
    dx = (g @ w.T).reshape(parts[0].shape[:-1] + (-1,))
    return dw, np.split(dx, np.cumsum(widths)[:-1], axis=-1)


class Dense:
    """Affine layer y = x @ W + b on the last axis of a (..., in) input,
    applied as one 2-D matmul over all leading rows and recorded as one
    tape node with a hand-written backward."""

    def __init__(self, params: ParamSet, name: str, in_dim: int, out_dim: int,
                 rng: np.random.Generator | None):
        self.name = name
        self.w = params.add(f"{name}.w", _initial(rng, (in_dim, out_dim), in_dim))
        self.b = params.add(f"{name}.b", _initial(rng, (out_dim,), in_dim))

    def __call__(self, x: Tensor) -> Tensor:
        rows = x.data.reshape(-1, x.shape[-1])
        y = self._affine(rows)

        def bw(g):
            g = g.reshape(y.shape)
            gx = (g @ self.w.data.T).reshape(x.shape) if x.requires_grad else None
            return gx, rows.T @ g, g.sum(axis=0)

        return ad._node(y.reshape(x.shape[:-1] + y.shape[-1:]), (x, self.w, self.b), bw)

    def _affine(self, rows: np.ndarray) -> np.ndarray:
        """The untaped (N, out) output of (N, in) rows, checked finite."""
        y = rows @ self.w.data
        y += self.b.data
        if not np.isfinite(y).all():
            raise NumericError(f"non-finite values in {self.name}")
        return y


class DenseStack:
    """One-hidden-layer perceptron on sizes [in, hidden, out], one tape node
    per call. zero_output starts fc1 at zero, which makes a residual branch
    an exact identity until training moves it."""

    def __init__(self, params: ParamSet, name: str, sizes: list[int],
                 rng: np.random.Generator | None, zero_output: bool = False):
        self.fc0 = Dense(params, f"{name}.fc0", sizes[0], sizes[1], rng)
        self.fc1 = Dense(params, f"{name}.fc1", sizes[1], sizes[2], rng)
        if zero_output:
            self.fc1.w.data[:] = 0.0
            self.fc1.b.data[:] = 0.0

    def __call__(self, xs, skip: Tensor | None = None) -> Tensor:
        """fc1(relu(fc0(x))) + skip, where x is one (..., in) Tensor or the
        tuple xs of parts joined on the last axis. The node keeps only the
        ReLU output; value and gradients are those of the composed join,
        Dense, ReLU, Dense and add nodes bit for bit."""
        fc0, fc1 = self.fc0, self.fc1
        parts, x = _join(xs, fc0.w.shape[0], fc0.name)
        act = fc0._affine(x.reshape(-1, x.shape[-1]))
        act = np.where(act > 0, act, 0.0)
        out = fc1._affine(act).reshape(x.shape[:-1] + (-1,))
        skips = () if skip is None else (skip,)

        def bw(g):
            g1 = g.reshape(act.shape[0], -1)
            g0 = (g1 @ fc1.w.data.T) * (act > 0)
            dw0, dxs = _part_grads(parts, g0, fc0.w.data)
            return (*dxs, *[g] * len(skips), dw0, g0.sum(axis=0), act.T @ g1, g1.sum(axis=0))

        return ad._node(out if skip is None else skip.data + out,
                        parts + skips + (fc0.w, fc0.b, fc1.w, fc1.b), bw)


class GruLayer:
    """Gated recurrent cell.

    z = sigmoid(x W_z + h U_z + b_z)
    r = sigmoid(x W_r + h U_r + b_r)
    hc = tanh(x W_h + (r * h) U_h + b_h)
    h' = (1 - z) * h + z * hc

    sequence() runs the whole recurrence as one tape node with a hand-written
    backward pass through time; step() is its single-frame case.
    """

    def __init__(self, params: ParamSet, name: str, in_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None):
        self.name = name
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        add = params.add
        for gate in ("z", "r", "h"):
            add(f"{name}.w_{gate}", _initial(rng, (in_dim, hidden_dim), in_dim))
            add(f"{name}.u_{gate}", _initial(rng, (hidden_dim, hidden_dim), hidden_dim))
            add(f"{name}.b_{gate}", _initial(rng, (hidden_dim,), in_dim))
        # Registration order, which is also the order of sequence()'s parents.
        self.weights = tuple(params[f"{name}.{k}_{gate}"]
                             for gate in ("z", "r", "h") for k in ("w", "u", "b"))

    def step(self, x: Tensor, h_prev: Tensor) -> Tensor:
        """One update of a (B, D) input on a (B, H) state."""
        b = x.data.shape[0]
        hs = self.sequence(ad.reshape(x, (1,) + x.data.shape), h_prev)
        return ad.reshape(hs, (b, self.hidden_dim))

    def sequence(self, xs, h0: Tensor | None = None) -> Tensor:
        """All hidden states (T, B, H) of the recurrence over (T, B, D)
        inputs, from h0 (zeros when None).

        xs is one (T, B, D) Tensor or a tuple of (T, B, D_k) parts joined on
        the last axis, each part meeting its own D_k rows of the input
        weights. The node keeps the states and one (T, B, 3H) array of z, r
        and hc, written in place by the frame loop (one frame of it when no
        backward can follow).

        Each frame takes three matmuls: the input projection of all three
        gates, the recurrent projection of z and r, and that of the
        candidate. Sums run in the order of the per-gate equations above,
        which keeps the model's loss bit-identical to a per-frame composition
        of them.
        """
        parts, x = _join(xs, self.in_dim, self.name)
        hid = self.hidden_dim
        h0 = Tensor(np.zeros(x.shape[1:2] + (hid,))) if h0 is None else h0
        if x.ndim != 3 or h0.data.shape != (x.shape[1], hid):
            raise InvalidInputError(f"{self.name}: input/hidden dims do not match the cell")
        t, b, _ = x.shape
        wz, uz, bz, wr, ur, br, wh, uh, bh = self.weights
        w = np.concatenate([wz.data, wr.data, wh.data], axis=1)     # (D, 3H)
        u_zr = np.concatenate([uz.data, ur.data], axis=1)            # (H, 2H)
        b_zr = np.concatenate([bz.data, br.data])
        parents = parts + (h0,) + self.weights
        record = ad.grad_enabled() and any(p.requires_grad for p in parents)
        z_, r_, h_ = slice(0, hid), slice(hid, 2 * hid), slice(2 * hid, None)

        hs = np.empty((t, b, hid))
        gates = np.empty((t if record else 1, b, 3 * hid))
        h = h0.data
        for i in range(t):
            a = np.matmul(x[i], w, out=gates[i if record else 0])
            zr = a[:, :2 * hid]
            zr += h @ u_zr
            zr += b_zr
            zr[:] = ad._sigmoid(zr)
            z, r, hc = a[:, z_], a[:, r_], a[:, h_]
            hc += (r * h) @ uh.data
            hc += bh.data
            np.tanh(hc, out=hc)
            h = hs[i] = (1.0 - z) * h + z * hc
        if not np.isfinite(hs).all():
            raise NumericError(f"non-finite values in {self.name}")
        if not record:
            return Tensor(hs)

        def bw(g):
            da = np.empty((t, b, 3 * hid))     # gate pre-activation gradients
            dh = np.zeros((b, hid))
            u_zr_t, uh_t = u_zr.T, uh.data.T
            for i in range(t - 1, -1, -1):
                z, r, hc = gates[i, :, z_], gates[i, :, r_], gates[i, :, h_]
                hp = hs[i - 1] if i else h0.data
                dh = dh + g[i]
                dah = da[i, :, 2 * hid:]
                np.multiply(dh * z, 1.0 - hc * hc, out=dah)
                drh = dah @ uh_t
                da[i, :, :hid] = dh * (hc - hp) * z * (1.0 - z)
                da[i, :, hid:2 * hid] = drh * hp * r * (1.0 - r)
                dh = dh * (1.0 - z) + drh * r + da[i, :, :2 * hid] @ u_zr_t
            # The gate activations are spent: hc's columns take the previous
            # states and r's their product with r, so no new array is made.
            h_prev, rh = gates[..., h_], gates[..., r_]
            h_prev[0], h_prev[1:] = h0.data, hs[:-1]
            rh *= h_prev
            rows = t * b
            da2 = da.reshape(rows, 3 * hid)
            dw, dxs = _part_grads(parts, da2, w)
            du_zr = h_prev.reshape(rows, hid).T @ da2[:, :2 * hid]
            du_h = rh.reshape(rows, hid).T @ da2[:, 2 * hid:]
            db = da2.sum(axis=0)
            return (*dxs, dh,
                    dw[:, z_], du_zr[:, z_], db[z_],
                    dw[:, r_], du_zr[:, r_], db[r_],
                    dw[:, h_], du_h, db[h_])

        return ad._node(hs, parents, bw)

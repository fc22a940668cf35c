"""Network building blocks: parameter registry, dense stacks, and a GRU cell.

Parameters are float64 and live in a ParamSet, which provides the flat-vector
view used by the optimizer, the checkpoint format, and gradient checking.
Weight init is uniform +-1/sqrt(fan_in), seeded.
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

    def names(self) -> list[str]:
        return list(self._params)

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

    def freeze(self) -> None:
        for p in self._params.values():
            p.requires_grad = False

    def block_slices(self, sep: str = ".") -> dict[str, slice]:
        """Contiguous slices per top-level name prefix (parameters are
        registered module by module, so prefixes are contiguous)."""
        blocks: dict[str, list[int]] = {}
        for name, sl in self.slices().items():
            block = name.split(sep, 1)[0]
            lo, hi = blocks.get(block, (sl.start, sl.stop))
            blocks[block] = (min(lo, sl.start), max(hi, sl.stop))
        return {b: slice(lo, hi) for b, (lo, hi) in blocks.items()}


def _init_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def _check_finite(x: Tensor, where: str) -> Tensor:
    if not np.isfinite(x.data).all():
        raise NumericError(f"non-finite values in {where}")
    return x


class Dense:
    """Affine layer y = x @ W + b."""

    def __init__(self, params: ParamSet, name: str, in_dim: int, out_dim: int,
                 rng: np.random.Generator):
        self.name = name
        self.w = params.add(f"{name}.w", _init_uniform(rng, (in_dim, out_dim), in_dim))
        self.b = params.add(f"{name}.b", _init_uniform(rng, (out_dim,), in_dim))

    def __call__(self, x: Tensor) -> Tensor:
        return _check_finite(ad.add(ad.matmul(x, self.w), self.b), self.name)


class DenseStack:
    """Fully connected stack, ReLU on hidden layers, linear output.

    zero_output starts the last layer at zero, which makes a residual branch
    an exact identity until training moves it."""

    def __init__(self, params: ParamSet, name: str, sizes: list[int],
                 rng: np.random.Generator, zero_output: bool = False):
        if len(sizes) < 2:
            raise InvalidInputError("DenseStack needs at least input and output sizes")
        self.layers = [Dense(params, f"{name}.fc{i}", sizes[i], sizes[i + 1], rng)
                       for i in range(len(sizes) - 1)]
        if zero_output:
            self.layers[-1].w.data[:] = 0.0
            self.layers[-1].b.data[:] = 0.0

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = ad.relu(layer(x))
        return self.layers[-1](x)


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
                 rng: np.random.Generator):
        self.name = name
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        add = params.add
        for gate in ("z", "r", "h"):
            add(f"{name}.w_{gate}", _init_uniform(rng, (in_dim, hidden_dim), in_dim))
            add(f"{name}.u_{gate}", _init_uniform(rng, (hidden_dim, hidden_dim), hidden_dim))
            add(f"{name}.b_{gate}", _init_uniform(rng, (hidden_dim,), in_dim))
        # Registration order, which is also the order of sequence()'s parents.
        self.weights = tuple(params[f"{name}.{k}_{gate}"]
                             for gate in ("z", "r", "h") for k in ("w", "u", "b"))

    def step(self, x: Tensor, h_prev: Tensor) -> Tensor:
        """One update of a (B, D) input on a (B, H) state."""
        b = x.data.shape[0]
        hs = self.sequence(ad.reshape(x, (1,) + x.data.shape), h_prev)
        return ad.reshape(hs, (b, self.hidden_dim))

    def sequence(self, xs: Tensor, h0: Tensor | None = None) -> Tensor:
        """All hidden states (T, B, H) of the recurrence over (T, B, D)
        inputs, from h0 (zeros when None).

        Each frame takes three matmuls: the input projection of all three
        gates, the recurrent projection of z and r, and that of the
        candidate. Sums run in the order of the per-gate equations above,
        which keeps the model's loss bit-identical to a per-frame composition
        of them. The gate activations are kept only when a backward pass can
        follow.
        """
        t, b, d = xs.data.shape
        hid = self.hidden_dim
        if h0 is None:
            h0 = Tensor(np.zeros((b, hid)))
        if d != self.in_dim or h0.data.shape != (b, hid):
            raise InvalidInputError(f"{self.name}: input/hidden dims do not match the cell")
        wz, uz, bz, wr, ur, br, wh, uh, bh = self.weights
        w = np.concatenate([wz.data, wr.data, wh.data], axis=1)     # (D, 3H)
        u_zr = np.concatenate([uz.data, ur.data], axis=1)            # (H, 2H)
        b_zr = np.concatenate([bz.data, br.data])
        parents = (xs, h0) + self.weights
        record = ad.grad_enabled() and any(p.requires_grad for p in parents)

        hs = np.empty((t, b, hid))
        if record:
            zs, rs, hcs = np.empty_like(hs), np.empty_like(hs), np.empty_like(hs)
        h = h0.data
        for i in range(t):
            a = xs.data[i] @ w
            zr = a[:, :2 * hid]
            zr += h @ u_zr
            zr += b_zr
            zr = ad._sigmoid(zr)
            z, r = zr[:, :hid], zr[:, hid:]
            ah = a[:, 2 * hid:]
            ah += (r * h) @ uh.data
            ah += bh.data
            hc = np.tanh(ah)
            h = hs[i] = (1.0 - z) * h + z * hc
            if record:
                zs[i], rs[i], hcs[i] = z, r, hc
        if not np.isfinite(hs).all():
            raise NumericError(f"non-finite values in {self.name}")
        if not record:
            return Tensor(hs)

        def bw(g):
            h_prev = np.concatenate([h0.data[None], hs[:-1]], axis=0)
            da = np.empty((t, b, 3 * hid))     # gate pre-activation gradients
            dh = np.zeros((b, hid))
            u_zr_t, uh_t = u_zr.T, uh.data.T
            for i in range(t - 1, -1, -1):
                z, r, hc, hp = zs[i], rs[i], hcs[i], h_prev[i]
                dh = dh + g[i]
                dah = da[i, :, 2 * hid:]
                np.multiply(dh * z, 1.0 - hc * hc, out=dah)
                drh = dah @ uh_t
                da[i, :, :hid] = dh * (hc - hp) * z * (1.0 - z)
                da[i, :, hid:2 * hid] = drh * hp * r * (1.0 - r)
                dh = dh * (1.0 - z) + drh * r + da[i, :, :2 * hid] @ u_zr_t
            rows = t * b
            da2 = da.reshape(rows, 3 * hid)
            dw = xs.data.reshape(rows, d).T @ da2
            du_zr = h_prev.reshape(rows, hid).T @ da2[:, :2 * hid]
            du_h = (rs * h_prev).reshape(rows, hid).T @ da2[:, 2 * hid:]
            db = da2.sum(axis=0)
            dx = (da2 @ w.T).reshape(t, b, d) if xs.requires_grad else None
            z_, r_, h_ = slice(0, hid), slice(hid, 2 * hid), slice(2 * hid, None)
            return (dx, dh,
                    dw[:, z_], du_zr[:, z_], db[z_],
                    dw[:, r_], du_zr[:, r_], db[r_],
                    dw[:, h_], du_h, db[h_])

        return ad._node(hs, parents, bw)

"""Adam optimizer on a ParamSet and the checkpoint file format.

Checkpoint layout (little-endian):
    8 bytes   magic b"WKCKPT01"
    u32       format version (currently 1)
    u32       header length in bytes
    bytes     header JSON: {"dims": {...}, "meta": {...},
                            "sections": [{"name": str, "count": int}, ...]}
    f64[]     section payloads, concatenated in header order

The "params" section is the flat parameter vector; optimizer state adds
"adam_m" and "adam_v" sections plus a step counter in meta.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, InvalidInputError
from .fileio import atomic_write

MAGIC = b"WKCKPT01"
VERSION = 1


@dataclass
class AdamState:
    """Bias-corrected Adam with an optional learning-rate multiplier per
    parameter name (1 for a name the map leaves out)."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: np.ndarray = field(default=None)  # type: ignore[assignment]
    v: np.ndarray = field(default=None)  # type: ignore[assignment]
    step_count: int = 0
    lr_scale: dict[str, float] = field(default_factory=dict)

    def ensure(self, n: int) -> None:
        if self.m is None:
            self.m = np.zeros(n)
            self.v = np.zeros(n)
        if self.m.shape != (n,):
            raise InvalidInputError("Adam state length does not match the parameter vector")


def adam_step(state: AdamState, params, grads: np.ndarray) -> None:
    """One Adam update of every array of the ParamSet params, in place.

    grads, state.m and state.v are flat vectors in the order of
    params.slices(); each array reads its own slice of them. Every element
    sees m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    p - lr m_hat / (sqrt(v_hat) + eps) * lr_scale, in that order."""
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != (params.size,):
        raise InvalidInputError("parameter and gradient vectors differ in length")
    state.ensure(params.size)
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for name, sl in params.slices().items():
        p = params[name].data
        g, m, v = (a[sl].reshape(p.shape) for a in (grads, state.m, state.v))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        step = m / (1.0 - b1 ** t) * state.lr / (np.sqrt(v / (1.0 - b2 ** t)) + state.eps)
        step *= state.lr_scale.get(name, 1.0)
        p -= step


def save_checkpoint(path, dims: dict, params_vec: np.ndarray,
                    meta: dict | None = None,
                    extra_sections: dict[str, np.ndarray] | None = None) -> None:
    """Write a checkpoint atomically (fileio.atomic_write): a write that
    fails partway leaves any previous checkpoint at path intact and no
    temporary file behind. Each section's little-endian buffer is written
    as it is, copied only when the array is not one already."""
    sections = [(name, np.ascontiguousarray(arr, dtype="<f8"))
                for name, arr in [("params", params_vec), *(extra_sections or {}).items()]]
    header = {
        "dims": dims,
        "meta": meta or {},
        "sections": [{"name": n, "count": int(a.size)} for n, a in sections],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(blob)))
        fh.write(blob)
        for _, arr in sections:
            fh.write(memoryview(arr).cast("B"))


def load_checkpoint(path, sections=None) -> tuple[dict, dict, dict[str, np.ndarray]]:
    """Returns (dims, meta, {name: array}) of the named sections, or of all
    sections when sections is None. Every section's count is checked
    against the file's size before any read, read or not; each returned
    section is read straight into its own array, the others are skipped."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        fixed = fh.read(8)
        if len(fixed) != 8:
            raise CheckpointError(f"{path}: truncated header")
        version, hlen = struct.unpack("<II", fixed)
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
            dims, meta = header["dims"], header["meta"]
            layout = [(str(sec["name"]), sec["count"]) for sec in header["sections"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: truncated or malformed header") from exc
        # A count is a non-negative int (JSON also yields bools and floats,
        # Infinity among them), checked against the bytes left before any
        # read is sized by it.
        if not (isinstance(dims, dict) and isinstance(meta, dict)
                and all(type(count) is int and count >= 0 for _, count in layout)):
            raise CheckpointError(f"{path}: malformed header")
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        for name, count in layout:
            if 8 * count > left:
                raise CheckpointError(f"{path}: truncated section {name!r}")
            left -= 8 * count
        if "params" not in (name for name, _ in layout):
            raise CheckpointError(f"{path}: missing params section")
        out = {}
        for name, count in layout:
            if sections is None or name in sections:
                out[name] = np.empty(count, dtype="<f8")
                if fh.readinto(memoryview(out[name]).cast("B")) != 8 * count:
                    raise CheckpointError(f"{path}: truncated section {name!r}")
            else:
                fh.seek(8 * count, os.SEEK_CUR)
    return dims, meta, out

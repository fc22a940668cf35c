"""Adam optimizer on flat parameter vectors and the checkpoint file format.

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

# Elements per block of the Adam update. The seven 128 KiB slices one block
# touches (params, g, m, v, lr_scale, the step, a temporary) stay in L2
# across its fifteen operations, where whole-vector passes over a
# 460k-parameter model (3.7 MB per array) overflow L2 and re-read every
# operand from a slower cache level or memory each time.
ADAM_BLOCK = 16_384


@dataclass
class AdamState:
    """Bias-corrected Adam with an optional per-parameter learning-rate scale."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: np.ndarray = field(default=None)  # type: ignore[assignment]
    v: np.ndarray = field(default=None)  # type: ignore[assignment]
    step_count: int = 0
    lr_scale: np.ndarray | None = None

    def ensure(self, n: int) -> None:
        if self.m is None:
            self.m = np.zeros(n)
            self.v = np.zeros(n)
        if self.m.shape != (n,):
            raise InvalidInputError("Adam state length does not match the parameter vector")


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One Adam update; returns the new parameter vector.

    The moments are updated in place, one ADAM_BLOCK-element block at a
    time with reused temporaries, in the operation order of
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, and
    step = lr m_hat / (sqrt(v_hat) + eps) * lr_scale. Every element sees
    the same operations as in one whole-vector pass, so the result is
    bit-identical to it."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape:
        raise InvalidInputError("parameter and gradient vectors differ in length")
    state.ensure(params.size)
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    new = np.empty_like(params)
    buf = np.empty(min(ADAM_BLOCK, params.size))
    for lo in range(0, params.size, ADAM_BLOCK):
        sl = slice(lo, lo + ADAM_BLOCK)
        g, m, v, step = grads[sl], state.m[sl], state.v[sl], new[sl]
        tmp = buf[:g.size]
        np.multiply(1.0 - b1, g, out=tmp)
        m *= b1
        m += tmp
        np.multiply(1.0 - b2, g, out=tmp)
        tmp *= g
        v *= b2
        v += tmp
        np.divide(v, 1.0 - b2 ** t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += state.eps
        np.divide(m, 1.0 - b1 ** t, out=step)
        step *= state.lr
        step /= tmp
        if state.lr_scale is not None:
            step *= state.lr_scale[sl]
        np.subtract(params[sl], step, out=step)
    return new


def save_checkpoint(path, dims: dict, params_vec: np.ndarray,
                    meta: dict | None = None,
                    extra_sections: dict[str, np.ndarray] | None = None) -> None:
    """Write a checkpoint atomically (fileio.atomic_write): a write that
    fails partway leaves any previous checkpoint at path intact and no
    temporary file behind."""
    sections = [("params", np.asarray(params_vec, dtype=np.float64))]
    for name, arr in (extra_sections or {}).items():
        sections.append((name, np.asarray(arr, dtype=np.float64)))
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
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[dict, dict, dict[str, np.ndarray]]:
    """Returns (dims, meta, sections)."""
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
        sections = {}
        for name, count in layout:
            if 8 * count > left:
                raise CheckpointError(f"{path}: truncated section {name!r}")
            left -= 8 * count
            sections[name] = np.frombuffer(fh.read(8 * count), dtype="<f8").copy()
    if "params" not in sections:
        raise CheckpointError(f"{path}: missing params section")
    return dims, meta, sections

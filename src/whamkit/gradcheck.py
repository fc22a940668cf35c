"""Backpropagation driver and finite-difference gradient verification.

A "module" here is anything with a `params` ParamSet attribute and a
`loss(batch)` method returning a scalar Tensor. forward_backward runs the
tape once; grad_check compares against central finite differences per
parameter block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import NumericError

# Relative-error denominator floor: below this scale, central differences on
# an O(1) loss are dominated by roundoff, not by gradient information.
REL_ERR_FLOOR = 1e-3


def forward_backward(module, batch) -> tuple[float, np.ndarray]:
    """Loss value and flat gradient of the module on one batch."""
    module.params.zero_grads()
    loss = module.loss(batch)
    value = loss.item()
    if not np.isfinite(value):
        raise NumericError("non-finite total loss")
    loss.backward()
    return value, module.params.grads_flat()


def finite_difference_grads(module, batch, delta: float = 1e-5,
                            indices: np.ndarray | None = None) -> np.ndarray:
    """Central-difference gradient, evaluated without building the tape."""
    base = module.params.get_flat()
    idx = np.arange(base.size) if indices is None else np.asarray(indices)
    out = np.zeros(idx.size)
    vec = base.copy()
    with ad.no_grad():
        for j, i in enumerate(idx):
            vec[i] = base[i] + delta
            module.params.set_flat(vec)
            hi = module.loss(batch).item()
            vec[i] = base[i] - delta
            module.params.set_flat(vec)
            lo = module.loss(batch).item()
            vec[i] = base[i]
            out[j] = (hi - lo) / (2.0 * delta)
    module.params.set_flat(base)
    return out


@dataclass
class GradCheckReport:
    passed: bool
    tol: float
    delta: float
    worst_by_block: dict[str, float]
    elapsed_s: float

    def __str__(self) -> str:
        lines = [f"gradient check: {'PASS' if self.passed else 'FAIL'} "
                 f"(tol {self.tol:g}, delta {self.delta:g}, {self.elapsed_s:.1f}s)"]
        for block, err in sorted(self.worst_by_block.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {block:24s} max rel err {err:.3e}")
        return "\n".join(lines)


def relative_error(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), REL_ERR_FLOOR)


def grad_check(module, batch, delta: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic and finite-difference gradients per parameter block."""
    start = time.perf_counter()
    _, analytic = forward_backward(module, batch)
    numeric = finite_difference_grads(module, batch, delta=delta)
    err = relative_error(analytic, numeric)
    worst = {}
    for block, sl in module.params.block_slices().items():
        worst[block] = float(err[sl].max()) if err[sl].size else 0.0
    passed = all(e < tol for e in worst.values())
    return GradCheckReport(passed=passed, tol=tol, delta=delta,
                           worst_by_block=worst, elapsed_s=time.perf_counter() - start)

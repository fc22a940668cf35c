"""Micro-benchmark of the core recurrent inference path."""

from __future__ import annotations

import time

import numpy as np

from . import autodiff as ad
from .errors import InvalidInputError
from .model import ENCODER_INPUT_DIM, WhamModel


def _random_inputs(rng, frames: int, batch: int, feature_dim: int):
    kp = rng.uniform(-1.0, 1.0, size=(frames, batch, ENCODER_INPUT_DIM))
    omega = rng.normal(0.0, 0.01, size=(frames, batch, 3))
    feats = rng.normal(0.0, 1.0, size=(frames, batch, feature_dim))
    return kp, omega, feats


def run_bench(model: WhamModel, frames: int = 81, runs: int = 5, seed: int = 0) -> dict:
    """Median frames/second of encode-decode-trajectory-refine-rollout for
    batch sizes 1 and 64 (single process; thread use follows the BLAS env)."""
    if frames < 2 or runs < 1:
        raise InvalidInputError(f"bench needs at least 2 frames and 1 run, "
                                f"got {frames} and {runs}")
    rng = np.random.default_rng(seed)
    report: dict = {"frames": frames, "runs": runs, "batch_modes": {}}
    for batch in (1, 64):
        kp, omega, feats = _random_inputs(rng, frames, batch, model.dims.feature_dim)
        with ad.no_grad():
            model.forward(kp, omega, features=feats, neural_init_mode="self")  # warmup
            samples = []
            for _ in range(runs):
                start = time.perf_counter()
                model.forward(kp, omega, features=feats, neural_init_mode="self")
                samples.append(time.perf_counter() - start)
        med = float(np.median(samples))
        report["batch_modes"][str(batch)] = {
            "median_s": med,
            "frames_per_s": frames * batch / med,
            "samples_s": [float(s) for s in samples],
        }
    return report

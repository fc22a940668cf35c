import os

# Single-threaded BLAS before numpy loads anywhere: the determinism
# guarantees assume thread count 1.
os.environ.setdefault("WHAMKIT_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import csv
import math

import numpy as np
import pytest

from whamkit import dataset as ds, metrics
from whamkit.constants import CAMERA_BASE
from whamkit.losses import LossWeights
from whamkit.model import ModelDims, WhamModel, WhamParams
from whamkit.synth import SynthConfig
from whamkit.train import TrainingModule, build_batch, make_chunks

TOY_DIMS = ModelDims(hidden=8, feature_dim=8, integrator_hidden=8, init_hidden=16)


def toy_bundles(num: int, frames: int, seed: int = 3, **cfg_overrides):
    cfg = SynthConfig(seq_len=frames, speed_min=1.0, speed_max=1.0, feature_dim=8,
                      **cfg_overrides)
    parts = [ds.synthesize_sequence(cfg, s, seed)
             for s in np.random.SeedSequence(seed).spawn(num)]
    return [ds.SequenceBundle(*p, index=i) for i, p in enumerate(parts)]


@pytest.fixture(scope="session")
def toy_batch():
    """A 4-frame single-sequence batch matching TOY_DIMS."""
    bundles = toy_bundles(1, 4)
    return build_batch(make_chunks(bundles, 4), with_features=True)


@pytest.fixture(scope="session")
def toy_module(toy_batch):
    model = WhamModel(WhamParams(TOY_DIMS, seed=0))
    return TrainingModule(model, LossWeights(), stage="finetune")


@pytest.fixture(scope="session")
def small_trained(tmp_path_factory):
    """A briefly trained small model over a small dataset, for tests that
    need plausible (not accurate) outputs."""
    from whamkit.config import RunConfig
    from whamkit.train import load_model, run_training

    root = tmp_path_factory.mktemp("small_trained")
    data = str(root / "data")
    ds.synthesize_dataset(data, SynthConfig(feature_dim=16), seed=5, count=24)
    cfg = RunConfig(dataset=data, out_dir=str(root / "run"), seed=5, epochs=4,
                    batch_size=8, hidden=32, feature_dim=16, integrator_hidden=32,
                    init_hidden=16)
    pre = run_training(cfg, "pretrain")
    fin = run_training(cfg, "finetune", init_checkpoint=pre)
    model, meta = load_model(fin)
    return {"model": model, "dataset": data, "run_dir": str(root / "run"),
            "pretrain": pre, "finetune": fin, "meta": meta, "cfg": cfg}


def is_rotation(r, tol: float = 1e-6) -> bool:
    """True if r is orthonormal with determinant +1 within tol."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        return False
    return (np.abs(r.T @ r - np.eye(3)).max() < tol
            and abs(np.linalg.det(r) - 1.0) < tol)


def camera_pitch_roll(rotation) -> tuple[float, float]:
    """Recover the (pitch, roll) pair of a camera built by the synthesizer."""
    m = np.asarray(rotation) @ CAMERA_BASE.T
    pitch = math.atan2(m[2, 1], m[2, 2])
    roll = math.atan2(m[1, 0], m[0, 0])
    return pitch, roll


def read_metrics_csv(path) -> tuple[list[dict], dict]:
    """Parse metrics.csv back into per-sequence rows and the aggregate."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    parsed = []
    aggregate = {}
    for row in rows:
        values = {k: (float(row[k]) if row[k] else math.nan)
                  for k in metrics.MetricReport.FIELDS}
        if row["seq"] == "aggregate":
            aggregate = values
        else:
            parsed.append({"seq": int(row["seq"]), **values, "flags": row["flags"]})
    return parsed, aggregate

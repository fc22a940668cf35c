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

import whamkit.autodiff as ad
from whamkit import dataset as ds, fileio, geom, losses, metrics
from whamkit.constants import CAMERA_BASE
from whamkit.losses import LossWeights
from whamkit.body import HIPS
from whamkit.model import _REST_ANCHOR, ModelDims, WhamModel, WhamParams
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


def kabsch_reference(source, target, with_scale: bool = False):
    """The per-point-set Kabsch/Umeyama alignment that geom.kabsch_align
    batches: (rotation, translation, scale) of one (N, 3) pair."""
    src = np.asarray(source, dtype=float).reshape(-1, 3)
    tgt = np.asarray(target, dtype=float).reshape(-1, 3)
    mu_s = src.mean(axis=0)
    mu_t = tgt.mean(axis=0)
    ps = src - mu_s
    pt = tgt - mu_t
    cov = ps.T @ pt
    u, sig, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    if d == 0.0:
        d = 1.0
    corr = np.array([1.0, 1.0, d])
    rot = vt.T @ np.diag(corr) @ u.T
    scale = 1.0
    if with_scale:
        var_s = float((ps * ps).sum())
        if var_s > 1e-30:
            scale = float((sig * corr).sum() / var_s)
    t = mu_t - scale * rot @ mu_s
    return rot, t, scale


def needs_reflection_fix(src, tgt) -> bool:
    """True when the best orthogonal map of centered src onto tgt is a reflection."""
    u, _, vt = np.linalg.svd((src - src.mean(0)).T @ (tgt - tgt.mean(0)))
    return np.linalg.det(vt.T @ u.T) < 0


def kabsch_cases(rng, joints: int = 21):
    """Named (source, target) frames covering the branches of the alignment."""
    base = rng.normal(size=(joints, 3))
    cases = {f"random{i}": (rng.normal(size=(joints, 3)), rng.normal(size=(joints, 3)))
             for i in range(3)}
    cases["similar"] = (base, 0.7 * base @ geom.exp_so3(rng.normal(size=3)).T + [1.0, 0, 2.0])
    cases["reflected"] = (base, base * [1.0, 1.0, -1.0] + 0.01 * rng.normal(size=(joints, 3)))
    cases["collinear"] = (np.outer(rng.normal(size=joints), [0.3, -1.0, 0.5]) + [2.0, 0, 0],
                          rng.normal(size=(joints, 3)))
    cases["all_equal"] = (np.tile([0.5, -0.2, 3.0], (joints, 1)), rng.normal(size=(joints, 3)))
    cases["tiny_spread"] = (1e-4 * base, rng.normal(size=(joints, 3)))
    assert needs_reflection_fix(*cases["reflected"])
    return cases


def pa_mpjpe_reference(pred, truth) -> float:
    """PA-MPJPE (mm) with one kabsch_reference call per frame."""
    errs = []
    for p, q in zip(np.asarray(pred, dtype=float), np.asarray(truth, dtype=float)):
        rot, t, s = kabsch_reference(p, q, with_scale=True)
        aligned = s * (p @ rot.T) + t
        errs.append(np.linalg.norm(aligned - q, axis=-1).mean())
    return float(np.mean(errs) * metrics.MM)


class FailingFile:
    """A file whose writes fail once `limit` bytes (or characters) are
    written, after writing as much of the failing chunk as fits."""

    def __init__(self, fh, limit: int):
        self.fh, self.limit, self.written = fh, limit, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        room = self.limit - self.written
        if len(data) > room:
            self.fh.write(data[:room])
            raise OSError("No space left on device")
        self.written += len(data)
        return self.fh.write(data)


def fail_atomic_writes(monkeypatch, limit: int = 100) -> None:
    """Make every fileio.atomic_write file fail after `limit` bytes."""
    monkeypatch.setattr(fileio, "open", lambda *a, **k: FailingFile(open(*a, **k), limit),
                        raising=False)


def fd_grad(fn, tensors, delta=1e-6):
    """Central finite differences of a scalar function of Tensors."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        for i in np.ndindex(t.data.shape):
            orig = t.data[i]
            t.data[i] = orig + delta
            hi = fn().item()
            t.data[i] = orig - delta
            lo = fn().item()
            t.data[i] = orig
            g[i] = (hi - lo) / (2 * delta)
        grads.append(g)
    return grads


def check(fn, tensors, tol=1e-6):
    """The gradient of the scalar fn() in each tensor agrees with central
    differences to a relative tol."""
    for t in tensors:
        t.grad = None
    loss = fn()
    loss.backward()
    for t, fd in zip(tensors, fd_grad(fn, tensors)):
        an = t.grad if t.grad is not None else np.zeros_like(t.data)
        err = np.abs(an - fd) / np.maximum(np.abs(an) + np.abs(fd), 1e-3)
        assert err.max() < tol, f"max rel err {err.max()}"


def rollout_np(root_rot: np.ndarray, vel: np.ndarray, origin=(0.0, 0.0, 0.0)) -> np.ndarray:
    """A per-frame numpy roll-out of one sequence, the reference for
    model.rollout and for rolling out ground truth."""
    t = vel.shape[0]
    tau = np.zeros((t, 3))
    tau[0] = origin
    for i in range(t - 1):
        tau[i + 1] = tau[i] + root_rot[i] @ vel[i]
    return tau


# -- composed autodiff references -------------------------------------------
# The package records a Dense layer, a DenseStack (the feature integrator
# and the initializer), each squared-error loss term, the 6D rotation
# decode, the SO(3) log, a GRU over joined inputs, the pose centering, the
# trajectory roll-out and the weighted loss sum as one tape node each.
# These compose the same math from one node per op, and the table of
# tests/test_kernels.py compares the fused kernels against them.

square = ad._unary(lambda x: x * x, lambda g, x, out: g * 2.0 * x)
sqrt = ad._unary(np.sqrt, lambda g, x, out: g * 0.5 / out)
arccos = ad._unary(np.arccos, lambda g, x, out: -g / np.sqrt(1.0 - x * x))
sin = ad._unary(np.sin, lambda g, x, out: g * np.cos(x))
for _op, _name in ((square, "square"), (sqrt, "sqrt"), (arccos, "arccos"), (sin, "sin")):
    _op.__name__ = _name
del _op, _name


def stack(parts, axis=0):
    """np.stack as a tape node."""
    parts = [ad.as_tensor(p) for p in parts]

    def bw(g):
        return tuple(np.moveaxis(g, axis, 0)[i] for i in range(len(parts)))

    return ad._node(np.stack([p.data for p in parts], axis=axis), tuple(parts), bw)


def concat(parts, axis=-1):
    """np.concatenate as a tape node."""
    parts = [ad.as_tensor(p) for p in parts]
    offsets = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
    return ad._node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts),
                    lambda g: tuple(np.split(g, offsets, axis=axis)))


def cumsum(a, axis=0):
    """Running sum along one axis, accumulated in index order, as a tape node."""
    a = ad.as_tensor(a)
    return ad._node(np.cumsum(a.data, axis=axis), (a,),
                    lambda g: (np.flip(np.cumsum(np.flip(g, axis), axis=axis), axis),))


def where(cond, a, b):
    """Select by a constant boolean mask, as a tape node."""
    cond = np.asarray(cond, dtype=bool)
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    return ad._node(np.where(cond, a.data, b.data), (a, b),
                    lambda g: (ad._unbroadcast(g * cond, a.data.shape),
                               ad._unbroadcast(g * ~cond, b.data.shape)))


def composed_dense(layer, x):
    """layer(x) as reshape, matmul, bias add and reshape nodes."""
    rows = x if x.data.ndim == 2 else ad.reshape(x, (-1, x.shape[-1]))
    y = ad.add(ad.matmul(rows, layer.w), layer.b)
    return y if rows is x else ad.reshape(y, x.shape[:-1] + y.shape[-1:])


def composed_mean_sq_error(pred, target, norm_axes=1):
    """losses._mean_sq_error as subtract, reshape, square, sum and mean nodes."""
    diff = pred - target
    if norm_axes:
        diff = ad.reshape(diff, diff.shape[:diff.data.ndim - norm_axes] + (-1,))
        return ad.tmean(ad.tsum(square(diff), axis=-1))
    return ad.tmean(square(diff))


def composed_reprojection_loss(cam_points, kp_px, visible, focal, cx, cy, image_w):
    """losses.reprojection_loss with its weighted squared error as
    subtract, scale, square, weight, sum and normalize nodes."""
    b = cam_points.shape[1]
    z = cam_points[..., 2:3]
    z_safe = ad.clip(z, losses.MIN_REPROJECTION_DEPTH, None)
    center = np.stack([cx, cy], axis=-1).reshape(1, b, 1, 2)
    pred = (cam_points[..., :2] / z_safe * ad.Tensor(focal.reshape(1, b, 1, 1))
            + ad.Tensor(center))
    err = (pred - ad.Tensor(kp_px)) * (1.0 / image_w)
    sq = ad.tsum(square(err) * ad.Tensor(visible.astype(float)[..., None]), axis=-1)
    loss = ad.tsum(sq) * (1.0 / int(visible.sum()))
    hinge = composed_mean_sq_error(ad.relu(losses.DEPTH_HINGE - z), 0.0, norm_axes=0)
    return loss + hinge


def cross(a, b):
    """Cross product over the trailing axis of (..., 3) tensors."""
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


def composed_rotation6d_to_matrix(v):
    """rotops.rotation6d_to_matrix as one node per elementwise op."""
    a1 = v[..., 0:3]
    a2 = v[..., 3:6]
    n1 = ad.clip(sqrt(ad.tsum(square(a1), axis=-1, keepdims=True)), 1e-12, None)
    b1 = a1 / n1
    dot = ad.tsum(b1 * a2, axis=-1, keepdims=True)
    u2 = a2 - dot * b1
    n2 = ad.clip(sqrt(ad.tsum(square(u2), axis=-1, keepdims=True)), 1e-12, None)
    b2 = u2 / n2
    b3 = cross(b1, b2)
    return stack([b1, b2, b3], axis=-1)


def composed_so3_log(rel):
    """rotops.so3_log as one node per elementwise op."""
    tr = ad.tsum(rel[..., [0, 1, 2], [0, 1, 2]], axis=-1, keepdims=True)
    c = (tr - 1.0) * 0.5
    u = 1.0 - c
    small = u.data < 1e-6
    s_small = 0.5 + u * (1.0 / 6.0) + square(u) * (1.0 / 15.0)
    theta = arccos(ad.clip(c, -1.0 + 1e-7, 1.0 - 1e-7))
    s_large = theta / (2.0 * sin(theta))
    s = where(small, s_small, s_large)
    vee = rel[..., [2, 0, 1], [1, 2, 0]] - rel[..., [1, 2, 0], [2, 0, 1]]
    return vee * s


def composed_sequence(layer, parts, h0=None):
    """layer.sequence over its input parts joined by a concat node."""
    return layer.sequence(concat(parts, axis=2), h0)


def composed_mlp(stack, xs, skip=None):
    """stack(xs, skip) for a layers.DenseStack as concat, Dense, ReLU, Dense
    and residual add nodes."""
    x = xs if isinstance(xs, ad.Tensor) else concat(xs)
    out = stack.fc1(ad.relu(stack.fc0(x)))
    return out if skip is None else skip + out


def composed_integrate(wham, phi, features):
    """WhamModel.integrate as concat, Dense, ReLU, Dense and residual add
    nodes."""
    return composed_mlp(wham.weights.integrator, (phi, ad.Tensor(features)), skip=phi)


def composed_center_pose(flat):
    """model.center_pose as anchor add, reshape, hip gather, mean and
    subtract nodes."""
    pose = ad.reshape(flat + ad.Tensor(_REST_ANCHOR), flat.shape[:-1] + (21, 3))
    return pose - ad.tmean(pose[..., HIPS, :], axis=-2, keepdims=True)


def composed_rollout(root_rot, vel):
    """model.rollout as slice, reshape, matmul, concat and cumsum nodes."""
    t, b = vel.shape[0], vel.shape[1]
    steps = ad.reshape(ad.matmul(root_rot[:t - 1], ad.reshape(vel[:t - 1], (t - 1, b, 3, 1))),
                       (t - 1, b, 3))
    return cumsum(concat([ad.Tensor(np.zeros((1, b, 3))), steps], axis=0), axis=0)


def composed_weighted_sum(terms, weights):
    """losses._weighted_sum as one multiply node per term and a chain of
    add nodes."""
    total = None
    for name, term in terms.items():
        weighted = term * getattr(weights, name)
        total = weighted if total is None else total + weighted
    return total

"""Output checks of the benchmark, computed apart from whamkit.

Each function takes the program's outputs (files or arrays) and returns a
list of problems; an empty list means the check passed. The computations
here (central differences, the roll-out, the hip-centred MPJPE, foot slide,
root-path rank) are written out in numpy and do not call into whamkit.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

MM = 1000.0
GRAD_REL_TOL = 1e-6
# At the initial weights some contact probabilities sit within 1e-6 of the
# 0.5 gate; a step of 1e-4 moves them by about 3e-6 and crosses the gate in
# most directions, 1e-5 rarely does and keeps the error near 1e-8.
GRAD_STEP = 1e-5
# float64 holds a loss to about one unit in its last place (ulp), so a
# central difference carries a relative rounding error of about
# 2 ulps / |hi - lo|. Along a direction nearly orthogonal to the gradient
# |hi - lo| spans too few ulps to resolve GRAD_REL_TOL (train_b64 seed
# 68443390: grad . d = 6e-6 against a typical 0.045, rounding error 1.7e-5);
# 1e7 ulps keeps the rounding error near 2e-7.
RESOLVE_ULPS = 1e7
EXACT_TOL = 1e-9
METRIC_FIELDS = ("mpjpe", "pa_mpjpe", "accel_err", "w_mpjpe_100",
                 "wa_mpjpe_100", "rte", "jitter_err", "fs")


def read_ndjson(path) -> tuple[dict, list[dict]]:
    """Header object and per-frame objects of a whamkit NDJSON file."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        frames = [json.loads(line) for line in fh if line.strip()]
    return header, frames


def frame_array(frames: list[dict], key: str, shape: tuple) -> np.ndarray:
    return np.array([f[key] for f in frames], dtype=float).reshape((len(frames),) + shape)


def read_metrics_rows(path) -> dict[str, dict]:
    """metrics.csv rows keyed by their `seq` cell, values as floats."""
    rows = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows[row["seq"]] = {k: float(row[k]) if row[k] else math.nan for k in METRIC_FIELDS}
            rows[row["seq"]]["flags"] = row["flags"]
    return rows


# -- gradients ---------------------------------------------------------------

def fixed_directions(size: int, count: int, seed: int = 20231212) -> list[np.ndarray]:
    """Unit directions in parameter space, the same in every run."""
    rng = np.random.default_rng(seed)
    dirs = []
    for _ in range(count):
        d = rng.normal(size=size)
        dirs.append(d / np.linalg.norm(d))
    return dirs


def directional_gradient_problems(loss_at, base: np.ndarray, grad: np.ndarray,
                                  directions: list[np.ndarray], needed: int = 3,
                                  step: float = GRAD_STEP,
                                  tol: float = GRAD_REL_TOL) -> tuple[list[str], float]:
    """Compare grad . d with the central difference of the loss along d.

    loss_at maps a flat parameter vector to (loss, branches), where branches
    is an array of the loss's discrete choices (such as a threshold gate that
    the backward pass treats as a constant). A difference across a change of
    branch measures a jump, not a slope, so such a direction is passed over
    for the next one, and so is a direction along which the difference spans
    fewer than RESOLVE_ULPS units in the last place of the loss, since it
    measures rounding, not a slope; `needed` directions must be compared.
    Returns the problems and the worst relative error."""
    loss, branches = loss_at(base)
    resolvable = RESOLVE_ULPS * np.spacing(abs(loss))
    problems, worst, used = [], 0.0, 0
    for i, d in enumerate(directions):
        hi, hi_branches = loss_at(base + step * d)
        lo, lo_branches = loss_at(base - step * d)
        if not (np.array_equal(hi_branches, branches) and np.array_equal(lo_branches, branches)):
            continue
        if not abs(hi - lo) >= resolvable:
            continue
        numeric = (hi - lo) / (2.0 * step)
        analytic = float(grad @ d)
        err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-300)
        worst = max(worst, err)
        if not err <= tol:
            problems.append(f"direction {i}: analytic {analytic!r} vs central "
                            f"difference {numeric!r} (rel err {err:.3e})")
        used += 1
        if used == needed:
            break
    if used < needed:
        problems.append(f"only {used} of {len(directions)} directions keep every branch "
                        f"and resolve the slope")
    return problems, worst


# -- training outputs ----------------------------------------------------------

def train_log_problems(path, epochs: int) -> list[str]:
    """Every logged loss term of every epoch is finite and nonnegative."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    seen = sorted({int(r["epoch"]) for r in rows})
    if seen != list(range(epochs)):
        problems.append(f"{path}: logged epochs {seen}, expected 0..{epochs - 1}")
    for r in rows:
        value = float(r["value"])
        if not (math.isfinite(value) and value >= 0.0):
            problems.append(f"{path}: epoch {r['epoch']} term {r['term']} = {value!r}")
    if not any(r["term"] == "total" for r in rows):
        problems.append(f"{path}: no total loss logged")
    return problems


# -- inference outputs -----------------------------------------------------------

def rollout(gamma: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """tau[0] = 0, tau[t+1] = tau[t] + gamma[t] v[t]."""
    steps = np.einsum("tij,tj->ti", gamma[:-1], vel[:-1])
    return np.concatenate([np.zeros((1, 3)), np.cumsum(steps, axis=0)], axis=0)


def rotation_problems(gamma: np.ndarray, tol: float = EXACT_TOL) -> list[str]:
    eye = np.einsum("tji,tjk->tik", gamma, gamma) - np.eye(3)
    problems = []
    worst = np.abs(eye).max(axis=(1, 2))
    if not (worst <= tol).all():
        t = int(np.argmax(worst))
        problems.append(f"gamma[{t}] is not orthonormal (|G^T G - I| = {worst[t]:.3e})")
    det = np.linalg.det(gamma)
    if not (np.abs(det - 1.0) <= tol).all():
        t = int(np.argmax(np.abs(det - 1.0)))
        problems.append(f"gamma[{t}] has determinant {det[t]!r}")
    return problems


def infer_output_problems(frames: list[dict], tol: float = EXACT_TOL) -> list[str]:
    """gamma is a rotation, tau is the roll-out of gamma and v from the
    origin, and contact lies in [0, 1]."""
    gamma = frame_array(frames, "gamma", (3, 3))
    tau = frame_array(frames, "tau", (3,))
    vel = frame_array(frames, "v", (3,))
    contact = frame_array(frames, "contact", (4,))
    problems = rotation_problems(gamma, tol)
    gap = np.abs(tau - rollout(gamma, vel)).max(axis=1)
    if not (gap <= tol).all():
        t = int(np.argmax(gap))
        problems.append(f"tau[{t}] is {gap[t]:.3e} m off the roll-out of gamma and v")
    if not ((contact >= 0.0) & (contact <= 1.0)).all():
        problems.append(f"contact outside [0, 1]: {contact.min()!r} .. {contact.max()!r}")
    return problems


def hip_mpjpe(pred_local: np.ndarray, truth_local: np.ndarray, hips: tuple) -> float:
    """Mean landmark distance (mm) after centring each frame on the hips."""
    def centred(x):
        return x - x[:, list(hips), :].mean(axis=1, keepdims=True)
    return float(np.linalg.norm(centred(pred_local) - centred(truth_local), axis=-1).mean() * MM)


def metrics_row_problems(seq: str, row: dict, pred_local: np.ndarray,
                         truth_local: np.ndarray, hips: tuple,
                         tol: float = EXACT_TOL) -> list[str]:
    """mpjpe matches the hip-centred MPJPE of the prediction, and PA-MPJPE
    does not exceed it."""
    own = hip_mpjpe(pred_local, truth_local, hips)
    problems = []
    if not abs(row["mpjpe"] - own) <= tol * max(abs(own), 1e-12):
        problems.append(f"seq {seq}: metrics.csv mpjpe {row['mpjpe']!r}, own {own!r}")
    if not row["pa_mpjpe"] <= row["mpjpe"] * (1.0 + tol):
        problems.append(f"seq {seq}: pa_mpjpe {row['pa_mpjpe']!r} > mpjpe {row['mpjpe']!r}")
    return problems


# -- oracle scoring ---------------------------------------------------------------

class OracleTruth:
    """What an oracle scoring of one ground-truth sequence must give."""

    def __init__(self, frames: list[dict], hips: tuple, feet: tuple):
        local = frame_array(frames, "local", (-1, 3))
        gamma = frame_array(frames, "gamma", (3, 3))
        tau = frame_array(frames, "tau", (3,))
        contact = frame_array(frames, "contact", (4,))
        world = np.einsum("tij,tkj->tki", gamma, local) + tau[:, None, :]
        roots = world[:, list(hips), :].mean(axis=1)
        sv = np.linalg.svd(roots - roots.mean(axis=0), compute_uv=False)
        # A straight root path leaves the rotation about it undetermined.
        self.straight_path = bool(sv[0] > 1e-6 and sv[1] <= 1e-9 * sv[0])
        self.path_len = float(np.linalg.norm(np.diff(roots, axis=0), axis=-1).sum())
        disp = np.linalg.norm(np.diff(world[:, list(feet), :], axis=0), axis=-1)
        mask = contact[1:] > 0.5
        self.fs = float(disp[mask].mean() * MM) if mask.any() else math.nan


def oracle_row_problems(row: dict, truth: OracleTruth, tol: float = EXACT_TOL) -> list[str]:
    """Every metric of an oracle row is <= tol, except fs, which equals the
    foot slide of the truth itself, and the metrics that are undefined for
    the sequence (NaN for RTE on a path of 0.1 m or less, for FS with no
    frame in contact)."""
    problems = []
    for name in METRIC_FIELDS:
        value = row[name]
        if name == "fs":
            if math.isnan(truth.fs):
                ok = math.isnan(value)
            else:
                ok = abs(value - truth.fs) <= tol * max(truth.fs, 1.0)
            expect = truth.fs
        elif name == "rte" and truth.path_len <= 0.1:
            ok, expect = math.isnan(value), math.nan
        else:
            ok, expect = value <= tol, 0.0
        if not ok:
            problems.append(f"{name} = {value!r}, expected {expect!r}")
    return problems

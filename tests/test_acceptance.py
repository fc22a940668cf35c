"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale training
fixture (200 sequences, hidden 128, 20 pretrain + 10 finetune epochs, fixed
seed) is shared by the training-dependent criteria and is timed against its
15-minute budget.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import whamkit
import whamkit.autodiff as ad
from whamkit import body, dataset as ds, geom, metrics, synth
from whamkit.autodiff import Tensor
from whamkit.cli import main as cli_main
from whamkit.config import RunConfig
from whamkit.errors import UndefinedMetricError
from whamkit.evaluate import AblationFlags, infer_bundle
from whamkit.gradcheck import grad_check
from whamkit.layers import Dense, DenseStack, GruLayer, ParamSet
from whamkit.losses import LossWeights
from whamkit.model import WhamModel, WhamParams, adjust_velocity, extract_velocities
from whamkit.bench import run_bench
from whamkit.train import TrainingModule, load_model, run_training
from tests.conftest import (TOY_DIMS, camera_pitch_roll, read_metrics_csv, rollout_np,
                            square, stack, toy_bundles)
from whamkit.train import build_batch, make_chunks

DESK_SEED = 42
DESK_COUNT = 200
DESK_EPOCHS_PRETRAIN = 20
DESK_EPOCHS_FINETUNE = 10
# The criterion pins sequences, frames, hidden size, epochs, seed, and the
# 15-minute budget; batch size is a config choice. 140 training sequences at
# the paper-scale batch of 64 give only 3 optimizer steps per epoch, so the
# desk run uses batch 2 for a usable step count inside the pinned epochs.
DESK_BATCH = 2
TIME_BUDGET_S = 900.0


def report(num: int, ok: bool, text: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    data = str(root / "data")
    t0 = time.perf_counter()
    ds.synthesize_dataset(data, synth.SynthConfig(), DESK_SEED, DESK_COUNT)
    cfg = RunConfig(dataset=data, out_dir=str(root / "run"), seed=DESK_SEED,
                    epochs=DESK_EPOCHS_PRETRAIN, batch_size=DESK_BATCH)
    pre = run_training(cfg, "pretrain")
    cfg_ft = RunConfig(dataset=data, out_dir=str(root / "run"), seed=DESK_SEED,
                       epochs=DESK_EPOCHS_FINETUNE, batch_size=DESK_BATCH)
    fin = run_training(cfg_ft, "finetune", init_checkpoint=pre)
    train_time = time.perf_counter() - t0

    model, _ = load_model(fin)
    bundles = ds.load_split(data, "test")
    variants = {
        "full": [],
        "no_integrator": ["--no-integrator"],
        "no_omega": ["--no-omega"],
        "no_refiner": ["--no-refiner"],
        "no_neural_init": ["--no-neural-init"],
    }
    aggregates = {}
    first10 = {}
    for name, flags in variants.items():
        out = str(root / f"eval_{name}")
        rc = cli_main(["eval", "--checkpoint", fin, "--dataset", data,
                       "--split", "test", "--out", out, "--no-svg"] + flags)
        assert rc == 0
        _, aggregates[name] = read_metrics_csv(os.path.join(out, "metrics.csv"))
        ab = AblationFlags(use_integrator="--no-integrator" not in flags,
                           use_omega="--no-omega" not in flags,
                           use_refiner="--no-refiner" not in flags,
                           use_neural_init="--no-neural-init" not in flags)
        vals = [metrics.mpjpe(infer_bundle(model, b, ab).local_pose[:10],
                              b.seq.local_pose[:10]) for b in bundles]
        first10[name] = float(np.mean(vals))
    return {"root": root, "data": data, "model": model, "checkpoint": fin,
            "pretrain_checkpoint": pre, "bundles": bundles,
            "aggregates": aggregates, "first10": first10,
            "train_time": train_time}


class SmallDense:
    def __init__(self):
        self.params = ParamSet()
        self.layer = Dense(self.params, "fc", 4, 3, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        self.x, self.y = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))

    def loss(self, _):
        d = self.layer(Tensor(self.x)) - Tensor(self.y)
        return ad.tmean(square(d))


class SmallStack:
    def __init__(self):
        self.params = ParamSet()
        self.stack = DenseStack(self.params, "mlp", [4, 6, 2], np.random.default_rng(2))
        rng = np.random.default_rng(3)
        self.x, self.y = rng.normal(size=(5, 4)), rng.normal(size=(5, 2))

    def loss(self, _):
        d = self.stack(Tensor(self.x)) - Tensor(self.y)
        return ad.tmean(square(d))


class SmallGru:
    def __init__(self):
        self.params = ParamSet()
        self.cell = GruLayer(self.params, "gru", 2, 3, np.random.default_rng(4))
        self.head = Dense(self.params, "head", 3, 1, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        self.x, self.y = rng.normal(size=(4, 2, 2)), rng.normal(size=(4, 2, 1))

    def loss(self, _):
        h = Tensor(np.zeros((2, 3)))
        outs = []
        for t in range(4):
            h = self.cell.step(Tensor(self.x[t]), h)
            outs.append(self.head(h))
        return ad.tmean(square(stack(outs, axis=0) - Tensor(self.y)))


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    ok = True
    for module in (SmallDense(), SmallStack(), SmallGru()):
        rep = grad_check(module, None, delta=1e-5, tol=1e-4)
        ok &= rep.passed
    bundles = toy_bundles(1, 4)
    batch = build_batch(make_chunks(bundles, 4), with_features=True)
    full = TrainingModule(WhamModel(WhamParams(TOY_DIMS, seed=0)), LossWeights(),
                          stage="finetune")
    rep = grad_check(full, batch, delta=1e-5, tol=1e-4)
    ok &= rep.passed
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(1, ok, f"gradient checks pass at tol 1e-4 for every layer and the "
                  f"composed model in {elapsed:.1f}s (< 60s)")


def test_criterion_2_rollout_round_trip():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 120))
        rots = [geom.exp_so3(rng.normal(size=3))]
        for _ in range(n - 1):
            rots.append(rots[-1] @ geom.exp_so3(rng.normal(0, 0.15, size=3)))
        rots = np.stack(rots)
        taus = np.cumsum(rng.normal(0, 0.06, size=(n, 3)), axis=0) + rng.normal(size=3)
        vel = extract_velocities(rots, taus)
        back = rollout_np(rots, vel, origin=taus[0])
        worst = max(worst, float(np.abs(back - taus).max()))
    report(2, worst < 1e-9, f"velocity extraction then roll-out reproduces 100 "
                            f"random trajectories, max error {worst:.2e} m (< 1e-9)")


def test_criterion_3_contact_formula():
    exact_half = synth.contact_probability(0.01) == 0.5
    lo = abs(synth.contact_probability(0.0) - 0.993307) < 1e-6
    hi = abs(synth.contact_probability(0.02) - 0.006693) < 1e-6
    grid = np.linspace(0.0, 0.08, 1000)
    mono = bool((np.diff(synth.contact_probability(grid)) < 0.0).all())
    ok = exact_half and lo and hi and mono
    report(3, ok, "contact probability is 0.5 at threshold, matches closed-form "
                  "endpoints to 1e-6, and is strictly decreasing on a 1000-point grid")


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(11)
    ok_pa = True
    for _ in range(500):
        truth = rng.normal(size=(2, 21, 3))
        r = geom.exp_so3(rng.normal(size=3) * rng.uniform(0, np.pi))
        pred = (rng.uniform(0.7, 1.4) * (truth @ r.T) + rng.normal(size=3)
                + rng.normal(0, rng.uniform(0.005, 0.3), size=truth.shape))
        ok_pa &= metrics.pa_mpjpe(pred, truth) <= metrics.mpjpe(pred, truth) + 1e-9

    truth = rng.normal(size=(3, 21, 3))
    rigid = truth @ geom.exp_so3(rng.normal(size=3)).T + rng.normal(size=3)
    ok_rigid = metrics.pa_mpjpe(rigid, truth) < 1e-6  # mm

    ok_wa = True
    for _ in range(100):
        seq = body.generate_gait("walk", 150, seed=int(rng.integers(1000)))
        w = body.world_landmarks(seq)
        pred = w + rng.normal(0, rng.uniform(0.01, 0.1), size=w.shape)
        _, w_det = metrics.world_mpjpe_100(pred, w, "W")
        _, wa_det = metrics.world_mpjpe_100(pred, w, "WA")
        for dw, dwa in zip(w_det, wa_det):
            ok_wa &= dwa.root_sse <= dw.root_sse + 1e-9

    t = np.arange(30)[:, None, None]
    lin = t * np.array([0.01, -0.02, 0.005]) + np.array([1.0, 2.0, 3.0])
    lin = np.broadcast_to(lin, (30, 21, 3)).copy()
    quad = 0.5 * t * t * np.array([0.001, 0.002, -0.001]) + lin
    base = np.zeros_like(lin)
    ok_poly = (metrics.accel_error(lin, base, 30.0) < 1e-9
               and metrics.jitter(quad, 30.0) < 1e-9)

    ok = ok_pa and ok_rigid and ok_wa and ok_poly
    report(4, ok, "PA<=MPJPE on 500 pairs; PA of rigidly moved truth ~ 0; "
                  "WA root SSE <= W root SSE per segment on 100 noisy "
                  "trajectories; accel/jitter vanish on low-order polynomials")


def test_criterion_5_synthesis_statistics():
    cfg = synth.SynthConfig()
    ph = cfg.pinhole()
    stand = body.generate_gait("stand", 2, seed=0)
    pitches = np.zeros(10000)
    in_frame = True
    for seed in range(10000):
        cams = synth.synth_camera(stand, ph, cfg, seed=seed)
        pitch, _ = camera_pitch_roll(cams.rotations[0])
        pitches[seed] = math.degrees(pitch)
        root_cam = cams.rotations[0] @ stand.root_pos[0] + cams.translations[0]
        uv = geom.project(ph, root_cam[None])[0]
        in_frame &= bool(0.0 <= uv[0] <= ph.w and 0.0 <= uv[1] <= ph.h)
    mean_ok = abs(pitches.mean() - 5.0) <= 0.7
    std_ok = abs(pitches.std() - 22.5) <= 1.0

    walk = body.generate_gait("walk", 81, seed=3)
    masked = []
    for seed in range(10):
        cams = synth.synth_camera(walk, ph, cfg, seed=seed)
        kps = synth.synth_keypoints(walk, cams, cfg, seed=1000 + seed)
        masked.append(1.0 - kps.mask.mean())
    mask_rate = float(np.mean(masked))  # 13770 landmark-frames
    mask_ok = abs(mask_rate - 0.15) <= 0.01

    ok = mean_ok and std_ok and in_frame and mask_ok
    report(5, ok, f"10k draws: pitch mean {pitches.mean():.2f} (5+-0.7), std "
                  f"{pitches.std():.2f} (22.5+-1), mask rate {mask_rate:.3f} "
                  f"(0.15+-0.01), frame-0 root always in frame")


def test_criterion_6_desk_scale_ablation_directions(desk):
    agg = desk["aggregates"]
    f10 = desk["first10"]
    in_budget = desk["train_time"] < TIME_BUDGET_S
    checks = [
        ("time budget", in_budget),
        ("full < no_integrator on MPJPE",
         agg["full"]["mpjpe"] < agg["no_integrator"]["mpjpe"]),
        ("full < no_omega on RTE", agg["full"]["rte"] < agg["no_omega"]["rte"]),
        ("full < no_refiner on FS", agg["full"]["fs"] < agg["no_refiner"]["fs"]),
        ("full < no_refiner on RTE", agg["full"]["rte"] < agg["no_refiner"]["rte"]),
        ("full < no_neural_init on first-10 MPJPE",
         f10["full"] < f10["no_neural_init"]),
    ]
    detail = "; ".join(f"{name}={'ok' if ok else 'FAIL'}" for name, ok in checks)
    report(6, all(ok for _, ok in checks),
           f"desk training {desk['train_time']:.0f}s (< {TIME_BUDGET_S:.0f}s); {detail}")


def test_criterion_7_refinement_property(desk):
    seq = body.generate_gait("walk", 60, seed=21)
    rng = np.random.default_rng(22)
    vel_noisy = extract_velocities(seq.root_rot, seq.root_pos) + rng.normal(0, 0.02, (60, 3))
    adj = adjust_velocity(Tensor(seq.local_pose[:, None]), Tensor(seq.contacts[:, None]),
                          Tensor(seq.root_rot[:, None]), Tensor(vel_noisy[:, None]))
    tau = rollout_np(seq.root_rot, adj.data[:, 0])
    feet = (np.einsum("tij,tkj->tki", seq.root_rot,
                      seq.local_pose[:, list(body.CONTACT_LANDMARKS)]) + tau[:, None])
    vel_f = np.linalg.norm(np.diff(feet, axis=0), axis=-1)
    stance = seq.contacts == 1.0
    worst = float(vel_f[stance[:-1]].max())
    cancel_ok = worst < 1e-9

    model = desk["model"]
    fs_after, fs_before = [], []
    for bundle in desk["bundles"]:
        full = infer_bundle(model, bundle, AblationFlags())
        raw = infer_bundle(model, bundle, AblationFlags(use_refiner=False))
        feet_idx = list(body.CONTACT_LANDMARKS)
        try:
            fs_after.append(metrics.foot_slide(
                body.world_landmarks(full)[:, feet_idx], bundle.seq.contacts))
            fs_before.append(metrics.foot_slide(
                body.world_landmarks(raw)[:, feet_idx], bundle.seq.contacts))
        except UndefinedMetricError:
            continue
    trained_ok = float(np.mean(fs_after)) <= float(np.mean(fs_before))
    report(7, cancel_ok and trained_ok,
           f"truth-fed adjustment leaves stance feet static (max {worst:.1e} "
           f"m/frame); trained FS after refinement {np.mean(fs_after):.1f} mm <= "
           f"before {np.mean(fs_before):.1f} mm")


def test_criterion_8_throughput(desk):
    bench = run_bench(desk["model"], frames=81, runs=5, seed=0)
    fps1 = bench["batch_modes"]["1"]["frames_per_s"]
    fps64 = bench["batch_modes"]["64"]["frames_per_s"]
    ok = fps1 > 200.0 and fps64 >= 0.9 * fps1
    report(8, ok, f"core inference {fps1:.0f} frames/s at batch 1 (> 200), "
                  f"{fps64:.0f} at batch 64")


def test_trained_model_extras(desk):
    """Direction checks beyond the numbered criteria: the trained contact
    head fires on a standing subject, and fine-tuning with informative
    features beats the pretrain-only model on held-out MPJPE."""
    model = desk["model"]
    parts = ds.synthesize_sequence(
        synth.SynthConfig(gait_kinds=("stand",), gait_weights=(1.0,),
                          speed_min=1.0, speed_max=1.0),
        np.random.SeedSequence(77).spawn(1)[0], DESK_SEED)
    bundle = ds.SequenceBundle(*parts, index=0)
    pred = infer_bundle(model, bundle, AblationFlags())
    mean_contact = float(pred.contact.mean())
    assert mean_contact > 0.8, f"stand contact mean {mean_contact:.3f}"

    pre_model, _ = load_model(desk["pretrain_checkpoint"])
    pre_scores, fin_scores = [], []
    for b in desk["bundles"]:
        pre_out = infer_bundle(pre_model, b, AblationFlags(use_integrator=False))
        fin_out = infer_bundle(model, b, AblationFlags())
        pre_scores.append(metrics.mpjpe(pre_out.local_pose, b.seq.local_pose))
        fin_scores.append(metrics.mpjpe(fin_out.local_pose, b.seq.local_pose))
    assert float(np.mean(fin_scores)) < float(np.mean(pre_scores))
    print(f"\n[extras] stand contact {mean_contact:.3f}; held-out MPJPE finetuned "
          f"{np.mean(fin_scores):.1f} < pretrain-only {np.mean(pre_scores):.1f}")


def _run_cli_subprocess(args, cwd):
    # The child runs in a temp directory, so a relative PYTHONPATH entry
    # (such as `src` from a source checkout) would no longer resolve there.
    # Put the absolute directory of the imported package first.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(whamkit.__file__)))
    pythonpath = os.pathsep.join(
        [package_root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    env = dict(os.environ, WHAMKIT_THREADS="1", PYTHONPATH=pythonpath)
    proc = subprocess.run([sys.executable, "-m", "whamkit.cli"] + args,
                          capture_output=True, text=True, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def test_criterion_9_determinism(tmp_path):
    small_model = ["--set", "hidden=16", "--set", "feature_dim=8",
                   "--set", "integrator_hidden=16", "--set", "init_hidden=8",
                   "--set", "batch_size=4"]
    trees = {}
    for run in ("a", "b"):
        base = tmp_path / run
        base.mkdir()
        _run_cli_subprocess(["synth", "--out", "data", "--count", "8", "--seed", "5",
                             "--seq-len", "16", "--set", "feature_dim=8"], base)
        _run_cli_subprocess(["pretrain", "--dataset", "data", "--out-dir", "run",
                             "--epochs", "2", "--seed", "5"] + small_model, base)
        _run_cli_subprocess(["eval", "--checkpoint", "run/pretrain.ckpt",
                             "--dataset", "data", "--split", "test",
                             "--out", "eval"], base)
        trees[run] = _tree_bytes(base)
    same = trees["a"] == trees["b"]
    n_files = len(trees["a"])
    report(9, same, f"synth, 2-epoch pretrain, and eval reruns are byte-identical "
                    f"across {n_files} files at thread count 1")

"""Self-tests of the benchmark's checks: each check accepts whamkit's real
output and rejects a deliberately corrupted copy of it.

    PYTHONPATH=src python3 -m pytest -q perfbench

The model here is a small one (hidden 8), so the tests take a few seconds.
"""

import csv
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks
import workloads
from whamkit import cli, dataset as ds, synth, train
from whamkit.body import CONTACT_LANDMARKS
from whamkit.config import RunConfig
from whamkit.gradcheck import forward_backward
from whamkit.model import ModelDims, WhamModel, WhamParams
from whamkit.optim import save_checkpoint

SMALL = ModelDims(hidden=8, feature_dim=32, integrator_hidden=8, init_hidden=8)
SEED = 42
COUNT = 7                          # splits of 5 / 1 / 1 sequences


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("perfbench"))
    data = os.path.join(root, "data")
    ds.synthesize_dataset(data, synth.SynthConfig(), SEED, COUNT)
    ckpt = os.path.join(root, "model.ckpt")
    save_checkpoint(ckpt, SMALL.to_dict(), WhamParams(SMALL, seed=SEED).params.get_flat())
    for argv in (["infer", "--checkpoint", ckpt, "--dataset", data, "--out", f"{root}/infer"],
                 ["eval", "--checkpoint", ckpt, "--dataset", data, "--no-svg",
                  "--out", f"{root}/eval"],
                 ["eval", "--oracle", "--dataset", data, "--split", "train", "--no-svg",
                  "--out", f"{root}/oracle"]):
        assert cli.main(argv) == 0
    return root, data, ds.read_manifest(data)["splits"]


def _rewrite_ndjson(src: str, dst: str, edit) -> None:
    header, frames = checks.read_ndjson(src)
    edit(frames)
    with open(dst, "w") as fh:
        for obj in [header] + frames:
            fh.write(json.dumps(obj) + "\n")


def _infer_frames(root, k, edit=None):
    path = os.path.join(root, "infer", f"out_{k}.ndjson")
    if edit is not None:
        corrupt = os.path.join(root, "corrupt.ndjson")
        _rewrite_ndjson(path, corrupt, edit)
        path = corrupt
    return checks.read_ndjson(path)[1]


def test_gradient_check_rejects_scaled_gradient(outputs):
    _, data, _ = outputs
    chunks = train.make_chunks(ds.load_split(data, "train"), workloads.FRAMES)
    batch = train.build_batch(chunks[:workloads.GRAD_BATCH], with_features=True)
    module = train.TrainingModule(WhamModel(WhamParams(SMALL, seed=SEED)),
                                  RunConfig().loss_weights(), "finetune")
    base = module.params.get_flat()
    _, grad = forward_backward(module, batch)
    directions = checks.fixed_directions(base.size, workloads.GRAD_DIRECTIONS)
    loss_at = workloads.gated_loss(module, batch)
    problems, worst = checks.directional_gradient_problems(loss_at, base, grad, directions)
    assert problems == [] and worst < 1e-7
    problems, _ = checks.directional_gradient_problems(loss_at, base, 1.01 * grad, directions)
    assert len(problems) == 3


def test_gradient_check_passes_over_unresolvable_direction():
    # A linear loss of size 10: along a direction orthogonal to its gradient
    # the central difference is pure rounding.
    rng = np.random.default_rng(0)
    grad = rng.normal(size=50)
    loss_at = lambda x: (10.0 + float(grad @ x), np.zeros(0))
    orth = rng.normal(size=50)
    orth -= (orth @ grad) / (grad @ grad) * grad
    orth /= np.linalg.norm(orth)
    generic = checks.fixed_directions(50, 3)
    problems, worst = checks.directional_gradient_problems(
        loss_at, np.zeros(50), grad, [orth] + generic)
    assert problems == [] and worst < 1e-7
    problems, _ = checks.directional_gradient_problems(loss_at, np.zeros(50), grad, [orth] * 4)
    assert problems == ["only 0 of 4 directions keep every branch and resolve the slope"]


def test_infer_check_accepts_real_output(outputs):
    root, _, splits = outputs
    for k in splits["test"]:
        assert checks.infer_output_problems(_infer_frames(root, k)) == []


def test_infer_check_rejects_tau_shifted_by_1mm(outputs):
    root, _, splits = outputs

    def shift(frames):
        frames[40]["tau"][1] += 1e-3

    problems = checks.infer_output_problems(_infer_frames(root, splits["test"][0], shift))
    assert len(problems) == 1 and "tau[40]" in problems[0]


def test_infer_check_rejects_non_orthonormal_gamma(outputs):
    root, _, splits = outputs

    def skew(frames):
        frames[7]["gamma"][1] += 1e-6

    problems = checks.infer_output_problems(_infer_frames(root, splits["test"][0], skew))
    assert any("gamma[7] is not orthonormal" in p for p in problems)


def _metrics_problems(root, splits, csv_path):
    rows = checks.read_metrics_rows(csv_path)
    problems = []
    for k in splits["test"]:
        pred = checks.frame_array(_infer_frames(root, k), "local", (-1, 3))
        truth = checks.frame_array(checks.read_ndjson(
            os.path.join(root, "data", f"seq_{k}.ndjson"))[1], "local", (-1, 3))
        problems += checks.metrics_row_problems(str(k), rows[str(k)], pred, truth,
                                                workloads.HIPS)
    return problems


def test_metrics_check_rejects_mpjpe_off_by_a_tenth_mm(outputs):
    root, _, splits = outputs
    path = os.path.join(root, "eval", "metrics.csv")
    assert _metrics_problems(root, splits, path) == []
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("mpjpe")
    rows[1][col] = repr(float(rows[1][col]) + 0.1)
    corrupt = os.path.join(root, "corrupt.csv")
    with open(corrupt, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    problems = _metrics_problems(root, splits, corrupt)
    assert len(problems) == 1 and "mpjpe" in problems[0]


def test_oracle_check_fails_exactly_the_straight_paths(outputs):
    root, data, splits = outputs
    rows = checks.read_metrics_rows(os.path.join(root, "oracle", "metrics.csv"))
    straight = 0
    for k in splits["train"]:
        truth = checks.OracleTruth(checks.read_ndjson(os.path.join(data, f"seq_{k}.ndjson"))[1],
                                   workloads.HIPS, CONTACT_LANDMARKS)
        problems = checks.oracle_row_problems(rows[str(k)], truth)
        assert bool(problems) == truth.straight_path, (k, problems)
        straight += truth.straight_path
    assert straight >= 1


def test_train_log_check_rejects_negative_term(tmp_path):
    log = tmp_path / "train_log.csv"
    log.write_text("epoch,term,value\n0,pose,0.5\n0,total,1.25\n")
    assert checks.train_log_problems(str(log), 1) == []
    log.write_text("epoch,term,value\n0,pose,-0.5\n0,total,nan\n")
    assert len(checks.train_log_problems(str(log), 1)) == 2

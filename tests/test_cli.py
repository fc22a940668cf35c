import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from whamkit import dataset as ds
from whamkit.cli import main
from whamkit.config import RunConfig, load_config
from whamkit.errors import InvalidInputError
from whamkit.evaluate import infer_bundle, read_metrics_csv
from whamkit.optim import load_checkpoint
from whamkit.train import load_model

SMALL_MODEL = ["--set", "hidden=16", "--set", "feature_dim=8",
               "--set", "integrator_hidden=16", "--set", "init_hidden=8",
               "--set", "batch_size=4"]
SMALL_SYNTH = ["--set", "feature_dim=8", "--seq-len", "12"]


def run_cli(*argv) -> int:
    return main(list(argv))


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run_cli("synth", "--out", str(data), "--count", "8", "--seed", "3",
                   *SMALL_SYNTH) == 0
    return root, data


class TestConfig:
    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 7\nseed=3   # comment\nhidden=16\n")
        cfg = load_config(str(path), {"seed": "9"})
        assert cfg.epochs == 7 and cfg.seed == 9 and cfg.hidden == 16

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("no_such_thing=1\n")
        with pytest.raises(InvalidInputError):
            load_config(str(path))

    def test_defaults_match_documented_values(self):
        cfg = RunConfig()
        assert cfg.epochs == 80 and cfg.lr == 5e-4
        assert cfg.batch_size == 64 and cfg.chunk_len == 81
        assert cfg.lr_integrator == 1e-4 and cfg.lr_pretrained == 1e-5

    def test_invalid_values_rejected(self):
        with pytest.raises(InvalidInputError):
            load_config(None, {"batch_size": "0"})


class TestSynthCommand:
    def test_deterministic_directories(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("synth", "--out", str(out), "--count", "3", "--seed", "7",
                           *SMALL_SYNTH) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_zero_count(self, tmp_path):
        out = tmp_path / "zero"
        assert run_cli("synth", "--out", str(out), "--count", "0") == 0
        manifest = ds.read_manifest(out)
        assert manifest["count"] == 0

    def test_files_parse_back(self, workspace):
        _, data = workspace
        manifest = ds.read_manifest(data)
        assert manifest["count"] == 8
        for k in range(8):
            ds.load_bundle(data, k, 8)


class TestTrainCommands:
    def test_zero_epochs_checkpoint_equals_init(self, workspace, tmp_path):
        from whamkit.model import ModelDims, WhamParams

        _, data = workspace
        out = tmp_path / "run0"
        assert run_cli("pretrain", "--dataset", str(data), "--out-dir", str(out),
                       "--epochs", "0", "--seed", "3", *SMALL_MODEL) == 0
        dims, meta, sections = load_checkpoint(out / "pretrain.ckpt")
        init = WhamParams(ModelDims(**dims), seed=3).params.get_flat()
        assert (sections["params"] == init).all()
        assert meta["epoch"] == 0

    def test_two_epoch_determinism(self, workspace, tmp_path):
        _, data = workspace
        logs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli("pretrain", "--dataset", str(data), "--out-dir", str(out),
                           "--epochs", "2", "--seed", "3", *SMALL_MODEL) == 0
            logs.append((out / "train_log.csv").read_bytes())
            assert (out / "pretrain.ckpt").exists()
        assert logs[0] == logs[1]

    def test_finetune_requires_checkpoint(self, workspace, tmp_path):
        _, data = workspace
        rc = run_cli("finetune", "--dataset", str(data), "--out-dir",
                     str(tmp_path / "ft"), "--init", str(tmp_path / "missing.ckpt"),
                     "--epochs", "1", "--seed", "3", *SMALL_MODEL)
        assert rc == 3

    def test_resume_continues_epochs(self, workspace, tmp_path):
        _, data = workspace
        out = tmp_path / "resume"
        assert run_cli("pretrain", "--dataset", str(data), "--out-dir", str(out),
                       "--epochs", "1", "--seed", "3", *SMALL_MODEL) == 0
        _, meta1, _ = load_checkpoint(out / "pretrain.ckpt")
        assert run_cli("pretrain", "--dataset", str(data), "--out-dir", str(out),
                       "--epochs", "2", "--seed", "3", "--resume", *SMALL_MODEL) == 0
        _, meta2, _ = load_checkpoint(out / "pretrain.ckpt")
        assert (meta1["epoch"], meta2["epoch"]) == (1, 2)

    def test_missing_dataset_exit_code(self, tmp_path):
        rc = run_cli("pretrain", "--dataset", str(tmp_path / "nope"),
                     "--out-dir", str(tmp_path / "o"), "--epochs", "1")
        assert rc == 3


@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    root, data = workspace
    out = tmp_path_factory.mktemp("trained")
    assert run_cli("pretrain", "--dataset", str(data), "--out-dir", str(out),
                   "--epochs", "2", "--seed", "3", *SMALL_MODEL) == 0
    assert run_cli("finetune", "--dataset", str(data), "--out-dir", str(out),
                   "--init", str(out / "pretrain.ckpt"), "--epochs", "1",
                   "--seed", "3", *SMALL_MODEL) == 0
    return data, out


class TestEvalCommand:
    def test_oracle_mode_all_zero(self, tmp_path):
        data = tmp_path / "clean"
        assert run_cli("synth", "--out", str(data), "--count", "6", "--seed", "5",
                       "--set", "feature_dim=8", "--set", "speed_min=1.0",
                       "--set", "speed_max=1.0", "--set", "gait_kinds=walk,turn,stairs",
                       "--set", "gait_weights=1,1,1", "--seq-len", "20") == 0
        out = tmp_path / "ev"
        assert run_cli("eval", "--dataset", str(data), "--split", "test",
                       "--out", str(out), "--oracle") == 0
        rows, aggregate = read_metrics_csv(out / "metrics.csv")
        assert rows
        for name, value in aggregate.items():
            assert value < 1e-9, name

    def test_eval_writes_expected_files(self, trained):
        data, run = trained
        out = run / "eval"
        assert run_cli("eval", "--checkpoint", str(run / "finetune.ckpt"),
                       "--dataset", str(data), "--split", "test",
                       "--out", str(out)) == 0
        manifest = ds.read_manifest(data)
        names = sorted(os.listdir(out))
        assert "metrics.csv" in names
        for k in manifest["splits"]["test"]:
            assert f"traj_{k}.svg" in names
        with open(out / "metrics.csv") as fh:
            header = next(csv.reader(fh))
        assert header == ["seq", "mpjpe", "pa_mpjpe", "accel_err", "w_mpjpe_100",
                          "wa_mpjpe_100", "rte", "jitter_err", "fs", "segments", "flags"]

    def test_eval_deterministic(self, trained):
        data, run = trained
        outs = []
        for name in ("e1", "e2"):
            out = run / name
            assert run_cli("eval", "--checkpoint", str(run / "finetune.ckpt"),
                           "--dataset", str(data), "--split", "val",
                           "--out", str(out)) == 0
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1]

    def test_ablation_flags_change_results(self, trained):
        data, run = trained
        base = run / "ab_base"
        ab = run / "ab_noref"
        run_cli("eval", "--checkpoint", str(run / "finetune.ckpt"), "--dataset",
                str(data), "--split", "test", "--out", str(base), "--no-svg")
        run_cli("eval", "--checkpoint", str(run / "finetune.ckpt"), "--dataset",
                str(data), "--split", "test", "--out", str(ab), "--no-svg",
                "--no-refiner", "--no-omega")
        assert (base / "metrics.csv").read_bytes() != (ab / "metrics.csv").read_bytes()

    def test_eval_without_checkpoint_is_usage_error(self, workspace):
        _, data = workspace
        assert run_cli("eval", "--dataset", str(data), "--out", "/tmp/x_eval") == 2


class TestInferCommand:
    def test_writes_ndjson(self, trained, tmp_path):
        data, run = trained
        out = tmp_path / "inferred"
        assert run_cli("infer", "--checkpoint", str(run / "finetune.ckpt"),
                       "--dataset", str(data), "--split", "test",
                       "--out", str(out)) == 0
        manifest = ds.read_manifest(data)
        for k in manifest["splits"]["test"]:
            path = out / f"out_{k}.ndjson"
            lines = path.read_text().strip().split("\n")
            assert len(lines) == 12 + 1  # header + frames
            json.loads(lines[-1])


    def test_batched_reruns_identical_and_match_per_sequence(self, trained, tmp_path):
        """A 20-sequence, 12-frame dataset puts 3 sequences in one test
        forward: infer and eval reruns are byte-identical, and the written
        outputs are those of per-sequence inference up to reassociation."""
        _, run = trained
        ckpt = str(run / "finetune.ckpt")
        data = tmp_path / "data"
        assert run_cli("synth", "--out", str(data), "--count", "20", "--seed", "4",
                       *SMALL_SYNTH) == 0
        trees = {}
        for cmd in ("infer", "eval"):
            for rerun in ("1", "2"):
                out = tmp_path / (cmd + rerun)
                assert run_cli(cmd, "--checkpoint", ckpt, "--dataset", str(data),
                               "--split", "test", "--out", str(out)) == 0
                trees[cmd + rerun] = tree_bytes(out)
        assert trees["infer1"] == trees["infer2"] and trees["eval1"] == trees["eval2"]

        model, _ = load_model(ckpt)
        test = ds.read_manifest(data)["splits"]["test"]
        assert len(test) == 3
        for k in test:
            want = infer_bundle(model, ds.load_bundle(str(data), k, 8))
            lines = trees["infer1"][f"out_{k}.ndjson"].decode().strip().split("\n")
            frames = [json.loads(line) for line in lines[1:]]
            for key, field in (("local", "local_pose"), ("tau", "root_pos"),
                               ("contact", "contact"), ("gamma", "root_rot")):
                got = np.array([f[key] for f in frames]).reshape(getattr(want, field).shape)
                assert np.abs(got - getattr(want, field)).max() <= 1e-9, key


class TestGradcheckCommand:
    def test_passes_at_toy_dims(self, capsys):
        assert run_cli("gradcheck", "--hidden", "6", "--frames", "3",
                       "--feature-dim", "6") == 0
        assert "PASS" in capsys.readouterr().out


class TestBenchCommand:
    def test_report_structure(self, trained, capsys, tmp_path):
        data, run = trained
        out_file = tmp_path / "bench.json"
        assert run_cli("bench", "--checkpoint", str(run / "finetune.ckpt"),
                       "--frames", "20", "--runs", "3", "--out", str(out_file)) == 0
        report = json.loads(out_file.read_text())
        assert set(report["batch_modes"]) == {"1", "64"}
        for mode in report["batch_modes"].values():
            assert "median_s" in mode and "frames_per_s" in mode
            assert len(mode["samples_s"]) == 3


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "whamkit.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for sub in ("synth", "pretrain", "finetune", "infer", "eval",
                    "gradcheck", "bench"):
            assert sub in proc.stdout

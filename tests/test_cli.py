import csv
import json
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from whamkit import dataset as ds
from whamkit.cli import build_parser, main, _ablation_flags, _run_config
from whamkit.config import RunConfig, load_config
from whamkit.errors import CheckpointError, InvalidInputError
from whamkit.evaluate import infer_bundle
from whamkit.gradcheck import forward_backward
from whamkit.losses import LossWeights
from whamkit.model import AblationFlags, ModelDims
from whamkit.optim import MAGIC, VERSION, load_checkpoint, save_checkpoint
from whamkit import train
from whamkit.train import STAGES, load_model

from tests.conftest import fail_atomic_writes, read_metrics_csv

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

    def test_dims_and_loss_fields_follow_their_dataclasses(self):
        defaults = {f.name: f.default for f in fields(RunConfig)}
        for f in fields(ModelDims):
            assert defaults[f.name] == f.default
        for f in fields(LossWeights):
            assert defaults["loss_" + f.name] == f.default
        cfg = load_config(None, {"hidden": "16", "loss_cam_rot": "2.5"})
        assert cfg.model_dims() == ModelDims(hidden=16)
        assert cfg.loss_weights() == LossWeights(cam_rot=2.5)

    @pytest.mark.parametrize("stage, default", [("pretrain", 80), ("finetune", 30)])
    def test_epochs_precedence_flag_file_stage_default(self, stage, default, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 1\n")
        base = [stage, "--dataset", str(tmp_path)] + (["--init", "x"] if stage == "finetune" else [])
        cases = [([], default), (["--config", str(path)], 1),
                 (["--config", str(path), "--epochs", "0"], 0),
                 (["--config", str(path), "--set", "epochs=2"], 2)]
        for extra, epochs in cases:
            assert _run_config(build_parser().parse_args(base + extra), stage).epochs == epochs


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

    def test_negative_count_is_usage_error(self, tmp_path):
        out = tmp_path / "neg"
        assert run_cli("synth", "--out", str(out), "--count", "-3") == 2
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["focal=abc", "seq_len=1.5", "gait_weights=1",
                                         "gait_weights=1,-1,1,1", "gait_weights=0,0,0,0",
                                         "no_such_key=1", "focal"])
    def test_malformed_set_is_usage_error(self, setting, tmp_path):
        assert run_cli("synth", "--out", str(tmp_path / "d"), "--count", "1",
                       "--set", setting) == 2

    def test_set_parses_tuples_as_comma_lists(self, tmp_path):
        assert run_cli("synth", "--out", str(tmp_path / "d"), "--count", "1", *SMALL_SYNTH,
                       "--set", "gait_kinds=stand, walk", "--set", "gait_weights=1, 0") == 0
        config = ds.read_manifest(tmp_path / "d")["config"]
        assert config["gait_kinds"] == ["stand", "walk"]
        assert config["gait_weights"] == [1.0, 0.0]

    def test_self_validation_warms_the_cache(self, workspace):
        _, data = workspace
        ndjson = sorted(n for n in os.listdir(data) if n.endswith(".ndjson"))
        assert len(ndjson) == 3 * 8
        assert sorted(os.listdir(data / ds.CACHE_DIR)) == [n + ".bin" for n in ndjson]

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

    @pytest.mark.parametrize("stage", ["pretrain", "finetune"])
    def test_config_file_epochs_used(self, stage, trained, tmp_path):
        data, run = trained
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 1\n")
        init = ["--init", str(run / "pretrain.ckpt")] if stage == "finetune" else []
        assert run_cli(stage, "--dataset", str(data), "--out-dir", str(tmp_path / "o"),
                       "--config", str(path), "--seed", "3", *init, *SMALL_MODEL) == 0
        _, meta, _ = load_checkpoint(tmp_path / "o" / f"{stage}.ckpt")
        assert meta["epoch"] == 1

    def test_missing_dataset_exit_code(self, tmp_path):
        rc = run_cli("pretrain", "--dataset", str(tmp_path / "nope"),
                     "--out-dir", str(tmp_path / "o"), "--epochs", "1")
        assert rc == 3

    @pytest.mark.parametrize("fault", ["params 5 short", "no optimizer state",
                                       "adam_v 1 short", "no epoch"])
    @pytest.mark.parametrize("stage", ["pretrain --resume", "finetune --init"])
    def test_faulty_checkpoint_exit_code(self, workspace, tmp_path, capsys, stage, fault):
        """Training reads a checkpoint as eval does: a file that does not
        fit exits 3. Only a resume reads the optimizer state and epoch."""
        _, data = workspace
        out = tmp_path / "run"
        common = ("--dataset", str(data), "--out-dir", str(out), "--seed", "3", *SMALL_MODEL)
        assert run_cli("pretrain", *common, "--epochs", "0") == 0
        path = out / "pretrain.ckpt"
        damage_checkpoint(path, fault)
        if stage == "finetune --init":
            rc = run_cli("finetune", *common, "--epochs", "1", "--init", str(path))
        else:
            rc = run_cli("pretrain", *common, "--epochs", "1", "--resume")
        if stage == "finetune --init" and fault != "params 5 short":
            assert rc == 0
        else:
            assert rc == 3
            assert str(path) in capsys.readouterr().err


def damage_checkpoint(path, fault: str) -> None:
    """Rewrite a training checkpoint with one part missing or short."""
    dims, meta, sections = load_checkpoint(path)
    if fault == "params 5 short":
        sections["params"] = sections["params"][:-5]
    elif fault == "no optimizer state":
        del sections["adam_m"], sections["adam_v"]
    elif fault == "adam_v 1 short":
        sections["adam_v"] = sections["adam_v"][:-1]
    else:
        del meta["epoch"]
    save_checkpoint(path, dims, sections.pop("params"), meta=meta, extra_sections=sections)


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


def run_stage(data, out, stage: str, epochs: int, *extra) -> int:
    init = ["--init", str(out / "pretrain.ckpt")] if stage == "finetune" else []
    return run_cli(stage, "--dataset", str(data), "--out-dir", str(out), "--epochs", str(epochs),
                   "--seed", "3", *init, *extra, *SMALL_MODEL)


class TestResumeEquivalence:
    """A 3-epoch stage stopped after k epochs, whose k-th checkpoint write
    failed, or whose loss went non-finite in epoch k, resumes to the bytes of
    an uninterrupted run: the stage's checkpoint and the loss log."""

    @pytest.fixture(scope="class")
    def uninterrupted(self, workspace, tmp_path_factory):
        """A copy of the out dir after 3 pretrain epochs, and each stage's
        (checkpoint, loss log) bytes after its 3 epochs."""
        _, data = workspace
        root = tmp_path_factory.mktemp("uninterrupted")
        ends = {}
        for stage in STAGES:
            assert run_stage(data, root / "run", stage, 3) == 0
            if stage == "pretrain":
                shutil.copytree(root / "run", root / "pretrained")
            ends[stage] = ((root / "run" / f"{stage}.ckpt").read_bytes(),
                           (root / "run" / "train_log.csv").read_bytes())
        return root / "pretrained", ends

    def out_dir(self, uninterrupted, tmp_path, stage):
        """An out dir where the stage starts as in the uninterrupted run."""
        if stage == "pretrain":
            return tmp_path / "run"
        return shutil.copytree(uninterrupted[0], tmp_path / "run")

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("stage", STAGES)
    def test_stopped_run_resumes_to_the_same_bytes(self, workspace, uninterrupted, tmp_path,
                                                   stage, k):
        _, data = workspace
        out = self.out_dir(uninterrupted, tmp_path, stage)
        assert run_stage(data, out, stage, k) == 0
        assert run_stage(data, out, stage, 3, "--resume") == 0
        ends = ((out / f"{stage}.ckpt").read_bytes(), (out / "train_log.csv").read_bytes())
        assert ends == uninterrupted[1][stage]

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("stage", STAGES)
    def test_failed_checkpoint_write_resumes_to_the_same_bytes(
            self, workspace, uninterrupted, tmp_path, monkeypatch, stage, k):
        _, data = workspace
        out = self.out_dir(uninterrupted, tmp_path, stage)
        ckpt = out / f"{stage}.ckpt"
        writes = []

        def save_failing_at_k(*args, **kwargs):
            writes.append(ckpt.read_bytes() if ckpt.exists() else None)
            if len(writes) == k:
                fail_atomic_writes(monkeypatch)
            return save_checkpoint(*args, **kwargs)

        monkeypatch.setattr(train, "save_checkpoint", save_failing_at_k)
        assert run_stage(data, out, stage, 3) == 3
        monkeypatch.undo()
        assert len(writes) == k and not any(n.endswith(".tmp") for n in os.listdir(out))
        if k == 1:
            assert not ckpt.exists()
        else:
            assert ckpt.read_bytes() == writes[-1]
            assert load_checkpoint(ckpt)[1]["epoch"] == k - 1
        assert run_stage(data, out, stage, 3, "--resume") == 0
        assert (ckpt.read_bytes(), (out / "train_log.csv").read_bytes()) == \
            uninterrupted[1][stage]

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("stage", STAGES)
    def test_non_finite_loss_keeps_the_last_good_checkpoint(
            self, workspace, uninterrupted, tmp_path, monkeypatch, capsys, stage, k):
        _, data = workspace
        out = self.out_dir(uninterrupted, tmp_path, stage)
        ckpt = out / f"{stage}.ckpt"
        saves = []

        def counting_save(*args, **kwargs):
            saves.append(kwargs["meta"]["epoch"])
            return save_checkpoint(*args, **kwargs)

        def nan_in_epoch_k(module, batch):
            if len(saves) == k:  # the first step of epoch k; it raises
                batch["kp_px"][0, 0, 0, 0] = np.nan
            return forward_backward(module, batch)

        monkeypatch.setattr(train, "save_checkpoint", counting_save)
        monkeypatch.setattr(train, "forward_backward", nan_in_epoch_k)
        assert run_stage(data, out, stage, 3) == 4
        assert "loss term 'kp2d' is non-finite" in capsys.readouterr().err
        monkeypatch.undo()
        assert saves == list(range(1, k + 1))
        assert load_checkpoint(ckpt)[1]["epoch"] == k
        with open(out / "train_log.csv", newline="") as fh:
            logged = {int(row["epoch"]) for row in csv.DictReader(fh) if row["stage"] == stage}
        assert logged == set(range(k))
        assert run_stage(data, out, stage, 3, "--resume") == 0
        assert (ckpt.read_bytes(), (out / "train_log.csv").read_bytes()) == \
            uninterrupted[1][stage]


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

    @pytest.mark.parametrize("frames, empty", [(2, {"accel_err", "jitter_err"}),
                                               (3, {"jitter_err"})])
    def test_oracle_on_short_sequences(self, tmp_path, frames, empty):
        data, out = tmp_path / "short", tmp_path / "ev"
        assert run_cli("synth", "--out", str(data), "--count", "6", "--seed", "5",
                       "--set", "feature_dim=8", "--set", f"seq_len={frames}") == 0
        assert run_cli("eval", "--dataset", str(data), "--split", "train",
                       "--out", str(out), "--oracle") == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) > 1
        for row in rows:
            for name in ("accel_err", "jitter_err"):
                assert (row[name] == "") == (name in empty), (row["seq"], name)
            if row["seq"] != "aggregate":
                flags = row["flags"].split(";")
                assert ("accel_undefined" in flags) == ("accel_err" in empty)
                assert "jitter_undefined" in flags

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

    @pytest.mark.parametrize("suffix, key", [(".ndjson", "tau"), (".cam.ndjson", "omega"),
                                             (".kp2d.ndjson", "kp")])
    @pytest.mark.parametrize("fault", ["missing key", "short row"])
    def test_malformed_ndjson_is_usage_error(self, workspace, tmp_path, capsys,
                                             suffix, key, fault):
        _, data = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        k = ds.read_manifest(copy)["splits"]["test"][0]
        path = copy / f"seq_{k}{suffix}"
        lines = path.read_text().split("\n")
        frame = json.loads(lines[3])
        if fault == "missing key":
            del frame[key]
        else:
            frame[key] = frame[key][:-1]
        lines[3] = json.dumps(frame)
        path.write_text("\n".join(lines))
        assert run_cli("eval", "--oracle", "--dataset", str(copy), "--out",
                       str(tmp_path / "ev"), "--no-svg") == 2
        err = capsys.readouterr().err
        assert str(path) in err and repr(key) in err

    @pytest.mark.parametrize("suffix, key, value", [(".cam.ndjson", "f", "abc"),
                                                    (".ndjson", "fps", "x"),
                                                    (".kp2d.ndjson", "w", None)])
    def test_header_value_of_wrong_type_is_usage_error(self, workspace, tmp_path, capsys,
                                                       suffix, key, value):
        _, data = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        k = ds.read_manifest(copy)["splits"]["test"][0]
        path = copy / f"seq_{k}{suffix}"
        lines = path.read_text().split("\n")
        header = json.loads(lines[0])
        header[key] = value
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines))
        assert run_cli("eval", "--oracle", "--dataset", str(copy), "--out",
                       str(tmp_path / "ev"), "--no-svg") == 2
        err = capsys.readouterr().err
        assert str(path) in err and repr(key) in err

    @pytest.mark.parametrize("suffix", [".ndjson", ".cam.ndjson", ".kp2d.ndjson"])
    def test_header_only_file_is_usage_error(self, workspace, tmp_path, capsys, suffix):
        _, data = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        k = ds.read_manifest(copy)["splits"]["test"][0]
        path = copy / f"seq_{k}{suffix}"
        path.write_text(path.read_text().split("\n")[0] + "\n")
        assert run_cli("eval", "--oracle", "--dataset", str(copy), "--out",
                       str(tmp_path / "ev"), "--no-svg") == 2
        err = capsys.readouterr().err
        assert str(path) in err and "no frame lines" in err

    @pytest.mark.parametrize("text", ["{", "[]", "{}", '{"splits": {"test": []}}',
                                      '{"splits": {"test": [0]}, "config": {"feature_dim": "8"}}'])
    def test_malformed_manifest_is_usage_error(self, workspace, tmp_path, capsys, text):
        _, data = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        (copy / "manifest.json").write_text(text)
        assert run_cli("eval", "--oracle", "--dataset", str(copy), "--out",
                       str(tmp_path / "ev"), "--no-svg") == 2
        assert str(copy / "manifest.json") in capsys.readouterr().err

    @pytest.mark.parametrize("header", [
        {"dims": {}, "meta": {}},
        [],
        {"dims": {"hidden": 8, "depth": 2}, "meta": {},
         "sections": [{"name": "params", "count": 2}]},
        {"dims": {}, "meta": {}, "sections": [{"name": "params", "count": -1}]},
        {"dims": {"hidden": 8}, "meta": {}, "sections": [{"name": "params", "count": 2}]},
        {"dims": {}, "meta": {}, "sections": [{"name": "params", "count": float("inf")}]},
        {"dims": {}, "meta": {}, "sections": [{"name": "params", "count": 1e300}]},
    ], ids=["no sections", "a list", "unknown dims key", "negative count", "params misfit",
            "infinite count", "float count"])
    def test_malformed_checkpoint_header_exit_code(self, workspace, tmp_path, capsys, header):
        _, data = workspace
        blob = json.dumps(header).encode()
        path = tmp_path / "bad.ckpt"
        path.write_bytes(MAGIC + struct.pack("<II", VERSION, len(blob)) + blob + bytes(16))
        assert run_cli("eval", "--checkpoint", str(path), "--dataset", str(data),
                       "--out", str(tmp_path / "ev"), "--no-svg") == 3
        assert str(path) in capsys.readouterr().err

    def test_oversized_dims_exit_before_drawing_weights(self, workspace, tmp_path,
                                                        capsys, monkeypatch):
        """A small file whose header claims hidden 1024 (23M weights) but
        holds 2 values exits 3 on the size check, without drawing weights."""
        _, data = workspace
        header = {"dims": ModelDims(hidden=1024).to_dict(), "meta": {},
                  "sections": [{"name": "params", "count": 2}]}
        blob = json.dumps(header).encode()
        path = tmp_path / "big.ckpt"
        path.write_bytes(MAGIC + struct.pack("<II", VERSION, len(blob)) + blob + bytes(16))
        monkeypatch.setattr("whamkit.train.WhamParams",
                            lambda *a, **k: pytest.fail("weights drawn before the size check"))
        assert run_cli("eval", "--checkpoint", str(path), "--dataset", str(data),
                       "--out", str(tmp_path / "ev"), "--no-svg") == 3
        err = capsys.readouterr().err
        assert str(path) in err and "expected 22885681" in err

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


    @pytest.mark.parametrize("cut", [0, 12, 60, -1])
    def test_truncated_checkpoint_exit_code(self, trained, tmp_path, cut):
        data, run = trained
        raw = (run / "finetune.ckpt").read_bytes()
        path = tmp_path / "cut.ckpt"
        path.write_bytes(raw[:cut] if cut >= 0 else raw[:len(raw) - 1])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        assert run_cli("infer", "--checkpoint", str(path), "--dataset", str(data),
                       "--out", str(tmp_path / "inferred")) == 3


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

    @pytest.mark.parametrize("flag, value", [("--runs", "0"), ("--frames", "-2")])
    def test_out_of_range_count_is_usage_error(self, trained, tmp_path, flag, value):
        _, run = trained
        out = tmp_path / "bench.json"
        assert run_cli("bench", "--checkpoint", str(run / "finetune.ckpt"), "--frames", "4",
                       "--runs", "1", flag, value, "--out", str(out)) == 2
        assert not out.exists()

    def test_failed_write_keeps_previous_report(self, trained, tmp_path, monkeypatch):
        _, run = trained
        out = tmp_path / "out"
        out.mkdir()
        argv = ("bench", "--checkpoint", str(run / "finetune.ckpt"), "--frames", "4",
                "--runs", "1", "--out", str(out / "bench.json"))
        assert run_cli(*argv) == 0
        before = (out / "bench.json").read_bytes()
        fail_atomic_writes(monkeypatch, limit=len(before) // 2)
        assert run_cli(*argv) == 3
        assert (out / "bench.json").read_bytes() == before
        assert os.listdir(out) == ["bench.json"]


class TestAblationSwitches:
    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_each_switch_turns_off_only_its_own_field(self, command):
        parser = build_parser()
        argv = [command, "--checkpoint", "c.ckpt", "--dataset", "d", "--out", "o"]
        assert _ablation_flags(parser.parse_args(argv)) == AblationFlags()
        switches = ["--no-integrator", "--no-omega", "--no-refiner", "--no-neural-init"]
        assert len(switches) == len(fields(AblationFlags))
        for switch, field in zip(switches, fields(AblationFlags)):
            flags = _ablation_flags(parser.parse_args(argv + [switch]))
            assert flags == replace(AblationFlags(), **{field.name: False}), switch


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "whamkit.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for sub in ("synth", "pretrain", "finetune", "infer", "eval",
                    "gradcheck", "bench"):
            assert sub in proc.stdout

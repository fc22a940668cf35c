import csv
import os

import numpy as np
import pytest

from whamkit import dataset as ds, layers, train
from whamkit.config import RunConfig
from whamkit.errors import CheckpointError, InvalidInputError, NumericError
from whamkit.gradcheck import forward_backward
from whamkit.losses import LossWeights
from whamkit.model import ModelDims, WhamModel, WhamParams
from whamkit.optim import load_checkpoint, save_checkpoint
from whamkit.synth import SynthConfig
from whamkit.train import (STAGES, TrainingModule, _append_log, _lr_scale, build_batch,
                           load_model, make_chunks, run_training)
from tests.conftest import TOY_DIMS, fail_atomic_writes, toy_bundles


class TestChunking:
    def test_exact_chunks(self):
        bundles = toy_bundles(2, 10, seed=1)
        chunks = make_chunks(bundles, 5)
        assert len(chunks) == 4
        assert all(stop - start == 5 for _, start, stop in chunks)

    def test_remainder_dropped_but_short_sequences_kept(self):
        bundles = toy_bundles(1, 7, seed=2)
        assert len(make_chunks(bundles, 5)) == 1  # frames 5..6 dropped
        assert len(make_chunks(bundles, 10)) == 1  # whole short sequence kept
        chunk = make_chunks(bundles, 10)[0]
        assert chunk[2] - chunk[1] == 7

    def test_batch_shapes(self):
        bundles = toy_bundles(3, 6, seed=3)
        batch = build_batch(make_chunks(bundles, 6), with_features=True)
        assert batch["kp_input"].shape == (6, 3, 54)
        assert batch["local_pose"].shape == (6, 3, 21, 3)
        assert batch["features"].shape == (6, 3, 8)
        assert batch["init_pose"].shape == (3, 63)
        assert batch["omega"].shape == (6, 3, 3)

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidInputError):
            build_batch([], with_features=False)


class TestLrScale:
    def test_integrator_gets_full_rate(self):
        params = WhamParams(TOY_DIMS, seed=0).params
        scale = _lr_scale(params, integrator_lr=1e-4, pretrained_lr=1e-5)
        assert list(scale) == list(params.slices())
        for name, mult in scale.items():
            assert type(mult) is float
            assert mult == (1.0 if name.startswith("integrator.") else 1e-5 / 1e-4), name
        assert {n.split(".")[0] for n, m in scale.items() if m == 1.0} == {"integrator"}


class TestTrainingModule:
    def test_pretrain_ignores_features(self, toy_batch):
        weights = WhamParams(TOY_DIMS, seed=1)
        # the integrator output starts at zero; give it signal so the
        # finetune path actually reacts to features
        weights.params["integrator.mlp.fc1.w"].data[:] = 0.05
        model = WhamModel(weights)
        pre = TrainingModule(model, LossWeights(), stage="pretrain")
        fin = TrainingModule(model, LossWeights(), stage="finetune")
        loss_pre = pre.loss(toy_batch).item()
        loss_fin = fin.loss(toy_batch).item()
        batch2 = dict(toy_batch)
        batch2["features"] = toy_batch["features"] + 10.0
        assert pre.loss(batch2).item() == loss_pre
        assert fin.loss(batch2).item() != loss_fin

    def test_pretrain_leaves_integrator_ungraded(self, toy_batch):
        model = WhamModel(WhamParams(TOY_DIMS, seed=1))
        module = TrainingModule(model, LossWeights(), stage="pretrain")
        _, grads = forward_backward(module, toy_batch)
        sl = model.params.block_slices()["integrator"]
        assert (grads[sl] == 0.0).all()
        assert np.abs(grads).max() > 0.0


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("train_ds")
    # 12 sequences -> an 8-sequence training split
    ds.synthesize_dataset(root / "d", SynthConfig(seq_len=8, feature_dim=8),
                          seed=4, count=12)
    return str(root / "d")


def tiny_cfg(dataset, out_dir, **kw):
    base = dict(dataset=dataset, out_dir=out_dir, seed=2, epochs=2, batch_size=4,
                hidden=12, feature_dim=8, integrator_hidden=12, init_hidden=8,
                chunk_len=8)
    base.update(kw)
    return RunConfig(**base)


class TestRunTraining:
    def test_loss_halves_on_fixed_small_set(self, tmp_path, tiny_dataset):
        # seeded regression pin: 20 epochs over one fixed 8-sequence batch at
        # the regression's own learning rate at least halve the total loss
        cfg = tiny_cfg(tiny_dataset, str(tmp_path / "run"), epochs=20,
                       batch_size=8, lr=1e-2)
        run_training(cfg, "pretrain")
        by_epoch = {}
        with open(tmp_path / "run" / "train_log.csv") as fh:
            for row in csv.DictReader(fh):
                if row["term"] == "total":
                    by_epoch[int(row["epoch"])] = float(row["value"])
        assert by_epoch[max(by_epoch)] < 0.5 * by_epoch[0]

    def test_checkpoint_resume_meta(self, tmp_path, tiny_dataset):
        cfg = tiny_cfg(tiny_dataset, str(tmp_path / "run"))
        path = run_training(cfg, "pretrain")
        _, meta, _ = load_checkpoint(path)
        assert meta["epoch"] == 2 and meta["stage"] == "pretrain"
        cfg2 = tiny_cfg(tiny_dataset, str(tmp_path / "run"), epochs=3)
        run_training(cfg2, "pretrain", resume=True)
        _, meta2, _ = load_checkpoint(path)
        assert meta2["epoch"] == 3

    def test_finetune_needs_existing_checkpoint(self, tmp_path, tiny_dataset):
        cfg = tiny_cfg(tiny_dataset, str(tmp_path / "run"))
        with pytest.raises(CheckpointError):
            run_training(cfg, "finetune", init_checkpoint=str(tmp_path / "none.ckpt"))

    def test_dim_mismatch_detected(self, tmp_path, tiny_dataset):
        cfg = tiny_cfg(tiny_dataset, str(tmp_path / "run"))
        pre = run_training(cfg, "pretrain")
        bad = tiny_cfg(tiny_dataset, str(tmp_path / "run2"), hidden=16,
                       integrator_hidden=16)
        with pytest.raises(CheckpointError):
            run_training(bad, "finetune", init_checkpoint=pre)

    def test_nan_keeps_last_checkpoint(self, tmp_path, tiny_dataset):
        cfg = tiny_cfg(tiny_dataset, str(tmp_path / "run"))
        path = run_training(cfg, "pretrain")
        before = open(path, "rb").read()
        # poison the dataset loader path via an impossible learning rate
        bad = tiny_cfg(tiny_dataset, str(tmp_path / "run"), epochs=3, lr=1e25)
        with pytest.raises(NumericError):
            run_training(bad, "pretrain", resume=True)
        assert open(path, "rb").read() == before

    def test_steps_update_the_arrays_without_a_flat_copy(self, tmp_path, tiny_dataset,
                                                         monkeypatch):
        calls = {"get_flat": 0, "set_flat": 0, "save_checkpoint": 0}

        def counted(owner, name):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in ((layers.ParamSet, "get_flat"), (layers.ParamSet, "set_flat"),
                            (train, "save_checkpoint")):
            counted(owner, name)
        run_training(tiny_cfg(tiny_dataset, str(tmp_path / "run"), batch_size=2), "pretrain")
        assert calls == {"get_flat": 2, "set_flat": 0, "save_checkpoint": 2}

    def test_load_model_round_trip(self, tmp_path, tiny_dataset):
        cfg = tiny_cfg(tiny_dataset, str(tmp_path / "run"))
        path = run_training(cfg, "pretrain")
        model, meta = load_model(path)
        assert model.dims == ModelDims(hidden=12, feature_dim=8,
                                       integrator_hidden=12, init_hidden=8)
        _, _, sections = load_checkpoint(path)
        assert (model.params.get_flat() == sections["params"]).all()

    def test_load_model_draws_no_weights(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        vec = WhamParams(TOY_DIMS, seed=1).params.get_flat()
        save_checkpoint(path, TOY_DIMS.to_dict(), vec, meta={"epoch": 0})

        def no_draw(*args):
            raise AssertionError("a weight was drawn")

        monkeypatch.setattr(layers, "_init_uniform", no_draw)
        model, _ = load_model(str(path))
        _, _, sections = load_checkpoint(path)
        assert np.array_equal(model.params.get_flat(), sections["params"])


class TestTrainLog:
    EPOCH0 = {"total": 1.5, "pose": 0.1}
    EPOCH1 = {"total": 1.0 / 3.0, "pose": 0.25}
    FRESH = b"stage,epoch,term,value\r\npretrain,0,pose,0.1\r\npretrain,0,total,1.5\r\n"
    RESUMED = FRESH + b"pretrain,1,pose,0.25\r\npretrain,1,total,0.3333333333333333\r\n"

    def test_bytes_of_a_fresh_and_a_resumed_stage(self, tmp_path):
        path = tmp_path / "train_log.csv"
        path.write_bytes(b"epoch,term,value\r\n0,pose,0.1\r\n")    # a log without stages
        _append_log(path, "pretrain", 0, self.EPOCH0)
        assert path.read_bytes() == self.FRESH
        _append_log(path, "pretrain", 1, self.EPOCH1)
        assert path.read_bytes() == self.RESUMED
        _append_log(path, "pretrain", 0, self.EPOCH0)
        assert path.read_bytes() == self.FRESH

    @pytest.mark.parametrize("fresh", [True, False])
    def test_failed_write_keeps_the_previous_log(self, tmp_path, monkeypatch, fresh):
        path = tmp_path / "train_log.csv"
        _append_log(path, "pretrain", 0, self.EPOCH0)
        fail_atomic_writes(monkeypatch, limit=len(self.FRESH) + 5)
        with pytest.raises(OSError):
            _append_log(path, "pretrain", 0 if fresh else 1, self.EPOCH1)
        assert path.read_bytes() == self.FRESH
        assert os.listdir(tmp_path) == ["train_log.csv"]

    def test_resumed_run_keeps_the_earlier_rows(self, tmp_path, tiny_dataset):
        cfg = tiny_cfg(tiny_dataset, str(tmp_path / "run"))
        run_training(cfg, "pretrain")
        log = tmp_path / "run" / "train_log.csv"
        before = log.read_bytes()
        run_training(tiny_cfg(tiny_dataset, str(tmp_path / "run"), epochs=3), "pretrain",
                     resume=True)
        after = log.read_bytes()
        assert after.startswith(before)
        rows = list(csv.reader(after[len(before):].decode().splitlines()))
        assert {row[1] for row in rows} == {"2"} and len(rows) == before.count(b"\npretrain,0,")

    def test_a_stage_replaces_its_own_and_later_rows(self, tmp_path):
        """A finetune write keeps the pretrain rows; a pretrain write drops
        every finetune row, which came from the pretrain weights it replaces."""
        path = tmp_path / "train_log.csv"

        def logged():
            return [r[:2] for r in csv.reader(path.read_text().splitlines()[1::2])]

        _append_log(path, "pretrain", 0, self.EPOCH0)
        _append_log(path, "pretrain", 1, self.EPOCH1)
        _append_log(path, "finetune", 0, self.EPOCH1)
        _append_log(path, "finetune", 1, self.EPOCH1)
        _append_log(path, "finetune", 1, self.EPOCH0)
        assert logged() == [["pretrain", "0"], ["pretrain", "1"], ["finetune", "0"],
                            ["finetune", "1"]]
        assert path.read_text().splitlines()[-1] == "finetune,1,total,1.5"
        _append_log(path, "pretrain", 1, self.EPOCH0)
        assert logged() == [["pretrain", "0"], ["pretrain", "1"]]

    def test_finetune_keeps_the_pretrain_log(self, tmp_path, tiny_dataset):
        cfg = tiny_cfg(tiny_dataset, str(tmp_path / "run"), epochs=3)
        run_training(cfg, "finetune", init_checkpoint=run_training(cfg, "pretrain"))
        with open(tmp_path / "run" / "train_log.csv", newline="") as fh:
            logged = {(row["stage"], row["epoch"]) for row in csv.DictReader(fh)}
        assert logged == {(stage, str(e)) for stage in STAGES for e in range(3)}

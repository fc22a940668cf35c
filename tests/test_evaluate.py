import itertools
import math
import os
from dataclasses import fields

import numpy as np
import pytest

from whamkit import dataset as ds, evaluate
from whamkit.body import world_landmarks
from whamkit.evaluate import (INFER_BLOCK, AblationFlags, evaluate_split, infer_bundle,
                              infer_bundles, oracle_output, report_for)
from whamkit.model import ModelDims, WhamModel, WhamOutput, WhamParams
from whamkit.svg import render_topdown
from whamkit.synth import SynthConfig

from tests.conftest import TOY_DIMS, fail_atomic_writes, read_metrics_csv, toy_bundles


@pytest.fixture(scope="module")
def clean_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval_ds")
    cfg = SynthConfig(seq_len=24, feature_dim=16, speed_min=1.0, speed_max=1.0,
                      gait_kinds=("walk", "turn"), gait_weights=(1.0, 1.0))
    ds.synthesize_dataset(root / "d", cfg, seed=9, count=8)
    return str(root / "d")


class TestOracleOutput:
    def test_scores_zero(self, clean_data):
        bundle = ds.load_split(clean_data, "test")[0]
        pred = oracle_output(bundle)
        report = report_for(pred, bundle, world_landmarks(pred), world_landmarks(bundle.seq))
        for name, value in report.values().items():
            if not math.isnan(value):
                assert value < 1e-9, name

    def test_oracle_camera_consistency(self, clean_data):
        bundle = ds.load_split(clean_data, "test")[0]
        out = oracle_output(bundle)
        # camera-frame root equals extrinsics applied to the world root
        want = (np.einsum("tij,tj->ti", bundle.cams.rotations, bundle.seq.root_pos)
                + bundle.cams.translations)
        assert np.abs(out.cam_root_pos - want).max() < 1e-12


class TestEvaluateSplit:
    def test_oracle_full_run(self, clean_data, tmp_path):
        aggregate = evaluate_split(None, clean_data, "train", str(tmp_path / "o"),
                                   oracle=True)
        for name, value in aggregate.items():
            assert value < 1e-9, name
        rows, agg2 = read_metrics_csv(str(tmp_path / "o" / "metrics.csv"))
        assert len(rows) == len(ds.read_manifest(clean_data)["splits"]["train"])
        assert set(agg2) == set(aggregate)

    def test_world_landmarks_built_once_per_sequence(self, clean_data, tmp_path,
                                                    monkeypatch):
        calls = []
        monkeypatch.setattr(evaluate, "world_landmarks",
                            lambda seq: calls.append(seq) or world_landmarks(seq))
        evaluate_split(None, clean_data, "test", str(tmp_path / "o"), oracle=True)
        assert len(calls) == 2 * len(ds.read_manifest(clean_data)["splits"]["test"])

    def test_failed_csv_write_keeps_previous_file(self, clean_data, tmp_path, monkeypatch):
        out = tmp_path / "o"
        evaluate_split(None, clean_data, "test", str(out), oracle=True, write_svg=False)
        before = (out / "metrics.csv").read_bytes()
        # The train split has more rows, so its file is longer than this limit.
        fail_atomic_writes(monkeypatch, limit=len(before))
        with pytest.raises(OSError, match="No space"):
            evaluate_split(None, clean_data, "train", str(out), oracle=True, write_svg=False)
        assert (out / "metrics.csv").read_bytes() == before
        assert os.listdir(out) == ["metrics.csv"]

    def test_svg_written_and_deterministic(self, clean_data, tmp_path, small_trained):
        model = small_trained["model"]
        # evaluate this module's dataset with the trained small model
        bundles = ds.load_split(clean_data, "test")
        out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        for out in (out1, out2):
            evaluate_split(model, clean_data, "test", out)
        svgs = [n for n in os.listdir(out1) if n.endswith(".svg")]
        assert len(svgs) == len(bundles)
        for name in svgs:
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b
            assert b"<svg" in a and b"(m)" in a


class TestSvgRenderer:
    def test_paths_and_axes(self, tmp_path):
        t = np.linspace(0, 2 * np.pi, 50)
        truth = np.stack([np.cos(t), np.sin(t)], axis=1)
        pred = truth + 0.05
        path = tmp_path / "plot.svg"
        render_topdown(path, truth, pred, title="test path")
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert "test path" in text
        assert "x (m)" in text and "z (m)" in text

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        t = np.linspace(0, 2 * np.pi, 50)
        truth = np.stack([np.cos(t), np.sin(t)], axis=1)
        path = tmp_path / "plot.svg"
        render_topdown(path, truth, truth + 0.05, title="first")
        before = path.read_bytes()
        fail_atomic_writes(monkeypatch, limit=len(before) // 2)
        with pytest.raises(OSError, match="No space"):
            render_topdown(path, truth, truth - 0.05, title="second")
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["plot.svg"]

    def test_degenerate_static_path(self, tmp_path):
        pts = np.zeros((10, 2))
        render_topdown(tmp_path / "p.svg", pts, pts, title="static")
        assert (tmp_path / "p.svg").exists()


class TestAblationPlumbing:
    def test_flags_reach_inference(self, clean_data, small_trained):
        model = small_trained["model"]
        bundle = ds.load_split(clean_data, "test")[0]
        full = infer_bundle(model, bundle, AblationFlags())
        noref = infer_bundle(model, bundle, AblationFlags(use_refiner=False))
        assert (noref.root_rot == noref.root_rot0).all()
        assert not (full.root_pos == noref.root_pos).all()
        noni = infer_bundle(model, bundle, AblationFlags(use_neural_init=False))
        assert not (full.local_pose[0] == noni.local_pose[0]).all()


def assert_outputs_match(got: list[WhamOutput], want: list[WhamOutput], tol: float = 1e-9):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.fps == b.fps
        for f in fields(WhamOutput):
            if f.name != "fps":
                x, y = getattr(a, f.name), getattr(b, f.name)
                assert x.shape == y.shape, f.name
                assert np.abs(x - y).max() <= tol, f.name


def counting_forwards(model, monkeypatch) -> list[int]:
    """Batch sizes of the model's inference forwards, as they happen."""
    sizes = []
    infer_batch = model.infer_batch

    def counted(kp_input, *args, **kwargs):
        sizes.append(kp_input.shape[1])
        return infer_batch(kp_input, *args, **kwargs)

    monkeypatch.setattr(model, "infer_batch", counted)
    return sizes


class TestInferBundles:
    @pytest.fixture(scope="class")
    def mixed(self):
        """Interleaved 12- and 20-frame bundles with distinct indices and,
        within each length, two frame rates."""
        short, long_ = toy_bundles(4, 12, seed=3), toy_bundles(3, 20, seed=4)
        bundles = [b for pair in itertools.zip_longest(short, long_) for b in pair if b]
        for i, b in enumerate(bundles):
            b.index = i
            b.seq.fps = 25.0 if i % 4 < 2 else 30.0
        return bundles

    @pytest.fixture(scope="class")
    def model(self):
        return WhamModel(WhamParams(ModelDims(hidden=16, feature_dim=8, integrator_hidden=16,
                                              init_hidden=8), seed=2))

    @pytest.mark.parametrize("switches", list(itertools.product((True, False), repeat=4)))
    def test_matches_per_sequence_inference(self, mixed, model, switches):
        flags = AblationFlags(*switches)
        batched = infer_bundles(model, mixed, flags)
        assert [(o.fps, len(o.local_pose)) for o in batched] == [
            (b.seq.fps, b.num_frames) for b in mixed]
        assert_outputs_match(batched, [infer_bundle(model, b, flags) for b in mixed])

    def test_one_forward_per_length(self, mixed, model, monkeypatch):
        sizes = counting_forwards(model, monkeypatch)
        infer_bundles(model, mixed)
        assert sorted(sizes) == [3, 4]
        sizes.clear()
        infer_bundle(model, mixed[1])
        assert sizes == [1]

    def test_blocks_of_at_most_infer_block(self, monkeypatch):
        model = WhamModel(WhamParams(TOY_DIMS, seed=1))
        bundles = toy_bundles(70, 3, seed=6)
        sizes = counting_forwards(model, monkeypatch)
        batched = infer_bundles(model, bundles)
        assert INFER_BLOCK == 64 and sizes == [64, 6]
        assert_outputs_match(batched, [infer_bundle(model, b) for b in bundles])

    def test_empty(self, model):
        assert infer_bundles(model, []) == []

import json
import os
from dataclasses import fields

import numpy as np
import pytest

from whamkit import body, dataset as ds, synth
from whamkit.errors import InvalidInputError
from whamkit.model import WhamOutput

from tests.conftest import fail_atomic_writes


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    cfg = synth.SynthConfig(seq_len=12, feature_dim=8)
    manifest = ds.synthesize_dataset(root / "d", cfg, seed=3, count=4)
    return root / "d", cfg, manifest


class TestMotionFormat:
    def test_round_trip(self, tmp_path):
        seq = body.generate_gait("walk", 20, seed=1,
                                 bone_scales=np.exp(np.random.default_rng(2).normal(0, 0.1, 20)))
        path = tmp_path / "m.ndjson"
        ds.save_motion(path, seq)
        back = ds.load_motion(path)
        assert back.fps == seq.fps
        assert np.array_equal(back.local_pose, seq.local_pose)
        assert np.array_equal(back.root_rot, seq.root_rot)
        assert np.array_equal(back.root_pos, seq.root_pos)
        assert np.array_equal(back.contacts, seq.contacts)
        # bone scales are recovered from the frame-0 geometry
        assert np.abs(back.bone_scales - seq.bone_scales).max() < 1e-9

    def test_header_and_one_line_per_frame(self, tmp_path):
        seq = body.generate_gait("stand", 5, seed=0)
        path = tmp_path / "m.ndjson"
        ds.save_motion(path, seq)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 6
        header = json.loads(lines[0])
        assert header["skeleton_version"] == body.SKELETON_VERSION
        frame = json.loads(lines[1])
        assert set(frame) == {"t", "gamma", "tau", "local", "contact"}
        assert len(frame["gamma"]) == 9 and len(frame["local"]) == 63
        assert len(frame["tau"]) == 3 and len(frame["contact"]) == 4


class TestCameraAndKeypointFormats:
    def test_camera_round_trip(self, tmp_path):
        seq = body.generate_gait("walk", 10, seed=2)
        cfg = synth.SynthConfig()
        cams = synth.synth_camera(seq, cfg.pinhole(), cfg, seed=1)
        path = tmp_path / "c.ndjson"
        ds.save_camera(path, cams)
        back = ds.load_camera(path)
        assert np.array_equal(back.rotations, cams.rotations)
        assert np.array_equal(back.translations, cams.translations)
        assert np.array_equal(back.omega, cams.omega)
        assert back.pinhole == cams.pinhole

    def test_keypoints_round_trip(self, tmp_path):
        seq = body.generate_gait("walk", 10, seed=2)
        cfg = synth.SynthConfig()
        cams = synth.synth_camera(seq, cfg.pinhole(), cfg, seed=1)
        kps = synth.synth_keypoints(seq, cams, cfg, seed=5)
        path = tmp_path / "k.ndjson"
        ds.save_keypoints(path, kps)
        back = ds.load_keypoints(path)
        assert np.array_equal(back.keypoints, kps.keypoints)
        assert np.array_equal(back.mask, kps.mask)
        assert np.array_equal(back.center, kps.center)
        assert np.array_equal(back.scale, kps.scale)
        assert np.array_equal(back.carried, kps.carried)
        frame = json.loads(path.read_text().split("\n")[1])
        assert all(type(m) is int for m in frame["mask"]) and type(frame["carried"]) is int
        assert type(frame["scale"]) is float

    def test_features_little_endian_f32(self, tmp_path):
        feats = np.random.default_rng(3).normal(size=(7, 5))
        path = tmp_path / "f.bin"
        ds.save_features(path, feats)
        assert os.path.getsize(path) == 7 * 5 * 4
        back = ds.load_features(path, 5)
        assert np.abs(back - feats).max() < 1e-6

    def test_feature_dim_mismatch(self, tmp_path):
        path = tmp_path / "f.bin"
        ds.save_features(path, np.zeros((3, 5)))
        with pytest.raises(InvalidInputError):
            ds.load_features(path, 4)


class TestCodec:
    @pytest.mark.parametrize("suffix, load, save", [
        (".ndjson", ds.load_motion, ds.save_motion),
        (".cam.ndjson", ds.load_camera, ds.save_camera),
        (".kp2d.ndjson", ds.load_keypoints, ds.save_keypoints)])
    def test_save_of_load_reproduces_the_file(self, sample, tmp_path, suffix, load, save):
        root, _, _ = sample
        for k in range(4):
            path = root / f"seq_{k}{suffix}"
            save(tmp_path / "copy", load(path))
            assert (tmp_path / "copy").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("suffix, load, save", [
        (".ndjson", ds.load_motion, ds.save_motion),
        (".cam.ndjson", ds.load_camera, ds.save_camera),
        (".kp2d.ndjson", ds.load_keypoints, ds.save_keypoints)])
    def test_failed_write_keeps_previous_file(self, sample, tmp_path, monkeypatch,
                                              suffix, load, save):
        root, _, _ = sample
        out = tmp_path / "out"
        out.mkdir()
        save(out / "copy", load(root / f"seq_0{suffix}"))
        before = (out / "copy").read_bytes()
        replacement = load(root / f"seq_1{suffix}")
        fail_atomic_writes(monkeypatch, limit=len(before) // 2)
        with pytest.raises(OSError, match="No space"):
            save(out / "copy", replacement)
        assert (out / "copy").read_bytes() == before
        assert os.listdir(out) == ["copy"]

    def test_output_table_covers_every_array_field(self):
        written = {name for _, name, _, _ in ds.OUTPUT_KEYS}
        arrays = {f.name for f in fields(WhamOutput)} - {"fps"}
        assert written == arrays


class TestSplits:
    def test_fractions(self):
        splits = ds.split_sequences(200, seed=0)
        assert len(splits["train"]) == 140
        assert len(splits["val"]) == 30
        assert len(splits["test"]) == 30
        everything = sorted(splits["train"] + splits["val"] + splits["test"])
        assert everything == list(range(200))

    def test_deterministic_per_seed(self):
        assert ds.split_sequences(50, seed=1) == ds.split_sequences(50, seed=1)
        assert ds.split_sequences(50, seed=1) != ds.split_sequences(50, seed=2)

    def test_tiny_counts(self):
        assert ds.split_sequences(0, seed=0) == {"train": [], "val": [], "test": []}
        one = ds.split_sequences(1, seed=0)
        assert sum(len(v) for v in one.values()) == 1


class TestDatasetDirectory:
    def test_layout_and_manifest(self, sample):
        root, cfg, manifest = sample
        files = sorted(os.listdir(root))
        assert "manifest.json" in files
        for k in range(4):
            for suffix in (".ndjson", ".cam.ndjson", ".kp2d.ndjson", ".feat.bin"):
                assert f"seq_{k}{suffix}" in files
        assert manifest["count"] == 4
        assert manifest["config"]["seq_len"] == 12
        assert manifest["config_hash"] == ds.config_hash(cfg)

    def test_bundle_loading(self, sample):
        root, cfg, _ = sample
        bundle = ds.load_bundle(root, 0, cfg.feature_dim)
        assert bundle.num_frames == 12
        assert bundle.enc_input.shape == (12, 54)
        assert bundle.kp_px.shape == (12, 17, 2)
        assert bundle.features.shape == (12, 8)
        assert bundle.root_vel.shape == (12, 3)

    def test_load_split(self, sample):
        root, _, manifest = sample
        for split in ("train", "val", "test"):
            bundles = ds.load_split(root, split)
            assert [b.index for b in bundles] == manifest["splits"][split]
        with pytest.raises(InvalidInputError):
            ds.load_split(root, "nope")

    def test_byte_identical_rerun(self, tmp_path):
        cfg = synth.SynthConfig(seq_len=8, feature_dim=8)
        ds.synthesize_dataset(tmp_path / "a", cfg, seed=11, count=3)
        ds.synthesize_dataset(tmp_path / "b", cfg, seed=11, count=3)
        for name in sorted(os.listdir(tmp_path / "a")):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_zero_count_dataset(self, tmp_path):
        manifest = ds.synthesize_dataset(tmp_path / "z", synth.SynthConfig(seq_len=8),
                                         seed=0, count=0)
        assert manifest["count"] == 0
        assert manifest["splits"] == {"train": [], "val": [], "test": []}


class TestOutputFormat:
    def test_save_output_schema(self, tmp_path):
        n = 4
        rng = np.random.default_rng(4)
        out = WhamOutput(fps=30.0, local_pose=rng.normal(size=(n, 21, 3)),
                         contact=rng.uniform(size=(n, 4)),
                         cam_root_pos=rng.normal(size=(n, 3)),
                         cam_root_rot=np.broadcast_to(np.eye(3), (n, 3, 3)).copy(),
                         bone_scales=np.ones((n, 20)),
                         root_rot0=np.broadcast_to(np.eye(3), (n, 3, 3)).copy(),
                         vel0=rng.normal(size=(n, 3)), vel_adj=rng.normal(size=(n, 3)),
                         root_rot=np.broadcast_to(np.eye(3), (n, 3, 3)).copy(),
                         vel=rng.normal(size=(n, 3)), root_pos=rng.normal(size=(n, 3)))
        path = tmp_path / "out.ndjson"
        ds.save_output(path, out)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == n + 1
        frame = json.loads(lines[1])
        for key in ("t", "gamma", "tau", "local", "contact", "gamma0", "v0",
                    "v_adj", "v", "gamma_cam", "cam_pos", "beta"):
            assert key in frame

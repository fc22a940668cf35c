import json
import os
import shutil
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from whamkit import body, dataset as ds, synth
from whamkit.errors import InvalidInputError
from whamkit.model import WhamOutput

from tests.conftest import fail_atomic_writes

pytestmark = pytest.mark.filterwarnings("error")

FORMATS = {".ndjson": (("fps", "skeleton_version"), ds.MOTION_KEYS),
           ".cam.ndjson": (("f", "w", "h", "cx", "cy"), ds.CAMERA_KEYS),
           ".kp2d.ndjson": (("w", "h"), ds.KEYPOINT_KEYS)}

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
        assert path.read_bytes() == feats.astype("<f4").tobytes()
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

    @pytest.mark.parametrize("suffix", FORMATS)
    def test_header_only_file_is_rejected(self, sample, tmp_path, suffix):
        root, _, _ = sample
        path = tmp_path / f"seq_0{suffix}"
        path.write_text((root / f"seq_0{suffix}").read_text().split("\n")[0] + "\n")
        with pytest.raises(InvalidInputError, match="no frame lines"):
            ds._read(path, *FORMATS[suffix])

    @pytest.mark.parametrize("value", [256, -1])
    def test_mask_value_out_of_range_is_rejected(self, sample, tmp_path, value):
        root, _, _ = sample
        lines = (root / "seq_0.kp2d.ndjson").read_text().split("\n")
        frame = json.loads(lines[1])
        frame["mask"][0] = value
        lines[1] = json.dumps(frame)
        path = tmp_path / "seq_0.kp2d.ndjson"
        path.write_text("\n".join(lines))
        with pytest.raises(InvalidInputError, match="'mask' value .* out of range"):
            ds.load_keypoints(path)

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

    @pytest.mark.parametrize("name", ["manifest.json", "seq_0.feat.bin"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, name):
        out = tmp_path / "out"
        out.mkdir()
        if name == "manifest.json":
            write = lambda count: ds.write_manifest(out, synth.SynthConfig(), 5, count)
        else:
            write = lambda count: ds.save_features(out / name, np.arange(8.0 * count).reshape(-1, 8))
        write(4)
        before = (out / name).read_bytes()
        fail_atomic_writes(monkeypatch, limit=len(before) // 2)
        with pytest.raises(OSError, match="No space"):
            write(9)
        assert (out / name).read_bytes() == before
        assert os.listdir(out) == [name]

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


def _copy(sample, tmp_path, suffix):
    """seq_0 of the sample in the given format, copied to tmp_path with no
    cache entry."""
    path = tmp_path / f"seq_0{suffix}"
    shutil.copyfile(sample[0] / path.name, path)
    return path


def _entry(path):
    return path.parent / ds.CACHE_DIR / (path.name + ".bin")


def assert_same_read(got, expected):
    """Two _read results are bit-identical, dtypes and value types included."""
    (got_header, got_fields), (header, fields) = got, expected
    assert got_header == header
    assert {k: type(v) for k, v in got_header.items()} == {k: type(v) for k, v in header.items()}
    assert list(got_fields) == list(fields)
    for name, array in fields.items():
        assert got_fields[name].dtype == array.dtype and got_fields[name].shape == array.shape
        assert got_fields[name].tobytes() == array.tobytes(), name
        assert got_fields[name].flags.writeable


@pytest.fixture
def loads_calls(monkeypatch):
    """The number of json.loads calls, counted in a one-element list."""
    calls = [0]
    loads = json.loads

    def counting(*args, **kwargs):
        calls[0] += 1
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    return calls


class TestCache:
    @pytest.mark.parametrize("suffix", FORMATS)
    def test_warm_read_equals_parse(self, sample, tmp_path, suffix):
        path = _copy(sample, tmp_path, suffix)
        parsed = ds._parse(path, path.read_bytes(), *FORMATS[suffix])
        assert_same_read(ds._read(path, *FORMATS[suffix]), parsed)
        assert _entry(path).is_file()
        assert_same_read(ds._read(path, *FORMATS[suffix]), parsed)

    @pytest.mark.parametrize("suffix", FORMATS)
    def test_warm_read_parses_only_the_cache_header(self, sample, tmp_path, loads_calls,
                                                    suffix):
        path = _copy(sample, tmp_path, suffix)
        ds._read(path, *FORMATS[suffix])
        assert loads_calls[0] == 1 + 12
        loads_calls[0] = 0
        ds._read(path, *FORMATS[suffix])
        assert loads_calls[0] == 1

    def test_edited_file_is_reparsed_and_its_entry_rewritten(self, sample, tmp_path,
                                                             loads_calls):
        path = _copy(sample, tmp_path, ".ndjson")
        ds.load_motion(path)
        before = _entry(path).read_bytes()
        lines = path.read_text().split("\n")
        old = json.loads(lines[1])["tau"][0]
        lines[1] = lines[1].replace(f'"tau":[{old!r}', '"tau":[12.5', 1)
        path.write_text("\n".join(lines))
        loads_calls[0] = 0
        assert ds.load_motion(path).root_pos[0, 0] == 12.5
        assert loads_calls[0] == 1 + 12
        assert _entry(path).read_bytes() != before
        loads_calls[0] = 0
        assert ds.load_motion(path).root_pos[0, 0] == 12.5
        assert loads_calls[0] == 1

    def test_changed_format_signature_is_a_miss(self, sample, tmp_path, loads_calls):
        path = _copy(sample, tmp_path, ".ndjson")
        header_keys, keys = FORMATS[".ndjson"]
        ds._read(path, header_keys, keys)
        renamed = tuple((key, "translation" if name == "root_pos" else name, shape, kind)
                        for key, name, shape, kind in keys)
        loads_calls[0] = 0
        _, fields = ds._read(path, header_keys, renamed)
        assert "translation" in fields and loads_calls[0] == 1 + 12
        loads_calls[0] = 0
        header, _ = ds._read(path, ("fps",), renamed)
        assert list(header) == ["fps"] and loads_calls[0] == 1 + 12

    @pytest.mark.parametrize("damage", ["empty", "truncated", "flipped payload byte",
                                        "edited header value", "wrong digest"])
    def test_damaged_entry_is_a_miss(self, sample, tmp_path, damage):
        path = _copy(sample, tmp_path, ".ndjson")
        parsed = ds._parse(path, path.read_bytes(), *FORMATS[".ndjson"])
        ds._read(path, *FORMATS[".ndjson"])
        good = _entry(path).read_bytes()
        bad = bytearray(good)
        if damage == "truncated":
            bad = good[:len(good) // 2]
        elif damage == "flipped payload byte":
            bad[-100] ^= 0x10
        elif damage == "edited header value":
            bad = good.replace(b'"fps":30.0', b'"fps":31.0', 1)
        elif damage == "wrong digest":
            bad[:64] = b"0" * 64
        else:
            bad = b""
        assert bytes(bad) != good
        _entry(path).write_bytes(bad)
        assert_same_read(ds._read(path, *FORMATS[".ndjson"]), parsed)
        assert _entry(path).read_bytes() == good

    def test_failed_cache_write_still_returns_the_data(self, sample, tmp_path, monkeypatch):
        path = _copy(sample, tmp_path, ".cam.ndjson")
        parsed = ds._parse(path, path.read_bytes(), *FORMATS[".cam.ndjson"])
        fail_atomic_writes(monkeypatch)
        assert_same_read(ds._read(path, *FORMATS[".cam.ndjson"]), parsed)
        assert os.listdir(tmp_path / ds.CACHE_DIR) == []

    def test_unusable_cache_directory_still_returns_the_data(self, sample, tmp_path):
        path = _copy(sample, tmp_path, ".kp2d.ndjson")
        parsed = ds._parse(path, path.read_bytes(), *FORMATS[".kp2d.ndjson"])
        (tmp_path / ds.CACHE_DIR).write_text("a file where the directory would go")
        assert_same_read(ds._read(path, *FORMATS[".kp2d.ndjson"]), parsed)

    def test_skeleton_version_is_checked_on_warm_reads(self, sample, tmp_path):
        path = _copy(sample, tmp_path, ".ndjson")
        text = path.read_text()
        path.write_text(text.replace(body.SKELETON_VERSION, "other-skeleton", 1))
        for _ in range(2):
            with pytest.raises(InvalidInputError, match="skeleton version"):
                ds.load_motion(path)
        assert _entry(path).is_file()

    def test_entries_are_byte_identical_across_runs(self, tmp_path):
        cfg = synth.SynthConfig(seq_len=8, feature_dim=8)
        for run in ("a", "b"):
            ds.synthesize_dataset(tmp_path / run, cfg, seed=11, count=3)
            for split in ("train", "val", "test"):
                ds.load_split(tmp_path / run, split)
        names = sorted(os.listdir(tmp_path / "a" / ds.CACHE_DIR))
        assert len(names) == 9
        assert names == sorted(os.listdir(tmp_path / "b" / ds.CACHE_DIR))
        for name in names:
            a = (tmp_path / "a" / ds.CACHE_DIR / name).read_bytes()
            assert a == (tmp_path / "b" / ds.CACHE_DIR / name).read_bytes(), name


# -- fuzzing: truncations and byte flips of the files and their entries ---------

FUZZ_FRAMES = 12
DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("flip"), st.lists(st.tuples(st.integers(0, 10 ** 6),
                                                   st.integers(1, 255)),
                                        min_size=1, max_size=3)))
FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _damaged(blob: bytes, damage) -> bytes:
    kind, arg = damage
    if kind == "truncate":
        return blob[:arg % (len(blob) + 1)]
    out = bytearray(blob)
    for position, mask in arg:
        out[position % len(out)] ^= mask
    return bytes(out)


def _bundle_arrays(bundle) -> dict:
    return {"local_pose": bundle.seq.local_pose, "root_rot": bundle.seq.root_rot,
            "root_pos": bundle.seq.root_pos, "contacts": bundle.seq.contacts,
            "bone_scales": bundle.seq.bone_scales, "rotations": bundle.cams.rotations,
            "translations": bundle.cams.translations, "omega": bundle.cams.omega,
            "keypoints": bundle.kps.keypoints, "mask": bundle.kps.mask,
            "center": bundle.kps.center, "scale": bundle.kps.scale,
            "carried": bundle.kps.carried, "features": bundle.features,
            "enc_input": bundle.enc_input, "kp_px": bundle.kp_px,
            "root_vel": bundle.root_vel}


def _documented_shapes(t: int) -> dict:
    return {"local_pose": (t, 21, 3), "root_rot": (t, 3, 3), "root_pos": (t, 3),
            "contacts": (t, 4), "bone_scales": (20,), "rotations": (t, 3, 3),
            "translations": (t, 3), "omega": (t, 3), "keypoints": (t, 17, 2),
            "mask": (t, 17), "center": (t, 2), "scale": (t,), "carried": (t,),
            "features": (t, 8), "enc_input": (t, 54), "kp_px": (t, 17, 2),
            "root_vel": (t, 3)}


class TestReaderFuzz:
    """load_bundle on a sequence with one damaged file either returns the
    documented shapes or raises InvalidInputError; a damaged cache entry is
    never trusted and never raises."""

    @pytest.fixture(scope="class")
    def pristine(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz") / "d"
        ds.synthesize_dataset(root, synth.SynthConfig(seq_len=FUZZ_FRAMES, feature_dim=8),
                              seed=4, count=1)
        return root, _bundle_arrays(ds.load_bundle(root, 0, 8))

    @staticmethod
    def _load_damaged(root, name: str, damage):
        with tempfile.TemporaryDirectory() as tmp:
            copy = os.path.join(tmp, "d")
            shutil.copytree(root, copy)
            path = os.path.join(copy, name)
            with open(path, "rb") as fh:
                blob = fh.read()
            with open(path, "wb") as fh:
                fh.write(_damaged(blob, damage))
            return ds.load_bundle(copy, 0, 8)

    def test_pristine_shapes_are_the_documented_ones(self, pristine):
        _, arrays = pristine
        assert {k: a.shape for k, a in arrays.items()} == _documented_shapes(FUZZ_FRAMES)

    @FUZZ
    @given(suffix=st.sampled_from(sorted(FORMATS)), damage=DAMAGE)
    def test_damaged_file_loads_or_is_rejected(self, pristine, suffix, damage):
        root, _ = pristine
        try:
            bundle = self._load_damaged(root, f"seq_0{suffix}", damage)
        except InvalidInputError:
            return
        arrays = _bundle_arrays(bundle)
        assert ({k: a.shape for k, a in arrays.items()}
                == _documented_shapes(bundle.num_frames))

    @FUZZ
    @given(suffix=st.sampled_from(sorted(FORMATS)), damage=DAMAGE)
    def test_damaged_entry_is_never_trusted(self, pristine, suffix, damage):
        root, expected = pristine
        bundle = self._load_damaged(root, os.path.join(ds.CACHE_DIR, f"seq_0{suffix}.bin"),
                                    damage)
        for name, array in _bundle_arrays(bundle).items():
            assert array.tobytes() == expected[name].tobytes(), name

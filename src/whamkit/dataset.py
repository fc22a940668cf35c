"""Dataset directory layout, NDJSON/binary file formats, and synthesis.

Layout of a dataset directory:
    seq_<k>.ndjson        ground-truth motion (header + one frame per line)
    seq_<k>.cam.ndjson    camera intrinsics + per-frame extrinsics and omega
    seq_<k>.kp2d.ndjson   normalized 2D keypoints with visibility and box
    seq_<k>.feat.bin      per-frame visual features, little-endian f32 rows
    manifest.json         config, seed, counts, train/val/test split
    .whamcache/<file>.bin the parsed arrays of each NDJSON file read so far

All writers emit deterministic bytes for a given (config, seed).

Reading an NDJSON file parses it once. The header values and arrays are
then cached in .whamcache/ next to it, and later reads of the same bytes
take them from there without parsing a float. An entry is checked against
the sha256 of the file's bytes and the format's key table on every read,
so an edited file, a changed format or a damaged entry is re-parsed, never
trusted. Entries are written best-effort (a read-only directory or a full
disk just means no cache), and the directory is safe to delete. The first
read of a file costs more than a plain parse: it also writes the entry.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import os
from collections.abc import Iterator
from dataclasses import asdict, replace

import numpy as np

from . import geom
from .body import (CONTACT_LANDMARKS, MotionSequence, NUM_BONES, NUM_KEYPOINTS_2D,
                   NUM_LANDMARKS, SKELETON_VERSION, generate_gait, resample_speed,
                   scales_from_pose)
from .errors import InvalidInputError
from .fileio import atomic_write
from .model import WhamOutput, pack_encoder_input, extract_velocities
from .synth import (CameraTrajectory, KeypointSequence2D, SynthConfig,
                    apply_root_yaw, synth_camera, synth_keypoints,
                    synth_visual_features)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# Per-frame keys of each NDJSON format: (key in the file, field of the
# in-memory object, per-frame shape, element type). A frame line holds "t"
# and each key, whose value is a flat list, or a number when the shape is ().
MOTION_KEYS = (("gamma", "root_rot", (3, 3), float), ("tau", "root_pos", (3,), float),
               ("local", "local_pose", (NUM_LANDMARKS, 3), float),
               ("contact", "contacts", (len(CONTACT_LANDMARKS),), float))
CAMERA_KEYS = (("r", "rotations", (3, 3), float), ("tcam", "translations", (3,), float),
               ("omega", "omega", (3,), float))
KEYPOINT_KEYS = (("kp", "keypoints", (NUM_KEYPOINTS_2D, 2), float),
                 ("mask", "mask", (NUM_KEYPOINTS_2D,), np.uint8),
                 ("center", "center", (2,), float), ("scale", "scale", (), float),
                 ("carried", "carried", (), bool))
# The motion keys of an inferred sequence plus its intermediate channels.
OUTPUT_KEYS = MOTION_KEYS[:3] + (
    ("contact", "contact", (len(CONTACT_LANDMARKS),), float),
    ("gamma0", "root_rot0", (3, 3), float), ("v0", "vel0", (3,), float),
    ("v_adj", "vel_adj", (3,), float), ("v", "vel", (3,), float),
    ("gamma_cam", "cam_root_rot", (3, 3), float), ("cam_pos", "cam_root_pos", (3,), float),
    ("beta", "bone_scales", (NUM_BONES,), float))


def _write(path, header: dict, obj, keys) -> None:
    """The header line, then one line per frame of obj's fields under keys;
    integer and boolean fields are written as integers. The file is replaced
    atomically."""
    columns = []
    for key, name, shape, kind in keys:
        value = np.asarray(getattr(obj, name), dtype=float if kind is float else int)
        n = value.shape[0]
        columns.append((key, value.reshape((n, math.prod(shape)) if shape else (n,)).tolist()))
    with atomic_write(path) as fh:
        fh.write(_dump(header) + "\n")
        for t in range(n):
            fh.write(_dump({"t": t, **{key: rows[t] for key, rows in columns}}) + "\n")


def _parse(path, data: bytes, header_keys: tuple, keys) -> tuple[dict, dict]:
    """({header key: value}, {field: array of shape (frames,) + shape}) of
    the bytes of a file written by _write. A malformed line, no frame line,
    a missing key, a header value of the wrong type (skeleton_version is a
    string, every other header key a number) or a frame value of the wrong
    length or out of its type's range raises InvalidInputError naming the
    file and the key."""
    try:
        fh = io.StringIO(data.decode("utf-8"), newline=None)
        header = json.loads(fh.readline())
        frames = [json.loads(line) for line in fh if line.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"{path}: malformed NDJSON line: {exc}") from exc
    if not isinstance(header, dict) or not header.keys() >= set(header_keys):
        raise InvalidInputError(f"{path}: the header needs the keys {header_keys}")
    for key in header_keys:
        kind = str if key == "skeleton_version" else (int, float)
        if not isinstance(header[key], kind) or isinstance(header[key], bool):
            raise InvalidInputError(f"{path}: header key {key!r} must be a "
                                    + ("string" if kind is str else "number"))
    if not frames:
        raise InvalidInputError(f"{path}: no frame lines after the header")
    fields = {}
    for key, name, shape, kind in keys:
        try:
            rows = [f[key] for f in frames]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"{path}: a frame has no key {key!r}") from exc
        try:
            fields[name] = np.array(rows, dtype=kind).reshape((len(rows),) + shape)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"{path}: a {key!r} value has the wrong length "
                                    "or is out of range") from exc
    return {key: header[key] for key in header_keys}, fields


# The cache entry of <dir>/<name> is <dir>/.whamcache/<name>.bin: a line with
# the hex sha256 of the key and everything after that line, then a JSON line
# {header, fields: [[field, dtype, shape], ...]}, then the fields' bytes,
# little-endian, in that order. The key hashes CACHE_VERSION, the format's
# header keys and key table, and the NDJSON file's bytes. Bump CACHE_VERSION
# when this layout or _parse's result changes.
CACHE_DIR = ".whamcache"
CACHE_VERSION = 1


def _cache_path(path) -> str:
    return os.path.join(os.path.dirname(path), CACHE_DIR, os.path.basename(path) + ".bin")


@functools.lru_cache
def _signature(header_keys: tuple, keys) -> bytes:
    return _dump([CACHE_VERSION, header_keys, [[key, name, shape, np.dtype(kind).str]
                                               for key, name, shape, kind in keys]]).encode()


def _load_cache(path, key) -> tuple[dict, dict] | None:
    """The header values and fields cached for key, or None on a miss."""
    try:
        with open(_cache_path(path), "rb") as fh:
            blob = fh.read()
    except OSError:
        return None
    digest = key.copy()
    digest.update(memoryview(blob)[65:])
    if blob[:65] != digest.hexdigest().encode() + b"\n":
        return None
    offset = blob.index(b"\n", 65) + 1
    meta = json.loads(blob[65:offset])
    fields = {}
    for name, dtype, shape in meta["fields"]:
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        fields[name] = np.frombuffer(blob, dtype, count, offset).astype(
            dtype.newbyteorder("=")).reshape(shape)
        offset += count * dtype.itemsize
    return meta["header"], fields


def _save_cache(path, key, header: dict, fields: dict) -> None:
    """Write the cache entry of path for key; best effort, a failed write
    leaves no entry."""
    arrays = [a.astype(a.dtype.newbyteorder("<"), copy=False) for a in fields.values()]
    meta = {"header": header,
            "fields": [[name, a.dtype.str, list(a.shape)] for name, a in zip(fields, arrays)]}
    body = b"".join([_dump(meta).encode(), b"\n"] + [a.tobytes() for a in arrays])
    digest = key.copy()
    digest.update(body)
    try:
        os.makedirs(os.path.dirname(_cache_path(path)), exist_ok=True)
        with atomic_write(_cache_path(path), "wb") as fh:
            fh.write(digest.hexdigest().encode() + b"\n" + body)
    except OSError:
        pass


def _read(path, header_keys: tuple, keys) -> tuple[dict, dict]:
    """_parse of the file at path, from its cache entry when the entry was
    made from the same bytes and key table. A miss parses the file and
    rewrites the entry."""
    with open(path, "rb") as fh:
        data = fh.read()
    key = hashlib.sha256(_signature(header_keys, keys))
    key.update(data)
    cached = _load_cache(path, key)
    if cached is not None:
        return cached
    header, fields = _parse(path, data, header_keys, keys)
    _save_cache(path, key, header, fields)
    return header, fields


# -- motion sequences ---------------------------------------------------------

def save_motion(path, seq: MotionSequence) -> None:
    _write(path, {"fps": seq.fps, "skeleton_version": SKELETON_VERSION}, seq, MOTION_KEYS)


def load_motion(path) -> MotionSequence:
    header, fields = _read(path, ("fps", "skeleton_version"), MOTION_KEYS)
    if header["skeleton_version"] != SKELETON_VERSION:
        raise InvalidInputError(f"{path}: unsupported skeleton version")
    # Bone scales are implied by the frame-0 geometry; the format does not
    # store them separately.
    return MotionSequence(fps=float(header["fps"]),
                          bone_scales=scales_from_pose(fields["local_pose"][0]), **fields)


# -- camera trajectories -------------------------------------------------------

def save_camera(path, cams: CameraTrajectory) -> None:
    _write(path, asdict(cams.pinhole), cams, CAMERA_KEYS)


def load_camera(path) -> CameraTrajectory:
    header, fields = _read(path, ("f", "w", "h", "cx", "cy"), CAMERA_KEYS)
    return CameraTrajectory(pinhole=geom.Pinhole(**header), **fields)


# -- 2D keypoints ---------------------------------------------------------------

def save_keypoints(path, kps: KeypointSequence2D) -> None:
    _write(path, {"w": kps.image_w, "h": kps.image_h}, kps, KEYPOINT_KEYS)


def load_keypoints(path) -> KeypointSequence2D:
    header, fields = _read(path, ("w", "h"), KEYPOINT_KEYS)
    return KeypointSequence2D(image_w=header["w"], image_h=header["h"], **fields)


# -- features --------------------------------------------------------------------

def save_features(path, feats: np.ndarray) -> None:
    with atomic_write(path, "wb") as fh:
        fh.write(np.asarray(feats, dtype="<f4").tobytes())


def load_features(path, dim: int) -> np.ndarray:
    raw = np.fromfile(path, dtype="<f4")
    if dim < 1 or raw.size % dim != 0:
        raise InvalidInputError(f"{path}: size {raw.size} not divisible by feature dim {dim}")
    return raw.reshape(-1, dim).astype(np.float64)


# -- inferred outputs -------------------------------------------------------------

def save_output(path, out: WhamOutput) -> None:
    _write(path, {"fps": out.fps, "skeleton_version": SKELETON_VERSION}, out, OUTPUT_KEYS)


# -- manifest and splits ------------------------------------------------------------

def split_sequences(count: int, seed: int) -> dict[str, list[int]]:
    """Deterministic 70/15/15 split by sequence index."""
    perm = np.random.default_rng(seed).permutation(count)
    n_train = int(round(0.70 * count))
    n_val = int(round(0.15 * count))
    n_train = min(n_train, count)
    n_val = min(n_val, count - n_train)
    return {"train": sorted(int(i) for i in perm[:n_train]),
            "val": sorted(int(i) for i in perm[n_train:n_train + n_val]),
            "test": sorted(int(i) for i in perm[n_train + n_val:])}


def config_hash(cfg: SynthConfig) -> str:
    return hashlib.sha256(_dump(cfg.to_dict()).encode()).hexdigest()[:16]


def write_manifest(out_dir, cfg: SynthConfig, seed: int, count: int) -> dict:
    manifest = {
        "config": cfg.to_dict(),
        "config_hash": config_hash(cfg),
        "seed": seed,
        "count": count,
        "skeleton_version": SKELETON_VERSION,
        "splits": split_sequences(count, seed),
    }
    with atomic_write(os.path.join(out_dir, "manifest.json")) as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return manifest


def read_manifest(dataset_dir) -> dict:
    """The manifest of a dataset directory. One that does not parse, is not
    an object, lacks splits, or lacks a positive integer config.feature_dim
    raises InvalidInputError."""
    path = os.path.join(dataset_dir, "manifest.json")
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise InvalidInputError(f"{path}: malformed manifest: {exc}") from exc
    if not (isinstance(manifest, dict) and "splits" in manifest
            and isinstance(manifest.get("config"), dict)
            and "feature_dim" in manifest["config"]):
        raise InvalidInputError(f"{path}: the manifest must be an object with the keys "
                                "splits and config.feature_dim")
    dim = manifest["config"]["feature_dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise InvalidInputError(f"{path}: config.feature_dim must be a positive integer, "
                                f"not {dim!r}")
    return manifest


# -- synthesis ----------------------------------------------------------------------

def crop_motion(seq: MotionSequence, num_frames: int) -> MotionSequence:
    if num_frames > seq.num_frames:
        raise InvalidInputError("cannot crop beyond the sequence length")
    return replace(seq, local_pose=seq.local_pose[:num_frames].copy(),
                   root_rot=seq.root_rot[:num_frames].copy(),
                   root_pos=seq.root_pos[:num_frames].copy(),
                   contacts=seq.contacts[:num_frames].copy(),
                   bone_scales=seq.bone_scales.copy())


def synthesize_sequence(cfg: SynthConfig, seq_seed, master_seed: int):
    """One dataset entry: motion, camera, keypoints, features."""
    rng = np.random.default_rng(seq_seed)
    kind = str(rng.choice(list(cfg.gait_kinds), p=np.asarray(cfg.gait_weights) / sum(cfg.gait_weights)))
    gait_seed = int(rng.integers(2 ** 31))
    factor = float(rng.uniform(cfg.speed_min, cfg.speed_max))
    scales = np.exp(rng.normal(0.0, cfg.shape_noise_std, size=NUM_BONES))
    yaw = float(rng.uniform(0.0, 2.0 * math.pi))

    src_len = int(math.ceil(cfg.seq_len * factor)) + 2
    seq = generate_gait(kind, src_len, fps=cfg.fps, seed=gait_seed, bone_scales=scales)
    seq = crop_motion(resample_speed(seq, factor), cfg.seq_len)
    seq = apply_root_yaw(seq, yaw)

    cams = synth_camera(seq, cfg.pinhole(), cfg, seed=int(rng.integers(2 ** 31)))
    kps = synth_keypoints(seq, cams, cfg, seed=int(rng.integers(2 ** 31)))
    feats = synth_visual_features(seq, cfg.feature_dim, cfg.feature_noise_std,
                                  seed=int(rng.integers(2 ** 31)), matrix_seed=master_seed)
    return seq, cams, kps, feats


def synthesize_dataset(out_dir, cfg: SynthConfig, seed: int, count: int) -> dict:
    """Write a complete dataset directory; deterministic per (cfg, seed)."""
    if count < 0:
        raise InvalidInputError(f"sequence count must be >= 0, got {count}")
    os.makedirs(out_dir, exist_ok=True)
    children = np.random.SeedSequence(seed).spawn(max(count, 1))
    for k in range(count):
        seq, cams, kps, feats = synthesize_sequence(cfg, children[k], seed)
        save_motion(os.path.join(out_dir, f"seq_{k}.ndjson"), seq)
        save_camera(os.path.join(out_dir, f"seq_{k}.cam.ndjson"), cams)
        save_keypoints(os.path.join(out_dir, f"seq_{k}.kp2d.ndjson"), kps)
        save_features(os.path.join(out_dir, f"seq_{k}.feat.bin"), feats)
    return write_manifest(out_dir, cfg, seed, count)


# -- training/eval bundles -------------------------------------------------------------

class SequenceBundle:
    """All arrays for one sequence, ready for batching."""

    def __init__(self, seq: MotionSequence, cams: CameraTrajectory,
                 kps: KeypointSequence2D, feats: np.ndarray, index: int):
        self.index = index
        self.seq = seq
        self.cams = cams
        self.kps = kps
        self.features = feats
        self.enc_input = pack_encoder_input(kps.keypoints, kps.mask, kps.center, kps.scale)
        self.kp_px = kps.to_pixels()
        self.root_vel = extract_velocities(seq.root_rot, seq.root_pos)

    @property
    def num_frames(self) -> int:
        return self.seq.num_frames


def load_bundle(dataset_dir, index: int, feature_dim: int) -> SequenceBundle:
    base = os.path.join(dataset_dir, f"seq_{index}")
    seq = load_motion(base + ".ndjson")
    cams = load_camera(base + ".cam.ndjson")
    kps = load_keypoints(base + ".kp2d.ndjson")
    feats = load_features(base + ".feat.bin", feature_dim)
    if not (seq.num_frames == cams.num_frames == kps.num_frames == feats.shape[0]):
        raise InvalidInputError(f"sequence {index}: file lengths disagree")
    return SequenceBundle(seq, cams, kps, feats, index)


def _split_indices(dataset_dir, split: str) -> tuple[list[int], int]:
    """The sequence indices of a split and the dataset's feature dimension."""
    manifest = read_manifest(dataset_dir)
    if split not in manifest["splits"]:
        raise InvalidInputError(f"unknown split {split!r}")
    return manifest["splits"][split], manifest["config"]["feature_dim"]


def load_split(dataset_dir, split: str) -> list[SequenceBundle]:
    indices, dim = _split_indices(dataset_dir, split)
    return [load_bundle(dataset_dir, i, dim) for i in indices]


def split_blocks(dataset_dir, split: str, size: int) -> Iterator[list[SequenceBundle]]:
    """The bundles of a split in consecutive blocks of at most size, each
    loaded only when the previous one has been consumed. The manifest is
    read, and a bad split rejected, at the call."""
    indices, dim = _split_indices(dataset_dir, split)
    return ([load_bundle(dataset_dir, i, dim) for i in indices[lo:lo + size]]
            for lo in range(0, len(indices), size))

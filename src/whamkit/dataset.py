"""Dataset directory layout, NDJSON/binary file formats, and synthesis.

Layout of a dataset directory:
    seq_<k>.ndjson        ground-truth motion (header + one frame per line)
    seq_<k>.cam.ndjson    camera intrinsics + per-frame extrinsics and omega
    seq_<k>.kp2d.ndjson   normalized 2D keypoints with visibility and box
    seq_<k>.feat.bin      per-frame visual features, little-endian f32 rows
    manifest.json         config, seed, counts, train/val/test split

All writers emit deterministic bytes for a given (config, seed).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections.abc import Iterator
from dataclasses import replace

import numpy as np

from . import geom
from .body import (MotionSequence, NUM_BONES, SKELETON_VERSION, generate_gait,
                   resample_speed, scales_from_pose)
from .errors import InvalidInputError
from .model import WhamOutput, pack_encoder_input, extract_velocities
from .synth import (CameraTrajectory, KeypointSequence2D, SynthConfig,
                    apply_root_yaw, synth_camera, synth_keypoints,
                    synth_visual_features)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _floats(a) -> list:
    return np.asarray(a, dtype=float).ravel().tolist()


# -- motion sequences ---------------------------------------------------------

def save_motion(path, seq: MotionSequence) -> None:
    with open(path, "w") as fh:
        fh.write(_dump({"fps": seq.fps, "skeleton_version": SKELETON_VERSION}) + "\n")
        for t in range(seq.num_frames):
            fh.write(_dump({"t": t, "gamma": _floats(seq.root_rot[t]),
                            "tau": _floats(seq.root_pos[t]),
                            "local": _floats(seq.local_pose[t]),
                            "contact": _floats(seq.contacts[t])}) + "\n")


def load_motion(path) -> MotionSequence:
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("skeleton_version") != SKELETON_VERSION:
            raise InvalidInputError(f"{path}: unsupported skeleton version")
        frames = [json.loads(line) for line in fh if line.strip()]
    n = len(frames)
    local = np.array([f["local"] for f in frames]).reshape(n, -1, 3)
    rot = np.array([f["gamma"] for f in frames]).reshape(n, 3, 3)
    tau = np.array([f["tau"] for f in frames]).reshape(n, 3)
    contact = np.array([f["contact"] for f in frames]).reshape(n, 4)
    # Bone scales are implied by the frame-0 geometry; the format does not
    # store them separately.
    return MotionSequence(fps=float(header["fps"]), local_pose=local,
                          bone_scales=scales_from_pose(local[0]), root_rot=rot,
                          root_pos=tau, contacts=contact)


# -- camera trajectories -------------------------------------------------------

def save_camera(path, cams: CameraTrajectory) -> None:
    ph = cams.pinhole
    with open(path, "w") as fh:
        fh.write(_dump({"f": ph.f, "w": ph.w, "h": ph.h, "cx": ph.cx, "cy": ph.cy}) + "\n")
        for t in range(cams.num_frames):
            fh.write(_dump({"t": t, "r": _floats(cams.rotations[t]),
                            "tcam": _floats(cams.translations[t]),
                            "omega": _floats(cams.omega[t])}) + "\n")


def load_camera(path) -> CameraTrajectory:
    with open(path) as fh:
        hd = json.loads(fh.readline())
        frames = [json.loads(line) for line in fh if line.strip()]
    n = len(frames)
    return CameraTrajectory(
        pinhole=geom.Pinhole(f=hd["f"], w=hd["w"], h=hd["h"], cx=hd["cx"], cy=hd["cy"]),
        rotations=np.array([f["r"] for f in frames]).reshape(n, 3, 3),
        translations=np.array([f["tcam"] for f in frames]).reshape(n, 3),
        omega=np.array([f["omega"] for f in frames]).reshape(n, 3))


# -- 2D keypoints ---------------------------------------------------------------

def save_keypoints(path, kps: KeypointSequence2D) -> None:
    with open(path, "w") as fh:
        fh.write(_dump({"w": kps.image_w, "h": kps.image_h}) + "\n")
        for t in range(kps.num_frames):
            fh.write(_dump({"t": t, "kp": _floats(kps.keypoints[t]),
                            "mask": [int(m) for m in kps.mask[t]],
                            "center": _floats(kps.center[t]),
                            "scale": float(kps.scale[t]),
                            "carried": int(kps.carried[t])}) + "\n")


def load_keypoints(path) -> KeypointSequence2D:
    with open(path) as fh:
        hd = json.loads(fh.readline())
        frames = [json.loads(line) for line in fh if line.strip()]
    n = len(frames)
    return KeypointSequence2D(
        image_w=hd["w"], image_h=hd["h"],
        keypoints=np.array([f["kp"] for f in frames]).reshape(n, -1, 2),
        mask=np.array([f["mask"] for f in frames], dtype=np.uint8),
        center=np.array([f["center"] for f in frames]).reshape(n, 2),
        scale=np.array([f["scale"] for f in frames], dtype=float),
        carried=np.array([f["carried"] for f in frames], dtype=bool))


# -- features --------------------------------------------------------------------

def save_features(path, feats: np.ndarray) -> None:
    np.asarray(feats, dtype="<f4").tofile(path)


def load_features(path, dim: int) -> np.ndarray:
    raw = np.fromfile(path, dtype="<f4")
    if dim < 1 or raw.size % dim != 0:
        raise InvalidInputError(f"{path}: size {raw.size} not divisible by feature dim {dim}")
    return raw.reshape(-1, dim).astype(np.float64)


# -- inferred outputs -------------------------------------------------------------

def save_output(path, out: WhamOutput) -> None:
    with open(path, "w") as fh:
        fh.write(_dump({"fps": out.fps, "skeleton_version": SKELETON_VERSION}) + "\n")
        for t in range(out.local_pose.shape[0]):
            fh.write(_dump({
                "t": t, "gamma": _floats(out.root_rot[t]), "tau": _floats(out.root_pos[t]),
                "local": _floats(out.local_pose[t]), "contact": _floats(out.contact[t]),
                "gamma0": _floats(out.root_rot0[t]), "v0": _floats(out.vel0[t]),
                "v_adj": _floats(out.vel_adj[t]), "v": _floats(out.vel[t]),
                "gamma_cam": _floats(out.cam_root_rot[t]),
                "cam_pos": _floats(out.cam_root_pos[t]),
                "beta": _floats(out.bone_scales[t])}) + "\n")


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
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return manifest


def read_manifest(dataset_dir) -> dict:
    with open(os.path.join(dataset_dir, "manifest.json")) as fh:
        return json.load(fh)


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

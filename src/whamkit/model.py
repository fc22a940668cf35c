"""The five-stage recurrent lifting network.

Data flow per sequence: a causal GRU encoder turns box-normalized 2D
keypoints into motion features; a residual integrator optionally fuses
per-frame visual features; a GRU motion decoder emits the local pose,
contact probabilities, camera-frame root position and orientation, and bone
scales; a GRU trajectory decoder conditioned on camera angular velocity
emits a first world root orientation and egocentric velocity; a contact-aware
velocity adjustment followed by a GRU refiner produces the final orientation
and velocity, and cumulative roll-out integrates the world translation.

All stages are strictly causal. Zeroing the integrator or refiner weights
reduces them to exact pass-through.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from . import rotops
from .autodiff import Tensor
from .body import CANONICAL, NUM_BONES, NUM_KEYPOINTS_2D, NUM_LANDMARKS, L
from .errors import InvalidInputError
from .layers import Dense, DenseStack, GruLayer, ParamSet

ENCODER_INPUT_DIM = NUM_KEYPOINTS_2D * 2 + NUM_KEYPOINTS_2D + 3  # 54
POSE_DIM = NUM_LANDMARKS * 3
FOOT_SLICE = slice(17, 21)
CONTACT_THRESHOLD = 0.5
INITIAL_DEPTH_GUESS = 5.0  # head bias prior on the camera-frame root depth, m

# Pose heads predict offsets from the rest posture, so an untrained head
# already emits a plausible body instead of a point cloud at the origin.
_REST_ANCHOR = (CANONICAL - 0.5 * (CANONICAL[L["left_hip"]] + CANONICAL[L["right_hip"]])).ravel()

# Per-frame angular velocities (rad/frame) and egocentric velocities
# (m/frame) are two orders of magnitude smaller than the unit-scale feature
# channels; this gain puts them on a comparable footing at the GRU inputs
# (roughly per-second units at 30 fps). Interfaces stay in per-frame units.
CONDITIONING_INPUT_GAIN = 30.0

# The contact head reads the tanh-bounded motion-decoder state. A confident
# read-out needs weight columns of norm ~40, but Adam moves each coordinate
# by about the learning rate per step, so a head started near norm 0.6 ends
# a short schedule near norm 1 and underfits its training labels. Logits are
# this gain times the head output, and the head's weights start divided by
# it: untrained logits keep their scale while training moves them this many
# times faster. On the desk schedule, contact accuracy and the response to a
# standing subject stop improving between gains 32 and 64.
CONTACT_LOGIT_GAIN = 32.0

# The angular-velocity conditioning is repeated across this many input
# copies so three small numbers are not drowned out by the feature width.
OMEGA_TILE = 8


@dataclass(frozen=True)
class ModelDims:
    hidden: int = 128
    feature_dim: int = 32
    integrator_hidden: int = 128
    init_hidden: int = 64

    def to_dict(self) -> dict:
        return asdict(self)


class WhamParams:
    """All learnable weights, registered in one flat-viewable ParamSet."""

    def __init__(self, dims: ModelDims, seed: int = 0):
        self.dims = dims
        self.params = ParamSet()
        h = dims.hidden
        seeds = np.random.SeedSequence(seed).spawn(12)
        rngs = [np.random.default_rng(s) for s in seeds]

        self.encoder_gru = GruLayer(self.params, "encoder.gru", ENCODER_INPUT_DIM, h, rngs[0])
        self.encoder_head = Dense(self.params, "encoder.head_kp3d", h, POSE_DIM, rngs[1])
        # The integrator output layer starts at zero: the residual branch is
        # inactive until fine-tuning gives it signal, so an untrained branch
        # cannot disturb the pretrained path.
        self.integrator = DenseStack(self.params, "integrator.mlp",
                                     [h + dims.feature_dim, dims.integrator_hidden, h],
                                     rngs[2], zero_output=True)
        self.motion_gru = GruLayer(self.params, "motion_dec.gru", h, h, rngs[3])
        self.head_pose = Dense(self.params, "motion_dec.pose", h, POSE_DIM, rngs[4])
        self.head_contact = Dense(self.params, "motion_dec.contact", h, 4, rngs[5])
        self.head_contact.w.data /= CONTACT_LOGIT_GAIN
        self.head_contact.b.data /= CONTACT_LOGIT_GAIN
        self.head_cam_pos = Dense(self.params, "motion_dec.cam_pos", h, 3, rngs[6])
        self.head_cam_pos.b.data[2] = INITIAL_DEPTH_GUESS
        self.head_shape = Dense(self.params, "motion_dec.shape", h, NUM_BONES, rngs[7])
        self.head_cam_rot = Dense(self.params, "motion_dec.cam_rot", h, 6, rngs[8])
        self.traj_gru = GruLayer(self.params, "traj_dec.gru", h + 3 * OMEGA_TILE, h, rngs[9])
        self.traj_head = Dense(self.params, "traj_dec.head", h, 9, rngs[10])
        self.refine_gru = GruLayer(self.params, "refiner.gru", h + 9, h, rngs[11])
        self.refine_head = Dense(self.params, "refiner.head", h, 9,
                                 np.random.default_rng(seeds[11].spawn(1)[0]))
        self.init_net = DenseStack(self.params, "init_net.mlp",
                                   [POSE_DIM, dims.init_hidden, 2 * h],
                                   np.random.default_rng(seeds[0].spawn(1)[0]))


@dataclass
class ForwardOutputs:
    """Per-frame tensors of one forward pass; shapes lead with (T, B)."""

    motion_feats: Tensor     # (T, B, H) context features
    fused_feats: Tensor      # (T, B, H) after feature integration
    kp3d_cascade: Tensor     # (T, B, 21, 3) intermediate lifted landmarks
    local_pose: Tensor       # (T, B, 21, 3) decoded root-frame landmarks
    contact_logit: Tensor    # (T, B, 4) contact log-odds
    contact: Tensor          # (T, B, 4) probabilities, sigmoid(contact_logit)
    cam_root_pos: Tensor     # (T, B, 3) root position in camera coordinates
    cam_root_rot: Tensor     # (T, B, 3, 3) root orientation in camera coords
    bone_scales: Tensor      # (T, B, 20)
    root_rot0: Tensor        # (T, B, 3, 3) first-stage world orientation
    vel0: Tensor             # (T, B, 3) first-stage egocentric velocity
    vel_adj: Tensor          # (T, B, 3) contact-adjusted velocity
    root_rot: Tensor         # (T, B, 3, 3) refined world orientation
    vel: Tensor              # (T, B, 3) refined velocity
    root_pos: Tensor         # (T, B, 3) rolled-out world translation


@dataclass
class WhamOutput:
    """Numpy view of a single inferred sequence."""

    fps: float
    local_pose: np.ndarray
    contact: np.ndarray
    cam_root_pos: np.ndarray
    cam_root_rot: np.ndarray
    bone_scales: np.ndarray
    kp3d_cascade: np.ndarray
    root_rot0: np.ndarray
    vel0: np.ndarray
    vel_adj: np.ndarray
    root_rot: np.ndarray
    vel: np.ndarray
    root_pos: np.ndarray

    def world_landmarks_all(self) -> np.ndarray:
        return (np.einsum("tij,tkj->tki", self.root_rot, self.local_pose)
                + self.root_pos[:, None, :])


# The per-frame arrays of a WhamOutput, each one batch column of the
# ForwardOutputs field of the same name.
_OUTPUT_ARRAYS = tuple(f.name for f in fields(WhamOutput) if f.name != "fps")


def pack_encoder_input(kp_norm: np.ndarray, mask: np.ndarray,
                       center: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Per-frame encoder input: keypoints, visibility bits, box conditioning."""
    t = kp_norm.shape[0]
    return np.concatenate([kp_norm.reshape(t, -1), mask.astype(float),
                           center, scale.reshape(t, 1)], axis=1)


def center_pose(flat: Tensor, anchored: bool = True) -> Tensor:
    """Decode a (N, 63) head output to a hip-centered (N, 21, 3) pose.

    With anchored=True the output is an offset on the rest posture."""
    if anchored:
        flat = flat + Tensor(_REST_ANCHOR)
    n = flat.shape[0]
    pose = ad.reshape(flat, (n, NUM_LANDMARKS, 3))
    mid = (pose[:, L["left_hip"]] + pose[:, L["right_hip"]]) * 0.5
    return pose - ad.reshape(mid, (n, 1, 3))


def rollout(root_rot: Tensor, vel: Tensor, origin: np.ndarray) -> Tensor:
    """Cumulative trajectory integration tau[t+1] = tau[t] + R[t] @ v[t]."""
    t, b = vel.shape[0], vel.shape[1]
    tau0 = Tensor(np.broadcast_to(np.asarray(origin, dtype=float), (1, b, 3)))
    steps = ad.reshape(ad.matmul(root_rot[:t - 1], ad.reshape(vel[:t - 1], (t - 1, b, 3, 1))),
                       (t - 1, b, 3))
    return ad.cumsum(ad.concat([tau0, steps], axis=0), axis=0)


def rollout_np(root_rot: np.ndarray, vel: np.ndarray, origin=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Numpy rollout for ground-truth manipulation and evaluation."""
    t = vel.shape[0]
    tau = np.zeros((t, 3))
    tau[0] = origin
    for i in range(t - 1):
        tau[i + 1] = tau[i] + root_rot[i] @ vel[i]
    return tau


def extract_velocities(root_rot: np.ndarray, root_pos: np.ndarray) -> np.ndarray:
    """Egocentric velocities whose rollout reproduces the trajectory; the
    last frame repeats the previous value."""
    diff = np.einsum("tji,tj->ti", root_rot[:-1], np.diff(root_pos, axis=0))
    return np.concatenate([diff, diff[-1:]], axis=0)


def adjust_velocity(local_pose: Tensor, contact: Tensor,
                    root_rot0: Tensor, vel0: Tensor) -> Tensor:
    """Subtract the mean world velocity of in-contact foot landmarks,
    expressed in the root frame, from the egocentric velocity.

    Foot world positions come from rolling out the first-stage trajectory.
    Velocities use the forward difference (the last frame repeats), so a
    subsequent rollout of the adjusted velocity cancels the stance-foot
    drift exactly. Frames with no landmark above the contact threshold keep
    vel0 unchanged. The gate (p > 0.5) is a constant in the backward pass.
    """
    t, b = vel0.shape[0], vel0.shape[1]
    tau0 = rollout(root_rot0, vel0, np.zeros(3))
    feet = local_pose[:, :, FOOT_SLICE, :]
    feet_w = ad.matmul(feet, ad.swap_last(root_rot0)) + ad.reshape(tau0, (t, b, 1, 3))
    dv = feet_w[1:] - feet_w[:-1]
    vel_f = ad.concat([dv, dv[t - 2:t - 1]], axis=0)

    gate = contact.data > CONTACT_THRESHOLD          # (T, B, 4), constant
    count = gate.sum(axis=-1)
    w = gate / np.maximum(count, 1.0)[..., None]
    vbar = ad.tsum(vel_f * Tensor(w[..., None]), axis=2)  # (T, B, 3)
    adj = vel0 - ad.reshape(
        ad.matmul(ad.swap_last(root_rot0), ad.reshape(vbar, (t, b, 3, 1))), (t, b, 3))
    return ad.where((count > 0)[..., None], adj, vel0)


class WhamModel:
    """Stateless functional wrapper around WhamParams."""

    def __init__(self, weights: WhamParams):
        self.weights = weights
        self.dims = weights.dims

    @property
    def params(self) -> ParamSet:
        return self.weights.params

    # -- stages ------------------------------------------------------------

    def neural_init(self, pose0: Tensor) -> tuple[Tensor, Tensor]:
        """Hidden-state initialization from a frame-0 root-frame pose."""
        h = self.dims.hidden
        out = self.weights.init_net(pose0)
        return out[:, :h], out[:, h:]

    def encode(self, kp_input: np.ndarray, h0: Tensor | None = None) -> tuple[Tensor, Tensor]:
        """Causal motion features (T, B, H) and cascade landmarks (T, B, 21, 3)."""
        if kp_input.ndim != 3 or kp_input.shape[0] < 1:
            raise InvalidInputError("encoder input must be a nonempty (T, B, D) array")
        t, b, _ = kp_input.shape
        phi = self.weights.encoder_gru.sequence(Tensor(kp_input), h0)
        casc = center_pose(self.weights.encoder_head(ad.reshape(phi, (t * b, self.dims.hidden))))
        return phi, ad.reshape(casc, (t, b, NUM_LANDMARKS, 3))

    def integrate(self, phi: Tensor, features: np.ndarray | None) -> Tensor:
        """Residual feature fusion; with no features this is the identity."""
        if features is None:
            return phi
        t, b, h = phi.shape
        flat = ad.reshape(phi, (t * b, h))
        fused = flat + self.weights.integrator(
            ad.concat([flat, Tensor(features.reshape(t * b, -1))], axis=1))
        return ad.reshape(fused, (t, b, h))

    def decode_motion(self, fused: Tensor, h0: Tensor | None = None):
        t, b, h = fused.shape
        flat = ad.reshape(self.weights.motion_gru.sequence(fused, h0), (t * b, h))
        pose = ad.reshape(center_pose(self.weights.head_pose(flat)), (t, b, NUM_LANDMARKS, 3))
        contact_logit = ad.reshape(self.weights.head_contact(flat) * CONTACT_LOGIT_GAIN,
                                   (t, b, 4))
        cam_pos = ad.reshape(self.weights.head_cam_pos(flat), (t, b, 3))
        scales = ad.reshape(ad.exp(self.weights.head_shape(flat)), (t, b, NUM_BONES))
        cam_rot = ad.reshape(rotops.rotation6d_to_matrix(
            Tensor(rotops.IDENTITY_6D) + self.weights.head_cam_rot(flat)), (t, b, 3, 3))
        return pose, contact_logit, cam_pos, scales, cam_rot

    def decode_trajectory(self, phi: Tensor, omega: np.ndarray) -> tuple[Tensor, Tensor]:
        t, b, h = phi.shape
        if omega.shape[:2] != (t, b):
            raise InvalidInputError("omega length must match the feature sequence")
        scaled = np.tile(CONDITIONING_INPUT_GAIN * omega, (1, 1, OMEGA_TILE))
        x = ad.concat([phi, Tensor(scaled)], axis=2)
        flat = ad.reshape(self.weights.traj_gru.sequence(x), (t * b, h))
        out = self.weights.traj_head(flat)
        rot0 = ad.reshape(rotops.rotation6d_to_matrix(
            Tensor(rotops.IDENTITY_6D) + out[:, 0:6]), (t, b, 3, 3))
        vel0 = ad.reshape(out[:, 6:9], (t, b, 3))
        return rot0, vel0

    def refine_trajectory(self, phi: Tensor, root_rot0: Tensor,
                          vel_adj: Tensor) -> tuple[Tensor, Tensor]:
        """Residual GRU correction on top of (root_rot0, vel_adj); zero
        weights pass both through bit-identically."""
        t, b, h = phi.shape
        sixd0 = rotops.matrix_to_6d(root_rot0)
        vel_in = CONDITIONING_INPUT_GAIN * vel_adj
        x = ad.concat([phi, sixd0, vel_in], axis=2)
        flat = ad.reshape(self.weights.refine_gru.sequence(x), (t * b, h))
        out = self.weights.refine_head(flat)
        delta = ad.reshape(rotops.rotation6d_to_matrix(
            Tensor(rotops.IDENTITY_6D) + out[:, 0:6]), (t, b, 3, 3))
        rot = ad.matmul(root_rot0, delta)
        vel = vel_adj + ad.reshape(out[:, 6:9], (t, b, 3))
        return rot, vel

    # -- full pipeline -------------------------------------------------------

    def forward(self, kp_input: np.ndarray, omega: np.ndarray,
                features: np.ndarray | None = None,
                init_pose: np.ndarray | None = None,
                neural_init_mode: str = "zero",
                use_refiner: bool = True,
                origin: np.ndarray | None = None) -> ForwardOutputs:
        """Run the whole pipeline on a (T, B, ...) batch.

        neural_init_mode: "zero" (conventional), "truth" (init_pose given),
        or "self" (a frame-0 pass with zero hidden state predicts the pose
        that seeds the initializer). Disabling the refiner skips both the
        velocity adjustment and the refinement network.
        """
        if kp_input.ndim != 3:
            raise InvalidInputError("kp_input must be (T, B, D)")
        t, b, _ = kp_input.shape
        if t < 2 or b < 1:
            raise InvalidInputError("need at least 2 frames and a nonempty batch")

        if neural_init_mode == "truth":
            if init_pose is None:
                raise InvalidInputError("truth neural init needs init_pose")
            h_e0, h_d0 = self.neural_init(Tensor(init_pose.reshape(b, POSE_DIM)))
        elif neural_init_mode == "self":
            pose0 = self._frame0_pose(kp_input[0], None if features is None else features[0])
            h_e0, h_d0 = self.neural_init(ad.reshape(pose0, (b, POSE_DIM)))
        elif neural_init_mode == "zero":
            h_e0 = h_d0 = None
        else:
            raise InvalidInputError(f"unknown neural_init_mode {neural_init_mode!r}")

        phi, casc = self.encode(kp_input, h_e0)
        fused = self.integrate(phi, features)
        pose, contact_logit, cam_pos, scales, cam_rot = self.decode_motion(fused, h_d0)
        contact = ad.sigmoid(contact_logit)
        rot0, vel0 = self.decode_trajectory(phi, omega)

        if use_refiner:
            vel_adj = adjust_velocity(pose, contact, rot0, vel0)
            rot, vel = self.refine_trajectory(phi, rot0, vel_adj)
        else:
            vel_adj, rot, vel = vel0, rot0, vel0
        tau = rollout(rot, vel, np.zeros(3) if origin is None else origin)

        return ForwardOutputs(motion_feats=phi, fused_feats=fused, kp3d_cascade=casc,
                              local_pose=pose, contact_logit=contact_logit,
                              contact=contact, cam_root_pos=cam_pos,
                              cam_root_rot=cam_rot, bone_scales=scales, root_rot0=rot0,
                              vel0=vel0, vel_adj=vel_adj, root_rot=rot, vel=vel,
                              root_pos=tau)

    def _frame0_pose(self, kp0: np.ndarray, feat0: np.ndarray | None) -> Tensor:
        """Single-frame lifting with zero hidden state, for test-time init."""
        b = kp0.shape[0]
        h = self.weights.encoder_gru.step(Tensor(kp0), Tensor(np.zeros((b, self.dims.hidden))))
        if feat0 is not None:
            h = h + self.weights.integrator(ad.concat([h, Tensor(feat0)], axis=1))
        hd = self.weights.motion_gru.step(h, Tensor(np.zeros((b, self.dims.hidden))))
        return center_pose(self.weights.head_pose(hd))

    def infer(self, kp_input: np.ndarray, omega: np.ndarray,
              features: np.ndarray | None = None, fps: float = 30.0,
              **switches) -> WhamOutput:
        """Single-sequence inference: infer_batch on (T, 54), (T, 3) and
        (T, F) inputs as one batch column."""
        return self.infer_batch(kp_input[:, None, :], omega[:, None, :],
                                None if features is None else features[:, None, :],
                                fps=fps, **switches)[0]

    def infer_batch(self, kp_input: np.ndarray, omega: np.ndarray,
                    features: np.ndarray | None = None, fps=30.0,
                    use_integrator: bool = True, use_omega: bool = True,
                    use_refiner: bool = True, neural_init_mode: str = "self",
                    origin=(0.0, 0.0, 0.0)) -> list[WhamOutput]:
        """No-grad inference on a (T, B, ...) batch of independent sequences;
        returns one WhamOutput per batch column.

        kp_input is (T, B, 54), omega (T, B, 3), features (T, B, F) or None;
        fps is one rate or one per column. Ablation switches: use_integrator
        drops the feature fusion, use_omega zeroes the angular-velocity
        conditioning, use_refiner bypasses the contact-aware refinement stage.
        """
        om = omega if use_omega else np.zeros_like(omega)
        with ad.no_grad():
            out = self.forward(kp_input, om, features=features if use_integrator else None,
                               neural_init_mode=neural_init_mode,
                               use_refiner=use_refiner,
                               origin=np.asarray(origin, dtype=float))
        rates = np.broadcast_to(np.asarray(fps, dtype=float), (kp_input.shape[1],))
        return [WhamOutput(fps=float(rate),
                           **{name: np.ascontiguousarray(getattr(out, name).data[:, i])
                              for name in _OUTPUT_ARRAYS})
                for i, rate in enumerate(rates)]

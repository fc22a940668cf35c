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
from .body import (CANONICAL, CONTACT_LANDMARKS, CONTACT_THRESHOLD, FOOT_SLICE, HIPS,
                   NUM_BONES, NUM_KEYPOINTS_2D, NUM_LANDMARKS)
from .errors import InvalidInputError
from .layers import Dense, DenseStack, GruLayer, ParamSet

ENCODER_INPUT_DIM = NUM_KEYPOINTS_2D * 2 + NUM_KEYPOINTS_2D + 3  # 54
POSE_DIM = NUM_LANDMARKS * 3
INITIAL_DEPTH_GUESS = 5.0  # head bias prior on the camera-frame root depth, m

# Pose heads predict offsets from the rest posture, so an untrained head
# already emits a plausible body instead of a point cloud at the origin.
_REST_ANCHOR = (CANONICAL - CANONICAL[HIPS].mean(axis=0)).ravel()

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

    def param_count(self) -> int:
        """The length of WhamParams(self).params in closed form, layer by
        layer in its registration order, so a checkpoint's size can be
        checked before any weights are drawn."""
        h, f = self.hidden, self.feature_dim
        gru = lambda d: 3 * (d * h + h * h + h)
        dense = lambda i, o: i * o + o
        return (gru(ENCODER_INPUT_DIM) + dense(h, POSE_DIM)
                + dense(h + f, self.integrator_hidden) + dense(self.integrator_hidden, h)
                + gru(h) + dense(h, POSE_DIM) + dense(h, len(CONTACT_LANDMARKS)) + dense(h, 3)
                + dense(h, NUM_BONES) + dense(h, 6)
                + gru(h + 3 * OMEGA_TILE) + dense(h, 9)
                + gru(h + 9) + dense(h, 9)
                + dense(POSE_DIM, self.init_hidden) + dense(self.init_hidden, 2 * h))


class WhamParams:
    """All learnable weights, registered in one flat-viewable ParamSet; with
    seed None they start at zeros, drawn from no RNG, for set_flat to fill."""

    def __init__(self, dims: ModelDims, seed: int | None = 0):
        self.dims = dims
        self.params = ParamSet()
        h = dims.hidden
        if seed is None:
            rngs = [None] * 14
        else:
            seeds = np.random.SeedSequence(seed).spawn(12)
            rngs = [np.random.default_rng(s) for s in seeds
                    + [seeds[11].spawn(1)[0], seeds[0].spawn(1)[0]]]

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
        self.head_contact = Dense(self.params, "motion_dec.contact", h, len(CONTACT_LANDMARKS),
                                  rngs[5])
        self.head_contact.w.data /= CONTACT_LOGIT_GAIN
        self.head_contact.b.data /= CONTACT_LOGIT_GAIN
        self.head_cam_pos = Dense(self.params, "motion_dec.cam_pos", h, 3, rngs[6])
        self.head_cam_pos.b.data[2] = INITIAL_DEPTH_GUESS
        self.head_shape = Dense(self.params, "motion_dec.shape", h, NUM_BONES, rngs[7])
        self.head_cam_rot = Dense(self.params, "motion_dec.cam_rot", h, 6, rngs[8])
        self.traj_gru = GruLayer(self.params, "traj_dec.gru", h + 3 * OMEGA_TILE, h, rngs[9])
        self.traj_head = Dense(self.params, "traj_dec.head", h, 9, rngs[10])
        self.refine_gru = GruLayer(self.params, "refiner.gru", h + 9, h, rngs[11])
        self.refine_head = Dense(self.params, "refiner.head", h, 9, rngs[12])
        self.init_net = DenseStack(self.params, "init_net.mlp",
                                   [POSE_DIM, dims.init_hidden, 2 * h], rngs[13])


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


@dataclass(frozen=True)
class AblationFlags:
    """Inference switches. Turned off, use_integrator drops the feature
    fusion, use_omega zeroes the angular-velocity conditioning, use_refiner
    bypasses the contact-aware refinement stage, and use_neural_init starts
    the recurrences from zero states instead of the "self" initialization."""

    use_integrator: bool = True
    use_omega: bool = True
    use_refiner: bool = True
    use_neural_init: bool = True


@dataclass
class WhamOutput:
    """Numpy view of a single inferred sequence."""

    fps: float
    local_pose: np.ndarray
    contact: np.ndarray
    cam_root_pos: np.ndarray
    cam_root_rot: np.ndarray
    bone_scales: np.ndarray
    root_rot0: np.ndarray
    vel0: np.ndarray
    vel_adj: np.ndarray
    root_rot: np.ndarray
    vel: np.ndarray
    root_pos: np.ndarray


# The per-frame arrays of a WhamOutput, each one batch column of the
# ForwardOutputs field of the same name.
_OUTPUT_ARRAYS = tuple(f.name for f in fields(WhamOutput) if f.name != "fps")


def pack_encoder_input(kp_norm: np.ndarray, mask: np.ndarray,
                       center: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Per-frame encoder input: keypoints, visibility bits, box conditioning."""
    t = kp_norm.shape[0]
    return np.concatenate([kp_norm.reshape(t, -1), mask.astype(float),
                           center, scale.reshape(t, 1)], axis=1)


def center_pose(flat: Tensor) -> Tensor:
    """Decode a (..., 63) head output, an offset on the rest posture, to a
    hip-centered (..., 21, 3) pose.

    One tape node that keeps no array: the anchored pose is a temporary,
    and the backward needs only the output gradient. Forward and backward
    run the numpy operations of the composed anchor-add, reshape, hip
    gather, mean and subtract nodes, so value and gradient are theirs bit
    for bit."""
    shape = flat.shape
    pose = (flat.data + _REST_ANCHOR).reshape(shape[:-1] + (NUM_LANDMARKS, 3))
    out = pose - pose[..., HIPS, :].mean(axis=-2, keepdims=True)

    def bw(g):
        shift = np.zeros_like(g)
        shift[..., HIPS, :] = (-g).sum(axis=-2, keepdims=True) / len(HIPS)
        return ((g + shift).reshape(shape),)

    return ad._node(out, (flat,), bw)


def rotation_head(out6: Tensor) -> Tensor:
    """Decode a (..., 6) head output, an offset on the identity's 6D vector,
    to (..., 3, 3) rotations; a zero output gives the identity exactly."""
    return rotops.rotation6d_to_matrix(Tensor(rotops.IDENTITY_6D) + out6)


def rollout(root_rot: Tensor, vel: Tensor) -> Tensor:
    """Cumulative trajectory integration tau[t+1] = tau[t] + R[t] @ v[t]
    from tau[0] = 0, as one tape node. Its backward is the reverse running
    sum g_s of the output gradient, then g_s v^T for R and R^T g_s for v:
    the numpy operations of the composed slice, matmul, join and
    running-sum nodes, so value and gradients are theirs bit for bit."""
    t, b = vel.shape[0], vel.shape[1]
    rot = root_rot.data[:t - 1]
    col = vel.data[:t - 1].reshape(t - 1, b, 3, 1)
    tau = np.zeros((t, b, 3))
    tau[1:] = (rot @ col).reshape(t - 1, b, 3)
    np.cumsum(tau, axis=0, out=tau)

    def bw(g):
        g_s = np.cumsum(g[:0:-1], axis=0)[::-1].reshape(t - 1, b, 3, 1)
        grot, gvel = np.zeros_like(root_rot.data), np.zeros_like(vel.data)
        grot[:t - 1] = g_s @ col.swapaxes(-1, -2)
        gvel[:t - 1] = (rot.swapaxes(-1, -2) @ g_s).reshape(t - 1, b, 3)
        return grot, gvel

    return ad._node(tau, (root_rot, vel), bw)


def extract_velocities(root_rot: np.ndarray, root_pos: np.ndarray) -> np.ndarray:
    """Egocentric velocities whose rollout reproduces the trajectory; the
    last frame repeats the previous value."""
    diff = np.einsum("tji,tj->ti", root_rot[:-1], np.diff(root_pos, axis=0))
    return np.concatenate([diff, diff[-1:]], axis=0)


def place(points: Tensor, rot: Tensor, pos: Tensor) -> Tensor:
    """Root-frame points (T, B, N, 3) placed by the root orientations rot
    (T, B, 3, 3) and positions pos (T, B, 3): points @ rot^T + pos."""
    return ad.matmul(points, ad.swap_last(rot)) + ad.reshape(pos, pos.shape[:2] + (1, 3))


def adjust_velocity(local_pose: Tensor, contact: Tensor,
                    root_rot0: Tensor, vel0: Tensor) -> Tensor:
    """Subtract the mean world velocity of in-contact foot landmarks,
    expressed in the root frame, from the egocentric velocity.

    Foot world positions come from rolling out the first-stage trajectory.
    Velocities use the forward difference (the last frame repeats), so a
    subsequent rollout of the adjusted velocity cancels the stance-foot
    drift exactly. The gate (p > CONTACT_THRESHOLD) is constant in the backward pass.
    Frames with no landmark above the threshold have all-zero weights, so
    they keep vel0 unchanged and their output gradient reaches vel0 alone.
    """
    t, b = vel0.shape[0], vel0.shape[1]
    tau0 = rollout(root_rot0, vel0)
    feet_w = place(local_pose[:, :, FOOT_SLICE, :], root_rot0, tau0)
    dv = feet_w[1:] - feet_w[:-1]
    vel_f = dv[np.append(np.arange(t - 1), t - 2)]

    gate = contact.data > CONTACT_THRESHOLD          # (T, B, 4), constant
    w = gate / np.maximum(gate.sum(axis=-1), 1.0)[..., None]
    vbar = ad.tsum(vel_f * Tensor(w[..., None]), axis=2)  # (T, B, 3)
    return vel0 - ad.reshape(
        ad.matmul(ad.swap_last(root_rot0), ad.reshape(vbar, (t, b, 3, 1))), (t, b, 3))


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
        """Hidden-state initialization from a (B, 63) frame-0 root-frame
        pose, through the initializer's one DenseStack node."""
        h = self.dims.hidden
        out = self.weights.init_net(pose0)
        return out[:, :h], out[:, h:]

    def encode(self, kp_input: np.ndarray, h0: Tensor | None = None) -> tuple[Tensor, Tensor]:
        """Causal motion features (T, B, H) and cascade landmarks (T, B, 21, 3)."""
        if kp_input.ndim != 3 or kp_input.shape[0] < 1:
            raise InvalidInputError("encoder input must be a nonempty (T, B, D) array")
        phi = self.weights.encoder_gru.sequence(Tensor(kp_input), h0)
        return phi, center_pose(self.weights.encoder_head(phi))

    def integrate(self, phi: Tensor, features: np.ndarray | None) -> Tensor:
        """Residual feature fusion phi + fc1(relu(fc0([phi, features]))), one
        DenseStack node with phi as its skip; the identity without features."""
        if features is None:
            return phi
        return self.weights.integrator((phi, Tensor(features)), skip=phi)

    def decode_motion(self, fused: Tensor, h0: Tensor | None = None):
        """The five motion heads on the (T, B, H) decoder states."""
        w = self.weights
        states = w.motion_gru.sequence(fused, h0)
        return (center_pose(w.head_pose(states)),
                w.head_contact(states) * CONTACT_LOGIT_GAIN,
                w.head_cam_pos(states),
                ad.exp(w.head_shape(states)),
                rotation_head(w.head_cam_rot(states)))

    def decode_trajectory(self, phi: Tensor, omega: np.ndarray) -> tuple[Tensor, Tensor]:
        if omega.shape[:2] != phi.shape[:2]:
            raise InvalidInputError("omega length must match the feature sequence")
        scaled = np.tile(CONDITIONING_INPUT_GAIN * omega, (1, 1, OMEGA_TILE))
        out = self.weights.traj_head(self.weights.traj_gru.sequence((phi, Tensor(scaled))))
        return rotation_head(out[..., :6]), out[..., 6:]

    def refine_trajectory(self, phi: Tensor, root_rot0: Tensor,
                          vel_adj: Tensor) -> tuple[Tensor, Tensor]:
        """Residual GRU correction on top of (root_rot0, vel_adj); zero
        weights pass both through bit-identically."""
        x = (phi, rotops.matrix_to_6d(root_rot0), CONDITIONING_INPUT_GAIN * vel_adj)
        out = self.weights.refine_head(self.weights.refine_gru.sequence(x))
        return ad.matmul(root_rot0, rotation_head(out[..., :6])), vel_adj + out[..., 6:]

    # -- full pipeline -------------------------------------------------------

    def forward(self, kp_input: np.ndarray, omega: np.ndarray,
                features: np.ndarray | None = None,
                init_pose: np.ndarray | None = None,
                neural_init_mode: str = "zero",
                use_refiner: bool = True) -> ForwardOutputs:
        """Run the whole pipeline on a (T, B, ...) batch.

        neural_init_mode: "zero" (conventional), "truth" (init_pose given),
        or "self" (the frame-0 pose of a zero-state pass through the encoder,
        integrator and motion decoder seeds the initializer). Disabling the
        refiner skips both the velocity adjustment and the refinement network.
        """
        if kp_input.ndim != 3:
            raise InvalidInputError("kp_input must be (T, B, D)")
        t, b, _ = kp_input.shape
        if t < 2 or b < 1:
            raise InvalidInputError("need at least 2 frames and a nonempty batch")

        h_e0 = h_d0 = None
        if neural_init_mode == "truth":
            if init_pose is None:
                raise InvalidInputError("truth neural init needs init_pose")
            h_e0, h_d0 = self.neural_init(Tensor(init_pose.reshape(b, POSE_DIM)))
        elif neural_init_mode == "self":
            phi0, _ = self.encode(kp_input[:1])
            fused0 = self.integrate(phi0, None if features is None else features[:1])
            pose0, *_ = self.decode_motion(fused0)
            h_e0, h_d0 = self.neural_init(ad.reshape(pose0[0], (b, POSE_DIM)))
        elif neural_init_mode != "zero":
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
        tau = rollout(rot, vel)

        return ForwardOutputs(motion_feats=phi, fused_feats=fused, kp3d_cascade=casc,
                              local_pose=pose, contact_logit=contact_logit,
                              contact=contact, cam_root_pos=cam_pos,
                              cam_root_rot=cam_rot, bone_scales=scales, root_rot0=rot0,
                              vel0=vel0, vel_adj=vel_adj, root_rot=rot, vel=vel,
                              root_pos=tau)

    def infer_batch(self, kp_input: np.ndarray, omega: np.ndarray,
                    features: np.ndarray | None = None, fps=30.0,
                    flags: AblationFlags = AblationFlags()) -> list[WhamOutput]:
        """No-grad inference on a (T, B, ...) batch of independent sequences;
        returns one WhamOutput per batch column.

        kp_input is (T, B, 54), omega (T, B, 3), features (T, B, F) or None;
        fps is one rate or one per column.
        """
        om = omega if flags.use_omega else np.zeros_like(omega)
        with ad.no_grad():
            out = self.forward(kp_input, om,
                               features=features if flags.use_integrator else None,
                               neural_init_mode="self" if flags.use_neural_init else "zero",
                               use_refiner=flags.use_refiner)
        rates = np.broadcast_to(np.asarray(fps, dtype=float), (kp_input.shape[1],))
        return [WhamOutput(fps=float(rate),
                           **{name: np.ascontiguousarray(getattr(out, name).data[:, i])
                              for name in _OUTPUT_ARRAYS})
                for i, rate in enumerate(rates)]

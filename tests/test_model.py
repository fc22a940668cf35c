import hashlib
import tracemalloc
from contextlib import contextmanager
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import whamkit.autodiff as ad
from whamkit import body, geom
from whamkit.autodiff import Tensor
from whamkit.errors import InvalidInputError
from whamkit.gradcheck import forward_backward
from whamkit.losses import LossWeights
from whamkit.model import (ENCODER_INPUT_DIM, AblationFlags, ModelDims, WhamModel,
                           WhamParams, adjust_velocity, extract_velocities, rollout)
from whamkit.train import TrainingModule

from tests.conftest import check, is_rotation, rollout_np, square
from tests.test_kernels import KERNELS, centering, check_nodes, check_reference, integrator, roll
from tests.test_trace_targets import load_spans

DIMS = ModelDims(hidden=8, feature_dim=8, integrator_hidden=8, init_hidden=16)


@pytest.fixture(scope="module")
def model():
    return WhamModel(WhamParams(DIMS, seed=0))


# (frames, batch) of the property tests.
SHAPES = st.tuples(st.integers(2, 90), st.integers(1, 8))

# Forward channels whose frame t reads no input after frame t, and those
# that read frame t + 1 through the contact-aware velocity adjustment.
CAUSAL = ("motion_feats", "fused_feats", "kp3d_cascade", "local_pose", "contact",
          "cam_root_pos", "cam_root_rot", "bone_scales", "root_rot0", "vel0")
LOOKAHEAD = ("vel_adj", "root_rot", "vel", "root_pos")


def random_inputs(frames=6, batch=2, seed=0, feature_dim=DIMS.feature_dim):
    rng = np.random.default_rng(seed)
    kp = rng.uniform(-1, 1, size=(frames, batch, ENCODER_INPUT_DIM))
    omega = rng.normal(0, 0.02, size=(frames, batch, 3))
    feats = rng.normal(0, 1, size=(frames, batch, feature_dim))
    return kp, omega, feats


@contextmanager
def zeroed(model, prefix: str):
    """The model with its parameters named prefix* set to zero until exit."""
    saved = {name: model.params[name].data for name in model.params.slices()
             if name.startswith(prefix)}
    for name, data in saved.items():
        model.params[name].data = np.zeros_like(data)
    try:
        yield model
    finally:
        for name, data in saved.items():
            model.params[name].data = data


def random_batch(frames=6, batch=2, feature_dim=32, seed=5):
    """A finetune training batch of seeded random values, with the truth
    rotations drawn through geom.exp_so3; it feeds every loss term without
    depending on the synthesizer."""
    rng = np.random.default_rng(seed)
    tb = (frames, batch)
    return {
        "kp_input": rng.uniform(-1, 1, size=tb + (ENCODER_INPUT_DIM,)),
        "omega": rng.normal(0, 0.02, size=tb + (3,)),
        "features": rng.normal(0, 1, size=tb + (feature_dim,)),
        "init_pose": rng.normal(0, 0.3, size=(batch, 63)),
        "local_pose": rng.normal(0, 0.3, size=tb + (21, 3)),
        "bone_scales": rng.uniform(0.9, 1.1, size=(batch, 20)),
        "root_rot": geom.exp_so3(rng.normal(0, 0.5, size=tb + (3,))),
        "root_vel": rng.normal(0, 0.03, size=tb + (3,)),
        "contacts": rng.uniform(0, 1, size=tb + (4,)),
        "cam_rot": geom.exp_so3(rng.normal(0, 0.5, size=tb + (3,))),
        "kp_px": rng.uniform(0, 640, size=tb + (17, 2)),
        "kp_vis": rng.uniform(size=tb + (17,)) < 0.8,
        "focal": rng.uniform(500, 700, size=batch),
        "cx": rng.uniform(300, 340, size=batch),
        "cy": rng.uniform(220, 260, size=batch),
        "image_w": 640.0,
    }


def trajectory_inputs(frames, batch, seed):
    """Seeded (pose, contact, rotation, velocity) arrays for the trajectory
    stages, with about half the foot landmarks above the contact threshold."""
    rng = np.random.default_rng(seed)
    return (rng.normal(0, 0.3, size=(frames, batch, 21, 3)),
            rng.uniform(size=(frames, batch, 4)),
            geom.exp_so3(rng.normal(0, 0.5, size=(frames, batch, 3))),
            rng.normal(0, 0.05, size=(frames, batch, 3)))


class TestRollout:
    def test_straight_line(self):
        rot = Tensor(np.broadcast_to(np.eye(3), (101, 1, 3, 3)).copy())
        vel = Tensor(np.full((101, 1, 3), [0.0, 0.0, 0.01]))
        tau = rollout(rot, vel).data[:, 0]
        assert np.abs(tau[100] - [0, 0, 1.0]).max() < 1e-12

    def test_zero_velocity_constant(self):
        rng = np.random.default_rng(1)
        rot = Tensor(np.stack([np.stack([geom.exp_so3(rng.normal(size=3))
                                         for _ in range(2)]) for _ in range(7)]))
        vel = Tensor(np.zeros((7, 2, 3)))
        tau = rollout(rot, vel).data
        assert (tau == 0.0).all()

    def test_matches_numpy_rollout(self):
        rng = np.random.default_rng(4)
        rots = np.stack([geom.exp_so3(rng.normal(size=3)) for _ in range(81)])
        vel = rng.normal(0, 0.05, size=(81, 3))
        got = rollout(Tensor(rots[:, None]), Tensor(vel[:, None])).data[:, 0]
        assert np.abs(got - rollout_np(rots, vel)).max() <= 1e-12

    def test_gradient(self):
        _, _, rot, vel = trajectory_inputs(5, 2, seed=12)
        leaves = [Tensor(rot, requires_grad=True), Tensor(vel, requires_grad=True)]
        check(lambda: ad.tsum(square(rollout(*leaves))), leaves)

    def test_extract_then_rollout_round_trip(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n = int(rng.integers(5, 60))
            rots = [geom.exp_so3(rng.normal(size=3))]
            for _ in range(n - 1):
                rots.append(rots[-1] @ geom.exp_so3(rng.normal(0, 0.1, size=3)))
            rots = np.stack(rots)
            taus = np.cumsum(rng.normal(0, 0.05, size=(n, 3)), axis=0)
            vel = extract_velocities(rots, taus)
            back = rollout_np(rots, vel, origin=taus[0])
            assert np.abs(back - taus).max() < 1e-9


class TestAdjustVelocity:
    def test_no_contact_passthrough(self):
        rng = np.random.default_rng(3)
        pose = Tensor(rng.normal(size=(5, 1, 21, 3)))
        contact = Tensor(np.zeros((5, 1, 4)))
        rot = Tensor(np.broadcast_to(np.eye(3), (5, 1, 3, 3)).copy())
        vel = Tensor(rng.normal(size=(5, 1, 3)))
        out = adjust_velocity(pose, contact, rot, vel)
        assert (out.data == vel.data).all()

    def test_direct_substitution(self):
        # one foot landmark in contact, world velocity (0.01, 0, 0),
        # first-stage velocity (0.02, 0, 0) -> adjusted (0.01, 0, 0)
        frames = 3
        pose = np.zeros((frames, 1, 21, 3))
        for t in range(frames):
            pose[t, 0, 17] = [0.01 * t - 0.02 * t, 0, 0]  # cancel rollout drift
        contact = np.zeros((frames, 1, 4))
        contact[:, 0, 0] = 1.0
        rot = np.broadcast_to(np.eye(3), (frames, 1, 3, 3)).copy()
        vel = np.full((frames, 1, 3), [0.02, 0.0, 0.0])
        out = adjust_velocity(Tensor(pose), Tensor(contact), Tensor(rot), Tensor(vel))
        assert np.abs(out.data[0, 0] - [0.01, 0, 0]).max() < 1e-12

    def test_stance_foot_cancellation_with_truth(self):
        """Ground-truth pose and contact: rolled-out stance feet freeze."""
        seq = body.generate_gait("walk", 40, seed=4)
        rng = np.random.default_rng(5)
        vel_err = extract_velocities(seq.root_rot, seq.root_pos) + rng.normal(0, 0.01, (40, 3))
        pose = Tensor(seq.local_pose[:, None])
        contact = Tensor(seq.contacts[:, None])
        rot = Tensor(seq.root_rot[:, None])
        vel = Tensor(vel_err[:, None])
        adj = adjust_velocity(pose, contact, rot, vel)
        tau = rollout_np(seq.root_rot, adj.data[:, 0])
        world_feet = (np.einsum("tij,tkj->tki", seq.root_rot,
                                seq.local_pose[:, list(body.CONTACT_LANDMARKS)])
                      + tau[:, None, :])
        fwd_vel = np.linalg.norm(np.diff(world_feet, axis=0), axis=-1)
        full = seq.contacts == 1.0
        assert fwd_vel[full[:-1]].max() < 1e-9

    def test_frames_without_contact_keep_vel0_and_its_gradient(self):
        """Frames with no foot landmark above the threshold, amid frames in
        contact, output vel0 bit for bit; an output gradient on those
        frames reaches vel0 unchanged and no other input."""
        pose, contact, rot, vel = trajectory_inputs(9, 3, seed=6)
        idle = np.zeros((9, 3), dtype=bool)
        idle[[1, 4, 5, 8]] = True
        idle[2, 1] = True
        contact[~idle, 0] = np.maximum(contact[~idle, 0], 0.6)
        contact[idle] = np.minimum(contact[idle], 0.5)   # the gate is p > 0.5
        leaves = [Tensor(x, requires_grad=True) for x in (pose, rot, vel)]
        out = adjust_velocity(leaves[0], Tensor(contact), leaves[1], leaves[2])
        assert np.array_equal(out.data[idle], vel[idle])
        assert (out.data[~idle] != vel[~idle]).any(axis=-1).all()
        probe = np.where(idle[..., None], np.random.default_rng(7).normal(size=vel.shape), 0.0)
        ad.tsum(out * Tensor(probe)).backward()
        assert np.array_equal(leaves[2].grad, probe)
        assert not leaves[0].grad.any() and not leaves[1].grad.any()


class TestPrefixConsistency:
    """The roll-out is causal, and the velocity adjustment of frame t reads
    frame t+1 and none after it: on the first k frames of a sequence both
    give the first k (roll-out) or k-1 (adjustment) frames of the whole
    sequence's result, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_prefix_of_the_output_is_the_output_of_the_prefix(self, data):
        frames, batch = data.draw(SHAPES, label="shape")
        k = data.draw(st.integers(2, frames), label="k")
        arrays = trajectory_inputs(frames, batch, seed=data.draw(st.integers(0, 2**32 - 1)))
        head = [Tensor(x[:k]) for x in arrays]
        full = [Tensor(x) for x in arrays]
        assert np.array_equal(rollout(*head[2:]).data, rollout(*full[2:]).data[:k])
        assert np.array_equal(adjust_velocity(*head).data[:k - 1],
                              adjust_velocity(*full).data[:k - 1])


class TestWholeForwardPrefix:
    """forward on the first k frames gives the first k frames of the whole
    sequence's causal channels and the first k - 1 of the look-ahead ones,
    under every ablation. Bit for bit at toy dims; at the default dims BLAS
    blocks its sums by row count, so within 1e-12 of each channel's scale."""

    @pytest.fixture(scope="class")
    def default_model(self):
        return WhamModel(WhamParams(ModelDims(), seed=0))

    @staticmethod
    def check(data, model, rtol):
        frames, batch = data.draw(SHAPES, label="shape")
        k = data.draw(st.integers(2, frames), label="k")
        flags = AblationFlags(*data.draw(st.tuples(*[st.booleans()] * 4), label="flags"))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        kp, omega, feats = random_inputs(frames, batch, seed, model.dims.feature_dim)
        if not flags.use_omega:
            omega = np.zeros_like(omega)

        def forward(n):
            """forward on the first n frames, switched as infer_batch switches it."""
            with ad.no_grad():
                return model.forward(kp[:n], omega[:n],
                                     features=feats[:n] if flags.use_integrator else None,
                                     neural_init_mode="self" if flags.use_neural_init else "zero",
                                     use_refiner=flags.use_refiner)

        head, full = forward(k), forward(frames)
        for name in CAUSAL + LOOKAHEAD:
            n = k - 1 if name in LOOKAHEAD else k
            got, want = getattr(head, name).data[:n], getattr(full, name).data[:n]
            assert np.abs(got - want).max() <= rtol * np.abs(want).max(), name

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exact_at_toy_dims(self, model, data):
        self.check(data, model, 0.0)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_within_1e_12_at_default_dims(self, default_model, data):
        self.check(data, default_model, 1e-12)


class TestResidualIdentities:
    @settings(max_examples=20, deadline=None)
    @given(shape=SHAPES)
    def test_integrator_zero_weights_pass_through(self, model, shape):
        kp, omega, feats = random_inputs(*shape)
        phi, _ = model.encode(kp)
        with zeroed(model, "integrator"):
            fused = model.integrate(phi, feats)
        assert (fused.data == phi.data).all()

    def test_pretraining_mode_identity(self, model):
        kp, _, _ = random_inputs(seed=7)
        phi, _ = model.encode(kp)
        assert model.integrate(phi, None) is phi

    @settings(max_examples=20, deadline=None)
    @given(shape=SHAPES)
    def test_refiner_zero_weights_pass_through(self, model, shape):
        kp, omega, _ = random_inputs(*shape, seed=8)
        phi, _ = model.encode(kp)
        rot0, vel0 = model.decode_trajectory(phi, omega)
        with zeroed(model, "refiner.head"):
            rot, vel = model.refine_trajectory(phi, rot0, vel0)
        assert (rot.data == rot0.data).all()
        assert (vel.data == vel0.data).all()

    def test_zero_trajectory_head_gives_identity_and_zero(self, model):
        kp, omega, _ = random_inputs(seed=9)
        phi, _ = model.encode(kp)
        with zeroed(model, "traj_dec.head"):
            rot0, vel0 = model.decode_trajectory(phi, omega)
        assert (rot0.data == np.eye(3)).all()
        assert (vel0.data == 0.0).all()


class TestFusedStages:
    """The integrator, the pose centering and the roll-out against their
    composed chains: rows of tests/test_kernels.py."""

    def check(self, key, make):
        check_reference(KERNELS[key], make)
        check_nodes(KERNELS[key], make)

    def test_integrate_matches_composed_chain(self):
        self.check("layers.DenseStack.__call__", integrator)

    @pytest.mark.parametrize("shape", [(5, 63), (4, 3, 63), (4, 1, 63)])
    def test_center_pose_matches_composed_chain(self, shape):
        self.check("model.center_pose", centering(shape))

    @pytest.mark.parametrize("frames", [2, 3, 81])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("rot_grad", [True, False])
    def test_rollout_matches_composed_chain(self, frames, batch, rot_grad):
        self.check("model.rollout", roll(frames, batch, rot_grad))


class TestCausality:
    # The contact-aware velocity adjustment at frame t cancels the rollout
    # step t -> t+1, which requires the frame t+1 foot position: the refined
    # trajectory channels therefore see exactly one frame ahead, and all
    # other channels none.

    def test_strictly_causal_channels(self, model):
        kp, omega, feats = random_inputs(frames=8, seed=10)
        out1 = model.forward(kp, omega, features=feats, neural_init_mode="self")
        kp2, om2, ft2 = kp.copy(), omega.copy(), feats.copy()
        kp2[5:] += 0.37
        om2[5:] -= 0.11
        ft2[5:] *= -2.0
        out2 = model.forward(kp2, om2, features=ft2, neural_init_mode="self")
        for field in CAUSAL:
            a = getattr(out1, field).data[:5]
            b = getattr(out2, field).data[:5]
            assert (a == b).all(), field

    def test_refined_channels_single_frame_lookahead(self, model):
        kp, omega, feats = random_inputs(frames=8, seed=11)
        out1 = model.forward(kp, omega, features=feats)
        kp2, om2, ft2 = kp.copy(), omega.copy(), feats.copy()
        kp2[5:] += 0.37
        om2[5:] -= 0.11
        ft2[5:] *= -2.0
        out2 = model.forward(kp2, om2, features=ft2)
        for field in LOOKAHEAD:
            a = getattr(out1, field).data[:4]  # frames <= 3 ignore frame 5+
            b = getattr(out2, field).data[:4]
            assert (a == b).all(), field


class TestOutputValidity:
    def test_rotations_always_valid(self, model):
        kp, omega, feats = random_inputs(frames=5, seed=12)
        out = model.forward(kp, omega, features=feats)
        for stack in (out.cam_root_rot, out.root_rot0, out.root_rot):
            flat = stack.data.reshape(-1, 3, 3)
            for r in flat:
                assert is_rotation(r, tol=1e-9)

    def test_contact_in_unit_interval(self, model):
        kp, omega, feats = random_inputs(frames=5, seed=13)
        out = model.forward(kp, omega, features=feats)
        assert out.contact.data.min() > 0.0 and out.contact.data.max() < 1.0

    def test_local_pose_centered(self, model):
        kp, omega, feats = random_inputs(frames=5, seed=14)
        out = model.forward(kp, omega, features=feats)
        mid = 0.5 * (out.local_pose.data[:, :, 11] + out.local_pose.data[:, :, 12])
        assert np.abs(mid).max() < 1e-12

    def test_too_short_rejected(self, model):
        kp, omega, feats = random_inputs(frames=1, seed=16)
        with pytest.raises(InvalidInputError):
            model.forward(kp, omega, features=feats)

    def test_infer_ablation_switches(self, model):
        kp, omega, feats = random_inputs(frames=6, batch=1, seed=17)
        base = model.infer_batch(kp, omega, feats)[0]
        no_ref = model.infer_batch(kp, omega, feats, flags=AblationFlags(use_refiner=False))[0]
        assert (no_ref.root_rot == no_ref.root_rot0).all()
        assert (no_ref.vel == no_ref.vel0).all()
        no_om = model.infer_batch(kp, omega, feats, flags=AblationFlags(use_omega=False))[0]
        zero_om = model.infer_batch(kp, np.zeros_like(omega), feats)[0]
        assert (no_om.root_rot0 == zero_om.root_rot0).all()
        no_int = model.infer_batch(kp, omega, feats, flags=AblationFlags(use_integrator=False))[0]
        no_feats = model.infer_batch(kp, omega, None)[0]
        no_init = model.infer_batch(kp, omega, feats, flags=AblationFlags(use_neural_init=False))
        with ad.no_grad():
            zero = model.forward(kp, omega, features=feats, neural_init_mode="zero")
        for name in ("local_pose", "contact", "cam_root_rot", "root_rot", "vel", "root_pos"):
            assert (getattr(no_int, name) == getattr(no_feats, name)).all(), name
            assert (getattr(no_init[0], name) == getattr(zero, name).data[:, 0]).all(), name
        assert base.local_pose.shape == (6, 21, 3)


class TestNeuralInit:
    def test_zero_weight_heads_give_zero_states(self, model):
        saved = {}
        for name in model.params.slices():
            if name.startswith("init_net"):
                saved[name] = model.params[name].data.copy()
                model.params[name].data = np.zeros_like(saved[name])
        h_e, h_d = model.neural_init(Tensor(np.random.default_rng(18).normal(size=(2, 63))))
        assert (h_e.data == 0.0).all() and (h_d.data == 0.0).all()
        for name, data in saved.items():
            model.params[name].data = data

    def test_identical_poses_identical_states(self, model):
        pose = np.random.default_rng(19).normal(size=(1, 63))
        both = np.concatenate([pose, pose], axis=0)
        h_e, h_d = model.neural_init(Tensor(both))
        assert (h_e.data[0] == h_e.data[1]).all()
        assert (h_d.data[0] == h_d.data[1]).all()

    def test_modes_differ(self, model):
        kp, omega, feats = random_inputs(frames=5, seed=20)
        a = model.forward(kp, omega, features=feats, neural_init_mode="zero")
        b = model.forward(kp, omega, features=feats, neural_init_mode="self")
        assert not (a.local_pose.data == b.local_pose.data).all()

    @pytest.mark.parametrize("with_features", [True, False])
    def test_self_mode_is_truth_mode_seeded_by_a_zero_state_pass(self, model, with_features):
        kp, omega, feats = random_inputs(frames=5, seed=24)
        feats = feats if with_features else None
        pose0 = model.forward(kp, omega, features=feats, neural_init_mode="zero").local_pose.data[0]
        a = model.forward(kp, omega, features=feats, neural_init_mode="self")
        b = model.forward(kp, omega, features=feats, neural_init_mode="truth", init_pose=pose0)
        for name in ("motion_feats", "fused_feats", "kp3d_cascade", "local_pose", "contact",
                     "cam_root_pos", "cam_root_rot", "bone_scales", "root_rot0", "vel0",
                     "vel_adj", "root_rot", "vel", "root_pos"):
            assert (getattr(a, name).data == getattr(b, name).data).all(), name

    def test_truth_mode_needs_pose(self, model):
        kp, omega, feats = random_inputs(frames=5, seed=21)
        with pytest.raises(InvalidInputError):
            model.forward(kp, omega, features=feats, neural_init_mode="truth")


class TestDeterminism:
    def test_forward_bitwise_repeatable(self, model):
        kp, omega, feats = random_inputs(frames=6, seed=23)
        a = model.forward(kp, omega, features=feats, neural_init_mode="self")
        b = model.forward(kp, omega, features=feats, neural_init_mode="self")
        for field in ("local_pose", "contact", "root_rot", "root_pos"):
            assert (getattr(a, field).data == getattr(b, field).data).all()

    def test_same_seed_same_params(self):
        a = WhamParams(DIMS, seed=4).params.get_flat()
        b = WhamParams(DIMS, seed=4).params.get_flat()
        assert (a == b).all()


class TestEncoderFixedPoint:
    def test_constant_input_feature_settles(self, model):
        rng = np.random.default_rng(22)
        frame = rng.uniform(-1, 1, size=(1, ENCODER_INPUT_DIM))
        kp = np.repeat(frame[None], 40, axis=0)
        phi, _ = model.encode(kp)
        steps = np.linalg.norm(np.diff(phi.data[:, 0], axis=0), axis=-1)
        assert steps[-1] < steps[10]
        assert (np.diff(steps[10:]) <= 1e-12).all()


class TestBackwardMemory:
    @pytest.fixture(scope="class")
    def traced(self):
        """Traced bytes of a finetune loss's forward tape at (81, 8) with
        seed-0 weights, and the peak above the same base during backward."""
        module = TrainingModule(WhamModel(WhamParams(ModelDims(), seed=0)),
                                LossWeights(), "finetune")
        batch = random_batch(frames=81, batch=8)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = module.loss(batch)
            tape = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return tape, peak

    def test_peak_stays_near_the_forward_tape(self, traced):
        """Backward frees each node once its gradient has passed on, so its
        traced peak stays near the forward tape's size; keeping every
        intermediate gradient until the loss is dropped reads 1.78 here."""
        tape, peak = traced
        assert peak <= 1.25 * tape, (peak, tape)

    def test_forward_tape_keeps_only_what_backward_reads(self, traced):
        """The tape reads about 19.3 MB here, and 23.7 MB with the GRU
        inputs joined by concat nodes and the integrator and pose centering
        composed. The margin is below the 0.33 MB anchored pose that one
        composed center_pose keeps, so bringing back any one of those
        concatenations or chains fails."""
        tape, _ = traced
        assert tape <= 19.5e6, tape


class TestParamCount:
    @pytest.mark.parametrize("dims", [
        ModelDims(), ModelDims(hidden=8, feature_dim=8, integrator_hidden=8, init_hidden=16),
        ModelDims(hidden=37, feature_dim=5, integrator_hidden=3, init_hidden=70),
        ModelDims(hidden=1, feature_dim=1, integrator_hidden=1, init_hidden=1),
        ModelDims(hidden=2, feature_dim=1, integrator_hidden=1, init_hidden=3)])
    def test_closed_form_matches_the_registered_weights(self, dims):
        assert dims.param_count() == WhamParams(dims).params.size

    @pytest.mark.parametrize("name", [f.name for f in fields(ModelDims)])
    def test_a_size_below_one_is_rejected(self, name):
        for size in (0, -3):
            with pytest.raises(InvalidInputError, match=name):
                ModelDims(**{name: size})


class TestCheckpointLayout:
    """SHA-256 of the seed-0 flat parameter vector, the order of a
    checkpoint's "params", "adam_m" and "adam_v" sections."""

    FLAT = {"toy": "efa947666353ab0f14edce2fe4c858c2b9df008c2ccbae50248a2e5328ef7c29",
            "default": "13b12f517411d020f128774407b9171ddba42bca4ed9f81dad1e9c35ef44ad13"}

    @pytest.mark.parametrize("name, dims", [("toy", DIMS), ("default", ModelDims())])
    def test_seed0_flat_vector_is_pinned(self, name, dims):
        flat = WhamParams(dims, seed=0).params.get_flat()
        assert hashlib.sha256(flat.tobytes()).hexdigest() == self.FLAT[name], (
            "the flat parameter order or the weight draw order changed: every saved "
            "checkpoint would load silently permuted")


class TestPinnedOutputs:
    """Values of seed-0 weights at the default dims on random_batch(),
    recorded with single-threaded BLAS. A change that only restructures the
    model math keeps the loss and the inference outputs bit-identical and
    the gradient within summation-order rounding; a change that means to
    move them updates these numbers."""

    LOSS = 6.442509229346944
    # The largest-magnitude gradient entry of each parameter block.
    GRAD = {78371: 0.16591149494423638, 115456: -0.06446229734086549,
            222848: 1.0174486539247463, 335652: -1.9485637694215647,
            438957: -0.8268123030121841, 459562: 0.04251898230502817}
    GRAD_NORM = 6.852987167621727
    # (output field, index into that column's array) -> (column 0, column 1)
    INFERENCE = {
        ("local_pose", (5, 20, 2)): (-0.1496819208311087, -0.0055521263704375046),
        ("contact", (4, 1)): (0.5104842105491657, 0.4699508774240368),
        ("cam_root_pos", (5, 2)): (5.065778180994824, 5.092433520229933),
        ("cam_root_rot", (3, 0, 1)): (0.0649950869401686, 0.07707838664925766),
        ("bone_scales", (5, 7)): (1.008687445029044, 1.0079429771757475),
        ("root_rot0", (5, 2, 0)): (-0.015986939789174832, 0.008205798820987665),
        ("vel_adj", (5, 0)): (0.02263822034202468, -0.019425778031577245),
        ("root_rot", (5, 1, 2)): (-0.10050162504361232, -0.1381085185419598),
        ("root_pos", (5, 0)): (0.12955426521185237, -0.1833945314767291),
    }

    @pytest.fixture(scope="class")
    def seed0(self):
        return WhamModel(WhamParams(ModelDims(), seed=0)), random_batch()

    def test_finetune_loss_and_gradient(self, seed0):
        model, batch = seed0
        loss, grad = forward_backward(TrainingModule(model, LossWeights(), "finetune"), batch)
        assert loss == self.LOSS
        for i, want in self.GRAD.items():
            assert abs(grad[i] - want) <= 1e-14, i
        assert abs(np.linalg.norm(grad) - self.GRAD_NORM) <= 1e-14

    def test_self_init_inference(self, seed0):
        model, batch = seed0
        out = model.infer_batch(batch["kp_input"], batch["omega"], batch["features"])
        for (name, idx), want in self.INFERENCE.items():
            assert tuple(getattr(col, name)[idx] for col in out) == want, name

    def test_finetune_tape_size(self, seed0):
        """A batch-2 finetune loss records at most 104 nodes, counted as the
        benchmark counts them (106 with the initializer as Dense, ReLU and
        Dense nodes; 120 with each of the two roll-outs composed of seven
        nodes and the velocity adjustment's last frame joined on and its
        no-contact frames masked by separate nodes; 160 with the joined GRU
        inputs, integrator, pose centering, motion-head reshapes and loss
        sum composed as well): per-node overhead is a large share of a
        small-batch step, so a change that inflates the tape fails here."""
        model, batch = seed0
        loss = TrainingModule(model, LossWeights(), "finetune").loss(batch)
        nodes, _ = load_spans().tape_size(loss)
        assert nodes <= 104

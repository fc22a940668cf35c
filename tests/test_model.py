import numpy as np
import pytest

import whamkit.autodiff as ad
from whamkit import body, geom
from whamkit.autodiff import Tensor
from whamkit.errors import InvalidInputError
from whamkit.model import (ENCODER_INPUT_DIM, ModelDims, WhamModel, WhamParams,
                           adjust_velocity, extract_velocities, rollout,
                           rollout_np)

DIMS = ModelDims(hidden=8, feature_dim=8, integrator_hidden=8, init_hidden=16)


@pytest.fixture(scope="module")
def model():
    return WhamModel(WhamParams(DIMS, seed=0))


def random_inputs(frames=6, batch=2, seed=0):
    rng = np.random.default_rng(seed)
    kp = rng.uniform(-1, 1, size=(frames, batch, ENCODER_INPUT_DIM))
    omega = rng.normal(0, 0.02, size=(frames, batch, 3))
    feats = rng.normal(0, 1, size=(frames, batch, DIMS.feature_dim))
    return kp, omega, feats


class TestRollout:
    def test_straight_line(self):
        rot = Tensor(np.broadcast_to(np.eye(3), (101, 1, 3, 3)).copy())
        vel = Tensor(np.full((101, 1, 3), [0.0, 0.0, 0.01]))
        tau = rollout(rot, vel, np.zeros(3)).data[:, 0]
        assert np.abs(tau[100] - [0, 0, 1.0]).max() < 1e-12

    def test_zero_velocity_constant(self):
        rng = np.random.default_rng(1)
        rot = Tensor(np.stack([np.stack([geom.exp_so3(rng.normal(size=3))
                                         for _ in range(2)]) for _ in range(7)]))
        vel = Tensor(np.zeros((7, 2, 3)))
        tau = rollout(rot, vel, np.array([1.0, 2.0, 3.0])).data
        assert np.abs(tau - [1.0, 2.0, 3.0]).max() == 0.0

    def test_matches_numpy_rollout(self):
        rng = np.random.default_rng(4)
        rots = np.stack([geom.exp_so3(rng.normal(size=3)) for _ in range(81)])
        vel = rng.normal(0, 0.05, size=(81, 3))
        origin = rng.normal(size=3)
        got = rollout(Tensor(rots[:, None]), Tensor(vel[:, None]), origin).data[:, 0]
        assert np.abs(got - rollout_np(rots, vel, origin=origin)).max() <= 1e-12

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


class TestResidualIdentities:
    def test_integrator_zero_weights_pass_through(self, model):
        kp, omega, feats = random_inputs()
        phi, _ = model.encode(kp)
        saved = {}
        for name in model.params.names():
            if name.startswith("integrator"):
                saved[name] = model.params[name].data.copy()
                model.params[name].data = np.zeros_like(saved[name])
        fused = model.integrate(phi, feats)
        assert (fused.data == phi.data).all()
        for name, data in saved.items():
            model.params[name].data = data

    def test_pretraining_mode_identity(self, model):
        kp, _, _ = random_inputs(seed=7)
        phi, _ = model.encode(kp)
        assert model.integrate(phi, None) is phi

    def test_refiner_zero_weights_pass_through(self, model):
        kp, omega, _ = random_inputs(seed=8)
        phi, _ = model.encode(kp)
        rot0, vel0 = model.decode_trajectory(phi, omega)
        saved = {}
        for name in model.params.names():
            if name.startswith("refiner.head"):
                saved[name] = model.params[name].data.copy()
                model.params[name].data = np.zeros_like(saved[name])
        rot, vel = model.refine_trajectory(phi, rot0, vel0)
        assert (rot.data == rot0.data).all()
        assert (vel.data == vel0.data).all()
        for name, data in saved.items():
            model.params[name].data = data

    def test_zero_trajectory_head_gives_identity_and_zero(self, model):
        kp, omega, _ = random_inputs(seed=9)
        phi, _ = model.encode(kp)
        saved = {}
        for name in model.params.names():
            if name.startswith("traj_dec.head"):
                saved[name] = model.params[name].data.copy()
                model.params[name].data = np.zeros_like(saved[name])
        rot0, vel0 = model.decode_trajectory(phi, omega)
        assert (rot0.data == np.eye(3)).all()
        assert (vel0.data == 0.0).all()
        for name, data in saved.items():
            model.params[name].data = data


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
        for field in ("motion_feats", "fused_feats", "kp3d_cascade", "local_pose",
                      "contact", "cam_root_pos", "cam_root_rot", "bone_scales",
                      "root_rot0", "vel0"):
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
        for field in ("vel_adj", "root_rot", "vel", "root_pos"):
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
                assert geom.is_rotation(r, tol=1e-9)

    def test_contact_in_unit_interval(self, model):
        kp, omega, feats = random_inputs(frames=5, seed=13)
        out = model.forward(kp, omega, features=feats)
        assert out.contact.data.min() > 0.0 and out.contact.data.max() < 1.0

    def test_local_pose_centered(self, model):
        kp, omega, feats = random_inputs(frames=5, seed=14)
        out = model.forward(kp, omega, features=feats)
        mid = 0.5 * (out.local_pose.data[:, :, 11] + out.local_pose.data[:, :, 12])
        assert np.abs(mid).max() < 1e-12

    def test_origin_respected(self, model):
        kp, omega, feats = random_inputs(frames=5, seed=15)
        out = model.forward(kp, omega, features=feats, origin=np.array([1.0, 2.0, 3.0]))
        assert (out.root_pos.data[0] == [1.0, 2.0, 3.0]).all()

    def test_too_short_rejected(self, model):
        kp, omega, feats = random_inputs(frames=1, seed=16)
        with pytest.raises(InvalidInputError):
            model.forward(kp, omega, features=feats)

    def test_infer_ablation_switches(self, model):
        kp, omega, feats = random_inputs(frames=6, batch=1, seed=17)
        base = model.infer(kp[:, 0], omega[:, 0], feats[:, 0])
        no_ref = model.infer(kp[:, 0], omega[:, 0], feats[:, 0], use_refiner=False)
        assert (no_ref.root_rot == no_ref.root_rot0).all()
        assert (no_ref.vel == no_ref.vel0).all()
        no_om = model.infer(kp[:, 0], omega[:, 0], feats[:, 0], use_omega=False)
        zero_om = model.infer(kp[:, 0], np.zeros_like(omega[:, 0]), feats[:, 0])
        assert (no_om.root_rot0 == zero_om.root_rot0).all()
        assert base.local_pose.shape == (6, 21, 3)


class TestNeuralInit:
    def test_zero_weight_heads_give_zero_states(self, model):
        saved = {}
        for name in model.params.names():
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

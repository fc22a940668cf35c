import math

import numpy as np
import pytest

from whamkit import body, geom, metrics
from whamkit.errors import InvalidInputError, UndefinedMetricError

from tests.conftest import kabsch_cases, pa_mpjpe_reference

pytestmark = pytest.mark.filterwarnings("error")


def random_pose_pair(rng, frames=4, joints=21, noise=0.05):
    truth = rng.normal(size=(frames, joints, 3))
    pred = truth + rng.normal(0, noise, size=truth.shape)
    return pred, truth


class TestMpjpe:
    def test_zero_on_equal(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 21, 3))
        assert metrics.mpjpe(x, x) == 0.0

    def test_translation_removed_by_centering(self):
        rng = np.random.default_rng(1)
        truth = rng.normal(size=(3, 21, 3))
        pred = truth + [0.0, 0.0, 0.010]
        assert metrics.mpjpe(pred, truth) < 1e-9

    def test_single_joint_offset_arithmetic(self):
        truth = np.zeros((1, 21, 3))
        truth[0, :, 0] = np.arange(21) * 0.1
        pred = truth.copy()
        pred[0, 5, 1] += 0.010  # 10 mm on one non-hip joint
        # pelvis centering is unaffected (hips unchanged)
        assert metrics.mpjpe(pred, truth) == pytest.approx(10.0 / 21.0, rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            metrics.mpjpe(np.zeros((2, 21, 3)), np.zeros((3, 21, 3)))


class TestPaMpjpe:
    def test_rigid_transform_removed(self):
        rng = np.random.default_rng(2)
        truth = rng.normal(size=(4, 21, 3))
        r = geom.exp_so3(rng.normal(size=3))
        pred = truth @ r.T + [0.3, -1.0, 2.0]
        assert metrics.pa_mpjpe(pred, truth) < 1e-6

    def test_scale_removed(self):
        rng = np.random.default_rng(3)
        truth = rng.normal(size=(4, 21, 3))
        assert metrics.pa_mpjpe(truth * 1.1, truth) < 1e-6

    def test_never_exceeds_mpjpe(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            pred, truth = random_pose_pair(rng, noise=rng.uniform(0.01, 0.5))
            assert metrics.pa_mpjpe(pred, truth) <= metrics.mpjpe(pred, truth) + 1e-9

    def test_matches_stochastic_search(self):
        rng = np.random.default_rng(5)
        pred, truth = random_pose_pair(rng, frames=1, noise=0.2)
        got = metrics.pa_mpjpe(pred, truth)
        p, q = pred[0], truth[0]
        best = np.inf
        for _ in range(10000):
            r = geom.exp_so3(rng.normal(size=3) * rng.uniform(0, np.pi))
            s = rng.uniform(0.5, 1.5)
            moved = s * (p @ r.T)
            moved += q.mean(0) - moved.mean(0)
            best = min(best, np.linalg.norm(moved - q, axis=-1).mean() * 1000.0)
        assert got <= best * 1.01


    def test_mixed_stack_matches_per_frame_reference(self):
        rng = np.random.default_rng(25)
        cases = kabsch_cases(rng)
        pred = np.stack([c[0] for c in cases.values()])
        truth = np.stack([c[1] for c in cases.values()])
        pred, truth = pred[rng.permutation(len(pred))], truth[rng.permutation(len(truth))]
        want = pa_mpjpe_reference(pred, truth)
        assert metrics.pa_mpjpe(pred, truth) == pytest.approx(want, rel=1e-12)


class TestAccelError:
    def test_zero_on_equal(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(6, 21, 3))
        assert metrics.accel_error(x, x, fps=30.0) == 0.0

    def test_constant_offset_killed(self):
        rng = np.random.default_rng(7)
        truth = rng.normal(size=(6, 21, 3))
        assert metrics.accel_error(truth + 0.5, truth, 30.0) < 1e-9

    def test_linear_drift_killed(self):
        rng = np.random.default_rng(8)
        truth = rng.normal(size=(8, 21, 3))
        drift = np.arange(8)[:, None, None] * np.array([0.01, 0.02, -0.01])
        assert metrics.accel_error(truth + drift, truth, 30.0) < 1e-9

    def test_needs_three_frames(self):
        with pytest.raises(UndefinedMetricError):
            metrics.accel_error(np.zeros((2, 21, 3)), np.zeros((2, 21, 3)), 30.0)


class TestJitter:
    def test_constant_zero(self):
        assert metrics.jitter(np.ones((10, 4, 3)), 30.0) == 0.0

    def test_quadratic_zero(self):
        t = np.arange(12)[:, None, None]
        x = 0.5 * t * t * np.array([0.001, 0.002, 0.0]) + t * 0.01
        x = np.broadcast_to(x, (12, 3, 3)).copy()
        assert metrics.jitter(x, 30.0) < 1e-9

    def test_sinusoid_analytic(self):
        fps, freq, amp = 120.0, 1.0, 0.07
        t = np.arange(600) / fps
        x = np.zeros((600, 1, 3))
        x[:, 0, 0] = amp * np.sin(2 * np.pi * freq * t)
        got = metrics.jitter(x, fps)
        want = amp * (2 * np.pi * freq) ** 3 * (2 / np.pi) / 10.0
        assert abs(got - want) / want < 0.05

    def test_needs_four_frames(self):
        with pytest.raises(UndefinedMetricError):
            metrics.jitter(np.zeros((3, 1, 3)), 30.0)


class TestFootSlide:
    def test_static_contact_zero(self):
        feet = np.ones((10, 4, 3))
        assert metrics.foot_slide(feet, np.ones((10, 4))) == 0.0

    def test_constant_slide_five_mm(self):
        feet = np.zeros((10, 4, 3))
        feet[:, :, 0] = np.arange(10)[:, None] * 0.005
        assert metrics.foot_slide(feet, np.ones((10, 4))) == pytest.approx(5.0)

    def test_generator_walk_truth(self):
        seq = body.generate_gait("walk", 81, seed=3)
        feet = body.world_landmarks(seq)[:, list(body.CONTACT_LANDMARKS)]
        assert metrics.foot_slide(feet, seq.contacts) < 2.0

    def test_no_contact_undefined(self):
        with pytest.raises(UndefinedMetricError):
            metrics.foot_slide(np.zeros((5, 4, 3)), np.zeros((5, 4)))


def synthetic_world_pair(rng, frames=230, noise=0.02):
    seq = body.generate_gait("walk", frames, seed=int(rng.integers(1000)))
    truth = body.world_landmarks(seq)
    pred = truth + rng.normal(0, noise, size=truth.shape)
    return pred, truth, seq


class TestWorldMpjpe:
    def test_zero_on_equal_both_modes(self):
        rng = np.random.default_rng(9)
        _, truth, _ = synthetic_world_pair(rng)
        for mode in ("W", "WA"):
            val, details = metrics.world_mpjpe_100(truth, truth, mode)
            assert val < 1e-9
            assert len(details) == 3  # 230 frames -> 100 + 100 + 30

    def test_global_yaw_shift_absorbed(self):
        rng = np.random.default_rng(10)
        _, truth, _ = synthetic_world_pair(rng)
        r = geom.rot_y(np.deg2rad(30.0))
        pred = truth @ r.T + [1.0, 0.0, -2.0]
        for mode in ("W", "WA"):
            val, _ = metrics.world_mpjpe_100(pred, truth, mode)
            assert val < 1e-6

    def test_wa_sse_never_exceeds_w_sse(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pred, truth, _ = synthetic_world_pair(rng, frames=150,
                                                  noise=rng.uniform(0.01, 0.1))
            _, w_det = metrics.world_mpjpe_100(pred, truth, "W")
            _, wa_det = metrics.world_mpjpe_100(pred, truth, "WA")
            for dw, dwa in zip(w_det, wa_det):
                assert dwa.root_sse <= dw.root_sse + 1e-9

    def test_short_trailing_segment_kept(self):
        rng = np.random.default_rng(12)
        _, truth, _ = synthetic_world_pair(rng, frames=103)
        _, details = metrics.world_mpjpe_100(truth, truth, "W")
        assert [d.length for d in details] == [100, 3]

    def test_static_heading_fallback_flag(self):
        truth = np.broadcast_to(np.random.default_rng(13).normal(size=(1, 21, 3)),
                                (50, 21, 3)).copy()
        pred = truth + 0.01
        _, details = metrics.world_mpjpe_100(pred, truth, "W",
                                             pred_rot0=np.eye(3), truth_rot0=np.eye(3))
        assert details[0].flags == ["w_heading_fallback"]


class TestRte:
    def test_zero_on_equal(self):
        rng = np.random.default_rng(14)
        _, truth, _ = synthetic_world_pair(rng, frames=120)
        roots = truth[:, [11, 12]].mean(axis=1)
        assert metrics.rte(roots, roots) < 1e-9

    def test_rigid_motion_absorbed(self):
        rng = np.random.default_rng(15)
        _, truth, _ = synthetic_world_pair(rng, frames=120)
        roots = truth[:, [11, 12]].mean(axis=1)
        moved = roots @ geom.exp_so3(rng.normal(size=3)).T + [5.0, 1.0, -3.0]
        assert metrics.rte(moved, roots) < 1e-9

    def test_matches_grid_search_alignment(self):
        # straight 10 m path with constant lateral error after alignment
        t = np.linspace(0.0, 10.0, 301)
        truth = np.stack([t, np.zeros_like(t), np.zeros_like(t)], axis=1)
        rng = np.random.default_rng(16)
        pred = truth + rng.normal(0, 0.1, size=truth.shape)
        got = metrics.rte(pred, truth)

        best = np.inf
        for yaw in np.linspace(0, 2 * np.pi, 720, endpoint=False):
            r = geom.rot_y(yaw)
            moved = pred @ r.T
            moved += truth.mean(0) - moved.mean(0)
            best = min(best, np.linalg.norm(moved - truth, axis=-1).mean())
        want = best / 10.0 * 100.0
        assert got <= want * 1.02

    def test_short_path_undefined(self):
        roots = np.zeros((10, 3))
        with pytest.raises(UndefinedMetricError):
            metrics.rte(roots, roots)


class TestMetricReportAssembly:
    def test_oracle_report_all_zero(self):
        seq = body.generate_gait("walk", 120, seed=8)
        world = body.world_landmarks(seq)
        rep = metrics.compute_report(seq.local_pose, seq.local_pose, world, world,
                                     seq.contacts, seq.fps,
                                     pred_rot0=seq.root_rot[0], truth_rot0=seq.root_rot[0])
        for name, value in rep.values().items():
            assert value < 1e-9, name
        rep.validate()

    def test_world_metrics_invariant_to_common_rigid_motion(self):
        rng = np.random.default_rng(17)
        pred, truth, seq = synthetic_world_pair(rng, frames=150, noise=0.05)
        base = metrics.compute_report(seq.local_pose, seq.local_pose, pred, truth,
                                      seq.contacts, seq.fps)
        g = geom.RigidTransform(geom.exp_so3(rng.normal(size=3)), rng.normal(size=3))
        moved_pred = pred @ g.rotation.T + g.translation
        moved_truth = truth @ g.rotation.T + g.translation
        rep = metrics.compute_report(seq.local_pose, seq.local_pose,
                                     moved_pred, moved_truth, seq.contacts, seq.fps)
        assert rep.wa_mpjpe_100 == pytest.approx(base.wa_mpjpe_100, abs=1e-6)
        assert rep.rte == pytest.approx(base.rte, abs=1e-9)
        assert rep.fs == pytest.approx(base.fs, abs=1e-9)
        assert rep.jitter_err == pytest.approx(base.jitter_err, abs=1e-9)
        # W-mode alignment is yaw-based, so invariance holds for
        # gravity-aligned transforms (yaw + translation)
        gy = geom.RigidTransform(geom.rot_y(rng.uniform(0, 2 * np.pi)), rng.normal(size=3))
        rep2 = metrics.compute_report(seq.local_pose, seq.local_pose,
                                      pred @ gy.rotation.T + gy.translation,
                                      truth @ gy.rotation.T + gy.translation,
                                      seq.contacts, seq.fps)
        assert rep2.w_mpjpe_100 == pytest.approx(base.w_mpjpe_100, abs=1e-6)

    def test_nan_flags_for_undefined(self):
        seq = body.generate_gait("stand", 50, seed=1)
        world = body.world_landmarks(seq)
        rep = metrics.compute_report(seq.local_pose, seq.local_pose, world, world,
                                     np.zeros_like(seq.contacts), seq.fps,
                                     pred_rot0=seq.root_rot[0], truth_rot0=seq.root_rot[0])
        assert math.isnan(rep.rte) and "rte_undefined" in rep.flags
        assert math.isnan(rep.fs) and "fs_undefined" in rep.flags

    @pytest.mark.parametrize("frames, undefined", [(2, {"accel_err", "jitter_err"}),
                                                   (3, {"jitter_err"})])
    def test_short_sequence_nan_flags(self, frames, undefined):
        seq = body.generate_gait("walk", frames, seed=2)
        world = body.world_landmarks(seq)
        rep = metrics.compute_report(seq.local_pose, seq.local_pose, world, world,
                                     seq.contacts, seq.fps)
        assert {n for n, v in rep.values().items() if math.isnan(v)} >= undefined
        assert math.isnan(rep.accel_err) == ("accel_undefined" in rep.flags)
        assert math.isnan(rep.jitter_err) == ("jitter_undefined" in rep.flags)
        for name in {"accel_err", "jitter_err"} - undefined:
            assert rep.values()[name] < 1e-9

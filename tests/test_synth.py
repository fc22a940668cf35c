import math

import numpy as np
import pytest

from whamkit import body, geom, synth
from whamkit.errors import InvalidInputError

from tests.conftest import camera_pitch_roll, is_rotation

pytestmark = pytest.mark.filterwarnings("error")

WALK = body.generate_gait("walk", 81, seed=3)


def degenerate_config(**kw):
    base = dict(pitch_mean_deg=0.0, pitch_std_deg=0.0, roll_std_deg=0.0,
                depth_min=7.0, depth_max=7.0, lateral_std=0.0, dyaw_std_deg=0.0,
                dpitch_std_deg=0.0, droll_std_deg=0.0, dtrans_std=0.0,
                timestamp_noise=0.0)
    base.update(kw)
    return synth.SynthConfig(**base)


class TestCameraSynthesis:
    def test_degenerate_config_static_centered(self):
        cfg = degenerate_config()
        cams = synth.synth_camera(WALK, cfg.pinhole(), cfg, seed=1)
        assert np.abs(cams.omega).max() == 0.0
        assert np.abs(np.diff(cams.rotations, axis=0)).max() == 0.0
        root_cam = cams.rotations[0] @ WALK.root_pos[0] + cams.translations[0]
        assert abs(root_cam[2] - 7.0) < 1e-12
        uv = geom.project(cfg.pinhole(), root_cam[None])[0]
        assert np.abs(uv - [500.0, 500.0]).max() < 1e-9

    def test_max_lateral_displacement_formula(self):
        ph = geom.Pinhole(f=500, w=1000, h=1000)
        assert synth.max_lateral_displacement(ph, 5.0) == 5.0
        assert synth.max_lateral_displacement(geom.Pinhole(f=250, w=1000, h=1000), 5.0) == 10.0

    def test_omega_consistency(self):
        cfg = synth.SynthConfig()
        cams = synth.synth_camera(WALK, cfg.pinhole(), cfg, seed=4)
        assert np.abs(cams.omega - geom.angular_velocity(cams.rotations)).max() < 1e-9

    def test_rotations_valid_and_deterministic(self):
        cfg = synth.SynthConfig()
        a = synth.synth_camera(WALK, cfg.pinhole(), cfg, seed=9)
        b = synth.synth_camera(WALK, cfg.pinhole(), cfg, seed=9)
        assert (a.rotations == b.rotations).all()
        assert (a.translations == b.translations).all()
        for r in a.rotations[::13]:
            assert is_rotation(r, tol=1e-9)

    def test_frame0_root_in_frame_many_draws(self):
        cfg = synth.SynthConfig()
        ph = cfg.pinhole()
        for seed in range(200):
            cams = synth.synth_camera(WALK, ph, cfg, seed=seed)
            root_cam = cams.rotations[0] @ WALK.root_pos[0] + cams.translations[0]
            uv = geom.project(ph, root_cam[None])[0]
            assert 0.0 <= uv[0] <= ph.w and 0.0 <= uv[1] <= ph.h

    def test_subject_stays_in_front(self):
        cfg = synth.SynthConfig()
        for seed in range(60):
            cams = synth.synth_camera(WALK, cfg.pinhole(), cfg, seed=seed)
            depths = (np.einsum("tij,tj->ti", cams.rotations, WALK.root_pos)[:, 2]
                      + cams.translations[:, 2])
            assert depths.min() >= cfg.min_subject_depth

    def test_pitch_roll_recovery(self):
        cfg = degenerate_config(pitch_mean_deg=17.0, roll_std_deg=0.0)
        cams = synth.synth_camera(WALK, cfg.pinhole(), cfg, seed=2)
        pitch, roll = camera_pitch_roll(cams.rotations[0])
        assert abs(math.degrees(pitch) - 17.0) < 1e-9
        assert abs(math.degrees(roll)) < 1e-9

    def test_short_sequence_rejected(self):
        short = body.generate_gait("stand", 2, seed=0)
        cfg = synth.SynthConfig()
        synth.synth_camera(short, cfg.pinhole(), cfg, seed=0)  # 2 frames is fine
        one = body.generate_gait("stand", 2, seed=0)
        one.local_pose = one.local_pose[:1]
        one.root_rot = one.root_rot[:1]
        one.root_pos = one.root_pos[:1]
        one.contacts = one.contacts[:1]
        with pytest.raises(InvalidInputError):
            synth.synth_camera(one, cfg.pinhole(), cfg, seed=0)


class TestKeypointSynthesis:
    def test_clean_round_trip(self):
        cfg = degenerate_config(noise_std_px=0.0, mask_prob=0.0)
        cams = synth.synth_camera(WALK, cfg.pinhole(), cfg, seed=1)
        kps = synth.synth_keypoints(WALK, cams, cfg, seed=2)
        assert (kps.mask == 1).all()
        px = kps.to_pixels()
        world = body.world_landmarks(WALK)[:, :17]
        for t in range(WALK.num_frames):
            cam_pts = world[t] @ cams.rotations[t].T + cams.translations[t]
            want = geom.project(cams.pinhole, cam_pts)
            assert np.abs(px[t] - want).max() < 1e-9

    def test_visible_keypoints_normalized_range(self):
        cfg = synth.SynthConfig()
        cams = synth.synth_camera(WALK, cfg.pinhole(), cfg, seed=3)
        kps = synth.synth_keypoints(WALK, cams, cfg, seed=4)
        vis = kps.mask.astype(bool)
        assert np.abs(kps.keypoints[vis]).max() <= 1.0
        assert (kps.keypoints[~vis] == 0.0).all()

    def test_full_mask(self):
        cfg = synth.SynthConfig(mask_prob=1.0)
        cams = synth.synth_camera(WALK, cfg.pinhole(), synth.SynthConfig(), seed=3)
        kps = synth.synth_keypoints(WALK, cams, cfg, seed=4)
        assert (kps.mask == 0).all()
        assert (kps.keypoints == 0.0).all()
        assert kps.carried.all()

    def test_pinned_values_with_carried_frames(self):
        # Values measured once at mask_prob 0.9 and pinned as regressions.
        # Frames 0-2 carry the initial box (image center, half the image
        # width) and keep the visible points inside it; frame 4 carries
        # frame 3's box.
        cfg = synth.SynthConfig(mask_prob=0.9)
        cams = synth.synth_camera(WALK, cfg.pinhole(), cfg, seed=3)
        kps = synth.synth_keypoints(WALK, cams, cfg, seed=16)
        assert np.flatnonzero(kps.carried)[:10].tolist() == [0, 1, 2, 4, 6, 8, 9, 14, 20, 24]
        assert kps.mask.sum(axis=1)[:10].tolist() == [0, 1, 1, 4, 0, 2, 0, 2, 0, 0]
        box3 = ([0.4348832369515145, 0.45158579295934337], 0.04126166884079582)
        boxes = [([0.5, 0.5], 0.5)] * 3 + [box3, box3]
        for t, (center, scale) in enumerate(boxes):
            assert np.abs(kps.center[t] - center).max() < 1e-12
            assert abs(kps.scale[t] - scale) < 1e-12
        visible = {1: {14: [-0.2950783876183759, -0.13749972947788136]},
                   2: {1: [-0.22723819866224199, -0.2745541243682255]},
                   3: {1: [0.4666251666694323, -0.8333333333333348],
                       10: [-0.46662516666943504, 0.460230207086985],
                       13: [0.38746648833238145, 0.2798233216861117],
                       14: [-0.41372746627740803, 0.833333333333332]}}
        for t, points in visible.items():
            assert np.flatnonzero(kps.mask[t]).tolist() == sorted(points)
            for j, xy in points.items():
                assert np.abs(kps.keypoints[t, j] - xy).max() < 1e-12

    def test_mask_rate_monte_carlo(self):
        cfg = synth.SynthConfig()
        rate = []
        for seed in range(10):
            cams = synth.synth_camera(WALK, cfg.pinhole(), cfg, seed=seed)
            kps = synth.synth_keypoints(WALK, cams, cfg, seed=100 + seed)
            rate.append(1.0 - kps.mask.mean())
        rate = float(np.mean(rate))  # ~13.7k landmark-frames
        assert abs(rate - 0.15) < 0.01

    def test_determinism(self):
        cfg = synth.SynthConfig()
        cams = synth.synth_camera(WALK, cfg.pinhole(), cfg, seed=5)
        a = synth.synth_keypoints(WALK, cams, cfg, seed=6)
        b = synth.synth_keypoints(WALK, cams, cfg, seed=6)
        assert (a.keypoints == b.keypoints).all()
        assert (a.mask == b.mask).all()


class TestContactLabels:
    def test_threshold_half(self):
        assert synth.contact_probability(0.01) == 0.5

    def test_closed_form_values(self):
        assert abs(synth.contact_probability(0.0) - 0.993307) < 1e-6
        assert abs(synth.contact_probability(0.02) - 0.006693) < 1e-6

    def test_strictly_monotone(self):
        v = np.linspace(0.0, 0.05, 1000)
        p = synth.contact_probability(v)
        assert (np.diff(p) < 0.0).all()

    def test_labels_from_sequence(self):
        labels = synth.generate_contact_labels(WALK)
        assert labels.shape == (WALK.num_frames, 4)
        assert (labels > 0).all() and (labels < 1).all()
        assert (labels[0] == labels[1]).all()  # frame 0 copies frame 1
        # planted feet score near 1, swinging feet near 0
        assert labels[WALK.contacts == 1.0].min() > 0.9
        swing = labels[WALK.contacts == 0.0]
        assert np.percentile(swing, 10) < 0.1


class TestVisualFeatures:
    def test_noise_free_linear_encoding(self):
        f1 = synth.synth_visual_features(WALK, 16, 0.0, seed=1, matrix_seed=9)
        f2 = synth.synth_visual_features(WALK, 16, 0.0, seed=2, matrix_seed=9)
        assert np.allclose(f1, f2)
        # identical poses map to identical features
        stand = body.generate_gait("stand", 10, seed=0)
        fs = synth.synth_visual_features(stand, 16, 0.0, seed=3, matrix_seed=9)
        assert np.abs(fs - fs[0]).max() < 1e-12

    def test_matrix_shared_by_seed(self):
        a = synth.feature_matrix(8, seed=4)
        b = synth.feature_matrix(8, seed=4)
        c = synth.feature_matrix(8, seed=5)
        assert (a == b).all()
        assert not (a == c).all()

    def test_huge_noise_decorrelates(self):
        seq = body.generate_gait("walk", 500, seed=2)
        clean = synth.synth_visual_features(seq, 1, 0.0, seed=1, matrix_seed=3)[:, 0]
        noisy = synth.synth_visual_features(seq, 1, 1e3, seed=1, matrix_seed=3)[:, 0]
        corr = np.corrcoef(clean, noisy)[0, 1]
        assert abs(corr) < 0.1


class TestRootYawAugmentation:
    def test_yaw_rotates_world(self):
        out = synth.apply_root_yaw(WALK, np.pi / 2)
        r = geom.rot_y(np.pi / 2)
        want = body.world_landmarks(WALK) @ r.T
        assert np.abs(body.world_landmarks(out) - want).max() < 1e-9

    def test_local_pose_unchanged(self):
        out = synth.apply_root_yaw(WALK, 1.0)
        assert (out.local_pose == WALK.local_pose).all()
        assert (out.contacts == WALK.contacts).all()

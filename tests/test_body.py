import numpy as np
import pytest

from whamkit import body, geom
from whamkit.errors import InvalidInputError, SynthesisError

from tests.conftest import is_rotation

pytestmark = pytest.mark.filterwarnings("error")

# Values measured once from the generator and pinned as regressions.
WALK_81_DISPLACEMENT = 2.880

# generate_gait(kind, 60, seed=2) with bone scales exp(N(0, 0.1)) drawn at
# seed 11: left knee at frame 37, right toe at frame 52, root position at
# frame 59 and the summed contact truth. A generator change that moves them
# updates them on purpose.
PINNED_GAITS = {
    "walk": ([0.4036851533932041, -0.26185292309897906, 0.10034251291203988],
             [0.45086334193130106, -0.7995253098463314, -0.10034251291203988],
             [2.133079109032033, 0.8097399356439732, 0.0], 132.0),
    "turn": ([0.405426398272129, -0.25911634285876267, 0.09624216498000353],
             [0.43699510673148656, -0.7995253098463314, -0.13630331922175531],
             [1.8653354702982734, 0.8097399356439732, -0.8838672355229197], 132.0),
    "stairs": ([0.4736327828335586, -0.08485660511070278, 0.10034251291203988],
               [0.45086334193130106, -0.5704817192448239, -0.10034251291203988],
               [2.133079109032033, 1.1452305779813923, 0.0], 132.0),
    "stand": ([0.24696975473964078, -0.41295834735408393, 0.10034251291203988],
              [0.16163227629983903, -0.9142282335166522, -0.10034251291203988],
              [0.0, 0.9075770922532204, 0.0], 240.0),
}


class TestSkeleton:
    def test_bone_graph_is_tree(self):
        parents = {}
        for p, c in body.BONES:
            assert c not in parents, f"{c} has two parents"
            parents[c] = p
        roots = set(body.LANDMARK_NAMES) - set(parents)
        assert roots == {"left_hip"}
        # every landmark reaches the root without cycles
        for name in body.LANDMARK_NAMES:
            seen = set()
            while name in parents:
                assert name not in seen
                seen.add(name)
                name = parents[name]
            assert name == "left_hip"

    def test_rest_lengths_positive(self):
        assert (body.REST_LENGTHS > 0).all()

    def test_contact_landmarks(self):
        names = [body.LANDMARK_NAMES[i] for i in body.CONTACT_LANDMARKS]
        assert names == ["left_toe", "right_toe", "left_heel", "right_heel"]

    def test_foot_slice_picks_the_contact_landmarks(self):
        assert tuple(range(body.NUM_LANDMARKS))[body.FOOT_SLICE] == body.CONTACT_LANDMARKS

    def test_root_is_the_hip_midpoint(self):
        assert [body.LANDMARK_NAMES[i] for i in body.HIPS] == ["left_hip", "right_hip"]
        assert np.abs(body.CANONICAL[body.HIPS].mean(axis=0)).max() == 0.0


@pytest.fixture(scope="module")
def walk_long():
    return body.generate_gait("walk", 124, seed=5)


class TestWorldLandmarks:
    def test_identity_frame(self):
        seq2 = body.generate_gait("stand", 5, seed=0)
        seq2.root_rot[:] = np.eye(3)
        seq2.root_pos[:] = 0.0
        assert np.allclose(body.world_landmarks(seq2)[0], seq2.local_pose[0])

    def test_translation_only(self):
        seq2 = body.generate_gait("stand", 5, seed=0)
        seq2.root_rot[:] = np.eye(3)
        seq2.root_pos[:] = [0.0, 0.0, 5.0]
        assert np.allclose(body.world_landmarks(seq2)[2],
                           seq2.local_pose[2] + [0, 0, 5.0])

    def test_yaw_maps_axes(self):
        seq2 = body.generate_gait("stand", 5, seed=0)
        seq2.root_rot[:] = geom.rot_y(np.pi / 2)
        seq2.root_pos[:] = 0.0
        local = seq2.local_pose[0]
        world = body.world_landmarks(seq2)[0]
        # R_y(90deg) maps +x to -z
        assert np.abs(world[:, 2] + local[:, 0]).max() < 1e-9
        assert np.abs(world[:, 1] - local[:, 1]).max() < 1e-9


class TestGenerateGait:
    def test_stand_static(self):
        seq = body.generate_gait("stand", 40, seed=1)
        assert np.abs(np.diff(seq.root_pos, axis=0)).max() == 0.0
        assert (seq.contacts == 1.0).all()
        world = body.world_landmarks(seq)
        assert np.abs(np.diff(world, axis=0)).max() < 1e-6

    def test_walk_displacement_and_slide(self):
        seq = body.generate_gait("walk", 81, seed=3)
        disp = np.linalg.norm(seq.root_pos[-1] - seq.root_pos[0])
        assert disp > 0.5
        assert abs(disp - WALK_81_DISPLACEMENT) < 0.05
        world = body.world_landmarks(seq)[:, list(body.CONTACT_LANDMARKS)]
        vel = np.linalg.norm(np.diff(world, axis=0), axis=-1)
        in_contact = seq.contacts[1:] > 0.5
        assert vel[in_contact].max() < 0.002  # 0.2 cm/frame

    @pytest.mark.parametrize("kind", body.GAIT_KINDS)
    def test_contact_truth_implies_static_feet(self, kind):
        seq = body.generate_gait(kind, 100, seed=7)
        world = body.world_landmarks(seq)[:, list(body.CONTACT_LANDMARKS)]
        fwd = np.linalg.norm(world[1:] - world[:-1], axis=-1)
        full = seq.contacts == 1.0
        # both difference conventions stay still on labeled frames
        assert fwd[full[:-1]].max() < 0.002
        assert fwd[full[1:]].max() < 0.002

    @pytest.mark.parametrize("kind", body.GAIT_KINDS)
    def test_bone_lengths_exact(self, kind):
        rng = np.random.default_rng(11)
        scales = np.exp(rng.normal(0.0, 0.1, body.NUM_BONES))
        seq = body.generate_gait(kind, 60, seed=2, bone_scales=scales)
        lens = body.bone_lengths(seq.local_pose)
        assert np.abs(lens - body.REST_LENGTHS * scales).max() < 1e-6

    @pytest.mark.parametrize("kind", body.GAIT_KINDS)
    def test_pinned_values(self, kind):
        scales = np.exp(np.random.default_rng(11).normal(0.0, 0.1, body.NUM_BONES))
        seq = body.generate_gait(kind, 60, seed=2, bone_scales=scales)
        knee, toe, root, contact_sum = PINNED_GAITS[kind]
        assert np.abs(seq.local_pose[37, body.L["left_knee"]] - knee).max() < 1e-12
        assert np.abs(seq.local_pose[52, body.L["right_toe"]] - toe).max() < 1e-12
        assert np.abs(seq.root_pos[59] - root).max() < 1e-12
        assert seq.contacts.sum() == contact_sum

    @pytest.mark.parametrize("scales, message", [
        # A right thigh three times too long fails the right leg at frame 0.
        (np.where(np.arange(body.NUM_BONES) == body.BONE_INDEX[("right_hip", "right_knee")],
                  3.0, 1.0), "|hip-ankle|=0.7704, segments 1.2600+0.4300"),
        # These scales first fail past frame 1 (a 2-frame gait succeeds).
        (np.exp(np.random.default_rng(12).normal(0.0, 0.3, body.NUM_BONES)),
         "|hip-ankle|=0.6493, segments 0.2925+0.3563"),
    ])
    def test_unreachable_leg_reports_the_first_failure(self, scales, message):
        with pytest.raises(SynthesisError) as err:
            body.generate_gait("walk", 60, seed=12, bone_scales=scales)
        assert str(err.value) == "leg target unreachable: " + message

    def test_stairs_monotone_rise(self):
        seq = body.generate_gait("stairs", 150, seed=4)
        dy = np.diff(seq.root_pos[:, 1])
        assert (dy >= -1e-12).all()
        assert seq.root_pos[-1, 1] - seq.root_pos[0, 1] > 0.5

    def test_determinism(self):
        a = body.generate_gait("walk", 81, seed=9)
        b = body.generate_gait("walk", 81, seed=9)
        for field in ("local_pose", "root_rot", "root_pos", "contacts"):
            assert (getattr(a, field) == getattr(b, field)).all()

    def test_seed_changes_output(self):
        a = body.generate_gait("walk", 81, seed=1)
        b = body.generate_gait("walk", 81, seed=2)
        assert not (a.local_pose == b.local_pose).all()

    def test_too_short_rejected(self):
        with pytest.raises(InvalidInputError):
            body.generate_gait("walk", 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            body.generate_gait("moonwalk", 10)

    def test_validate_passes(self):
        for kind in body.GAIT_KINDS:
            body.generate_gait(kind, 20, seed=5).validate()


class TestResampleSpeed:
    def test_identity_factor(self, walk_long):
        seq = walk_long
        out = body.resample_speed(seq, 1.0)
        assert (out.local_pose == seq.local_pose).all()
        assert (out.contacts == seq.contacts).all()
        assert (body.world_landmarks(out) == body.world_landmarks(seq)).all()

    def test_half_speed(self, walk_long):
        seq = walk_long
        out = body.resample_speed(seq, 0.5)
        assert out.num_frames == round(seq.num_frames / 0.5)
        v_src = np.linalg.norm(seq.root_pos[-1] - seq.root_pos[0]) / (seq.num_frames - 1)
        v_out = np.linalg.norm(out.root_pos[-1] - out.root_pos[0]) / (out.num_frames - 1)
        assert abs(v_out / v_src - 0.5) < 0.01

    def test_faster_length(self, walk_long):
        seq = walk_long
        out = body.resample_speed(seq, 1.5)
        assert out.num_frames == round(seq.num_frames / 1.5)

    def test_rotations_stay_valid(self, walk_long):
        seq = walk_long
        out = body.resample_speed(seq, 1.23)
        for r in out.root_rot[::11]:
            assert is_rotation(r, tol=1e-9)

    def test_contacts_recomputed_soft(self, walk_long):
        seq = walk_long
        out = body.resample_speed(seq, 0.8)
        assert out.contacts.min() > 0.0
        assert out.contacts.max() < 1.0
        # slow feet keep high contact probability
        assert out.contacts.max() > 0.9

    def test_out_of_range_factor(self, walk_long):
        seq = walk_long
        for bad in (0.49, 1.51, 0.0, -1.0):
            with pytest.raises(InvalidInputError):
                body.resample_speed(seq, bad)

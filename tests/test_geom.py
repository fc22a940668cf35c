import numpy as np
import pytest

from whamkit import geom, rotops
from whamkit.autodiff import Tensor
from whamkit.errors import BehindCameraError, InvalidInputError

from tests.conftest import is_rotation, kabsch_cases, kabsch_reference

pytestmark = pytest.mark.filterwarnings("error")


def quat_from_rotation(r):
    """Independent rotation-to-quaternion oracle (Shepperd's method)."""
    m = np.asarray(r)
    t = np.trace(m)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2
        q = np.array([0.25 * s, (m[2, 1] - m[1, 2]) / s,
                      (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(m[i, i] - m[j, j] - m[k, k] + 1.0, 0.0)) * 2
        q = np.zeros(4)
        q[0] = (m[k, j] - m[j, k]) / s
        q[i + 1] = 0.25 * s
        q[j + 1] = (m[j, i] + m[i, j]) / s
        q[k + 1] = (m[k, i] + m[i, k]) / s
    return q / np.linalg.norm(q)


def axis_angle_from_quat(q):
    w = np.clip(abs(q[0]), 0.0, 1.0)
    angle = 2.0 * np.arccos(w)
    v = q[1:] * (1.0 if q[0] >= 0 else -1.0)
    n = np.linalg.norm(v)
    if n < 1e-12:
        return np.zeros(3)
    return v / n * angle


class TestExpLog:
    def test_exp_zero_is_identity(self):
        assert np.allclose(geom.exp_so3([0.0, 0.0, 0.0]), np.eye(3), atol=0)

    def test_exp_quarter_yaw(self):
        want = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.abs(geom.exp_so3([0, 0, np.pi / 2]) - want).max() < 1e-12

    def test_log_identity(self):
        assert np.allclose(geom.log_so3(np.eye(3)), 0.0)

    def test_log_quarter_yaw(self):
        r = geom.exp_so3([0, 0, np.pi / 2])
        assert np.abs(geom.log_so3(r) - [0, 0, np.pi / 2]).max() < 1e-12

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            v = axis * rng.uniform(0.0, np.pi - 1e-3)
            assert np.abs(geom.log_so3(geom.exp_so3(v)) - v).max() < 1e-9

    def test_log_near_pi_matches_quaternion_oracle(self):
        r = geom.exp_so3([np.pi, 0.0, 0.0])
        got = geom.log_so3(r)
        assert abs(np.linalg.norm(got) - np.pi) < 1e-7
        rng = np.random.default_rng(1)
        for _ in range(100):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            v = axis * rng.uniform(np.pi - 0.05, np.pi - 1e-9)
            r = geom.exp_so3(v)
            got = geom.log_so3(r)
            want = axis_angle_from_quat(quat_from_rotation(r))
            err = min(np.abs(got - want).max(), np.abs(got + want).max())
            assert err < 1e-7

    def test_valid_rotations(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            r = geom.exp_so3(rng.normal(size=3))
            assert is_rotation(r, tol=1e-9)


def mixed_axis_angles():
    """Axis-angle vectors mixing the zero rotation, small angles (series
    branches), angles within 1e-4 of pi (log_so3's near-pi branch) and
    ordinary rotations."""
    rng = np.random.default_rng(21)
    axes = rng.normal(size=(12, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.array([0.0, 1e-12, 3e-9, 0.3, np.pi - 1e-6, 1.0, np.pi - 5e-5,
                       2.0, np.pi, 2.9, 1e-7, 3.1])
    return axes * angles[:, None]


class TestBatchedSO3:
    def test_slerp_at_zero_returns_start_exactly(self):
        rots = geom.exp_so3(mixed_axis_angles())
        assert np.array_equal(geom.slerp(rots[:-1], rots[1:], 0.0), rots[:-1])
        for a, b in zip(rots[:-1], rots[1:]):
            assert np.array_equal(geom.slerp(a, b, 0.0), a)

    def test_exp_hat_log_equal_per_item_calls(self):
        v = mixed_axis_angles()
        rots = geom.exp_so3(v)
        assert np.array_equal(rots, np.stack([geom.exp_so3(x) for x in v]))
        assert np.array_equal(geom.hat(v), np.stack([geom.hat(x) for x in v]))
        logs = geom.log_so3(rots)
        assert np.array_equal(logs, np.stack([geom.log_so3(r) for r in rots]))
        assert np.array_equal(geom.exp_so3(v.reshape(3, 4, 3)), rots.reshape(3, 4, 3, 3))
        assert np.array_equal(geom.log_so3(rots.reshape(3, 4, 3, 3)), logs.reshape(3, 4, 3))

    def test_slerp_equals_per_item_calls(self):
        rots = geom.exp_so3(mixed_axis_angles())
        u = np.linspace(0.0, 1.0, len(rots) - 1)
        want = np.stack([geom.slerp(a, b, w) for a, b, w in zip(rots[:-1], rots[1:], u)])
        assert np.array_equal(geom.slerp(rots[:-1], rots[1:], u), want)
        # One pair broadcast over many fractions.
        want = np.stack([geom.slerp(rots[3], rots[5], w) for w in u])
        assert np.array_equal(geom.slerp(rots[3], rots[5], u), want)

    @pytest.mark.parametrize("rot", [geom.rot_x, geom.rot_y, geom.rot_z])
    def test_axis_rotations_equal_per_item_calls(self, rot):
        angles = np.array([0.0, -1e-9, 0.4, -2.5, np.pi, 7.0])
        want = np.stack([rot(float(a)) for a in angles])
        assert np.array_equal(rot(angles), want)
        assert np.array_equal(rot(angles.reshape(2, 3)), want.reshape(2, 3, 3, 3))
        for r in want:
            assert is_rotation(r, tol=1e-12)

    def test_single_values_keep_their_shapes(self):
        r = geom.exp_so3([0.1, -0.2, 0.3])
        assert r.shape == (3, 3) and geom.hat([1.0, 2.0, 3.0]).shape == (3, 3)
        assert geom.log_so3(r).shape == (3,)
        assert geom.log_so3(geom.exp_so3([np.pi, 0.0, 0.0])).shape == (3,)
        assert geom.slerp(r, np.eye(3), 0.5).shape == (3, 3)
        for rot in (geom.rot_x, geom.rot_y, geom.rot_z):
            assert rot(0.3).shape == (3, 3)


class TestRotation6D:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        r = np.stack([geom.exp_so3(rng.normal(size=3)) for _ in range(50)])
        back = rotops.rotation6d_to_matrix(rotops.matrix_to_6d(Tensor(r))).data
        assert np.abs(back - r).max() < 1e-12

    def test_gram_schmidt_always_valid(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(100, 6))
        rs = rotops.rotation6d_to_matrix(Tensor(v)).data
        for r in rs:
            assert is_rotation(r, tol=1e-9)
            assert np.linalg.det(r) > 0


class TestKabsch:
    def test_exact_recovery(self):
        rng = np.random.default_rng(5)
        src = rng.normal(size=(10, 3))
        r = geom.exp_so3([0, 0, np.pi / 2])
        tgt = src @ r.T + [1.0, 2.0, 3.0]
        tf, scale = geom.kabsch_align(src, tgt)
        assert scale == 1.0
        assert np.abs(tf.apply(src) - tgt).max() < 1e-9

    def test_identity_on_self(self):
        rng = np.random.default_rng(6)
        src = rng.normal(size=(7, 3))
        tf, _ = geom.kabsch_align(src, src)
        assert np.abs(tf.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(tf.translation).max() < 1e-9

    def test_scale_recovery(self):
        rng = np.random.default_rng(7)
        src = rng.normal(size=(12, 3))
        r = geom.exp_so3(rng.normal(size=3))
        tgt = 1.3 * (src @ r.T) + [0.5, -0.2, 0.1]
        tf, s = geom.kabsch_align(src, tgt, with_scale=True)
        assert abs(s - 1.3) < 1e-9
        assert np.abs(s * (src @ tf.rotation.T) + tf.translation - tgt).max() < 1e-9

    def test_planar_yaw_matches_grid_search(self):
        rng = np.random.default_rng(8)
        src = np.array([[1.0, 0, 0], [0, 0, 1.0], [-1.0, 0, 0], [0, 0, -1.0]])
        true_yaw = 0.81
        tgt = src @ geom.rot_y(true_yaw).T + rng.normal(0, 0.01, size=(4, 3))

        def residual(yaw):
            moved = src @ geom.rot_y(yaw).T
            moved = moved - moved.mean(0) + tgt.mean(0)
            return ((moved - tgt) ** 2).sum()

        grid = np.arange(0.0, 2 * np.pi, 1e-4)
        best = grid[np.argmin([residual(y) for y in grid])]
        tf, _ = geom.kabsch_align(src, tgt)
        got_yaw = np.arctan2(tf.rotation[0, 2], tf.rotation[0, 0])
        assert abs((got_yaw - best + np.pi) % (2 * np.pi) - np.pi) < 2e-4

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            geom.kabsch_align(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_optimality_vs_random_transforms(self):
        rng = np.random.default_rng(9)
        src = rng.normal(size=(8, 3))
        tgt = src @ geom.exp_so3(rng.normal(size=3)).T + rng.normal(0, 0.3, size=(8, 3))
        tf, _ = geom.kabsch_align(src, tgt)
        best = ((tf.apply(src) - tgt) ** 2).sum()
        for _ in range(1000):
            r = geom.exp_so3(rng.normal(size=3) * rng.uniform(0, np.pi))
            moved = src @ r.T
            moved = moved - moved.mean(0) + tgt.mean(0)  # optimal translation
            assert best <= ((moved - tgt) ** 2).sum() + 1e-12

    def test_source_rigid_invariance(self):
        rng = np.random.default_rng(10)
        src = rng.normal(size=(9, 3))
        tgt = rng.normal(size=(9, 3))
        tf, _ = geom.kabsch_align(src, tgt)
        base = ((tf.apply(src) - tgt) ** 2).sum()
        for _ in range(20):
            g = geom.RigidTransform(geom.exp_so3(rng.normal(size=3)), rng.normal(size=3))
            moved = g.apply(src)
            tf2, _ = geom.kabsch_align(moved, tgt)
            res = ((tf2.apply(moved) - tgt) ** 2).sum()
            assert abs(res - base) < 1e-9

    def test_degenerate_deterministic(self):
        src = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        tgt = np.array([[0.0, 0, 0], [0.0, 1.0, 0]])
        tf1, _ = geom.kabsch_align(src, tgt)
        tf2, _ = geom.kabsch_align(src, tgt)
        assert (tf1.rotation == tf2.rotation).all()
        assert is_rotation(tf1.rotation, tol=1e-9)


class TestKabschBatched:
    @pytest.mark.parametrize("with_scale", [False, True])
    def test_stack_matches_per_frame_reference(self, with_scale):
        cases = kabsch_cases(np.random.default_rng(21))
        src = np.stack([c[0] for c in cases.values()])
        tgt = np.stack([c[1] for c in cases.values()])
        tf, scale = geom.kabsch_align(src, tgt, with_scale=with_scale)
        assert tf.rotation.shape == (len(cases), 3, 3)
        assert tf.translation.shape == (len(cases), 3) and scale.shape == (len(cases),)
        applied = tf.apply(src)
        for k, name in enumerate(cases):
            rot, t, s = kabsch_reference(src[k], tgt[k], with_scale=with_scale)
            assert np.abs(tf.rotation[k] - rot).max() < 1e-12, name
            assert np.abs(tf.translation[k] - t).max() < 1e-12, name
            assert abs(scale[k] - s) < 1e-12, name
            assert np.abs(applied[k] - (src[k] @ rot.T + t)).max() < 1e-12, name
            assert is_rotation(tf.rotation[k], tol=1e-9), name
        if with_scale:
            assert scale[list(cases).index("all_equal")] == 1.0

    @pytest.mark.parametrize("with_scale", [False, True])
    def test_single_point_stack(self, with_scale):
        rng = np.random.default_rng(22)
        src, tgt = rng.normal(size=(5, 1, 3)), rng.normal(size=(5, 1, 3))
        tf, scale = geom.kabsch_align(src, tgt, with_scale=with_scale)
        for k in range(5):
            rot, t, s = kabsch_reference(src[k], tgt[k], with_scale=with_scale)
            assert np.abs(tf.rotation[k] - rot).max() < 1e-12
            assert np.abs(tf.translation[k] - t).max() < 1e-12
            assert scale[k] == s == 1.0
        assert np.abs(tf.apply(src) - tgt).max() < 1e-12

    def test_leading_axes_are_independent(self):
        cases = kabsch_cases(np.random.default_rng(23))
        src = np.stack([c[0] for c in cases.values()])[:6]
        tgt = np.stack([c[1] for c in cases.values()])[:6]
        flat, flat_scale = geom.kabsch_align(src, tgt, with_scale=True)
        grid, grid_scale = geom.kabsch_align(src.reshape(2, 3, -1, 3), tgt.reshape(2, 3, -1, 3),
                                             with_scale=True)
        assert np.abs(grid.rotation.reshape(6, 3, 3) - flat.rotation).max() < 1e-12
        assert np.abs(grid.translation.reshape(6, 3) - flat.translation).max() < 1e-12
        assert np.abs(grid_scale.reshape(6) - flat_scale).max() < 1e-12

    @pytest.mark.parametrize("with_scale", [False, True])
    def test_single_set_is_bit_identical_to_reference(self, with_scale):
        rng = np.random.default_rng(24)
        cases = kabsch_cases(rng)
        cases["one_point"] = (rng.normal(size=(1, 3)), rng.normal(size=(1, 3)))
        cases["two_points"] = (np.array([[0.0, 0, 0], [1.0, 0, 0]]),
                               np.array([[0.0, 0, 0], [0.0, 1.0, 0]]))
        for name, (src, tgt) in cases.items():
            tf, scale = geom.kabsch_align(src, tgt, with_scale=with_scale)
            rot, t, s = kabsch_reference(src, tgt, with_scale=with_scale)
            assert tf.rotation.tobytes() == rot.tobytes(), name
            assert tf.translation.tobytes() == t.tobytes(), name
            assert isinstance(scale, float) and scale == s, name
            assert tf.apply(src).tobytes() == (src @ rot.T + t).tobytes(), name

    @pytest.mark.parametrize("shape", [(3,), (4, 2), (2, 0, 3)])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(InvalidInputError):
            geom.kabsch_align(np.zeros(shape), np.zeros(shape))


class TestProject:
    def test_principal_point(self):
        ph = geom.Pinhole(f=500, w=1000, h=1000)
        assert np.allclose(geom.project(ph, [[0, 0, 5.0]]), [[500, 500]])

    def test_offset_point(self):
        ph = geom.Pinhole(f=500, w=1000, h=1000)
        assert np.allclose(geom.project(ph, [[1.0, 0, 5.0]]), [[600, 500]])

    def test_behind_camera_error(self):
        ph = geom.Pinhole(f=500, w=1000, h=1000)
        with pytest.raises(BehindCameraError) as err:
            geom.project(ph, [[0, 0, 5.0], [0, 0, 0.0]])
        assert err.value.landmark_indices == [1]

    def test_focal_scale_covariance(self):
        rng = np.random.default_rng(13)
        pts = np.column_stack([rng.normal(size=(20, 2)), rng.uniform(2, 8, 20)])
        p1 = geom.project(geom.Pinhole(f=400, w=1000, h=800), pts)
        p2 = geom.project(geom.Pinhole(f=800, w=1000, h=800), pts)
        off1 = p1 - [500, 400]
        off2 = p2 - [500, 400]
        assert np.abs(off2 - 2.0 * off1).max() < 1e-9


class TestAngularVelocity:
    def test_static(self):
        rots = np.broadcast_to(np.eye(3), (5, 3, 3)).copy()
        assert np.abs(geom.angular_velocity(rots)).max() == 0.0

    def test_constant_yaw_rate(self):
        step = np.pi / 180.0
        rots = np.stack([geom.rot_z(step * t) for t in range(10)])
        om = geom.angular_velocity(rots)
        assert np.abs(om - [0, 0, step]).max() < 1e-9

    def test_integration_round_trip(self):
        rng = np.random.default_rng(14)
        rots = [geom.exp_so3(rng.normal(size=3))]
        for _ in range(60):
            rots.append(rots[-1] @ geom.exp_so3(rng.normal(0, 0.05, size=3)))
        rots = np.stack(rots)
        om = geom.angular_velocity(rots)
        cur = rots[0]
        for t in range(1, len(rots)):
            cur = cur @ geom.exp_so3(om[t])
        assert np.abs(cur - rots[-1]).max() < 1e-6

    def test_single_frame_rejected(self):
        with pytest.raises(InvalidInputError):
            geom.angular_velocity(np.eye(3)[None])

import warnings

import numpy as np
import pytest

import whamkit.autodiff as ad
import whamkit.rotops as rotops
from whamkit import geom

from tests.conftest import arccos, check, concat, cumsum, sin, sqrt, square, stack, where
from tests.test_kernels import (KERNELS, check_nodes, check_reference, six_d_cases,
                                so3_cases)


def leaf(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return ad.Tensor(rng.normal(0, scale, size=shape), requires_grad=True)


# sin, square, sqrt, arccos and cumsum are the reference ops of tests/conftest.py.
UNARY = [ad.exp, ad.sigmoid, ad.relu, sin, square, ad.softplus, cumsum]
# Elementwise ops checked against finite differences by a test of their own:
# the binary ones on broadcast operands, sqrt and arccos inside their domain.
OWN_TEST = {ad.add: "test_binary_broadcast", ad.sub: "test_binary_broadcast",
            ad.mul: "test_binary_broadcast", ad.div: "test_binary_broadcast",
            sqrt: "test_sqrt_positive", arccos: "test_arccos_interior"}


class TestElementwiseOps:
    @pytest.mark.parametrize("op", UNARY)
    def test_unary(self, op):
        x = leaf((4, 5), 0, 0.8)
        check(lambda: ad.tsum(op(x)), [x])

    def test_sigmoid_softplus_saturate_without_warnings(self):
        x = ad.Tensor(np.array([-1000.0, -50.0, 0.0, 50.0, 1000.0]), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = ad.sigmoid(x)
            sp = ad.softplus(x)
            ad.tsum(sp).backward()
        assert 0.0 <= s.data[0] < 1e-300 and s.data[-1] == 1.0 and s.data[2] == 0.5
        assert sp.data[0] == 0.0 and sp.data[-1] == 1000.0
        assert sp.data[3] == pytest.approx(50.0, abs=1e-15)
        assert x.grad == pytest.approx(s.data, abs=1e-15)

    def test_sqrt_positive(self):
        x = ad.Tensor(np.random.default_rng(1).uniform(0.5, 2.0, (3, 4)), requires_grad=True)
        check(lambda: ad.tsum(sqrt(x)), [x])

    def test_arccos_interior(self):
        x = ad.Tensor(np.random.default_rng(2).uniform(-0.8, 0.8, (3, 4)), requires_grad=True)
        check(lambda: ad.tsum(arccos(x)), [x])

    def test_binary_broadcast(self):
        a = leaf((4, 5), 3)
        b = leaf((5,), 4)
        c = leaf((4, 1), 5)
        check(lambda: ad.tsum(a * b + a / (square(c) + 2.0) - b), [a, b, c])

    def test_every_constructed_op_has_a_gradient_test(self):
        built = [op for op in vars(ad).values()
                 if getattr(op, "__qualname__", "").startswith(("_unary.", "_binary."))]
        assert built
        assert all(hasattr(self, name) for name in OWN_TEST.values())
        uncovered = [op.__name__ for op in built if op not in UNARY and op not in OWN_TEST]
        assert not uncovered, f"no finite-difference gradient test: {uncovered}"

    def test_clip_gradient_masks(self):
        x = ad.Tensor(np.array([[-2.0, 0.5, 3.0]]), requires_grad=True)
        y = ad.tsum(ad.clip(x, -1.0, 1.0))
        y.backward()
        assert (x.grad == [[0.0, 1.0, 0.0]]).all()

    def test_where_selects(self):
        a = leaf((6,), 6)
        b = leaf((6,), 7)
        cond = np.array([True, False, True, True, False, False])
        check(lambda: ad.tsum(square(where(cond, a, b))), [a, b])

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
    def test_binary_constant_operand_gets_no_gradient(self, op):
        x = leaf((4, 5), 24)
        c = ad.Tensor(np.random.default_rng(25).uniform(1.0, 2.0, size=(5,)))
        g = np.ones((4, 5))
        gx, gc = op(x, c)._bw(g)
        assert gc is None and gx.shape == (4, 5)
        gc, gx = op(c, x)._bw(g)
        assert gc is None and gx.shape == (4, 5)


class TestMatmul:
    def test_2d(self):
        a, b = leaf((3, 4), 8), leaf((4, 2), 9)
        check(lambda: ad.tsum(square(ad.matmul(a, b))), [a, b])

    def test_batched(self):
        a, b = leaf((5, 3, 4), 10), leaf((5, 4, 2), 11)
        check(lambda: ad.tsum(square(ad.matmul(a, b))), [a, b])

    def test_broadcast_batch_times_2d(self):
        a, b = leaf((5, 3, 4), 12), leaf((4, 2), 13)
        check(lambda: ad.tsum(square(ad.matmul(a, b))), [a, b])

    def test_vector_rejected(self):
        with pytest.raises(ValueError):
            ad.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 2))))


class TestShapeOps:
    def test_reshape_getitem_concat_stack(self):
        a = leaf((4, 6), 14)

        def fn():
            x = ad.reshape(a, (2, 2, 6))
            top = x[0]
            rest = x[1, :, 0:3]
            joined = concat([top, concat([rest, rest], axis=1)], axis=0)
            piled = stack([joined, joined * 2.0], axis=0)
            return ad.tsum(square(piled))

        check(fn, [a])

    def test_gather_repeated_index_accumulates(self):
        a = ad.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        ad.tsum(a[[0, 0, 2]]).backward()
        np.testing.assert_array_equal(a.grad, [2.0, 0.0, 1.0])

        b = leaf((2, 3, 3), 16)
        check(lambda: ad.tsum(square(b[..., [0, 2, 0, 1], [1, 1, 1, 0]])), [b])
        check(lambda: ad.tsum(square(b[:, [2, 2, 0], :] * b[..., [0, 0, 1]])), [b])

    def test_swap_last(self):
        a = leaf((3, 4, 5), 15)
        check(lambda: ad.tsum(square(ad.matmul(ad.swap_last(a), a))), [a])

    def test_reductions(self):
        a = leaf((3, 4, 5), 16)
        check(lambda: ad.tmean(a) + ad.tsum(square(ad.tmean(a, axis=1)))
              + ad.tsum(ad.tsum(a, axis=(0,), keepdims=True)), [a])

    def test_reused_node_accumulates(self):
        a = leaf((3, 3), 17)

        def fn():
            y = ad.sigmoid(a)
            return ad.tsum(y * y + y)

        check(fn, [a])


class TestEngine:
    def test_backward_needs_scalar(self):
        a = leaf((2, 2), 18)
        with pytest.raises(ValueError):
            (a * 2.0).backward()

    def test_no_grad_builds_no_tape(self):
        a = leaf((2, 2), 19)
        with ad.no_grad():
            out = ad.tsum(ad.sigmoid(a) * a)
        assert out._bw is None and not out.requires_grad

    def test_constants_carry_no_grad(self):
        a = ad.Tensor(np.ones((2, 2)))
        out = ad.tsum(a * 3.0)
        assert not out.requires_grad

    def test_grad_accumulates_across_uses(self):
        a = ad.Tensor(np.array([[2.0]]), requires_grad=True)
        y = a * a  # dy/da = 2a via two parents
        ad.tsum(y).backward()
        assert a.grad.item() == pytest.approx(4.0)

    def test_backward_frees_the_tape(self):
        a, b = leaf((3, 4), 20), leaf((4,), 21)
        s = ad.sigmoid(a)
        m = s * b
        loss = ad.tsum(m)
        loss.backward()
        assert a.grad.shape == (3, 4) and b.grad.shape == (4,)
        for node in (s, m, loss):
            assert node.grad is None and node._parents == ()

    def test_second_backward_raises(self):
        a = leaf((2, 2), 22)
        loss = ad.tsum(ad.exp(a))
        loss.backward()
        first = a.grad.copy()
        with pytest.raises(ValueError, match="already ran"):
            loss.backward()
        assert (a.grad == first).all()

    def test_loss_sharing_a_consumed_subgraph_raises(self):
        a = leaf((2, 2), 23)
        shared = sin(a)
        ad.tsum(shared).backward()
        with pytest.raises(ValueError, match="already ran"):
            ad.tmean(shared * 2.0).backward()


class TestRotops:
    def test_rotation6d_matches_numpy(self):
        rng = np.random.default_rng(20)
        v = rng.normal(size=(10, 6))
        got = rotops.rotation6d_to_matrix(ad.Tensor(v)).data
        # Gram-Schmidt of the two column hints is the Q factor of their QR
        # decomposition with R's diagonal made positive.
        q, r = np.linalg.qr(np.stack([v[:, :3], v[:, 3:]], axis=-1))
        q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
        want = np.concatenate([q, np.cross(q[..., 0], q[..., 1])[..., None]], axis=-1)
        assert np.abs(got - want).max() < 1e-12

    def test_rotation6d_identity_bit_exact(self):
        got = rotops.rotation6d_to_matrix(ad.Tensor(rotops.IDENTITY_6D[None])).data[0]
        assert (got == np.eye(3)).all()

    def test_rotation6d_gradient(self):
        v = leaf((4, 6), 21)
        check(lambda: ad.tsum(square(rotops.rotation6d_to_matrix(v))), [v], tol=1e-5)

    def test_so3_log_matches_numpy(self):
        rng = np.random.default_rng(22)
        rots = np.stack([geom.exp_so3(rng.normal(0, 0.7, 3)) for _ in range(20)])
        got = rotops.so3_log(ad.Tensor(rots)).data
        want = np.stack([geom.log_so3(r) for r in rots])
        assert np.abs(got - want).max() < 1e-9

    def test_so3_log_gradient_including_near_identity(self):
        rng = np.random.default_rng(23)
        v6 = np.concatenate([
            rotops.IDENTITY_6D + rng.normal(0, 0.3, size=(4, 6)),
            rotops.IDENTITY_6D + rng.normal(0, 1e-5, size=(2, 6)),  # near identity
        ])
        x = ad.Tensor(v6, requires_grad=True)

        def fn():
            r = rotops.rotation6d_to_matrix(x)
            return ad.tsum(square(rotops.so3_log(r)))

        check(fn, [x], tol=2e-5)

    def test_matrix_to_6d_round_trip(self):
        rng = np.random.default_rng(24)
        rots = np.stack([geom.exp_so3(rng.normal(size=3)) for _ in range(6)])
        v = rotops.matrix_to_6d(ad.Tensor(rots))
        back = rotops.rotation6d_to_matrix(v).data
        assert np.abs(back - rots).max() < 1e-12


class TestFusedRotops:
    """The clip, zero-column and branch cases of the two rotation kernels;
    their reference and node-count tests run the checks of
    tests/test_kernels.py on these cases."""

    @pytest.mark.parametrize("case", list(six_d_cases()))
    def test_rotation6d_matches_composed_reference(self, case):
        row = KERNELS["rotops.rotation6d_to_matrix"]
        check_reference(row, row.cases[case])

    @pytest.mark.parametrize("case", list(so3_cases()))
    def test_so3_log_matches_composed_reference(self, case):
        row = KERNELS["rotops.so3_log"]
        check_reference(row, row.cases[case])

    def test_so3_log_cases_reach_both_branches_and_the_clamp(self):
        cases = so3_cases()
        cos = lambda r: (np.trace(r, axis1=-2, axis2=-1) - 1.0) * 0.5
        assert (1.0 - cos(cases["small_angle"]) < 1e-6).all()
        assert (cos(cases["near_pi"]) <= -1.0 + 1e-7).any()
        assert (cos(cases["near_pi"]) > -1.0 + 1e-7).any()

    def test_rotation6d_clip_case_is_clipped(self):
        a1 = six_d_cases()["a1_clipped"][:4, :3]
        assert (np.linalg.norm(a1, axis=-1) < 1e-12).all()

    def test_rotation6d_zero_column_hint_has_a_finite_gradient(self):
        """At an exactly zero a1 the clip holds the norm at 1e-12; the
        composed chain's sqrt backward divided 0 by 0 there."""
        v = ad.Tensor(np.array([[0.0, 0.0, 0.0, 0.0, 1.0, 0.0]]), requires_grad=True)
        out = rotops.rotation6d_to_matrix(v)
        ad.tsum(out * ad.Tensor(np.arange(9.0).reshape(1, 3, 3))).backward()
        assert np.isfinite(v.grad).all()
        np.testing.assert_array_equal(v.grad[0, :3], np.array([8.0, 3.0, 4.0]) / 1e-12)

    @pytest.mark.parametrize("fn, shape", [(rotops.rotation6d_to_matrix, (5, 2, 6)),
                                           (rotops.so3_log, (5, 2, 3, 3))])
    def test_one_tape_node_per_call(self, fn, shape):
        row = KERNELS[f"rotops.{fn.__name__}"]
        check_nodes(row, row.cases["tbd"])

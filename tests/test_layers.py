import numpy as np
import pytest

import whamkit.autodiff as ad
from whamkit.errors import InvalidInputError, NumericError
from whamkit.layers import Dense, DenseStack, GruLayer, ParamSet

from tests.conftest import square, stack
from tests.test_kernels import (KERNELS, check_finite, check_gradient, check_nodes,
                                check_reference, dense, dense_stack, gru, value_and_grads)

DENSE, STACK = (KERNELS[f"layers.{name}"] for name in ("Dense.__call__", "DenseStack.__call__"))


def make_gru(in_dim=2, hidden=3, seed=0):
    params = ParamSet()
    layer = GruLayer(params, "gru", in_dim, hidden, np.random.default_rng(seed))
    return params, layer


def tanh(a):
    """A tanh tape node; the package applies tanh only inside GruLayer.sequence."""
    out = np.tanh(a.data)
    return ad._node(out, (a,), lambda g: (g * (1.0 - out * out),))


def gate_blocks(weight, in_dim):
    """W, U and b of gates z, r and h, in that order, as slices of a
    GruLayer's (3, D + H + 1, H) weight (a Tensor or an array)."""
    return [weight[g, rows] for g in range(3)
            for rows in (slice(0, in_dim), slice(in_dim, -1), -1)]


def composed_step(weight, x, h_prev):
    """The cell equations on a GruLayer's weight, composed from autodiff
    ops, one tape node per op and one getitem node per gate block: the
    reference for GruLayer.sequence and its backward pass."""
    w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h = gate_blocks(weight, x.shape[-1])
    z = ad.sigmoid(ad.matmul(x, w_z) + ad.matmul(h_prev, u_z) + b_z)
    r = ad.sigmoid(ad.matmul(x, w_r) + ad.matmul(h_prev, u_r) + b_r)
    hc = tanh(ad.matmul(x, w_h) + ad.matmul(ad.mul(r, h_prev), u_h) + b_h)
    return (1.0 - z) * h_prev + z * hc


def step(layer, x, h_prev):
    return layer.step(ad.Tensor(x), ad.Tensor(h_prev))


def scalar_gru_reference(params, prefix, x, h):
    """Independent scalar evaluation of the cell equations."""
    get = dict(zip([f"{k}_{g}" for g in "zrh" for k in "wub"],
                   gate_blocks(params[f"{prefix}.weight"].data, len(x)))).__getitem__

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    hid = get("u_z").shape[0]
    z = np.zeros(hid)
    r = np.zeros(hid)
    hc = np.zeros(hid)
    for j in range(hid):
        az = ar = ah = 0.0
        for i in range(len(x)):
            az += x[i] * get("w_z")[i, j]
            ar += x[i] * get("w_r")[i, j]
        for i in range(hid):
            az += h[i] * get("u_z")[i, j]
            ar += h[i] * get("u_r")[i, j]
        z[j] = sig(az + get("b_z")[j])
        r[j] = sig(ar + get("b_r")[j])
    for j in range(hid):
        ah = 0.0
        for i in range(len(x)):
            ah += x[i] * get("w_h")[i, j]
        for i in range(hid):
            ah += (r[i] * h[i]) * get("u_h")[i, j]
        hc[j] = np.tanh(ah + get("b_h")[j])
    return (1.0 - z) * h + z * hc


class TestGru:
    def test_zero_weights_halve_hidden(self):
        params, layer = make_gru()
        params.set_flat(np.zeros(params.size))
        h_prev = np.array([[0.4, -0.6, 1.0]])
        out = step(layer, np.zeros((1, 2)), h_prev)
        assert np.abs(out.data - 0.5 * h_prev).max() < 1e-15

    def test_zero_hidden_zero_weights(self):
        params, layer = make_gru()
        params.set_flat(np.zeros(params.size))
        out = step(layer, np.ones((1, 2)), np.zeros((1, 3)))
        assert (out.data == 0.0).all()

    def test_matches_scalar_reference(self):
        params, layer = make_gru(seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=2)
        h = rng.normal(size=3)
        got = step(layer, x[None], h[None]).data[0]
        want = scalar_gru_reference(params, "gru", x, h)
        assert np.abs(got - want).max() < 1e-12

    def test_one_gate_major_parameter(self):
        params, layer = make_gru(in_dim=2, hidden=3)
        assert list(params.slices()) == ["gru.weight"] and layer.weight.shape == (3, 6, 3)

    def test_dim_mismatch(self):
        _, layer = make_gru()
        with pytest.raises(InvalidInputError):
            step(layer, np.zeros((1, 5)), np.zeros((1, 3)))

    def test_nan_guard_names_layer(self):
        params, layer = make_gru()
        params["gru.weight"].data[0, 0, 0] = np.nan     # W_z[0, 0]
        with pytest.raises(NumericError, match="gru"):
            step(layer, np.ones((1, 2)), np.zeros((1, 3)))
        with pytest.raises(NumericError, match="gru"):
            layer.sequence(ad.Tensor(np.ones((4, 2, 2))))


class TestGruSequence:
    T, B, D, H = 7, 3, 4, 5

    def test_matches_composed_loop(self):
        """States and every gradient, h0's included, within 1e-12 of the
        cell equations composed frame by frame."""
        case = gru((self.D,), (True,), self.T, self.B, self.H)()
        xs, h0, weight = case.leaves

        def loop():
            h, states = h0, []
            for t in range(self.T):
                h = composed_step(weight, xs[t], h)
                states.append(h)
            return stack(states, axis=0)

        got, got_grads = value_and_grads(case.fused, case.leaves)
        want, want_grads = value_and_grads(loop, case.leaves)
        assert np.abs(got - want).max() <= 1e-12
        for a, b in zip(got_grads, want_grads):
            assert a.shape == b.shape and np.abs(a - b).max() <= 1e-12

    def test_zero_h0_by_default(self):
        _, layer = make_gru(self.D, self.H)
        xs = ad.Tensor(np.random.default_rng(13).normal(size=(self.T, self.B, self.D)))
        zeros = ad.Tensor(np.zeros((self.B, self.H)))
        assert (layer.sequence(xs).data == layer.sequence(xs, zeros).data).all()


class TestGruSequenceParts:
    """sequence() over a tuple of input parts. Its value and gradients
    against the parts joined by a concat node are the layers.GruLayer.sequence
    row of tests/test_kernels.py."""

    def test_parts_must_share_frames_and_batch(self):
        _, layer = make_gru(in_dim=5, hidden=3)
        parts = (ad.Tensor(np.ones((4, 2, 3))), ad.Tensor(np.ones((4, 1, 2))))
        with pytest.raises(InvalidInputError):
            layer.sequence(parts)


class TestDense:
    def test_affine(self):
        params = ParamSet()
        layer = Dense(params, "fc", 3, 2, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(4, 3))
        want = x @ layer.w.data + layer.b.data
        assert np.abs(layer(ad.Tensor(x)).data - want).max() < 1e-15

    def test_leading_axes_match_the_2d_application_bit_for_bit(self):
        params = ParamSet()
        layer = Dense(params, "fc", 40, 9, np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=(7, 3, 40))
        grads = []
        for inp, shape in ((x, (7, 3, 9)), (x.reshape(21, 40), (21, 9))):
            params.zero_grads()
            xt = ad.Tensor(inp, requires_grad=True)
            y = layer(xt)
            assert y.shape == shape
            ad.tsum(square(y)).backward()
            grads.append((y.data.reshape(21, 9), xt.grad.reshape(21, 40),
                          layer.w.grad, layer.b.grad))
        for a, b in zip(*grads):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [(6, 5), (4, 3, 5)])
    def test_one_tape_node_per_call(self, shape):
        check_nodes(DENSE, dense(shape))

    @pytest.mark.parametrize("shape", [(6, 5), (4, 3, 5)])
    def test_matches_composed_reference_bit_for_bit(self, shape):
        check_reference(DENSE, dense(shape))

    def test_non_finite_output_names_the_layer(self):
        check_finite(DENSE, dense((2, 4, 3)))

    def test_stack_relu_hidden_linear_out(self):
        params = ParamSet()
        stack = DenseStack(params, "mlp", [2, 4, 3], np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(5, 2))
        h = np.maximum(x @ params["mlp.fc0.w"].data + params["mlp.fc0.b"].data, 0.0)
        want = h @ params["mlp.fc1.w"].data + params["mlp.fc1.b"].data
        assert np.abs(stack(ad.Tensor(x)).data - want).max() < 1e-15

    def test_zero_output_option(self):
        params = ParamSet()
        stack = DenseStack(params, "mlp", [2, 4, 3], np.random.default_rng(2),
                           zero_output=True)
        x = np.random.default_rng(3).normal(size=(5, 2))
        assert (stack(ad.Tensor(x)).data == 0.0).all()


class TestDenseStack:
    """One input or two parts, with no skip, a skip of its own, or the first
    part as the skip: the layers.DenseStack.__call__ row of
    tests/test_kernels.py."""

    SHAPES = [[(7, 4)], [(5, 3, 4)], [(5, 3, 4), (5, 3, 2)]]

    @pytest.mark.parametrize("shapes", SHAPES)
    @pytest.mark.parametrize("skip", ["none", "own", "part"])
    def test_matches_composed_reference_bit_for_bit(self, shapes, skip):
        check_reference(STACK, dense_stack(shapes, skip))

    @pytest.mark.parametrize("shapes", SHAPES)
    @pytest.mark.parametrize("skip", ["none", "own", "part"])
    def test_one_tape_node(self, shapes, skip):
        check_nodes(STACK, dense_stack(shapes, skip))

    @pytest.mark.parametrize("skip", ["none", "own", "part"])
    def test_gradient(self, skip):
        check_gradient(dense_stack(self.SHAPES[2], skip))

    def test_mismatched_inputs_raise(self):
        mlp = DenseStack(ParamSet(), "mlp", [6, 6, 4], np.random.default_rng(40))
        with pytest.raises(InvalidInputError):
            mlp((ad.Tensor(np.ones((5, 3, 4))), ad.Tensor(np.ones((5, 2, 2)))))
        with pytest.raises(InvalidInputError):
            mlp(ad.Tensor(np.ones((5, 3, 4))))


class TestParamSet:
    def test_flat_round_trip(self):
        params, _ = make_gru()
        vec = params.get_flat()
        rng = np.random.default_rng(7)
        new = rng.normal(size=vec.shape)
        params.set_flat(new)
        assert (params.get_flat() == new).all()

    def test_duplicate_name_rejected(self):
        params = ParamSet()
        params.add("x", np.zeros(2))
        with pytest.raises(InvalidInputError):
            params.add("x", np.zeros(2))

    def test_wrong_length_rejected(self):
        params, _ = make_gru()
        with pytest.raises(InvalidInputError):
            params.set_flat(np.zeros(params.size + 1))

    def test_block_slices_cover_everything(self):
        params = ParamSet()
        Dense(params, "a.fc", 2, 3, np.random.default_rng(0))
        Dense(params, "b.fc", 3, 1, np.random.default_rng(1))
        blocks = params.block_slices()
        assert set(blocks) == {"a", "b"}
        covered = sum(sl.stop - sl.start for sl in blocks.values())
        assert covered == params.size

    def test_init_bounds(self):
        params = ParamSet()
        Dense(params, "fc", 100, 50, np.random.default_rng(4))
        w = params["fc.w"].data
        assert np.abs(w).max() <= 1.0 / np.sqrt(100)

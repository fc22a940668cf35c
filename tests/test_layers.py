import numpy as np
import pytest

import whamkit.autodiff as ad
from whamkit.errors import InvalidInputError, NumericError
from whamkit.layers import Dense, DenseStack, GruLayer, ParamSet

from tests.conftest import composed_dense, composed_mlp, composed_sequence, square, stack
from tests.test_autodiff import check
from tests.test_trace_targets import load_spans


def make_gru(in_dim=2, hidden=3, seed=0):
    params = ParamSet()
    layer = GruLayer(params, "gru", in_dim, hidden, np.random.default_rng(seed))
    return params, layer


def tanh(a):
    """A tanh tape node; the package applies tanh only inside GruLayer.sequence."""
    out = np.tanh(a.data)
    return ad._node(out, (a,), lambda g: (g * (1.0 - out * out),))


def composed_step(layer, x, h_prev):
    """The cell equations composed from autodiff ops, one tape node per op:
    the reference for GruLayer.sequence and its backward pass."""
    w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h = layer.weights
    z = ad.sigmoid(ad.matmul(x, w_z) + ad.matmul(h_prev, u_z) + b_z)
    r = ad.sigmoid(ad.matmul(x, w_r) + ad.matmul(h_prev, u_r) + b_r)
    hc = tanh(ad.matmul(x, w_h) + ad.matmul(ad.mul(r, h_prev), u_h) + b_h)
    return (1.0 - z) * h_prev + z * hc


def step(layer, x, h_prev):
    return layer.step(ad.Tensor(x), ad.Tensor(h_prev))


def scalar_gru_reference(params, prefix, x, h):
    """Independent scalar evaluation of the cell equations."""
    def get(k):
        return params[f"{prefix}.{k}"].data

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

    def test_dim_mismatch(self):
        _, layer = make_gru()
        with pytest.raises(InvalidInputError):
            step(layer, np.zeros((1, 5)), np.zeros((1, 3)))

    def test_nan_guard_names_layer(self):
        params, layer = make_gru()
        params["gru.w_z"].data[0, 0] = np.nan
        with pytest.raises(NumericError, match="gru"):
            step(layer, np.ones((1, 2)), np.zeros((1, 3)))
        with pytest.raises(NumericError, match="gru"):
            layer.sequence(ad.Tensor(np.ones((4, 2, 2))))


class TestGruSequence:
    T, B, D, H = 7, 3, 4, 5

    def case(self):
        """A layer, (T, B, D) inputs, and an h0 that is the output of a Dense."""
        params = ParamSet()
        layer = GruLayer(params, "gru", self.D, self.H, np.random.default_rng(11))
        init = Dense(params, "init", 2, self.H, np.random.default_rng(12))
        rng = np.random.default_rng(13)
        xs = ad.Tensor(rng.normal(size=(self.T, self.B, self.D)), requires_grad=True)
        pose = ad.Tensor(rng.normal(size=(self.B, 2)))
        probe = rng.normal(size=(self.T, self.B, self.H))
        return params, layer, init, xs, pose, probe

    def run(self, fused):
        params, layer, init, xs, pose, probe = self.case()
        h0 = init(pose)
        if fused:
            hs = layer.sequence(xs, h0)
        else:
            h, states = h0, []
            for t in range(self.T):
                h = composed_step(layer, xs[t], h)
                states.append(h)
            hs = stack(states, axis=0)
        ad.tsum(hs * ad.Tensor(probe)).backward()
        # h0 is not a leaf, so its gradient is checked through the Dense
        # weights it flows into.
        grads = [xs.grad, init.w.grad, init.b.grad] + [p.grad for p in layer.weights]
        return hs.data, grads, layer

    def test_matches_composed_loop(self):
        got, got_grads, layer = self.run(fused=True)
        want, want_grads, _ = self.run(fused=False)
        assert np.abs(got - want).max() <= 1e-12
        assert len(got_grads) == 12
        names = ["xs", "init.w", "init.b"] + [f"{layer.name}.{k}_{g}"
                                              for g in "zrh" for k in "wub"]
        for name, a, b in zip(names, got_grads, want_grads):
            assert a.shape == b.shape, name
            assert np.abs(a - b).max() <= 1e-12, name

    def test_zero_h0_by_default(self):
        params, layer, _, xs, _, _ = self.case()
        zeros = ad.Tensor(np.zeros((self.B, self.H)))
        assert (layer.sequence(xs).data == layer.sequence(xs, zeros).data).all()

    def test_no_grad_same_states_without_tape(self):
        params, layer, init, xs, pose, _ = self.case()
        taped = layer.sequence(xs, init(pose))
        with ad.no_grad():
            plain = layer.sequence(xs, init(pose))
        assert taped.requires_grad and taped._bw is not None
        assert (plain.data == taped.data).all()
        assert not plain.requires_grad and plain._bw is None and plain._parents == ()


class TestGruSequenceParts:
    """sequence() over a tuple of input parts is one tape node whose states
    and gradients equal those of the parts joined by a concat node, bit for
    bit, also for a part that takes no gradient."""

    T, B, H = 9, 6, 5

    def run(self, widths, needs_grad, joined):
        params = ParamSet()
        layer = GruLayer(params, "gru", sum(widths), self.H, np.random.default_rng(21))
        init = Dense(params, "init", 2, self.H, np.random.default_rng(22))
        rng = np.random.default_rng(23)
        parts = tuple(ad.Tensor(rng.normal(size=(self.T, self.B, k)), requires_grad=g)
                      for k, g in zip(widths, needs_grad))
        h0 = init(ad.Tensor(rng.normal(size=(self.B, 2))))
        probe = ad.Tensor(rng.normal(size=(self.T, self.B, self.H)))
        hs = composed_sequence(layer, parts, h0) if joined else layer.sequence(parts, h0)
        nodes = load_spans().tape_size(hs)[0]
        ad.tsum(hs * probe).backward()
        grads = [p.grad for p in parts] + [init.w.grad, init.b.grad]
        return hs.data, grads + [p.grad for p in layer.weights], nodes

    @pytest.mark.parametrize("widths, needs_grad", [
        ((4,), (True,)), ((4, 3), (True, True)), ((7, 3, 2), (True, False, True)),
        ((7, 3, 2), (True, True, True)), ((3, 4), (False, False))])
    def test_matches_concatenated_input_bit_for_bit(self, widths, needs_grad):
        got, got_grads, got_nodes = self.run(widths, needs_grad, joined=False)
        want, want_grads, want_nodes = self.run(widths, needs_grad, joined=True)
        # The concat node is recorded only when some part takes a gradient.
        assert got_nodes == want_nodes - any(needs_grad)
        assert np.array_equal(got, want)
        assert [a is None for a in got_grads[:len(widths)]] == [not g for g in needs_grad]
        assert [a is None for a in got_grads] == [b is None for b in want_grads]
        assert all(a is None or np.array_equal(a, b) for a, b in zip(got_grads, want_grads))

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
        params = ParamSet()
        layer = Dense(params, "fc", 5, 2, np.random.default_rng(6))
        y = layer(ad.Tensor(np.ones(shape), requires_grad=True))
        assert y.shape == shape[:-1] + (2,)
        assert load_spans().tape_size(y)[0] == 1

    @pytest.mark.parametrize("shape", [(6, 5), (4, 3, 5)])
    def test_matches_composed_reference_bit_for_bit(self, shape):
        params = ParamSet()
        layer = Dense(params, "fc", 5, 7, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        x = rng.normal(size=shape)
        probe = ad.Tensor(rng.normal(size=shape[:-1] + (7,)))
        results = []
        for fn in (layer, lambda t: composed_dense(layer, t)):
            params.zero_grads()
            xt = ad.Tensor(x, requires_grad=True)
            y = fn(xt)
            ad.tsum(y * probe).backward()
            results.append((y.data, xt.grad, layer.w.grad, layer.b.grad))
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_non_finite_output_names_the_layer(self):
        params = ParamSet()
        layer = Dense(params, "head.fc", 3, 2, np.random.default_rng(0))
        layer.w.data[1, 0] = np.inf
        with pytest.raises(NumericError, match="head.fc"):
            layer(ad.Tensor(np.ones((2, 4, 3))))

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
    """A DenseStack call is one tape node whose value and gradients equal
    those of the composed Dense, ReLU, Dense and residual add nodes, bit for
    bit, for one input or two parts, with no skip, a skip of its own, or
    the first part as the skip (the integrator's case)."""

    SHAPES = [[(7, 4)], [(5, 3, 4)], [(5, 3, 4), (5, 3, 2)]]

    def case(self, shapes, skip):
        params = ParamSet()
        mlp = DenseStack(params, "mlp", [sum(s[-1] for s in shapes), 6, 4],
                         np.random.default_rng(40))
        rng = np.random.default_rng(41)
        parts = tuple(ad.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes)
        xs = parts[0] if len(parts) == 1 else parts
        own = ad.Tensor(rng.normal(size=shapes[0]), requires_grad=True)
        sk = {"none": None, "own": own, "part": parts[0]}[skip]
        leaves = parts + ((own,) if skip == "own" else ())
        return mlp, xs, sk, leaves + (mlp.fc0.w, mlp.fc0.b, mlp.fc1.w, mlp.fc1.b)

    @pytest.mark.parametrize("shapes", SHAPES)
    @pytest.mark.parametrize("skip", ["none", "own", "part"])
    def test_matches_composed_reference_bit_for_bit(self, shapes, skip):
        results = []
        for fn in (lambda mlp, xs, sk: mlp(xs, sk), composed_mlp):
            mlp, xs, sk, leaves = self.case(shapes, skip)
            out = fn(mlp, xs, sk)
            probe = np.random.default_rng(42).normal(size=out.shape)
            ad.tsum(out * ad.Tensor(probe)).backward()
            results.append((out.data, [t.grad for t in leaves]))
        (got, got_grads), (want, want_grads) = results
        pre = np.concatenate([t.data for t in leaves[:len(shapes)]], axis=-1) @ leaves[-4].data
        assert (pre > 0).any() and (pre <= 0).any()
        assert got.shape == shapes[0][:-1] + (4,)
        assert np.array_equal(got, want)
        for a, b in zip(got_grads, want_grads):
            assert a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("shapes", SHAPES)
    @pytest.mark.parametrize("skip", ["none", "own", "part"])
    def test_one_tape_node(self, shapes, skip):
        mlp, xs, sk, _ = self.case(shapes, skip)
        assert load_spans().tape_size(mlp(xs, sk))[0] == 1

    @pytest.mark.parametrize("skip", ["none", "own", "part"])
    def test_gradient(self, skip):
        mlp, xs, sk, leaves = self.case(self.SHAPES[2], skip)
        check(lambda: ad.tsum(square(mlp(xs, sk))), list(leaves), tol=1e-4)

    def test_mismatched_inputs_raise(self):
        mlp, xs, _, _ = self.case(self.SHAPES[2], "none")
        with pytest.raises(InvalidInputError):
            mlp((xs[0], ad.Tensor(np.ones((5, 2, 2)))))
        with pytest.raises(InvalidInputError):
            mlp(xs[0])

    def test_no_grad_records_nothing(self):
        mlp, xs, sk, _ = self.case(self.SHAPES[1], "own")
        with ad.no_grad():
            out = mlp(xs, sk)
        assert not out.requires_grad and out._parents == ()


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

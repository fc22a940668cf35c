import numpy as np
import pytest

import whamkit.autodiff as ad
from whamkit.errors import NumericError
from whamkit.gradcheck import (finite_difference_grads, forward_backward,
                               grad_check, relative_error)
from whamkit.layers import Dense, GruLayer, ParamSet

from tests.conftest import square, stack


class LinearMse:
    """Half squared error of a single affine layer, the closed-form case."""

    def __init__(self, seed=0):
        self.params = ParamSet()
        self.layer = Dense(self.params, "fc", 3, 2, np.random.default_rng(seed))

    def loss(self, batch):
        x, y = batch
        diff = self.layer(ad.Tensor(x)) - ad.Tensor(y)
        return ad.tsum(square(diff)) * 0.5


class GruSeq:
    """Tiny GRU unrolled over a short sequence with an MSE readout."""

    def __init__(self, frames=4, seed=1):
        self.params = ParamSet()
        self.cell = GruLayer(self.params, "gru", 2, 3, np.random.default_rng(seed))
        self.head = Dense(self.params, "head", 3, 1, np.random.default_rng(seed + 1))
        self.frames = frames

    def loss(self, batch):
        x, y = batch
        h = ad.Tensor(np.zeros((x.shape[1], 3)))
        outs = []
        for t in range(x.shape[0]):
            h = self.cell.step(ad.Tensor(x[t]), h)
            outs.append(self.head(h))
        pred = stack(outs, axis=0)
        return ad.tmean(square(pred - ad.Tensor(y)))


class GruKernel(GruSeq):
    """GruSeq with the recurrence run as one GruLayer.sequence node."""

    def loss(self, batch):
        x, y = batch
        t, b, _ = x.shape
        hs = self.cell.sequence(ad.Tensor(x))
        pred = ad.reshape(self.head(ad.reshape(hs, (t * b, 3))), (t, b, 1))
        return ad.tmean(square(pred - ad.Tensor(y)))


@pytest.fixture()
def linear_case():
    rng = np.random.default_rng(2)
    module = LinearMse()
    batch = (rng.normal(size=(6, 3)), rng.normal(size=(6, 2)))
    return module, batch


class TestForwardBackward:
    def test_closed_form_linear_gradient(self, linear_case):
        module, (x, y) = linear_case
        _, grads = forward_backward(module, (x, y))
        w = module.layer.w.data
        b = module.layer.b.data
        resid = x @ w + b - y
        want_w = x.T @ resid
        want_b = resid.sum(axis=0)
        sl = module.params.slices()
        assert np.abs(grads[sl["fc.w"]].reshape(3, 2) - want_w).max() < 1e-12
        assert np.abs(grads[sl["fc.b"]] - want_b).max() < 1e-12

    def test_nonfinite_loss_raises(self, linear_case):
        module, (x, y) = linear_case
        module.layer.w.data[0, 0] = np.inf
        with pytest.raises(NumericError):
            forward_backward(module, (x, y))


class TestGradCheck:
    def test_linear_layer_nearly_exact(self, linear_case):
        module, batch = linear_case
        report = grad_check(module, batch)
        assert report.passed
        assert max(report.worst_by_block.values()) < 1e-8

    def test_gru_sequence_passes(self):
        rng = np.random.default_rng(3)
        module = GruSeq()
        batch = (rng.normal(size=(4, 2, 2)), rng.normal(size=(4, 2, 1)))
        report = grad_check(module, batch, delta=1e-5, tol=1e-4)
        assert report.passed

    def test_gru_sequence_kernel_passes(self):
        rng = np.random.default_rng(3)
        module = GruKernel()
        batch = (rng.normal(size=(4, 2, 2)), rng.normal(size=(4, 2, 1)))
        report = grad_check(module, batch, delta=1e-5, tol=1e-4)
        assert report.passed
        assert max(report.worst_by_block.values()) < 1e-6

    def test_corrupted_gradient_fails(self, linear_case):
        module, batch = linear_case

        class Corrupted:
            params = module.params

            @staticmethod
            def loss(b):
                return module.loss(b)

        # wrap forward_backward result by scaling params' analytic grads
        _, analytic = forward_backward(module, batch)
        numeric = finite_difference_grads(module, batch)
        err = relative_error(analytic * 1.01, numeric)
        assert err.max() > 1e-4  # the 1% corruption is detected

    def test_report_printable(self, linear_case):
        module, batch = linear_case
        text = str(grad_check(module, batch))
        assert "PASS" in text and "fc" in text

    def test_partial_indices(self, linear_case):
        module, batch = linear_case
        _, analytic = forward_backward(module, batch)
        idx = np.array([0, 3, 5])
        fd = finite_difference_grads(module, batch, indices=idx)
        assert relative_error(analytic[idx], fd).max() < 1e-6

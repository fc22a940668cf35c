import dataclasses
import math
import warnings

import numpy as np
import pytest

import whamkit.autodiff as ad
from whamkit import body, geom
from whamkit.autodiff import Tensor
from whamkit.errors import NumericError
from whamkit.gradcheck import grad_check
from whamkit.losses import (LossWeights, _mean_sq_error, contact_loss, foot_sliding_loss,
                            reprojection_loss, total_loss)
from whamkit.model import ForwardOutputs, extract_velocities
from whamkit.train import build_batch, make_chunks
from tests.conftest import toy_bundles
from tests.test_kernels import KERNELS, check_nodes, check_reference, mean_sq_error, reprojection


def truth_logits(labels: np.ndarray) -> np.ndarray:
    """Logits whose sigmoid is the label; hard 0/1 labels map to +-800,
    where the sigmoid and the softplus round to the label exactly."""
    with np.errstate(divide="ignore"):
        return np.clip(np.log(labels) - np.log1p(-labels), -800.0, 800.0)


def truth_outputs(batch) -> ForwardOutputs:
    """A ForwardOutputs equal to the ground truth of the batch."""
    t, b = batch["omega"].shape[:2]
    pose = batch["local_pose"]
    cam_rot = np.einsum("tbij,tbjk->tbik", batch["cam_rot_full"], batch["root_rot"])
    cam_pos = (np.einsum("tbij,tbj->tbi", batch["cam_rot_full"], batch["tau"])
               + batch["cam_t_full"])
    vel = batch["root_vel"]
    h = np.zeros((t, b, 4))
    contacts = batch["contacts"]
    return ForwardOutputs(
        motion_feats=Tensor(h), fused_feats=Tensor(h),
        kp3d_cascade=Tensor(pose.copy()), local_pose=Tensor(pose.copy()),
        contact_logit=Tensor(truth_logits(contacts)),
        contact=Tensor(contacts.copy()), cam_root_pos=Tensor(cam_pos),
        cam_root_rot=Tensor(cam_rot),
        bone_scales=Tensor(np.broadcast_to(batch["bone_scales"][None], (t, b, 20)).copy()),
        root_rot0=Tensor(batch["root_rot"].copy()), vel0=Tensor(vel.copy()),
        vel_adj=Tensor(vel.copy()), root_rot=Tensor(batch["root_rot"].copy()),
        vel=Tensor(vel.copy()), root_pos=Tensor(batch["tau"].copy()))


@pytest.fixture(scope="module")
def clean_batch():
    """Noise-free single-sequence batch with camera truth attached."""
    bundles = toy_bundles(2, 9, seed=11, noise_std_px=0.0, mask_prob=0.0)
    batch = build_batch(make_chunks(bundles, 9), with_features=True)
    batch["cam_rot_full"] = np.stack([b.cams.rotations for b in bundles], axis=1)
    batch["cam_t_full"] = np.stack([b.cams.translations for b in bundles], axis=1)
    batch["tau"] = np.stack([b.seq.root_pos for b in bundles], axis=1)
    return batch


def scalar_total_loss(out: ForwardOutputs, batch, w: LossWeights) -> float:
    """Slow, independent reimplementation with explicit python loops."""
    t, b = batch["omega"].shape[:2]
    pose_p = out.local_pose.data
    pose_t = batch["local_pose"]
    casc = out.kp3d_cascade.data

    def msn(a, c):  # mean over frames/batch/landmarks of squared norms
        total = 0.0
        cnt = 0
        for i in range(t):
            for j in range(b):
                for k in range(a.shape[2]):
                    d = a[i, j, k] - c[i, j, k]
                    total += (d * d).sum()
                    cnt += 1
        return total / cnt

    terms = {}
    terms["pose"] = msn(pose_p, pose_t)
    terms["shape"] = float(np.mean((out.bone_scales.data
                                    - batch["bone_scales"][None]) ** 2))
    terms["kp3d"] = msn(casc, pose_t) + msn(pose_p, pose_t)
    terms["cascade"] = msn(casc, pose_p)

    sq_sum, cnt, hinge_sum = 0.0, 0, 0.0
    for i in range(t):
        for j in range(b):
            for k in range(17):
                pt = out.cam_root_rot.data[i, j] @ pose_p[i, j, k] + out.cam_root_pos.data[i, j]
                hinge = max(0.1 - pt[2], 0.0)
                hinge_sum += hinge * hinge
                z = max(pt[2], 1e-3)
                u = batch["focal"][j] * pt[0] / z + batch["cx"][j]
                v = batch["focal"][j] * pt[1] / z + batch["cy"][j]
                if batch["kp_vis"][i, j, k]:
                    du = (u - batch["kp_px"][i, j, k, 0]) / batch["image_w"]
                    dv = (v - batch["kp_px"][i, j, k, 1]) / batch["image_w"]
                    sq_sum += du * du + dv * dv
                    cnt += 1
    terms["kp2d"] = sq_sum / max(cnt, 1) + hinge_sum / (t * b * 17)

    fr = lambda a, c: float(np.mean([(np.linalg.norm(a[i, j] - c[i, j], "fro") ** 2)
                                     for i in range(t) for j in range(b)]))
    terms["root_rot"] = (fr(out.root_rot0.data, batch["root_rot"])
                         + fr(out.root_rot.data, batch["root_rot"]))
    vsq = lambda a, c: float(np.mean([((a[i, j] - c[i, j]) ** 2).sum()
                                      for i in range(t) for j in range(b)]))
    terms["root_vel"] = (vsq(out.vel0.data, batch["root_vel"])
                         + vsq(out.vel.data, batch["root_vel"]))
    kl_sum = 0.0
    for y, z in zip(batch["contacts"].ravel(), out.contact_logit.data.ravel()):
        p = 1.0 / (1.0 + math.exp(-z))
        kl_sum += (y * math.log(y / p) if y > 0 else 0.0) + \
            ((1 - y) * math.log((1 - y) / (1 - p)) if y < 1 else 0.0)
    terms["contact"] = kl_sum / batch["contacts"].size

    cam_pred = np.einsum("tbij,tbkj->tbik", out.cam_root_rot.data, out.root_rot.data)
    terms["cam_rot"] = fr(cam_pred, batch["cam_rot"])
    om_sum = 0.0
    for i in range(1, t):
        for j in range(b):
            om = geom.log_so3(cam_pred[i - 1, j].T @ cam_pred[i, j])
            om_sum += ((om - batch["omega"][i, j]) ** 2).sum()
    terms["ang_vel"] = om_sum / ((t - 1) * b)

    feet_idx = list(body.CONTACT_LANDMARKS)
    fs_sum = 0.0
    for i in range(t - 1):
        for j in range(b):
            for n, k in enumerate(feet_idx):
                a = out.root_rot.data[i + 1, j] @ pose_p[i + 1, j, k] + out.root_pos.data[i + 1, j]
                c = out.root_rot.data[i, j] @ pose_p[i, j, k] + out.root_pos.data[i, j]
                v = (a - c) * batch["contacts"][i, j, n]
                fs_sum += (v * v).sum()
    terms["foot_slide"] = fs_sum / ((t - 1) * b * 4)

    return sum(getattr(w, k) * v for k, v in terms.items()), terms


class TestTotalLoss:
    def test_zero_at_ground_truth(self, clean_batch):
        out = truth_outputs(clean_batch)
        total, breakdown = total_loss(out, clean_batch, LossWeights())
        for term, value in breakdown.items():
            assert value < 1e-12, term

    def test_linearity_in_weights(self, clean_batch, toy_module):
        out = toy_module.model.forward(clean_batch["kp_input"], clean_batch["omega"],
                                       features=clean_batch["features"],
                                       init_pose=clean_batch["init_pose"],
                                       neural_init_mode="truth")
        only_3d = dataclasses.replace(LossWeights(), pose=0, shape=0, kp2d=0,
                                      cascade=0, root_rot=0, root_vel=0, contact=0,
                                      ang_vel=0, cam_rot=0, foot_slide=0, kp3d=2.5)
        total, breakdown = total_loss(out, clean_batch, only_3d)
        assert total.item() == pytest.approx(2.5 * breakdown["kp3d"], rel=1e-12)

    def test_matches_scalar_reimplementation(self, clean_batch, toy_module):
        out = toy_module.model.forward(clean_batch["kp_input"], clean_batch["omega"],
                                       features=clean_batch["features"],
                                       init_pose=clean_batch["init_pose"],
                                       neural_init_mode="truth")
        w = LossWeights()
        total, breakdown = total_loss(out, clean_batch, w)
        want_total, want_terms = scalar_total_loss(out, clean_batch, w)
        for term, value in want_terms.items():
            assert breakdown[term] == pytest.approx(value, abs=1e-10), term
        assert total.item() == pytest.approx(want_total, abs=1e-10)

    def test_nonfinite_term_names_itself(self, clean_batch):
        out = truth_outputs(clean_batch)
        out.vel0.data[0, 0, 0] = np.nan
        with pytest.raises(NumericError, match="root_vel"):
            total_loss(out, clean_batch, LossWeights())


class TestReprojectionLoss:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.pts = rng.uniform(-0.5, 0.5, size=(3, 2, 17, 3)) + [0, 0, 5.0]
        self.focal = np.array([500.0, 500.0])
        self.cx = np.array([500.0, 500.0])
        self.cy = np.array([500.0, 500.0])
        f = self.focal[None, :, None]
        u = f * self.pts[..., 0] / self.pts[..., 2] + 500.0
        v = f * self.pts[..., 1] / self.pts[..., 2] + 500.0
        self.px = np.stack([u, v], axis=-1)
        self.vis = np.ones((3, 2, 17), dtype=bool)

    def test_perfect_prediction_zero(self):
        loss, count = reprojection_loss(Tensor(self.pts), self.px, self.vis,
                                        self.focal, self.cx, self.cy, 1000.0)
        assert count == 3 * 2 * 17
        assert loss.item() < 1e-20

    def test_uniform_pixel_shift(self):
        shifted = self.px + [10.0, 0.0]
        loss, _ = reprojection_loss(Tensor(self.pts), shifted, self.vis,
                                    self.focal, self.cx, self.cy, 1000.0)
        assert loss.item() == pytest.approx((10.0 / 1000.0) ** 2, rel=1e-9)

    def test_all_masked(self):
        loss, count = reprojection_loss(Tensor(self.pts), self.px,
                                        np.zeros_like(self.vis),
                                        self.focal, self.cx, self.cy, 1000.0)
        assert count == 0
        assert loss.item() == 0.0

    def test_depth_clamp_keeps_finite(self):
        pts = self.pts.copy()
        pts[0, 0, 0, 2] = -2.0
        loss, _ = reprojection_loss(Tensor(pts), self.px, self.vis,
                                    self.focal, self.cx, self.cy, 1000.0)
        assert np.isfinite(loss.item())


class TestContactLoss:
    def test_zero_at_soft_and_hard_labels(self):
        soft = np.array([[0.993307, 0.006693, 0.5, 0.2]])
        assert abs(contact_loss(Tensor(truth_logits(soft)), soft).item()) < 1e-15
        hard = np.array([[1.0, 0.0, 1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert contact_loss(Tensor(truth_logits(hard)), hard).item() == 0.0

    def test_saturated_wrong_prediction_keeps_gradient(self):
        # Confidently wrong logits: the gradient stays p - y (per element,
        # over the mean's count) instead of vanishing through the sigmoid.
        logits = Tensor(np.array([[50.0, -50.0, 50.0, -50.0]]), requires_grad=True)
        labels = np.array([[0.0, 1.0, 0.006693, 0.993307]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = contact_loss(logits, labels)
            loss.backward()
        p = 1.0 / (1.0 + np.exp(-logits.data))
        assert logits.grad == pytest.approx((p - labels) / labels.size, rel=1e-12)
        assert np.abs(logits.grad).min() > 0.24
        # KL = 50 |label - hard prediction| - H(label) at logits of +-50.
        h = -(0.006693 * math.log(0.006693) + 0.993307 * math.log(0.993307))
        want = (50.0 + 50.0 + 2 * (50.0 * 0.993307 - h)) / 4
        assert loss.item() == pytest.approx(want, rel=1e-12)


class TestFootSlidingLoss:
    def test_zero_contact_zero_loss(self):
        rng = np.random.default_rng(6)
        vel = Tensor(rng.normal(size=(5, 2, 4, 3)))
        assert foot_sliding_loss(vel, np.zeros((5, 2, 4))).item() == 0.0

    def test_constant_speed_squared(self):
        vel = Tensor(np.full((5, 1, 4, 3), [0.3, 0.0, 0.0]))
        loss = foot_sliding_loss(vel, np.ones((5, 1, 4)))
        assert loss.item() == pytest.approx(0.09, rel=1e-12)

    def test_generator_walk_truth_small(self):
        seq = body.generate_gait("walk", 81, seed=3)
        feet = body.world_landmarks(seq)[:, list(body.CONTACT_LANDMARKS)]
        vel = Tensor((feet[1:] - feet[:-1])[:, None])
        loss = foot_sliding_loss(vel, seq.contacts[:-1, None])
        assert loss.item() < 4e-6


class TestLossGradients:
    # Full-parameter coverage with every term active runs in the acceptance
    # suite; here each term is isolated and checked on a random sample of
    # parameter coordinates to keep the finite differencing fast.
    @pytest.mark.parametrize("term", ["pose", "shape", "kp3d", "kp2d", "cascade",
                                      "root_rot", "root_vel", "contact",
                                      "ang_vel", "cam_rot", "foot_slide"])
    def test_each_term_gradient(self, term, toy_module, toy_batch):
        from whamkit.gradcheck import (finite_difference_grads, forward_backward,
                                       relative_error)

        weights = LossWeights(**{f.name: 0.0 for f in dataclasses.fields(LossWeights)})
        weights = dataclasses.replace(weights, **{term: 1.0})
        module = type(toy_module)(toy_module.model, weights, stage="finetune")
        _, analytic = forward_backward(module, toy_batch)
        rng = np.random.default_rng(hash(term) % 2 ** 32)
        idx = rng.choice(module.params.size, size=400, replace=False)
        numeric = finite_difference_grads(module, toy_batch, delta=1e-5, indices=idx)
        err = relative_error(analytic[idx], numeric)
        assert err.max() < 1e-4, f"{term}: max rel err {err.max():.2e}"


class TestSquaredErrorTerm:
    """Each squared-error term and the reprojection error against their
    composed references: the losses rows of tests/test_kernels.py."""

    MSE, REPROJECTION = KERNELS["losses._mean_sq_error"], KERNELS["losses.reprojection_loss"]
    SHAPES = {0: ((4, 3, 20), (1, 3, 20)), 1: ((4, 3, 21, 3), (4, 3, 21, 3)),
              2: ((4, 3, 3, 3), (4, 3, 3, 3))}

    @pytest.mark.parametrize("norm_axes", [0, 1, 2])
    def test_matches_composed_reference_bit_for_bit(self, norm_axes):
        check_reference(self.MSE, mean_sq_error(*self.SHAPES[norm_axes], norm_axes))

    @pytest.mark.parametrize("norm_axes", [0, 1, 2])
    def test_one_tape_node_per_term(self, norm_axes):
        check_nodes(self.MSE, mean_sq_error(*self.SHAPES[norm_axes], norm_axes))

    def test_constant_target_gets_no_gradient(self):
        t = Tensor(np.ones((4, 3, 21, 3)))
        pred = Tensor(np.random.default_rng(41).normal(size=t.shape), requires_grad=True)
        _mean_sq_error(pred, t).backward()
        assert t.grad is None

    def test_reprojection_matches_composed_reference_bit_for_bit(self):
        check_reference(self.REPROJECTION, reprojection(clamped=True))

    def test_reprojection_error_is_one_tape_node(self):
        """The weighted squared error takes one node where the composed ops
        take seven (subtract, scale, square, weight, two sums, normalize),
        and the hinge's mean square one against three: 8 fewer in all."""
        check_nodes(self.REPROJECTION, reprojection(clamped=True))

"""One contract for every fused tape kernel: a function in src/whamkit that
records a stage as one node through autodiff._node, with a hand-written
backward.

KERNELS has one row per such function. A row names input cases; each case
builds the kernel call, its composed reference from tests/conftest.py, and
the leaves both read. The first case is the row's generic input, which
keeps away from ReLU kinks, clamps and the contact gate. Every row runs
the same five checks:

1. value and every leaf gradient equal the reference's (np.array_equal),
   except that the two rotation kernels' gradients may differ by rel_tol
   of the largest gradient;
2. per-coordinate central differences agree with the gradient at 1e-4 on
   the generic case;
3. recording gives the promised node count, the reference records the
   count its case states (so it cannot quietly become the kernel itself),
   and under no_grad the same value comes with no parents and no closure;
4. a second backward through the kernel's output raises ValueError;
5. a kernel with a finite check raises a NumericError naming its layer.

test_every_node_site_has_a_row scans the package for the functions that
call _node, so a new fused kernel needs a row before it can land.
test_no_new_module_reruns_the_checks scans the other test modules for
calls of check_reference and check_nodes: the tests in RERUNS predate the
table and rerun its checks on its own cases, and the list may only shrink.
"""

import ast
import glob
import os
import re
from dataclasses import fields
from typing import Callable, NamedTuple

import numpy as np
import pytest

import whamkit.autodiff as ad
from whamkit import geom, rotops
from whamkit.autodiff import Tensor
from whamkit.errors import NumericError
from whamkit.layers import Dense, DenseStack, GruLayer, ParamSet
from whamkit.losses import LossWeights, _mean_sq_error, _weighted_sum, reprojection_loss
from whamkit.model import WhamModel, WhamParams, center_pose, rollout

from tests.conftest import (TOY_DIMS, check, composed_center_pose, composed_dense,
                            composed_integrate, composed_mean_sq_error, composed_mlp,
                            composed_reprojection_loss, composed_rollout,
                            composed_rotation6d_to_matrix, composed_sequence,
                            composed_so3_log, composed_weighted_sum)
from tests.test_trace_targets import load_spans


class Case(NamedTuple):
    fused: Callable[[], Tensor]
    composed: Callable[[], Tensor]
    leaves: tuple       # every leaf either call reads, with or without a gradient
    nodes: int          # the nodes the composed reference records


class Kernel(NamedTuple):
    cases: dict         # case name -> () -> Case; the first is the generic input
    rel_tol: float = 0.0  # gradients within rel_tol of the largest one; 0: equal
    fewer: int = 0      # when set, the node count is the composed count minus this
    finite: str = ""    # the layer a NumericError names


def leaf(rng, shape, grad=True):
    return Tensor(rng.normal(size=shape), requires_grad=grad)


def normal(shape, seed=32):
    return lambda: np.random.default_rng(seed).normal(size=shape)


def one_input(fused, composed, nodes, data):
    """The case of a one-input kernel on a leaf holding data()."""
    def make():
        x = Tensor(data(), requires_grad=True)
        return Case(lambda: fused(x), lambda: composed(x), (x,), nodes)
    return make


def dense(shape):
    def make():
        rng = np.random.default_rng(7)
        layer = Dense(ParamSet(), "head.fc", shape[-1], 7, rng)
        x = leaf(rng, shape)
        # matmul and bias add, between two reshapes for (T, B, D)
        return Case(lambda: layer(x), lambda: composed_dense(layer, x), (x, layer.w, layer.b),
                    2 if len(shape) == 2 else 4)
    return make


def dense_stack(shapes, skip):
    """A DenseStack on one input or two parts, with no skip, a skip of its
    own, or the first part as the skip (the integrator's case)."""
    def make():
        rng = np.random.default_rng(40)
        mlp = DenseStack(ParamSet(), "mlp", [sum(s[-1] for s in shapes), 6, 4], rng)
        parts = tuple(leaf(rng, s) for s in shapes)
        xs = parts[0] if len(parts) == 1 else parts
        own = leaf(rng, shapes[0])
        sk = {"none": None, "own": own, "part": parts[0]}[skip]
        pre = np.concatenate([p.data for p in parts], axis=-1) @ mlp.fc0.w.data
        assert (pre > 0).any() and (pre <= 0).any()
        weights = (mlp.fc0.w, mlp.fc0.b, mlp.fc1.w, mlp.fc1.b)
        # Dense, ReLU and Dense, after a concat of parts and before a skip add
        return Case(lambda: mlp(xs, sk), lambda: composed_mlp(mlp, xs, sk),
                    parts + (own,) * (skip == "own") + weights,
                    3 + (len(parts) > 1) + (skip != "none"))
    return make


def integrator():
    """WhamModel.integrate, the DenseStack whose first part is its skip."""
    rng = np.random.default_rng(31)
    wham = WhamModel(WhamParams(TOY_DIMS, seed=3))
    params = [wham.params[n] for n in wham.params.slices() if n.startswith("integrator")]
    for p in params:
        p.data = rng.normal(0, 0.5, size=p.data.shape)
    feats = rng.normal(size=(7, 3, TOY_DIMS.feature_dim))
    phi = leaf(rng, (7, 3, TOY_DIMS.hidden))
    act = np.concatenate([phi.data, feats], axis=2) @ params[0].data + params[1].data
    assert (act > 0).any() and (act <= 0).any()
    return Case(lambda: wham.integrate(phi, feats),
                lambda: composed_integrate(wham, phi, feats), (phi, *params), 5)


def gru(widths, needs_grad, frames=9, batch=6, hidden=5):
    """A GRU over input parts of the given widths, the ones flagged in
    needs_grad taking a gradient, from an h0 that takes one."""
    def make():
        rng = np.random.default_rng(21)
        layer = GruLayer(ParamSet(), "gru", sum(widths), hidden, rng)
        parts = tuple(leaf(rng, (frames, batch, k), g) for k, g in zip(widths, needs_grad))
        h0 = leaf(rng, (batch, hidden))
        xs = parts[0] if len(parts) == 1 else parts
        # The concat node is recorded only when some part takes a gradient.
        return Case(lambda: layer.sequence(xs, h0), lambda: composed_sequence(layer, parts, h0),
                    parts + (h0, layer.weight), 1 + any(needs_grad))
    return make


def mean_sq_error(pred_shape, target_shape, norm_axes):
    def make():
        rng = np.random.default_rng(40 + norm_axes)
        p, t = leaf(rng, pred_shape), leaf(rng, target_shape)
        # subtract, square and mean, with a reshape and a sum between the last two
        return Case(lambda: _mean_sq_error(p, t, norm_axes=norm_axes),
                    lambda: composed_mean_sq_error(p, t, norm_axes=norm_axes), (p, t),
                    5 if norm_axes else 3)
    return make


def reprojection(clamped):
    def make():
        rng = np.random.default_rng(43)
        cam = rng.normal(0, 0.3, size=(5, 2, 17, 3)) + [0.0, 0.0, 3.0]
        if clamped:
            cam[0, 0, :3, 2] = [0.05, -0.2, 1e-4]      # clamped depths and the hinge
        c = Tensor(cam, requires_grad=True)
        rest = (rng.uniform(0, 640, size=(5, 2, 17, 2)), rng.uniform(size=(5, 2, 17)) < 0.8,
                rng.uniform(500, 700, 2), rng.uniform(300, 340, 2), rng.uniform(220, 260, 2),
                640.0)
        return Case(lambda: reprojection_loss(c, *rest)[0],
                    lambda: composed_reprojection_loss(c, *rest), (c,), 19)
    return make


def weighted_sum():
    """Every loss term as a scalar leaf, under weights with one zero."""
    rng = np.random.default_rng(44)
    names = [f.name for f in fields(LossWeights)]
    terms = {n: Tensor(v, requires_grad=True) for n, v in zip(names, rng.uniform(0, 3, len(names)))}
    coeffs = {n: float(c) for n, c in zip(names, rng.uniform(0, 2, size=len(names)))}
    weights = LossWeights(**{**coeffs, "cascade": 0.0})
    # a multiply per term and an add per term after the first
    return Case(lambda: _weighted_sum(terms, weights),
                lambda: composed_weighted_sum(terms, weights), tuple(terms.values()),
                2 * len(names) - 1)


def centering(shape):
    return one_input(center_pose, composed_center_pose, 5, normal(shape))


def roll(frames, batch, rot_grad):
    def make():
        rng = np.random.default_rng(frames + batch)
        rot = Tensor(geom.exp_so3(rng.normal(0, 0.5, size=(frames, batch, 3))),
                     requires_grad=rot_grad)
        vel = Tensor(rng.normal(0, 0.05, size=(frames, batch, 3)), requires_grad=True)
        # slice, reshape, matmul, reshape, concat and cumsum, and R's slice
        # when R takes a gradient
        return Case(lambda: rollout(rot, vel), lambda: composed_rollout(rot, vel), (vel, rot),
                    6 + rot_grad)
    return make


def six_d_cases():
    rng = np.random.default_rng(30)
    v = rng.normal(size=(12, 6))
    tiny_a1, near_floor, parallel = v.copy(), v.copy(), v.copy()
    tiny_a1[:4, :3] *= 1e-13                   # |a1| clipped at 1e-12
    near_floor[:4, :3] *= 1e-11                # |a1| just above the clip
    parallel[:4, 3:] = 2.0 * parallel[:4, :3] + 1e-14 * rng.normal(size=(4, 3))
    return {"random": v, "a1_clipped": tiny_a1, "a1_near_floor": near_floor,
            "a2_parallel_to_a1": parallel,
            "identity": np.tile(rotops.IDENTITY_6D, (3, 1))}


def so3_cases():
    rng = np.random.default_rng(31)
    axes = rng.normal(size=(12, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    # pi - 1e-8 rounds cos(theta) to -1, inside the clamp; pi - 1e-2 does not.
    near_pi = (np.pi - np.geomspace(1e-8, 1e-2, 12))[:, None]
    return {"random": geom.exp_so3(rng.normal(0, 1.0, size=(2, 6, 3))),
            "small_angle": geom.exp_so3(rng.normal(0, 1e-5, size=(12, 3))),
            "near_pi": geom.exp_so3(axes * near_pi),
            "identity": np.tile(np.eye(3), (3, 1, 1))}


def rotation_cases(fused, composed, nodes, generic, shape, named):
    cases = {"generic": one_input(fused, composed, nodes, generic),
             "tbd": one_input(fused, composed, nodes, normal(shape))}
    return {**cases,
            **{n: one_input(fused, composed, nodes, lambda n=n: named()[n]) for n in named()}}


# Inputs at the 6D norm clip have gradients near 1e12, where one rounding
# step is about 1e-4, so the two rotation rows compare gradients relative
# to the largest one once that exceeds 1.
KERNELS = {
    "layers.Dense.__call__": Kernel({"2d": dense((6, 5)), "tbd": dense((4, 3, 5))},
                                    finite="head.fc"),
    "layers.DenseStack.__call__": Kernel(
        {f"{layout}-{skip}": dense_stack(shapes, skip)
         for layout, shapes in (("parts", [(5, 3, 4), (5, 3, 2)]), ("2d", [(7, 4)]),
                                ("tbd", [(5, 3, 4)]))
         for skip in ("own", "none", "part")} | {"integrator": integrator},
        finite="mlp.fc0"),
    "layers.GruLayer.sequence": Kernel(
        {"parts": gru((3, 2), (True, True), frames=4, batch=2, hidden=3),
         "tbd": gru((4,), (True,)), "one_frame": gru((4,), (True,), frames=1),
         "4+3": gru((4, 3), (True, True)), "7+3c+2": gru((7, 3, 2), (True, False, True)),
         "7+3+2": gru((7, 3, 2), (True, True, True)), "3c+4c": gru((3, 4), (False, False))},
        finite="gru"),
    "losses._mean_sq_error": Kernel(
        {"2d": mean_sq_error((6, 5), (6, 5), 1), "norm0": mean_sq_error((4, 3, 20), (1, 3, 20), 0),
         "norm1": mean_sq_error((4, 3, 21, 3), (4, 3, 21, 3), 1),
         "norm2": mean_sq_error((4, 3, 3, 3), (4, 3, 3, 3), 2)}),
    "losses.reprojection_loss": Kernel({"generic": reprojection(False),
                                        "clamped": reprojection(True)}, fewer=8),
    "losses._weighted_sum": Kernel({"terms": weighted_sum}),
    "model.center_pose": Kernel({"2d": centering((5, 63)), "tbd": centering((4, 3, 63)),
                                 "batch1": centering((4, 1, 63))}),
    "model.rollout": Kernel({"T5-B2": roll(5, 2, True)} | {
        f"T{t}-B{b}{'' if g else '-const_rot'}": roll(t, b, g)
        for t in (2, 3, 81) for b in (1, 4) for g in (True, False)}),
    "rotops.rotation6d_to_matrix": Kernel(
        rotation_cases(rotops.rotation6d_to_matrix, composed_rotation6d_to_matrix, 24,
                       normal((8, 6)), (5, 2, 6), six_d_cases), rel_tol=1e-12),
    "rotops.so3_log": Kernel(
        rotation_cases(rotops.so3_log, composed_so3_log, 20,
                       lambda: geom.exp_so3(np.random.default_rng(33).normal(0, 0.8, (8, 3))),
                       (5, 2, 3, 3), so3_cases), rel_tol=1e-12),
}


# -- the five checks --------------------------------------------------------

def value_and_grads(fn, leaves):
    """fn's value, and each leaf's gradient of sum(fn * a fixed probe)."""
    for t in leaves:
        t.grad = None
    out = fn()
    ad.tsum(out * Tensor(np.random.default_rng(0).normal(size=out.shape))).backward()
    return out.data, [t.grad for t in leaves]


def check_reference(row: Kernel, make) -> None:
    case = make()
    got, got_grads = value_and_grads(case.fused, case.leaves)
    want, want_grads = value_and_grads(case.composed, case.leaves)
    assert np.array_equal(got, want)
    for t, a, b in zip(case.leaves, got_grads, want_grads):
        assert (a is None) == (b is None) == (not t.requires_grad)
        if a is not None:
            assert a.shape == t.shape
            assert (np.abs(a - b).max() <= row.rel_tol * max(1.0, np.abs(b).max())
                    if row.rel_tol else np.array_equal(a, b))


def check_gradient(make) -> None:
    case = make()
    probe = Tensor(np.random.default_rng(0).normal(size=case.fused().shape))
    check(lambda: ad.tsum(case.fused() * probe), [t for t in case.leaves if t.requires_grad],
          tol=1e-4)


def check_nodes(row: Kernel, make) -> None:
    case = make()
    tape_size = load_spans().tape_size
    assert tape_size(case.composed())[0] == case.nodes
    out = case.fused()
    assert tape_size(out)[0] == (case.nodes - row.fewer if row.fewer else 1)
    with ad.no_grad():
        plain = case.fused()
    assert np.array_equal(plain.data, out.data)
    assert not plain.requires_grad and plain._parents == () and plain._bw is None


def check_second_backward(make) -> None:
    case = make()
    out = case.fused()
    probe = Tensor(np.random.default_rng(0).normal(size=out.shape))
    ad.tsum(out * probe).backward()
    with pytest.raises(ValueError, match="already ran"):
        ad.tsum(out * probe).backward()


def check_finite(row: Kernel, make) -> None:
    case = make()
    case.leaves[0].data.flat[0] = np.nan
    with pytest.raises(NumericError, match=re.escape(row.finite)):
        case.fused()


CASES = [(key, name) for key, row in KERNELS.items() for name in row.cases]


def generic(key):
    return next(iter(KERNELS[key].cases.values()))


@pytest.mark.parametrize("key, case", CASES)
def test_value_and_gradients_match_the_reference(key, case):
    check_reference(KERNELS[key], KERNELS[key].cases[case])


@pytest.mark.parametrize("key", KERNELS)
def test_gradient_matches_finite_differences(key):
    check_gradient(generic(key))


@pytest.mark.parametrize("key, case", CASES)
def test_node_count(key, case):
    check_nodes(KERNELS[key], KERNELS[key].cases[case])


@pytest.mark.parametrize("key", KERNELS)
def test_second_backward_raises(key):
    check_second_backward(generic(key))


@pytest.mark.parametrize("key", [key for key, row in KERNELS.items() if row.finite])
def test_finite_check_names_the_layer(key):
    check_finite(KERNELS[key], generic(key))


# -- the gate ---------------------------------------------------------------

PACKAGE = sorted(p for p in glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "whamkit", "*.py"))
    if os.path.basename(p) != "autodiff.py")


def node_sites(source: str, module: str, callees=("_node",)) -> set[str]:
    """module.function and module.Class.method of each top-level function
    and method in source whose body calls one of callees."""
    tree = ast.parse(source)
    defs = [(f"{module}.{n.name}", n) for n in tree.body if isinstance(n, ast.FunctionDef)]
    defs += [(f"{module}.{c.name}.{n.name}", n) for c in tree.body if isinstance(c, ast.ClassDef)
             for n in c.body if isinstance(n, ast.FunctionDef)]
    return {name for name, fn in defs
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in callees}


def package_sites() -> set[str]:
    return set().union(*(node_sites(open(p).read(), os.path.basename(p)[:-3])
                         for p in PACKAGE))


def rowless(sites: set[str]) -> list[str]:
    """Sites without a row, and rows without a site."""
    return sorted(sites ^ set(KERNELS))


def test_every_node_site_has_a_row():
    assert rowless(package_sites()) == []


def test_gate_fails_on_a_site_without_a_row():
    extra = ("from . import autodiff as ad\n\n"
             "def double(x):\n"
             "    return ad._node(x.data * 2.0, (x,), lambda g: (g * 2.0,))\n")
    assert rowless(package_sites() | node_sites(extra, "extra")) == ["extra.double"]


# The tests outside this module that still call check_reference or
# check_nodes on the table's own cases. Each one goes once the table covers
# its assertion at its shapes; none may be added.
RERUNS = {
    "test_autodiff.TestFusedRotops.test_rotation6d_matches_composed_reference",
    "test_autodiff.TestFusedRotops.test_so3_log_matches_composed_reference",
    "test_autodiff.TestFusedRotops.test_one_tape_node_per_call",
    "test_layers.TestDense.test_one_tape_node_per_call",
    "test_layers.TestDense.test_matches_composed_reference_bit_for_bit",
    "test_layers.TestDenseStack.test_matches_composed_reference_bit_for_bit",
    "test_layers.TestDenseStack.test_one_tape_node",
    "test_losses.TestSquaredErrorTerm.test_matches_composed_reference_bit_for_bit",
    "test_losses.TestSquaredErrorTerm.test_one_tape_node_per_term",
    "test_losses.TestSquaredErrorTerm.test_reprojection_matches_composed_reference_bit_for_bit",
    "test_losses.TestSquaredErrorTerm.test_reprojection_error_is_one_tape_node",
    "test_model.TestFusedStages.check",
}
CHECKS = ("check_reference", "check_nodes")
TESTS = sorted(p for p in glob.glob(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                                 "*.py"))
               if os.path.basename(p) != "test_kernels.py")


def rerun_sites() -> set[str]:
    return set().union(*(node_sites(open(p).read(), os.path.basename(p)[:-3], CHECKS)
                         for p in TESTS))


def test_no_new_module_reruns_the_checks():
    assert sorted(rerun_sites() ^ RERUNS) == []


def test_rerun_gate_fails_on_an_injected_call():
    extra = ("from tests.test_kernels import KERNELS, check_reference\n\n"
             "def test_again():\n"
             "    row = KERNELS['losses._weighted_sum']\n"
             "    check_reference(row, row.cases['terms'])\n")
    assert sorted((rerun_sites() | node_sites(extra, "test_extra", CHECKS)) ^ RERUNS) == [
        "test_extra.test_again"]

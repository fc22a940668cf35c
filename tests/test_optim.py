import json
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from whamkit import optim
from whamkit.errors import CheckpointError, InvalidInputError
from whamkit.optim import (ADAM_BLOCK, MAGIC, VERSION, AdamState, adam_step, load_checkpoint,
                          save_checkpoint)

from tests.conftest import fail_atomic_writes


class TestAdam:
    def test_first_step_is_signlike(self):
        state = AdamState(lr=0.01)
        params = np.zeros(4)
        grads = np.array([0.5, -2.0, 1e-3, -1e-4])
        new = adam_step(state, params, grads)
        # bias correction makes m_hat = g and v_hat = g^2 on step one
        assert np.abs(new + 0.01 * np.sign(grads)).max() < 1e-5

    def test_zero_gradient_keeps_params(self):
        state = AdamState(lr=0.1)
        params = np.array([1.0, -2.0])
        new = adam_step(state, params, np.zeros(2))
        assert (new == params).all()

    def test_second_step_never_larger(self):
        state = AdamState(lr=0.05)
        params = np.array([0.0])
        g = np.array([0.7])
        p1 = adam_step(state, params, g)
        step1 = abs(p1[0] - params[0])
        p2 = adam_step(state, p1, g)
        step2 = abs(p2[0] - p1[0])
        assert step2 <= step1 + 1e-12

    def test_scalar_recurrence_by_hand(self):
        lr, b1, b2, eps = 0.02, 0.9, 0.999, 1e-8
        state = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps)
        p = 0.3
        g = -0.45
        m = v = 0.0
        got = np.array([p])
        for t in range(1, 4):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
            got = adam_step(state, got, np.array([g]))
            assert abs(got[0] - p) < 1e-15

    def test_lr_scale(self):
        state = AdamState(lr=0.01, lr_scale=np.array([1.0, 0.1]))
        new = adam_step(state, np.zeros(2), np.array([1.0, 1.0]))
        assert abs(new[0] / new[1] - 10.0) < 1e-6

    def test_in_place_update_is_bit_identical(self):
        """24 steps against the out-of-place formula, byte for byte, on a
        vector of three whole update blocks and a partial one."""
        rng = np.random.default_rng(5)
        n = 3 * ADAM_BLOCK + 17
        scale = rng.uniform(0.1, 1.0, size=n)
        state = AdamState(lr=0.003, lr_scale=scale)
        p = p_ref = rng.normal(size=n)
        m = v = np.zeros(n)
        b1, b2, eps = state.beta1, state.beta2, state.eps
        for t in range(1, 25):
            g = rng.normal(size=n) * rng.uniform(1e-6, 1e2)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            step = state.lr * m_hat / (np.sqrt(v_hat) + eps)
            p_ref = p_ref - step * scale
            p = adam_step(state, p, g)
            assert p.tobytes() == p_ref.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()

    def test_length_mismatch(self):
        state = AdamState(lr=0.01)
        with pytest.raises(InvalidInputError):
            adam_step(state, np.zeros(3), np.zeros(2))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.ckpt"
        vec = np.random.default_rng(0).normal(size=257)
        save_checkpoint(path, {"hidden": 8}, vec, meta={"epoch": 3},
                        extra_sections={"adam_m": vec * 0.5})
        dims, meta, sections = load_checkpoint(path)
        assert dims == {"hidden": 8}
        assert meta == {"epoch": 3}
        assert (sections["params"] == vec).all()
        assert (sections["adam_m"] == vec * 0.5).all()

    def test_named_sections_are_read_alone(self, tmp_path):
        path = tmp_path / "model.ckpt"
        vec = np.random.default_rng(1).normal(size=257)
        save_checkpoint(path, {"hidden": 8}, vec, meta={"epoch": 3},
                        extra_sections={"adam_m": vec * 0.5, "adam_v": vec * vec})
        _, _, full = load_checkpoint(path)
        dims, meta, params = load_checkpoint(path, ("params",))
        assert (dims, meta, list(params)) == ({"hidden": 8}, {"epoch": 3}, ["params"])
        assert params["params"].tobytes() == full["params"].tobytes()
        assert params["params"].flags.writeable
        path.write_bytes(path.read_bytes()[:-8])      # adam_v one value short
        with pytest.raises(CheckpointError, match="adam_v"):
            load_checkpoint(path, ("params",))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPTxxxx")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, np.zeros(3))
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # bump the version field
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, np.zeros(100))
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_file_is_the_header_then_each_section_buffer(self, tmp_path):
        path = tmp_path / "model.ckpt"
        vec = np.random.default_rng(2).normal(size=40)
        extra = {"adam_m": vec[::2], "adam_v": vec[:20].astype(">f8")}
        save_checkpoint(path, {"hidden": 4}, vec, meta={"epoch": 1}, extra_sections=extra)
        header = {"dims": {"hidden": 4}, "meta": {"epoch": 1},
                  "sections": [{"name": "params", "count": 40}, {"name": "adam_m", "count": 20},
                               {"name": "adam_v", "count": 20}]}
        blob = json.dumps(header, sort_keys=True).encode()
        payload = b"".join(np.asarray(a, dtype="<f8").tobytes()
                           for a in (vec, vec[::2], vec[:20]))
        assert path.read_bytes() == (MAGIC + struct.pack("<II", VERSION, len(blob))
                                     + blob + payload)

    def test_deterministic_bytes(self, tmp_path):
        vec = np.random.default_rng(1).normal(size=64)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, {"hidden": 4}, vec, meta={"epoch": 1})
        save_checkpoint(b, {"hidden": 4}, vec, meta={"epoch": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"hidden": 4}, np.arange(64.0), meta={"epoch": 1})
        before = path.read_bytes()
        fail_atomic_writes(monkeypatch)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, {"hidden": 4}, np.ones(64), meta={"epoch": 2})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(header=st.recursive(
        st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
        | st.sampled_from(["params", "dims", "meta", "sections", "name", "count"]),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["dims", "meta", "sections", "name", "count"]),
                          inner, max_size=4),
        max_leaves=12))
    # Counts that JSON reads as floats: Infinity, and 1e300, which is far
    # past any index-sized integer.
    @example(header={"dims": {}, "meta": {},
                     "sections": [{"name": "params", "count": float("inf")}]})
    @example(header={"dims": {}, "meta": {}, "sections": [{"name": "params", "count": 1e300}]})
    def test_any_header_loads_or_raises_checkpoint_error(self, tmp_path, header):
        """Whatever JSON the header holds, loading returns or raises
        CheckpointError, never another exception."""
        blob = json.dumps(header).encode()
        path = tmp_path / "fuzz.ckpt"
        path.write_bytes(MAGIC + struct.pack("<II", VERSION, len(blob)) + blob + bytes(24))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass

"""Span tracing for the traced benchmark run.

The tracer replaces public functions of whamkit by timing wrappers, at the
attribute where each caller looks the function up, and restores them on
removal. Spans stay in memory as (name, start, duration, parent) and are
written out when the run ends. Nothing here is imported by the untraced run.
"""

from __future__ import annotations

import functools
import json
import time

from whamkit import autodiff, cli, dataset, evaluate, layers, metrics, model, svg, train

# (owner, attribute, span name). Functions imported by name into another
# module are patched in that module too, since that is where it looks them up.
TARGETS = (
    (train, "run_training", "train.run_training"),
    (train, "build_batch", "train.build_batch"),
    (train, "forward_backward", "gradcheck.forward_backward"),
    (train, "total_loss", "losses.total_loss"),
    (train, "adam_step", "optim.adam_step"),
    (train, "save_checkpoint", "optim.save_checkpoint"),
    (train, "load_checkpoint", "optim.load_checkpoint"),
    (dataset, "load_split", "dataset.load_split"),
    (dataset, "load_bundle", "dataset.load_bundle"),
    (dataset, "save_output", "dataset.save_output"),
    (model.WhamModel, "forward", "model.forward"),
    (model.WhamModel, "encode", "model.encode"),
    (model.WhamModel, "integrate", "model.integrate"),
    (model.WhamModel, "decode_motion", "model.decode_motion"),
    (model.WhamModel, "decode_trajectory", "model.decode_trajectory"),
    (model.WhamModel, "refine_trajectory", "model.refine_trajectory"),
    (model, "adjust_velocity", "model.adjust_velocity"),
    (model, "rollout", "model.rollout"),
    (layers.GruLayer, "step", "layers.gru_step"),
    (cli, "infer_bundle", "evaluate.infer_bundle"),
    (evaluate, "infer_bundle", "evaluate.infer_bundle"),
    (metrics, "compute_report", "metrics.compute_report"),
    (svg, "render_topdown", "svg.render_topdown"),
)


def tape_size(loss) -> tuple[int, int]:
    """Recorded nodes reachable from loss, and the bytes of their outputs."""
    nodes, nbytes = 0, 0
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._bw is not None:
            nodes += 1
            nbytes += node.data.nbytes
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes, nbytes


class Tracer:
    """Spans of one process, with their parents."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []     # [name id, start s, duration s, parent index]
        self._open: list[int] = []
        self._excluded: dict[int, float] = {}
        self._saved: list[tuple] = []
        self.tapes: list[tuple[int, int]] = []   # (nodes, bytes) per backward

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        parent = self._open[-1] if self._open else -1
        self.spans.append([nid, time.perf_counter(), 0.0, parent])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter() - span[1] - self._excluded.pop(idx, 0.0)
        self._open.pop()

    def exclude(self, seconds: float) -> None:
        """Take tracing work out of every open span."""
        for idx in self._open:
            self._excluded[idx] = self._excluded.get(idx, 0.0) + seconds

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def _wrap_backward(self, fn):
        @functools.wraps(fn)
        def traced(tensor):
            start = time.perf_counter()
            self.tapes.append(tape_size(tensor))
            self.exclude(time.perf_counter() - start)
            idx = self.begin("autodiff.backward")
            try:
                return fn(tensor)
            finally:
                self.end(idx)
        return traced

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name))
        self._patch(autodiff.Tensor, "backward", self._wrap_backward(autodiff.Tensor.backward))

    def _patch(self, owner, attr, fn) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)

    def remove(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Calls, total and self seconds, and per-call durations per name."""
        child_time = [0.0] * len(self.spans)
        for nid, _, dur, parent in self.spans:
            if parent >= 0:
                child_time[parent] += dur
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
               for name in self.names}
        for i, (nid, _, dur, _) in enumerate(self.spans):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child_time[i]
            entry["durations"].append(dur)
        return out

    def write(self, path, extra: dict) -> None:
        summary = {name: {k: v for k, v in entry.items() if k != "durations"}
                   for name, entry in self.summary().items()}
        with open(path, "w") as fh:
            json.dump({**extra, "summary": summary, "names": self.names,
                       "tapes": self.tapes,
                       "span_fields": ["name", "start_s", "duration_s", "parent"],
                       "spans": self.spans}, fh)

"""The benchmark's span tracer wraps whamkit functions by owner and
attribute name; a rename in the package must fail here, not in a traced
benchmark run."""

import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_spans().TARGETS


@pytest.mark.parametrize("owner, attr, span", TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in TARGETS])
def test_trace_target_resolves(owner, attr, span):
    assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr} is gone"

"""The benchmark tracer's bindings exist in the package.

perfbench/spans.py wraps functions at the module or class attribute
their callers look up. A binding renamed or removed in the package
would otherwise only show up when a traced benchmark run fails.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import fleetsim

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    targets = _spans_module()._targets(fleetsim)
    assert targets
    missing = [
        (name, owner.__name__, attr)
        for name, owner, attr, _, _ in targets
        if attr not in vars(owner)
    ]
    assert missing == []

"""The benchmark tracer's bindings and metrics exist.

perfbench/spans.py wraps functions at the module or class attribute
their callers look up, and its tracer reports the per-layer metrics
BENCHMARK.json declares. A binding renamed or removed in the package,
or a declared metric the tracer does not report, would otherwise only
show up when a traced benchmark run fails.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import fleetsim

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


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


def test_every_declared_layer_metric_is_reported():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    # perfbench/run.py computes the overhead ratio from two passes itself
    names = [m["name"] for m in declared if m["name"] != "trace_overhead_ratio"]
    assert names
    reported = _spans_module().Tracer(fleetsim).layer_metrics()
    assert [name for name in names if name not in reported] == []

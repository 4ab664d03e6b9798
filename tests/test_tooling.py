"""The benchmark tracer's bindings and metrics exist, and are reached;
the digest sweep reports every run that differs.

perfbench/spans.py wraps functions at the module or class attribute
their callers look up, and its tracer reports the per-layer metrics
BENCHMARK.json declares. A binding renamed or removed in the package,
or a declared metric the tracer does not report, would otherwise only
show up when a traced benchmark run fails; a binding the package no
longer calls through would only show up as a zero metric.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import fleetsim

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
SWEEP = ROOT / "tests" / "log_sweep.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans_module():
    return _load("perfbench_spans", SPANS)


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


def test_every_traced_binding_is_reached():
    # a refactor that stops calling a traced function through its
    # binding would read zero for that layer's metric, and fail nowhere
    spans = _spans_module()
    configs = [
        fleetsim.ScenarioConfig(
            seed=1000, grid_width=10, grid_height=10, vehicle_count=13,
            vehicle_capacity=1, rate=1.7, max_wait_low=5, max_wait_high=8,
            engine=fleetsim.EngineConfig(mode=fleetsim.Mode.HAILING, horizon=20),
        ),
        fleetsim.ScenarioConfig(
            seed=2000, grid_width=10, grid_height=10, vehicle_count=15,
            vehicle_capacity=4, rate=1.4, max_wait_low=4, max_wait_high=7,
            engine=fleetsim.EngineConfig(
                mode=fleetsim.Mode.POOLING, horizon=20, max_bundle_size=3
            ),
        ),
    ]
    tracer = spans.Tracer(fleetsim)
    tracer.attach("bindings")
    try:
        for cfg in configs:
            fleetsim.twin_run(cfg)
    finally:
        tracer.detach()
    names = sorted({name for name, _, _, _, _ in spans._targets(fleetsim)})
    assert names
    assert [name for name in names if tracer.calls[name] == 0] == []


def test_log_sweep_check_lists_every_differing_run(tmp_path, monkeypatch, capsys):
    sweep = _load("log_sweep", SWEEP)
    reference = {f"run-{i}": {"log": "a", "report": "b", "metrics": "c"} for i in range(4)}
    (tmp_path / "ref.json").write_text(json.dumps(reference), encoding="utf-8")
    got = {name: dict(parts) for name, parts in reference.items()}
    got["run-1"]["log"] = got["run-3"]["report"] = got["run-3"]["metrics"] = "x"
    monkeypatch.setattr(sweep, "REFERENCE", str(tmp_path / "ref.json"))
    monkeypatch.setattr(sweep, "sweep", lambda: iter(got.items()))
    assert sweep.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: run-1 (log)",
        "differs: run-3 (metrics, report)",
        f"2 of 4 runs differ from {tmp_path / 'ref.json'}",
    ]
    monkeypatch.setattr(sweep, "sweep", lambda: iter(reference.items()))
    assert sweep.main(["--check"]) == 0

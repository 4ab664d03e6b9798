"""In-memory spans around calls into fleetsim's public functions.

The tracer replaces each traced function at the binding its caller looks
it up through (a module global such as `fleetsim.engine.build_rv_graph`,
or a class attribute such as `Network.travel_time`) with a wrapper that
times the call, and puts the original back when detached. Calls nest on
one stack, so a call's self time is its duration minus the time covered
by the traced calls made inside it.

Every traced call adds to its name's self time and call count. Calls
at layer boundaries also keep a span (id, parent id, name, start, end,
pair). The hot primitives (travel_time, shortest_path, route_cost and
best_route), called up to millions of times a pass, keep none, which
holds the spans to about ten megabytes a pass. A span's parent is the
nearest enclosing call that keeps spans.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter


def _count_rv_graph(tracer, args, graph, ns):
    tracer.counts["matching.rv_edges"] += len(graph.edges)


def _count_hailing(tracer, args, solution, ns):
    tracer.counts["matching.active_requests"] += len(args[0].request_ids)
    tracer.counts["matching.assigned"] += len(solution.pairs)


def _count_rtv_graph(tracer, args, graph, ns):
    for bundle in graph.bundles:
        tracer.counts[f"pooling.bundles_l{len(bundle.members)}"] += 1
    tracer.counts["pooling.vb_edges"] += len(graph.edges)


def _count_best_route(tracer, args, found, ns):
    if found is not None:
        tracer.counts["pooling.best_route_hits"] += 1


def _count_solve_pooling(tracer, args, solution, ns):
    tracer.solve_ns.append(ns)


def _count_scan(tracer, args, result, ns):
    tracer.counts["model.scan_rows"] += len(args[0].requests)


def _targets(fs):
    """(name, owner, attribute, keeps spans, count hook) for every traced call."""
    engine, matching, pooling, scenario = fs.engine, fs.matching, fs.pooling, fs.scenario
    net, state = fs.Network, fs.SystemState
    return [
        ("scenario.run_scenario", scenario, "run_scenario", True, None),
        ("scenario.generate_demand", scenario, "generate_demand", True, None),
        ("network.build", net, "build_grid", True, None),
        ("engine.step", scenario, "step", True, None),
        ("engine.reveal", engine, "reveal_requests", True, None),
        ("engine.optimize", engine, "optimize", True, None),
        ("engine.apply", engine, "apply_assignment", True, None),
        ("engine.transition", engine, "transition", True, None),
        ("engine.sweep", engine, "walkaway_sweep", True, None),
        ("model.validate_state", engine, "validate_state", True, None),
        ("matching.build_rv_graph", engine, "build_rv_graph", True, _count_rv_graph),
        ("matching.feasible_vehicles", matching, "feasible_vehicles", True, None),
        ("matching.solve_hailing", engine, "solve_hailing", True, _count_hailing),
        ("pooling.build_rtv_graph", engine, "build_rtv_graph", True, _count_rtv_graph),
        ("pooling.divertable_vehicles", pooling, "divertable_vehicles", True, None),
        ("pooling.best_route", pooling, "best_route", False, _count_best_route),
        ("pooling.solve_pooling", engine, "solve_pooling", True, _count_solve_pooling),
        ("model.active_requests", state, "active_requests", True, _count_scan),
        ("model.status_ids", state, "status_ids", True, _count_scan),
        ("model.route_cost", matching, "route_cost", False, None),
        ("model.route_cost", pooling, "route_cost", False, None),
        ("network.shortest_path", net, "shortest_path", False, None),
        ("network.travel_time", net, "travel_time", False, None),
    ]


class Tracer:
    """Collects spans and per-name totals while attached to a twin pair."""

    def __init__(self, fs) -> None:
        self._targets = _targets(fs)
        self._saved: list = []
        self._stack: list = [[0, None]]  # frames: [child ns, span id]
        self._next_id = 0
        self.pair = None
        self.spans: list[tuple] = []
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.solve_ns: list[int] = []

    def reset(self) -> None:
        """Drop the totals, keeping the spans, before the next traced pass."""
        self.self_ns.clear()
        self.calls.clear()
        self.counts.clear()
        self.solve_ns.clear()

    def attach(self, pair: str) -> None:
        self.pair = pair
        # a pair cut off by the wall-clock cap can leave frames behind
        del self._stack[1:]
        for name, owner, attr, keep, count in self._targets:
            raw = vars(owner)[attr]
            wrapped = self._wrap(name, getattr(owner, attr), keep, count)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = staticmethod(wrapped)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def detach(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        self.pair = None

    def _wrap(self, name, fn, keep, count):
        stack, spans = self._stack, self.spans
        self_ns, calls = self.self_ns, self.calls
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            if keep:
                self._next_id += 1
                span_id = self._next_id
            else:
                span_id = parent[1]
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[0] += end - start
                self_ns[name] += end - start - frame[0]
                calls[name] += 1
                if keep:
                    spans.append((span_id, parent[1], name, start, end, self.pair))
            if count is not None:
                count(self, args, result, end - start)
            return result

        return traced

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals of the pass traced since the last reset."""
        s = {name: ns / 1e9 for name, ns in self.self_ns.items()}
        c = self.counts
        best_route_calls = self.calls["pooling.best_route"]
        return {
            "engine.reveal_s": (s.get("engine.reveal", 0.0), "s"),
            "engine.apply_s": (s.get("engine.apply", 0.0), "s"),
            "engine.transition_s": (s.get("engine.transition", 0.0), "s"),
            "engine.sweep_s": (s.get("engine.sweep", 0.0), "s"),
            "engine.batches": (self.calls["engine.step"], "count"),
            "matching.build_rv_graph_s": (s.get("matching.build_rv_graph", 0.0), "s"),
            "matching.feasible_vehicles_s": (s.get("matching.feasible_vehicles", 0.0), "s"),
            "matching.solve_hailing_s": (s.get("matching.solve_hailing", 0.0), "s"),
            "matching.rv_edges": (c["matching.rv_edges"], "count"),
            "matching.assigned_ratio": (
                _ratio(c["matching.assigned"], c["matching.active_requests"]), "ratio"
            ),
            "pooling.build_rtv_graph_s": (s.get("pooling.build_rtv_graph", 0.0), "s"),
            "pooling.divertable_vehicles_s": (s.get("pooling.divertable_vehicles", 0.0), "s"),
            "pooling.best_route_s": (s.get("pooling.best_route", 0.0), "s"),
            "pooling.best_route_calls": (best_route_calls, "count"),
            "pooling.best_route_hit_ratio": (
                _ratio(c["pooling.best_route_hits"], best_route_calls), "ratio"
            ),
            "pooling.bundles_l1": (c["pooling.bundles_l1"], "count"),
            "pooling.bundles_l2": (c["pooling.bundles_l2"], "count"),
            "pooling.bundles_l3": (c["pooling.bundles_l3"], "count"),
            "pooling.vb_edges": (c["pooling.vb_edges"], "count"),
            "pooling.solve_pooling_s": (s.get("pooling.solve_pooling", 0.0), "s"),
            "pooling.solve_ms_p99": (percentile(self.solve_ns, 0.99) / 1e6, "ms"),
            "network.travel_time_calls": (self.calls["network.travel_time"], "count"),
            "network.travel_time_s": (s.get("network.travel_time", 0.0), "s"),
            "network.shortest_path_calls": (self.calls["network.shortest_path"], "count"),
            "network.shortest_path_s": (s.get("network.shortest_path", 0.0), "s"),
            "network.build_s": (s.get("network.build", 0.0), "s"),
            "model.validate_state_s": (s.get("model.validate_state", 0.0), "s"),
            "model.active_requests_s": (s.get("model.active_requests", 0.0), "s"),
            "model.status_ids_s": (s.get("model.status_ids", 0.0), "s"),
            "model.scan_rows": (c["model.scan_rows"], "count"),
            "model.route_cost_s": (s.get("model.route_cost", 0.0), "s"),
            "scenario.generate_demand_s": (s.get("scenario.generate_demand", 0.0), "s"),
            "scenario.run_scenario_self_s": (s.get("scenario.run_scenario", 0.0), "s"),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, pair in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end, "pair": pair},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def _ratio(part: int, whole: int) -> float:
    """part / whole, and 0.0 for a layer that did no work."""
    return part / whole if whole else 0.0


def percentile(samples, q: float) -> float:
    """The q-quantile by linear interpolation; 0.0 for no samples."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return float(samples[0])
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    return cuts[round(q * 1000) - 1]

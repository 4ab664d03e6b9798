"""Acceptance gate: one test per criterion, one verdict line each.

The expensive pieces are the two 100-seed twin batteries; they run once
per session and their traces feed several criteria. Every check is an
exact equality or subset assertion, no tolerances.
"""

from __future__ import annotations

import random
import time

import pytest

from fleetsim.engine import EngineConfig, Mode
from fleetsim.matching import (
    feasible_vehicles,
    kept_plans,
    solve_hailing,
)
from fleetsim.model import CostWeights, Route, Stop
from fleetsim.network import Network
from fleetsim.pooling import (
    Bundle,
    RTVGraph,
    VBEdge,
    best_route,
    divertable_vehicles,
    solve_pooling,
)
from fleetsim.scenario import (
    ScenarioConfig,
    event_log_lines,
    run_scenario,
    twin_run,
)
from oracles import exhaustive_pooling_oracle, late_assignments, priority_matching_oracle

HAILING_SEEDS = range(1000, 1100)
POOLING_SEEDS = range(2000, 2100)

_DUMMY_ROUTE = Route((Stop(0, frozenset({0}), frozenset(), 0),))


def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion:>2}: PASS - {detail}")


def hailing_cfg(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        seed=seed,
        grid_width=10,
        grid_height=10,
        vehicle_count=5 + seed % 16,
        vehicle_capacity=1,
        rate=0.5 + (seed % 26) / 10,
        max_wait_low=5,
        max_wait_high=8,
        engine=EngineConfig(mode=Mode.HAILING, horizon=200),
    )


def pooling_cfg(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        seed=seed,
        grid_width=10,
        grid_height=10,
        vehicle_count=6 + seed % 11,
        vehicle_capacity=4,
        rate=0.5 + (seed % 11) / 10,
        max_wait_low=4,
        max_wait_high=7,
        engine=EngineConfig(mode=Mode.POOLING, horizon=200, max_bundle_size=3),
    )


class HailingTrace:
    """Per-batch reachability sets, edge costs, and chosen pairs."""

    def __init__(self, net: Network) -> None:
        self.net = net
        self.batches: list[dict] = []

    def __call__(self, ctx) -> None:
        reach = feasible_vehicles(
            ctx.state, self.net, kept_plans(ctx.state, self.net, ctx.now, CostWeights())
        )
        self.batches.append(
            {
                "vbar": {rid: frozenset(vids) for rid, vids in reach.items()},
                "edges": {
                    (min(ctx.graph.members(bid)), vid): edge.cost
                    for (bid, vid), edge in ctx.graph.edges.items()
                },
                "pairs": dict(ctx.solution.pairs),
                "active": tuple(ctx.graph.request_ids),
            }
        )


@pytest.fixture(scope="module")
def hailing_battery():
    net = Network.build_grid(10, 10)
    records = []
    started = time.perf_counter()
    for seed in HAILING_SEEDS:
        traces = (HailingTrace(net), HailingTrace(net))
        entry = twin_run(hailing_cfg(seed), observers=traces)
        records.append((seed, entry, traces))
    elapsed = time.perf_counter() - started
    return records, elapsed


@pytest.fixture(scope="module")
def pooling_battery():
    records = []
    started = time.perf_counter()
    for seed in POOLING_SEEDS:
        entry = twin_run(pooling_cfg(seed))
        records.append((seed, entry))
    elapsed = time.perf_counter() - started
    return records, elapsed


def test_criterion_01_twin_equality_hailing(hailing_battery):
    records, elapsed = hailing_battery
    mismatched = [
        (seed, entry.first_divergence) for seed, entry, _ in records if not entry.equal
    ]
    assert mismatched == []
    report(1, f"{len(records)} hailing twins identical ({elapsed:.1f}s)")


def test_criterion_02_twin_equality_pooling(pooling_battery):
    records, elapsed = pooling_battery
    mismatched = [
        (seed, entry.first_divergence) for seed, entry in records if not entry.equal
    ]
    assert mismatched == []
    report(2, f"{len(records)} pooling twins identical ({elapsed:.1f}s)")


def test_criterion_03_no_late_assignment(hailing_battery, pooling_battery):
    offenders = []
    for seed, entry, _ in hailing_battery[0]:
        offenders += [(seed, rid) for rid in late_assignments(entry.walkaway.events)]
    for seed, entry in pooling_battery[0]:
        offenders += [(seed, rid) for rid in late_assignments(entry.walkaway.events)]
    assert offenders == []
    total = len(hailing_battery[0]) + len(pooling_battery[0])
    report(3, f"zero late assignments across {total} walk-away runs")


def test_criterion_04_zero_bumped_assignments(hailing_battery, pooling_battery):
    bumped = 0
    for _, entry, _ in hailing_battery[0]:
        bumped += entry.reject.report.p_plus_count + entry.walkaway.report.p_plus_count
    for _, entry in pooling_battery[0]:
        bumped += entry.reject.report.p_plus_count + entry.walkaway.report.p_plus_count
    assert bumped == 0

    # the same scenarios with re-assignments forbidden outright
    frozen_bumped = 0
    for seeds, build in ((HAILING_SEEDS, hailing_cfg), (POOLING_SEEDS, pooling_cfg)):
        for seed in seeds:
            cfg = build(seed)
            cfg.engine = EngineConfig(
                mode=cfg.engine.mode,
                reassignment="frozen",
                horizon=cfg.engine.horizon,
                max_bundle_size=cfg.engine.max_bundle_size,
            )
            entry = twin_run(cfg)
            frozen_bumped += (
                entry.reject.report.p_plus_count + entry.walkaway.report.p_plus_count
            )
    assert frozen_bumped == 0
    report(4, "p_plus stayed 0 under allowed and frozen re-assignment")


def _random_rv_instance(rng: random.Random) -> RTVGraph:
    request_ids = sorted(rng.sample(range(1, 30), rng.randrange(1, 7)))
    vehicle_ids = sorted(rng.sample(range(0, 20), rng.randrange(1, 7)))
    costs = {}
    for rid in request_ids:
        for vid in vehicle_ids:
            if rng.random() < 0.6:
                costs[(rid, vid)] = rng.randrange(-15, 30)
    prev: dict[int, int | None] = {rid: None for rid in request_ids}
    used = set()
    for rid, vid in sorted(costs):
        if vid not in used and rng.random() < 0.3:
            prev[rid] = vid
            used.add(vid)
    vehicles_for = {
        rid: sorted(v for r, v in costs if r == rid) for rid in request_ids
    }
    bundles = [
        Bundle(bid, frozenset({rid}))
        for bid, rid in enumerate(rid for rid in request_ids if vehicles_for[rid])
    ]
    bundle_of = {min(b.members): b.id for b in bundles}
    edges = {
        (bundle_of[rid], vid): VBEdge(bundle_of[rid], vid, cost, _DUMMY_ROUTE)
        for (rid, vid), cost in sorted(costs.items())
    }
    return RTVGraph(
        request_ids=request_ids,
        vehicle_ids=vehicle_ids,
        bundles=bundles,
        edges=edges,
        prev_assigned=prev,
        baseline_cost={vid: 0 for vid in vehicle_ids},
        kept_routes={vid: None for vid in vehicle_ids},
    )


def test_criterion_05_hailing_solver_matches_oracle():
    rng = random.Random(501)
    started = time.perf_counter()
    for _ in range(1000):
        graph = _random_rv_instance(rng)
        got = solve_hailing(graph)
        costs = {
            (min(graph.members(bid)), vid): edge.cost
            for (bid, vid), edge in graph.edges.items()
        }
        prev = {rid: vid for rid, vid in graph.prev_assigned.items() if vid is not None}
        kept, assigned, cost, _ = priority_matching_oracle(
            graph.request_ids, graph.vehicle_ids, costs, prev
        )
        assert (got.kept_previous, got.assigned_count, got.total_cost) == (
            kept,
            assigned,
            cost,
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(5, f"1000 assignment instances matched the oracle ({elapsed:.1f}s)")


def _random_rtv_instance(rng: random.Random) -> RTVGraph | None:
    rids = sorted(rng.sample(range(1, 9), rng.randrange(2, 6)))
    vids = sorted(rng.sample(range(0, 6), rng.randrange(1, 4)))
    groups = {(rid,) for rid in rids if rng.random() < 0.8}
    for _ in range(rng.randrange(0, 5)):
        size = rng.randrange(2, min(4, len(rids) + 1))
        groups.add(tuple(sorted(rng.sample(rids, size))))
    edge_costs = {}
    for members in sorted(groups):
        for vid in vids:
            if rng.random() < 0.5 and len(edge_costs) < 20:
                edge_costs[(members, vid)] = rng.randrange(-12, 25)
    if not edge_costs:
        return None
    kept_groups = sorted(
        {frozenset(m) for m, _ in edge_costs}, key=lambda s: (len(s), tuple(sorted(s)))
    )
    bundles = [Bundle(i, members) for i, members in enumerate(kept_groups)]
    index = {b.members: b.id for b in bundles}
    edges = {}
    for (members, vid), cost in sorted(
        edge_costs.items(), key=lambda kv: (index[frozenset(kv[0][0])], kv[0][1])
    ):
        bid = index[frozenset(members)]
        edges[(bid, vid)] = VBEdge(bid, vid, cost, _DUMMY_ROUTE)
    prev: dict[int, int | None] = {rid: None for rid in rids}
    used = set()
    for (members, vid) in sorted(edge_costs):
        if len(members) == 1 and vid not in used and rng.random() < 0.3:
            prev[members[0]] = vid
            used.add(vid)
    return RTVGraph(
        request_ids=rids,
        vehicle_ids=vids,
        bundles=bundles,
        edges=edges,
        prev_assigned=prev,
        baseline_cost={vid: 0 for vid in vids},
        kept_routes={vid: None for vid in vids},
    )


def test_criterion_06_pooling_solver_matches_oracle():
    rng = random.Random(601)
    started = time.perf_counter()
    checked = 0
    while checked < 500:
        graph = _random_rtv_instance(rng)
        if graph is None:
            continue
        checked += 1
        got = solve_pooling(graph)
        want = exhaustive_pooling_oracle(graph)
        assert got.value == want.value
        assert got.pairs == want.pairs
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(6, f"500 shared-ride instances matched the oracle ({elapsed:.1f}s)")


def test_criterion_07_reachable_sets_only_shrink(hailing_battery):
    checked = 0
    for seed, entry, traces in hailing_battery[0]:
        for trace in traces:
            for before, after in zip(trace.batches, trace.batches[1:]):
                for rid, now_set in after["vbar"].items():
                    if rid not in before["vbar"]:
                        continue  # newly revealed this batch
                    assert now_set <= before["vbar"][rid], (seed, rid)
                    checked += 1
    assert checked > 10_000
    report(7, f"{checked} per-request reachability sets never grew")


def test_criterion_08_retained_pairs_stay_ahead(hailing_battery):
    checked = 0
    for seed, entry, traces in hailing_battery[0]:
        for trace in traces:
            for before, after in zip(trace.batches, trace.batches[1:]):
                for rho, vid in before["pairs"].items():
                    kept_key = (rho, vid)
                    if kept_key not in before["edges"] or kept_key not in after["edges"]:
                        continue
                    kept_delta = after["edges"][kept_key] - before["edges"][kept_key]
                    for rid in before["active"]:
                        if rid in before["pairs"]:
                            continue
                        rival_key = (rid, vid)
                        if rival_key not in before["edges"] or rival_key not in after["edges"]:
                            continue
                        rival_delta = (
                            after["edges"][rival_key] - before["edges"][rival_key]
                        )
                        assert kept_delta <= rival_delta, (seed, rho, rid, vid)
                        checked += 1
    assert checked > 100
    report(8, f"{checked} kept-versus-rival cost deltas held the inequality")


class InsertionProbe:
    """Finds passed-over requests and tries to force them into every
    chosen bundle on a reachable vehicle."""

    def __init__(self, net: Network, weights) -> None:
        self.net = net
        self.weights = weights
        self.instances = 0
        self.violations: list[tuple] = []

    def __call__(self, ctx) -> None:
        unassigned = [
            rid for rid in ctx.graph.request_ids if rid not in ctx.solution.pairs
        ]
        if not unassigned:
            return
        reach = divertable_vehicles(
            ctx.state, self.net, kept_plans(ctx.state, self.net, ctx.now, self.weights)
        )
        for rid in unassigned:
            if not reach.get(rid):
                continue
            self.instances += 1
            for vid, bid in sorted(ctx.solution.chosen_bundles.items()):
                if vid not in reach[rid]:
                    continue
                members = set(ctx.graph.members(bid))
                forced = best_route(
                    ctx.state.vehicles[vid],
                    members | {rid},
                    ctx.now,
                    self.net,
                    ctx.state.requests,
                    self.weights,
                )
                if forced is not None:
                    self.violations.append((ctx.batch, rid, vid, sorted(members)))


def test_criterion_09_no_feasible_insertion_for_passed_over_requests():
    instances = 0
    violations = []
    seed = 3000
    while instances < 50 and seed < 3040:
        cfg = ScenarioConfig(
            seed=seed,
            grid_width=6,
            grid_height=6,
            vehicle_count=2,
            vehicle_capacity=2,
            rate=1.3,
            max_wait_low=2,
            max_wait_high=4,
            engine=EngineConfig(
                mode=Mode.POOLING,
                rejection_policy="walk_away",
                horizon=30,
                max_bundle_size=None,
            ),
        )
        net = cfg.build_network()
        probe = InsertionProbe(net, cfg.engine.weights)
        run_scenario(cfg, probe)
        instances += probe.instances
        violations += probe.violations
        seed += 1
    assert instances >= 50
    assert violations == []
    report(9, f"{instances} passed-over requests admit no bundle insertion")


def test_criterion_10_early_rejection_shrinks_the_problem(hailing_battery):
    strict_at_high_rate = 0
    high_rate = 0
    for seed, entry, _ in hailing_battery[0]:
        reject = entry.reject.active_counts
        walk = entry.walkaway.active_counts
        strict = False
        for i in range(max(len(reject), len(walk))):
            r = reject[i] if i < len(reject) else 0
            w = walk[i] if i < len(walk) else 0
            assert r <= w, (seed, i)
            strict = strict or r < w
        if hailing_cfg(seed).rate >= 2.0:
            high_rate += 1
            strict_at_high_rate += 1 if strict else 0
    assert high_rate > 0
    assert strict_at_high_rate * 2 >= high_rate
    report(
        10,
        f"batch problem sizes dominated; {strict_at_high_rate}/{high_rate} "
        "busy scenarios strictly smaller",
    )


def test_criterion_11_event_logs_are_byte_identical():
    probes = [hailing_cfg(1003), hailing_cfg(1017), pooling_cfg(2004)]
    for cfg in probes:
        first = "\n".join(event_log_lines(run_scenario(cfg)))
        second = "\n".join(event_log_lines(run_scenario(cfg)))
        assert first.encode() == second.encode()
    report(11, f"{len(probes)} seeds re-ran to byte-identical logs")

"""Tests for bundle routing, enumeration, and the shared-ride solver."""

from __future__ import annotations

import copy
import hashlib
import itertools
import random
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import event, given, settings, strategies as st

from fleetsim import pooling, scenario
from fleetsim.engine import EngineConfig, Mode, Reassignment, RejectionPolicy, step
from fleetsim.matching import MatchingError, _ranked_choices, kept_plans, solve_hailing
from fleetsim.model import (
    CostWeights,
    Request,
    RequestStatus,
    Route,
    Stop,
    SystemState,
    Vehicle,
    plan_start,
    route_cost,
    schedule_stops,
)
from fleetsim.network import Network, grid_node
from fleetsim.pooling import (
    Bundle,
    RTVGraph,
    VBEdge,
    best_route,
    build_rtv_graph,
    divertable_vehicles,
    solve_pooling,
)
from fleetsim.scenario import (
    ScenarioConfig, event_log_lines, generate_demand, run_scenario, twin_run,
)
from oracles import exhaustive_pooling_oracle, late_assignments, oracle_options, route_feasible
from test_acceptance import hailing_cfg, pooling_cfg
from test_network import grid_edges, random_strong_network
from test_pinned_logs import _directed_grid

_DUMMY_ROUTE = Route((Stop(0, frozenset({0}), frozenset(), 0),))
_W = CostWeights(1, 1, 1)


def make_request(rid, origin, destination, request_time=0, max_wait=5, max_ride=10):
    r = Request(rid, origin, destination, request_time, max_wait, max_ride)
    r.reveal()
    return r


# -- routing --------------------------------------------------------------------


def planned(vehicle, members, now, net, requests, weights):
    """`best_route`'s visits scheduled from the vehicle's plan start, and their cost."""
    found = best_route(vehicle, members, now, net, requests, weights)
    if found is None:
        return None
    visits, cost = found
    return Route(schedule_stops(net, *plan_start(vehicle, now), visits)), cost


def test_best_route_prefers_cheapest_then_lowest_sequence():
    net = Network.build_grid(5, 5)
    requests = {
        1: make_request(1, grid_node(5, 1, 0), grid_node(5, 3, 0)),
        2: make_request(2, grid_node(5, 2, 0), grid_node(5, 2, 2)),
    }
    vehicle = Vehicle(id=0, capacity=2, position=grid_node(5, 0, 0))
    route, cost = planned(vehicle, {1, 2}, 0, net, requests, _W)
    assert cost == 15
    # the shared-ride interleaving ties at 15; the sequential order wins
    # because dropping request 1 sorts before picking request 2
    assert [(s.location, tuple(sorted(s.pickups)), tuple(sorted(s.dropoffs))) for s in route.stops] == [
        (grid_node(5, 1, 0), (1,), ()),
        (grid_node(5, 3, 0), (), (1,)),
        (grid_node(5, 2, 0), (2,), ()),
        (grid_node(5, 2, 2), (), (2,)),
    ]


def test_best_route_capacity_changes_the_answer():
    net = Network.build_grid(5, 5)
    requests = {
        1: make_request(1, grid_node(5, 1, 0), grid_node(5, 4, 0)),
        2: make_request(2, grid_node(5, 2, 0), grid_node(5, 3, 0)),
    }
    roomy = Vehicle(id=0, capacity=2, position=grid_node(5, 0, 0))
    route, cost = planned(roomy, {1, 2}, 0, net, requests, _W)
    assert cost == 11  # ride both at once
    assert [s.location for s in route.stops] == [
        grid_node(5, 1, 0),
        grid_node(5, 2, 0),
        grid_node(5, 3, 0),
        grid_node(5, 4, 0),
    ]
    cramped = Vehicle(id=0, capacity=1, position=grid_node(5, 0, 0))
    route, cost = planned(cramped, {1, 2}, 0, net, requests, _W)
    assert cost == 19  # forced one after the other, second request first


def test_best_route_inserts_before_committed_dropoff():
    net = Network.build_grid(5, 5)
    rider = make_request(9, grid_node(5, 3, 0), grid_node(5, 4, 0), max_ride=10)
    rider.assign(0)
    rider.board(0)
    requests = {
        9: rider,
        1: make_request(1, grid_node(5, 1, 0), grid_node(5, 2, 0), max_wait=3, max_ride=4),
    }
    vehicle = Vehicle(id=0, capacity=2, position=grid_node(5, 0, 0), onboard={9})
    route, cost = planned(vehicle, {1}, 0, net, requests, _W)
    # detour first: pick at 1, drop at 2, then the promised dropoff at 4
    assert cost == 4 + 1 + (1 + 4)
    assert [s.location for s in route.stops] == [
        grid_node(5, 1, 0),
        grid_node(5, 2, 0),
        grid_node(5, 4, 0),
    ]
    ok, reason = route_feasible(vehicle, route, 0, net, requests)
    assert ok, reason


def test_best_route_infeasible_cases():
    net = Network.build_grid(5, 5)
    far = {1: make_request(1, grid_node(5, 4, 4), grid_node(5, 0, 4), max_wait=3)}
    vehicle = Vehicle(id=0, capacity=2, position=grid_node(5, 0, 0))
    assert best_route(vehicle, {1}, 0, net, far, _W) is None

    tight = {1: make_request(1, grid_node(5, 1, 0), grid_node(5, 4, 0), max_ride=2)}
    assert best_route(vehicle, {1}, 0, net, tight, _W) is None

    rider = make_request(9, grid_node(5, 0, 1), grid_node(5, 0, 4), max_ride=3)
    rider.assign(0)
    rider.board(1)
    loaded = Vehicle(id=0, capacity=1, position=grid_node(5, 0, 1), free_at=1, onboard={9})
    # no capacity for a pickup before the dropoff, and afterwards the
    # new request's deadline is gone
    near = {9: rider, 1: make_request(1, grid_node(5, 1, 1), grid_node(5, 1, 3), request_time=1, max_wait=2)}
    assert best_route(loaded, {1}, 1, net, near, _W) is None


def _route_signature(route):
    return [(s.location, tuple(sorted(s.pickups)), tuple(sorted(s.dropoffs)), s.planned_arrival) for s in route.stops]


def _visit_orders(pending):
    """Every order of the (request id, kind) visits with each pickup (kind 1) before its dropoff."""
    if not pending:
        yield ()
    for i, (rid, kind) in enumerate(pending):
        rest = pending[:i] + pending[i + 1:] + ([(rid, 0)] if kind == 1 else [])
        for tail in _visit_orders(rest):
            yield ((rid, kind),) + tail


def brute_force_route(vehicle, members, now, net, requests, weights):
    """Independent reference: try every visit order outright."""
    pending = [(rid, 1) for rid in sorted(members)] + [(rid, 0) for rid in sorted(vehicle.onboard)]
    node, time = plan_start(vehicle, now)
    best = None
    for order in _visit_orders(pending):
        specs = []
        for rid, kind in order:
            if kind == 1:
                specs.append((requests[rid].origin, (rid,), ()))
            else:
                specs.append((requests[rid].destination, (), (rid,)))
        route = Route(schedule_stops(net, node, time, specs))
        feasible, _ = route_feasible(vehicle, route, now, net, requests)
        if not feasible:
            continue
        cost = route_cost(route, vehicle, now, weights, requests)
        key = (cost, order)
        if best is None or key < best[0]:
            best = (key, route)
    if best is None:
        return None
    return best[1], best[0][0]


def test_best_route_agrees_with_permutation_search():
    agrees_with_permutation_search(Network.build_grid(5, 5), slack=1)


def test_best_route_agrees_with_permutation_search_on_a_directed_grid(tmp_path):
    net = Network.load_edge_list(_directed_grid(tmp_path / "directed.txt", 5, 5, seed=19))
    agrees_with_permutation_search(net, slack=2)


def agrees_with_permutation_search(net, slack):
    """`best_route` against `brute_force_route`; `slack` scales the random limits."""
    rng = random.Random(20260818)
    nodes = list(net.nodes)
    found = 0
    for trial in range(150):
        # zero weights make equal-cost orders common, so the visit-order rule decides
        weights = CostWeights(rng.randrange(4), rng.randrange(4), rng.randrange(4))
        vehicle = Vehicle(
            id=0,
            capacity=rng.randrange(1, 5),
            position=rng.choice(nodes),
            free_at=rng.randrange(0, 2),
        )
        requests = {}
        for rid in range(8, 8 + rng.choice([0, 0, 1, 2])):
            destination = rng.choice([n for n in nodes if n != vehicle.position])
            requests[rid] = rider = make_request(
                rid,
                vehicle.position,
                destination,
                max_ride=vehicle.free_at + net.travel_time(vehicle.position, destination)
                + slack * rng.randrange(0, 5),
            )
            rider.assign(0)
            rider.board(0)
            vehicle.onboard.add(rid)
        members = set()
        for rid in range(1, rng.randrange(2, 5)):
            origin, destination = rng.sample(nodes, 2)
            requests[rid] = make_request(
                rid,
                origin,
                destination,
                max_wait=slack * rng.randrange(4, 12),
                max_ride=net.travel_time(origin, destination) + slack * rng.randrange(0, 6),
            )
            members.add(rid)
        got = planned(vehicle, members, 0, net, requests, weights)
        want = brute_force_route(vehicle, members, 0, net, requests, weights)
        if want is None:
            assert got is None
            continue
        found += 1
        assert got is not None
        assert got[1] == want[1]
        assert _route_signature(got[0]) == _route_signature(want[0])
    assert found >= 50


def test_best_route_empty_bundle_and_rider_without_pickup_time():
    net = Network.build_grid(5, 5)
    idle = Vehicle(id=0, capacity=2, position=grid_node(5, 2, 2), free_at=3)
    assert best_route(idle, set(), 1, net, {}, _W) == ([], 0)
    rider = make_request(9, grid_node(5, 2, 2), grid_node(5, 4, 4))
    rider.assign(0)  # on board, yet never boarded
    loaded = Vehicle(id=0, capacity=2, position=grid_node(5, 2, 2), onboard={9})
    with pytest.raises(MatchingError, match="request 9 on board without a pickup time"):
        best_route(loaded, set(), 0, net, {9: rider}, _W)


# -- enumeration ----------------------------------------------------------------


def _abc_state(wait_b=4, wait_c=4, c_origin=(0, 2), c_destination=(3, 2), capacity=3):
    net = Network.build_grid(10, 10)
    state = SystemState(now=0)
    state.add_vehicle(Vehicle(id=0, capacity=capacity, position=grid_node(10, 0, 0)))
    a = make_request(1, grid_node(10, 0, 0), grid_node(10, 4, 4), max_wait=4, max_ride=8)
    b = make_request(2, grid_node(10, 2, 0), grid_node(10, 2, 3), max_wait=wait_b, max_ride=3)
    c = make_request(
        3,
        grid_node(10, *c_origin),
        grid_node(10, *c_destination),
        max_wait=wait_c,
        max_ride=net.travel_time(grid_node(10, *c_origin), grid_node(10, *c_destination)),
    )
    for r in (a, b, c):
        state.add_request(r)
    return net, state


def test_rtv_graph_sub_bundle_pruning_cuts_the_triple():
    net, state = _abc_state()
    graph = build_rtv_graph(state, net, 0, _W)
    groups = [tuple(sorted(b.members)) for b in graph.bundles]
    # three singles and two pairs; the pair (2, 3) never works, which
    # also rules the triple out before it is ever routed
    assert groups == [(1,), (2,), (3,), (1, 2), (1, 3)]
    assert [b.id for b in graph.bundles] == [0, 1, 2, 3, 4]
    singleton_a = graph.edge(0, 0)
    assert singleton_a.cost == 16  # drive 8 + ride 8 from the depot corner
    reach = divertable_vehicles(state, net, kept_plans(state, net, 0, _W))
    for (bid, vid), edge in graph.edges.items():
        ok, reason = route_feasible(state.vehicles[vid], edge.route, 0, net, state.requests)
        assert ok, reason
        for rid in graph.members(bid):
            assert vid in reach[rid]
    assert [b.id for b in graph.bundles if 1 in b.members] == [0, 3, 4]
    assert [b.id for b in graph.bundles if 2 in b.members] == [1, 3]


def test_rtv_graph_bundle_size_cap():
    # move request 3 next to request 2 so every pair and the triple work
    net, state = _abc_state(c_origin=(2, 1), c_destination=(2, 4))
    capped_1 = build_rtv_graph(state, net, 0, _W, max_bundle_size=1)
    assert [tuple(sorted(b.members)) for b in capped_1.bundles] == [(1,), (2,), (3,)]
    capped_2 = build_rtv_graph(state, net, 0, _W, max_bundle_size=2)
    assert max(len(b.members) for b in capped_2.bundles) == 2
    open_ended = build_rtv_graph(state, net, 0, _W, max_bundle_size=None)
    assert (1, 2, 3) in [tuple(sorted(b.members)) for b in open_ended.bundles]
    with pytest.raises(ValueError):
        build_rtv_graph(state, net, 0, _W, max_bundle_size=0)


def test_rtv_graph_matches_unpruned_subset_search():
    rng = random.Random(7)
    net = Network.build_grid(6, 6)
    for trial in range(25):
        state = SystemState(now=0)
        for vid in range(rng.randrange(1, 4)):
            state.add_vehicle(
                Vehicle(id=vid, capacity=rng.randrange(1, 4), position=rng.randrange(36))
            )
        rids = list(range(1, rng.randrange(2, 5)))
        for rid in rids:
            origin, destination = rng.sample(range(36), 2)
            state.add_request(
                make_request(
                    rid,
                    origin,
                    destination,
                    max_wait=rng.randrange(2, 7),
                    max_ride=net.travel_time(origin, destination) + rng.randrange(0, 4),
                )
            )
        graph = build_rtv_graph(state, net, 0, _W)
        got = {(tuple(sorted(graph.members(bid))), vid) for (bid, vid) in graph.edges}
        want = set()
        for size in range(1, len(rids) + 1):
            for combo in itertools.combinations(rids, size):
                for vid in state.vehicles:
                    found = best_route(
                        state.vehicles[vid], set(combo), 0, net, state.requests, _W
                    )
                    if found is not None:
                        want.add((combo, vid))
        assert got == want


class EdgePlanCheck:
    """Observer: every edge of a batch is `best_route`'s plan and cost."""

    def __init__(self, net, weights):
        self.net = net
        self.weights = weights
        self.edges = Counter()

    def __call__(self, ctx):
        net, state, graph = self.net, ctx.state, ctx.graph
        for (bid, vid), edge in graph.edges.items():
            vehicle = state.vehicles[vid]
            members = graph.members(bid)
            found = planned(vehicle, members, ctx.now, net, state.requests, self.weights)
            assert found is not None
            route, cost = found
            assert edge.cost + graph.baseline_cost[vid] == cost
            assert edge.route == route
            ok, reason = route_feasible(vehicle, edge.route, ctx.now, net, state.requests)
            assert ok, reason
            kind = "riders on board" if vehicle.onboard else "riderless"
            self.edges[kind, len(members)] += 1
        # and a singleton edge exists exactly where `best_route` finds a plan
        reach = divertable_vehicles(state, net, kept_plans(state, net, ctx.now, self.weights))
        for rid, vids in reach.items():
            want = [
                vid for vid in vids
                if best_route(state.vehicles[vid], {rid}, ctx.now, net, state.requests, self.weights)
            ]
            assert sorted(vid for bid, vid in graph.edges if graph.members(bid) == {rid}) == want


@pytest.mark.parametrize("reassignment", [Reassignment.ALLOWED, Reassignment.FROZEN])
def test_rtv_edges_are_best_route_plans_on_short_runs(reassignment):
    checks = []
    for seed in (2000, 2001, 2002):
        cfg = ScenarioConfig(
            seed=seed, grid_width=10, grid_height=10, vehicle_count=6 + seed % 11,
            vehicle_capacity=4, rate=0.5 + (seed % 11) / 10, max_wait_low=4, max_wait_high=7,
            engine=EngineConfig(
                mode=Mode.POOLING, horizon=30, max_bundle_size=3, reassignment=reassignment
            ),
        )
        net = cfg.build_network()
        pair = (EdgePlanCheck(net, cfg.engine.weights), EdgePlanCheck(net, cfg.engine.weights))
        assert twin_run(cfg, observers=pair).equal
        checks += pair
    edges = sum((check.edges for check in checks), Counter())
    # the arithmetic singletons, and searched plans with riders on board
    assert edges["riderless", 1] >= 1000
    assert edges["riders on board", 1] >= 500
    assert edges["riders on board", 2] + edges["riderless", 2] >= 100


# -- searches carried to the next batch ----------------------------------------------


@contextmanager
def searches_logged():
    """Log each ((vehicle id, members), result) of the searches `build_rtv_graph` runs."""
    calls = []
    real = pooling.best_route

    def logged(vehicle, members, *rest):
        found = real(vehicle, members, *rest)
        calls.append(((vehicle.id, frozenset(members)), found))
        return found

    pooling.best_route = logged
    try:
        yield calls
    finally:
        pooling.best_route = real


def _graph_edges(graph):
    return {
        (graph.members(bid), vid): (edge.cost + graph.baseline_cost[vid], edge.route)
        for (bid, vid), edge in graph.edges.items()
    }


@st.composite
def carry_cases(draw):
    """A network, a state's vehicles (with riders) and open requests, and weights."""
    if draw(st.booleans()):  # a 4x4 grid, each direction of a street 1-3 long
        edges = []
        for a, b in [(a, a + 1) for a in range(16) if a % 4 < 3] + [(a, a + 4) for a in range(12)]:
            edges += [(a, b, draw(st.integers(1, 3))), (b, a, draw(st.integers(1, 3)))]
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        edges = random_strong_network(rng, draw(st.integers(4, 12)), draw(st.integers(0, 16)), 3)
    net = Network(edges)
    node = st.sampled_from(sorted(net.nodes))
    now, rid, vehicles, requests = 3, 0, [], []
    for vid in range(draw(st.integers(1, 2))):
        position, riders = draw(node), []
        for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
            rid += 1
            origin, destination = draw(st.lists(node, min_size=2, max_size=2, unique=True))
            pickup = draw(st.integers(0, now))
            max_ride = now - pickup + net.travel_time(position, destination) + draw(st.integers(1, 6))
            riders.append((rid, origin, destination, pickup, max_ride))
        vehicles.append((vid, draw(st.integers(1, 4)), position, draw(st.integers(0, 5)), riders))
    for _ in range(draw(st.integers(1, 4))):
        rid += 1
        origin, destination = draw(st.lists(node, min_size=2, max_size=2, unique=True))
        slack = draw(st.integers(0, 4))
        requests.append((rid, origin, destination, draw(st.integers(0, now)), draw(st.integers(2, 10)),
                         net.travel_time(origin, destination) + slack))
    weights = CostWeights(*draw(st.tuples(*[st.integers(0, 3)] * 3)))
    return net, now, vehicles, requests, weights


def carry_state(now, vehicles, requests):
    """Build the state a `carry_cases` example describes."""
    state = SystemState(now=now)
    for vid, capacity, position, free_at, riders in vehicles:
        stops = []
        for rid, origin, destination, pickup, max_ride in riders:
            rider = make_request(rid, origin, destination, max_wait=10, max_ride=max_ride)
            state.add_request(rider)
            rider.assign(vid)
            rider.board(pickup)
            stops.append(Stop(destination, frozenset(), frozenset({rid}), 0))
        route = Route(tuple(stops)) if stops else None
        state.add_vehicle(Vehicle(vid, capacity, position, free_at, {r[0] for r in riders}, route))
    for rid, origin, destination, request_time, max_wait, max_ride in requests:
        state.add_request(make_request(rid, origin, destination, request_time, max_wait, max_ride))
    return state


def carried_by_rule(first, starts, state, net, now, weights):
    """What the carry rule keeps of the first build's searches, worked out here."""
    kept = {}
    for (vid, members), found in first:
        (node, time), (later_node, later) = starts[vid], plan_start(state.vehicles[vid], now)
        if later - time < net.travel_time(node, later_node):
            continue
        if found is None:
            kept[vid, members] = None
        elif later + net.travel_time(later_node, found[0][0][0]) == time + net.travel_time(
            node, found[0][0][0]
        ):
            kept[vid, members] = (found[0], found[1] - weights.drive * (later - time))
    return kept


@settings(max_examples=200, deadline=None)
@given(carry_cases(), st.data())
def test_rtv_graph_carries_exactly_the_searches_a_move_cannot_change(case, data):
    net, now, vehicles, requests, weights = case
    state = carry_state(now, vehicles, requests)
    with searches_logged() as first:
        build_rtv_graph(state, net, now, weights)
    starts = {vid: plan_start(vehicle, now) for vid, vehicle in state.vehicles.items()}
    nodes = sorted(net.nodes)
    moves = {}
    for vid, (node, time) in starts.items():
        kind = data.draw(st.sampled_from(["stay", "hop", "hop", "anywhere", "too fast"]))
        if kind == "stay":
            moves[vid] = (node, time + data.draw(st.sampled_from([0, 0, 1, 2])))
        elif kind == "hop":  # one edge toward the first stop of one of its routes
            firsts = sorted({found[0][0][0] for (v, _), found in first if v == vid and found})
            path = net.shortest_path(node, data.draw(st.sampled_from(firsts or nodes))).node_sequence
            to = path[min(1, len(path) - 1)]
            moves[vid] = (to, time + net.travel_time(node, to))
        elif kind == "anywhere":
            to = data.draw(st.sampled_from(nodes))
            moves[vid] = (to, time + net.travel_time(node, to) + data.draw(st.integers(0, 2)))
        else:
            to = data.draw(st.sampled_from([n for n in nodes if n != node]))
            moves[vid] = (to, time + net.travel_time(node, to) - data.draw(st.integers(1, 2)))
    later = now + data.draw(st.sampled_from([0, 0, 1, 2]))
    arrival = data.draw(st.none() | st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)))

    def advance(state):
        for vid, (to, at) in moves.items():
            state.vehicles[vid].position, state.vehicles[vid].free_at = to, at
        if arrival is not None and arrival[0] != arrival[1]:
            state.add_request(make_request(99, *arrival, request_time=later, max_wait=6, max_ride=20))
        return state

    fresh = advance(carry_state(now, vehicles, requests))
    with searches_logged() as want:
        fresh_graph = build_rtv_graph(fresh, net, later, weights)
    with searches_logged() as got:
        graph = build_rtv_graph(advance(state), net, later, weights)
    tried = dict(want)
    kept = carried_by_rule(first, starts, state, net, later, weights)
    # every search the rule cannot carry runs once, and no other
    assert Counter(key for key, _ in got) == Counter(key for key in tried if key not in kept)
    for key in tried.keys() & kept.keys():
        assert kept[key] == tried[key]
        event("carried a route" if kept[key] else "carried no route")
    assert _graph_edges(graph) == _graph_edges(fresh_graph)


def _rider_state(net):
    """Vehicle 0 with rider 9 on board and two open requests near it."""
    state = SystemState(now=1)
    rider = make_request(9, grid_node(5, 0, 0), grid_node(5, 4, 1), max_wait=10, max_ride=12)
    state.add_request(rider)
    rider.assign(0)
    rider.board(0)
    route = Route((Stop(grid_node(5, 4, 1), frozenset(), frozenset({9}), 0),))
    state.add_vehicle(Vehicle(0, 3, grid_node(5, 1, 1), 1, {9}, route))
    state.add_request(make_request(1, grid_node(5, 2, 1), grid_node(5, 3, 3), 1, 5, 8))
    state.add_request(make_request(2, grid_node(5, 1, 2), grid_node(5, 4, 2), 1, 5, 8))
    return state


def test_rtv_graph_carries_searches_while_nothing_changes_their_answer():
    net = Network.build_grid(5, 5)
    state = _rider_state(net)
    with searches_logged() as first:
        build_rtv_graph(state, net, 1, _W)
    assert len(first) == 3  # both singletons and the pair
    with searches_logged() as again:
        graph = build_rtv_graph(state, net, 1, _W)
    assert again == []
    with searches_logged() as fresh:
        assert _graph_edges(graph) == _graph_edges(build_rtv_graph(_rider_state(net), net, 1, _W))
    assert len(fresh) == 3

    # one hop toward the first stop keeps every route that starts there
    plans = {members: found for (_, members), found in first}
    target = plans[frozenset({1})][0][0][0]
    hop = net.shortest_path(grid_node(5, 1, 1), target).node_sequence[1]
    state.vehicles[0].position, state.vehicles[0].free_at = hop, 2
    with searches_logged() as moved:
        graph = build_rtv_graph(state, net, 2, _W)
    carried = [m for m, found in plans.items() if found and found[0][0][0] == target]
    assert carried and {members for (_, members), _ in moved} == set(plans) - set(carried)
    for (bid, vid), edge in graph.edges.items():
        route, cost = planned(state.vehicles[vid], graph.members(bid), 2, net, state.requests, _W)
        assert (edge.route, edge.cost + graph.baseline_cost[vid]) == (route, cost)


def _perturb(name, state, net):
    """Change one input of vehicle 0's searches; returns the network and weights to build with."""
    vehicle = state.vehicles[0]
    if name == "faster than the network":
        vehicle.position = grid_node(5, 2, 1)  # a step away, at the same time
    elif name == "on-board set":
        rider = make_request(10, grid_node(5, 1, 0), grid_node(5, 0, 3), max_wait=10, max_ride=12)
        state.add_request(rider)
        rider.assign(0)
        rider.board(1)
        vehicle.onboard.add(10)
        drop = Stop(grid_node(5, 0, 3), frozenset(), frozenset({10}), 0)
        vehicle.route = Route(vehicle.route.stops + (drop,))
    elif name == "pickup time":
        state.requests[9].pickup_time = 1
    elif name == "capacity":
        vehicle.capacity = 4
    elif name == "weights":
        return net, CostWeights(1, 2, 1)
    elif name == "network":
        return Network(grid_edges(5, 5)), _W
    return net, _W


@pytest.mark.parametrize(
    "name", ["faster than the network", "on-board set", "pickup time", "capacity", "weights", "network"]
)
def test_rtv_graph_searches_again_when_an_input_changes(name):
    net = Network.build_grid(5, 5)
    state = _rider_state(net)
    build_rtv_graph(state, net, 1, _W)
    net_after, weights = _perturb(name, state, net)
    with searches_logged() as got:
        graph = build_rtv_graph(state, net_after, 1, weights)
    fresh = _rider_state(net)
    _perturb(name, fresh, net)
    with searches_logged() as want:
        fresh_graph = build_rtv_graph(fresh, net_after, 1, weights)
    assert want and Counter(key for key, _ in got) == Counter(key for key, _ in want)
    assert _graph_edges(graph) == _graph_edges(fresh_graph)
    # a second state reading the first one's store, as the walk-away twin does
    first, twin = _sharing_states(net)
    build_rtv_graph(first, net, 1, _W)
    _perturb(name, twin, net)
    with searches_logged() as shared:
        twin_graph = build_rtv_graph(twin, net_after, 1, weights)
    assert Counter(key for key, _ in shared) == Counter(key for key, _ in want)
    assert _graph_edges(twin_graph) == _graph_edges(fresh_graph)


def _sharing_states(net):
    """Two `_rider_state`s holding one shared search store."""
    first, twin = _rider_state(net), _rider_state(net)
    first._shared_searches = twin._shared_searches = {}
    return first, twin


def test_a_state_sharing_a_store_repeats_no_search_of_the_same_input():
    net = Network.build_grid(5, 5)
    first, twin = _sharing_states(net)
    with searches_logged() as ran:
        graph = build_rtv_graph(first, net, 1, _W)
    with searches_logged() as again:
        twin_graph = build_rtv_graph(twin, net, 1, _W)
    assert len(ran) == 3 and again == []
    assert _graph_edges(twin_graph) == _graph_edges(graph)


def test_a_deep_copied_state_still_carries_its_searches():
    # a network never changes, so a copy of it is itself, and a copied
    # state's search records still name the network it is built on
    net = Network.build_grid(5, 5)
    assert copy.copy(net) is net and copy.deepcopy(net) is net
    state = _rider_state(net)
    build_rtv_graph(state, net, 1, _W)
    twin = copy.deepcopy(state)
    with searches_logged() as original:
        graph = build_rtv_graph(state, net, 1, _W)
    with searches_logged() as copied:
        twin_graph = build_rtv_graph(twin, net, 1, _W)
    assert len(copied) <= len(original)
    assert _graph_edges(twin_graph) == _graph_edges(graph)


def test_divertable_vehicles_boundary_and_commitment_blindness():
    net = Network.build_grid(5, 5)
    state = SystemState(now=2)
    # mid-edge vehicle: next node (3, 0) at time 3
    state.add_vehicle(Vehicle(id=0, capacity=2, position=grid_node(5, 3, 0), free_at=3))
    # committed to a dropoff far away, which divert-now reachability ignores
    rider = make_request(9, grid_node(5, 0, 4), grid_node(5, 4, 4))
    rider.assign(1)
    rider.board(0)
    busy = Vehicle(id=1, capacity=2, position=grid_node(5, 0, 4), onboard={9})
    busy.route = Route((Stop(grid_node(5, 4, 4), frozenset(), frozenset({9}), 6),))
    state.add_vehicle(busy)
    state.add_request(rider)

    reachable = make_request(1, grid_node(5, 4, 0), grid_node(5, 4, 3), request_time=2, max_wait=2)
    state.add_request(reachable)
    out = divertable_vehicles(state, net, kept_plans(state, net, 2, _W))
    # vehicle 0: 3 + 1 = 4 == deadline; vehicle 1: 2 + 7 > 4
    assert out[1] == {0: 1}


# -- assignment -----------------------------------------------------------------


def synth_graph(bundle_members, edge_costs, prev=None, vehicle_ids=None, extra_requests=()):
    groups = sorted(
        {frozenset(m) for m in bundle_members}, key=lambda s: (len(s), tuple(sorted(s)))
    )
    bundles = [Bundle(i, g) for i, g in enumerate(groups)]
    index = {b.members: b.id for b in bundles}
    vehicle_ids = sorted(
        set(vehicle_ids or []) | {vid for _, vid in edge_costs}
    )
    edges = {}
    for (members, vid), cost in sorted(edge_costs.items(), key=lambda kv: (index[frozenset(kv[0][0])], kv[0][1])):
        bid = index[frozenset(members)]
        edges[(bid, vid)] = VBEdge(bid, vid, cost, _DUMMY_ROUTE)
    request_ids = sorted(set().union(*groups, set(extra_requests)))
    prev = dict(prev or {})
    return RTVGraph(
        request_ids=request_ids,
        vehicle_ids=vehicle_ids,
        bundles=bundles,
        edges=edges,
        prev_assigned={rid: prev.get(rid) for rid in request_ids},
        baseline_cost={vid: 0 for vid in vehicle_ids},
        kept_routes={vid: None for vid in vehicle_ids},
    )


def test_solver_keeps_previous_over_more_new_requests():
    graph = synth_graph(
        [(1, 2), (3,)],
        {((1, 2), 0): 0, ((3,), 0): 0},
        prev={3: 0},
    )
    solution = solve_pooling(graph)
    assert solution.pairs == {3: 0}
    assert solution.value == (1, 1, 0)
    assert solution.dropped_previous == []
    assert solution.unassigned == [1, 2]


def test_solver_coverage_beats_cost():
    graph = synth_graph([(1, 2), (1,)], {((1, 2), 0): 100, ((1,), 0): 0})
    solution = solve_pooling(graph)
    assert solution.pairs == {1: 0, 2: 0}
    assert solution.total_cost == 100


def test_solver_cost_then_canonical_tiebreak():
    graph = synth_graph([(1,)], {((1,), 0): 5, ((1,), 1): 3})
    assert solve_pooling(graph).pairs == {1: 1}
    graph = synth_graph([(1,), (2,)], {((1,), 0): 5, ((2,), 0): 5})
    solution = solve_pooling(graph)
    assert solution.pairs == {1: 0}
    assert solution.unassigned == [2]


def test_solver_frozen_requires_and_keeps_commitments():
    graph = synth_graph(
        [(1,), (1, 2), (2,), (3,)],
        {((1,), 0): 4, ((1, 2), 0): 9, ((2,), 1): 2, ((3,), 1): 1},
        prev={1: 0},
    )
    free = solve_pooling(graph)
    frozen = solve_pooling(graph, frozen=True)
    assert frozen.pairs[1] == 0
    assert frozen.kept_previous == 1
    # growing the committed bundle is allowed in frozen mode
    assert free.pairs[1] == 0

    poached = synth_graph(
        [(2,), (1, 2)],
        {((2,), 0): 4, ((1, 2), 1): 0},
        prev={1: 0},
    )
    with pytest.raises(MatchingError, match="frozen commitment"):
        solve_pooling(poached, frozen=True)


def test_stale_edgeless_requests_do_not_shift_the_answer():
    costs = {((1,), 0): 5, ((2,), 0): 3, ((2,), 1): 4, ((1, 2), 0): 6}
    base = solve_pooling(synth_graph([(1,), (2,), (1, 2)], costs))
    padded = solve_pooling(
        synth_graph([(1,), (2,), (1, 2)], costs, extra_requests=(0, 7))
    )
    assert padded.pairs == base.pairs
    assert padded.chosen_bundles == base.chosen_bundles
    assert padded.value == base.value


def _random_synth(rng):
    rids = sorted(rng.sample(range(1, 9), rng.randrange(2, 6)))
    vids = sorted(rng.sample(range(0, 5), rng.randrange(1, 4)))
    groups = set()
    for rid in rids:
        if rng.random() < 0.8:
            groups.add((rid,))
    for _ in range(rng.randrange(0, 5)):
        size = rng.randrange(2, min(4, len(rids) + 1))
        groups.add(tuple(sorted(rng.sample(rids, size))))
    edge_costs = {}
    for members in groups:
        for vid in vids:
            if rng.random() < 0.55 and len(edge_costs) < 18:
                edge_costs[(members, vid)] = rng.randrange(-12, 25)
    prev = {}
    claimed = set()
    for members, vid in sorted(edge_costs):
        if vid in claimed or len(members) != 1:
            continue
        if rng.random() < 0.35:
            prev[members[0]] = vid
            claimed.add(vid)
    groups = {m for m, _ in edge_costs}
    if not groups:
        return None
    return synth_graph(sorted(groups), edge_costs, prev=prev, extra_requests=rids)


def test_solver_matches_exhaustive_enumeration():
    rng = random.Random(424242)
    checked = 0
    for _ in range(120):
        graph = _random_synth(rng)
        if graph is None:
            continue
        checked += 1
        want = exhaustive_pooling_oracle(graph)
        got = solve_pooling(graph)
        assert got.pairs == want.pairs
        assert got.chosen_bundles == want.chosen_bundles
        assert got.value == want.value

        frozen_ok = all(
            any(
                frozenset({rid}) <= graph.members(bid)
                for (bid, evid) in graph.edges
                if evid == vid
            )
            for rid, vid in graph.prev_assigned.items()
            if vid is not None
        )
        if frozen_ok:
            want_frozen = exhaustive_pooling_oracle(graph, frozen=True)
            got_frozen = solve_pooling(graph, frozen=True)
            assert got_frozen.pairs == want_frozen.pairs
            assert got_frozen.chosen_bundles == want_frozen.chosen_bundles
    assert checked >= 80


def test_frozen_commitments_no_joint_choice_keeps_raise():
    # each committed vehicle has a bundle keeping its commitment, but
    # both bundles hold request 5
    graph = synth_graph(
        [(1, 5, 7), (5, 6)],
        {((1, 5, 7), 0): 3, ((5, 6), 1): 2},
        prev={1: 0, 6: 1},
    )
    with pytest.raises(MatchingError, match="joint"):
        exhaustive_pooling_oracle(graph, frozen=True)
    with pytest.raises(MatchingError, match="joint"):
        solve_pooling(graph, frozen=True)
    assert solve_pooling(graph).pairs == exhaustive_pooling_oracle(graph).pairs == {1: 0, 5: 0, 7: 0}


def test_oracle_frozen_filter_agrees_with_the_solvers_filter():
    # the oracle applies frozen commitments with its own code; the solver
    # must match it where commitments can be kept and fail where they
    # cannot, and its filter must allow exactly the oracle's choices
    rng = random.Random(9917)
    agreed = raised = 0
    for _ in range(400):
        graph = _random_synth(rng)
        if graph is None:
            continue
        # commitments drawn freely, so that some cannot be kept
        graph.prev_assigned = {
            rid: rng.choice(graph.vehicle_ids) if rng.random() < 0.4 else None
            for rid in graph.request_ids
        }
        for frozen in (False, True):
            try:
                want = exhaustive_pooling_oracle(graph, frozen=frozen)
            except MatchingError as exc:
                if "joint" in str(exc):
                    # each vehicle can keep its own commitments, but no
                    # disjoint choice keeps them all
                    with pytest.raises(MatchingError, match="joint"):
                        solve_pooling(graph, frozen=frozen)
                    continue
                with pytest.raises(MatchingError, match="lost feasibility"):
                    solve_pooling(graph, frozen=frozen)
                raised += 1
                continue
            got = solve_pooling(graph, frozen=frozen)
            assert got.chosen_bundles == want.chosen_bundles
            assert got.value == want.value
            ranked, committed = _ranked_choices(graph, frozen)
            options = {vid: set() if vid in committed else {None} for vid in graph.vehicle_ids}
            for vid, bid, _, _ in ranked:
                options[vid].add(bid)
            assert options == oracle_options(graph, frozen)
            agreed += frozen
    assert agreed >= 150
    assert raised >= 100


def test_solver_finds_cheap_vehicles_listed_after_dear_ones():
    # request r may ride vehicle 2r at cost 2 or vehicle 2r + 1 at cost 1,
    # so the tie-key order lists the dearest full cover first, and 2^30
    # full covers tie on coverage
    requests = range(30)
    edge_costs = {}
    for rid in requests:
        edge_costs[((rid,), 2 * rid)] = 2
        edge_costs[((rid,), 2 * rid + 1)] = 1
    graph = synth_graph([(rid,) for rid in requests], edge_costs)
    started = time.perf_counter()
    solution = solve_pooling(graph)
    assert time.perf_counter() - started < 5
    assert solution.pairs == {rid: 2 * rid + 1 for rid in requests}
    assert solution.value == (0, 30, 30)


def _crowded_synth(rng):
    """More open requests than 1-3 vehicles with bundles of 1-3 can carry.

    Each vehicle with commitments holds them inside one bundle, and
    those bundles are disjoint, so frozen mode always has a solution.
    """
    rids = list(range(1, rng.randint(5, 8) + 1))
    vids = list(range(rng.randint(1, 3)))
    groups = {
        tuple(sorted(rng.sample(rids, rng.randint(1, 3))))
        for _ in range(rng.randint(4, 10))
    }
    edge_costs = {}
    for members in sorted(groups):
        for vid in vids:
            if rng.random() < 0.6 and len(edge_costs) < 20:
                edge_costs[(members, vid)] = rng.randint(-12, 25)
    if not edge_costs:
        return None
    prev = {}
    committed: set[int] = set()
    claimed: set[int] = set()
    for members, vid in sorted(edge_costs):
        if vid in committed or claimed & set(members) or rng.random() < 0.5:
            continue
        committed.add(vid)
        claimed |= set(members)
        for rid in members:
            if rng.random() < 0.6:
                prev[rid] = vid
    groups = sorted({m for m, _ in edge_costs})
    return synth_graph(groups, edge_costs, prev=prev, vehicle_ids=vids, extra_requests=rids)


def test_solver_matches_exhaustive_enumeration_when_vehicles_run_short():
    rng = random.Random(7301)
    checked = short = 0
    for _ in range(300):
        graph = _crowded_synth(rng)
        if graph is None:
            continue
        checked += 1
        coverable = set().union(*(graph.members(bid) for bid, _ in graph.edges))
        for frozen in (False, True):
            want = exhaustive_pooling_oracle(graph, frozen=frozen)
            got = solve_pooling(graph, frozen=frozen)
            assert got.pairs == want.pairs
            assert got.chosen_bundles == want.chosen_bundles
            assert got.value == want.value
            if not frozen:
                short += want.assigned_count < len(coverable)
    assert checked >= 250
    # the vehicles run short: the optimum leaves a coverable request out
    assert short >= 100


def test_solver_end_to_end_against_oracle_on_real_graphs():
    rng = random.Random(11)
    net = Network.build_grid(6, 6)
    compared = 0
    for _ in range(40):
        state = SystemState(now=0)
        for vid in range(rng.randrange(1, 4)):
            state.add_vehicle(
                Vehicle(id=vid, capacity=rng.randrange(1, 4), position=rng.randrange(36))
            )
        for rid in range(1, rng.randrange(2, 5)):
            origin, destination = rng.sample(range(36), 2)
            state.add_request(
                make_request(
                    rid,
                    origin,
                    destination,
                    max_wait=rng.randrange(2, 6),
                    max_ride=net.travel_time(origin, destination) + rng.randrange(0, 4),
                )
            )
        graph = build_rtv_graph(state, net, 0, _W)
        if len(graph.edges) > 20:
            continue
        compared += 1
        want = exhaustive_pooling_oracle(graph)
        got = solve_pooling(graph)
        assert got.pairs == want.pairs
        assert got.value == want.value
    assert compared >= 20


def test_solution_bookkeeping_fields():
    graph = synth_graph(
        [(1,), (2, 3)],
        {((1,), 0): 7, ((2, 3), 1): -2},
        prev={1: 0},
        extra_requests=(5,),
    )
    solution = solve_pooling(graph)
    assert solution.pairs == {1: 0, 2: 1, 3: 1}
    assert solution.chosen_bundles == {0: 0, 1: 1}
    assert solution.total_cost == 5
    assert solution.unassigned == [5]
    assert solution.kept_previous == 1


@st.composite
def mixed_graphs(draw):
    """Singleton and multi-rider bundles over up to 8 requests and 4
    vehicles, at most 20 edges, and commitments drawn freely. Costs are
    spread out, or in 0-1 or all 0, so that equal optima serving
    different requests are common."""
    rids = list(range(1, draw(st.integers(1, 8)) + 1))
    vids = list(range(draw(st.integers(1, 4))))
    bundle = st.lists(st.sampled_from(rids), min_size=1, max_size=3, unique=True)
    edge_costs = draw(
        st.dictionaries(
            st.tuples(bundle.map(lambda m: tuple(sorted(m))), st.sampled_from(vids)),
            draw(st.sampled_from([st.integers(-12, 25), st.integers(0, 1), st.just(0)])),
            min_size=1,
            max_size=20,
        )
    )
    prev = draw(st.dictionaries(st.sampled_from(rids), st.sampled_from(vids)))
    groups = sorted({m for m, _ in edge_costs})
    return synth_graph(groups, edge_costs, prev=prev, vehicle_ids=vids, extra_requests=rids)


def _failure_class(exc: MatchingError) -> str:
    return "joint" if "joint" in str(exc) else "vehicle"


@settings(max_examples=300, deadline=None)
@given(mixed_graphs(), st.booleans())
def test_solver_matches_the_oracle_on_mixed_graphs(graph, frozen):
    try:
        want = exhaustive_pooling_oracle(graph, frozen=frozen)
    except MatchingError as exc:
        with pytest.raises(MatchingError) as raised:
            solve_pooling(graph, frozen=frozen)
        assert _failure_class(raised.value) == _failure_class(exc)
        return
    got = solve_pooling(graph, frozen=frozen)
    assert got.pairs == want.pairs
    assert got.chosen_bundles == want.chosen_bundles
    assert got.value == want.value


def _singleton_part(graph):
    """`graph` without its multi-rider bundles, as hailing takes it."""
    costs = {
        (tuple(graph.members(bid)), vid): edge.cost
        for (bid, vid), edge in graph.edges.items()
        if len(graph.members(bid)) == 1
    }
    prev = {rid: vid for rid, vid in graph.prev_assigned.items() if vid is not None}
    return synth_graph(
        sorted({m for m, _ in costs}), costs, prev=prev,
        vehicle_ids=graph.vehicle_ids, extra_requests=graph.request_ids,
    )


def _relabelled(graph, bundle_ids, edge_order):
    """`graph` with bundle i renumbered `bundle_ids[i]` and its edges
    inserted in `edge_order`."""
    bundles = sorted(
        (Bundle(bundle_ids[b.id], b.members) for b in graph.bundles), key=lambda b: b.id
    )
    edges = {}
    for bid, vid in edge_order:
        edges[(bundle_ids[bid], vid)] = VBEdge(
            bundle_ids[bid], vid, graph.edge(bid, vid).cost, _DUMMY_ROUTE
        )
    return replace(graph, bundles=bundles, edges=edges)


def _outcome(solve, graph, frozen):
    try:
        solution = solve(graph, frozen=frozen)
    except MatchingError as exc:
        return str(exc)
    chosen = {vid: graph.members(bid) for vid, bid in solution.chosen_bundles.items()}
    return solution.pairs, solution.value, chosen


@settings(max_examples=200, deadline=None)
@given(mixed_graphs(), st.data())
def test_solvers_ignore_bundle_ids_and_edge_order(graph, data):
    # both solvers rank and price the choices in one pass over
    # graph.edges, so neither the bundle numbering nor the order the
    # edges were inserted in may change an answer or an error
    for solve, base in ((solve_pooling, graph), (solve_hailing, _singleton_part(graph))):
        bundle_ids = data.draw(st.permutations(range(len(base.bundles))))
        edge_order = data.draw(st.permutations(list(base.edges)))
        other = _relabelled(base, bundle_ids, edge_order)
        for frozen in (False, True):
            assert _outcome(solve, other, frozen) == _outcome(solve, base, frozen)


def _without(graph, gone):
    """`graph` without the requests in `gone`: their bundles, those
    bundles' edges and their commitments go too."""
    bundles = [b for b in graph.bundles if not b.members & gone]
    new_id = {b.id: i for i, b in enumerate(bundles)}
    edges = {
        (new_id[bid], vid): VBEdge(new_id[bid], vid, edge.cost, _DUMMY_ROUTE)
        for (bid, vid), edge in graph.edges.items()
        if bid in new_id
    }
    return replace(
        graph,
        request_ids=[rid for rid in graph.request_ids if rid not in gone],
        bundles=[Bundle(new_id[b.id], b.members) for b in bundles],
        edges=edges,
        prev_assigned={rid: vid for rid, vid in graph.prev_assigned.items() if rid not in gone},
    )


@settings(max_examples=300, deadline=None)
@given(mixed_graphs(), st.booleans(), st.data())
def test_deleting_requests_the_answer_leaves_out_keeps_the_answer(graph, frozen, data):
    # the lemma behind the twin claim: a batch's answer depends only on
    # the choices it could take, so early rejection, which deletes the
    # requests a batch left out, changes no later answer
    for solve, base in ((solve_pooling, graph), (solve_hailing, _singleton_part(graph))):
        try:
            solution = solve(base, frozen=frozen)
        except MatchingError:
            continue
        gone = data.draw(st.sets(st.sampled_from(solution.unassigned))) if solution.unassigned else set()
        smaller = _without(base, gone)
        again = solve(smaller, frozen=frozen)
        assert again.pairs == solution.pairs
        assert again.value == solution.value
        assert {vid: smaller.members(bid) for vid, bid in again.chosen_bundles.items()} == {
            vid: base.members(bid) for vid, bid in solution.chosen_bundles.items()
        }


def test_tie_rule_holds_past_machine_word_size():
    # request r rides any of vehicles 3r, 3r + 1, 3r + 2 at cost 5, and
    # vehicle 3r also takes {r, r + 1} at cost 10 for four values of r:
    # 124 choices, so rank bits reach far past 64. Every full cover costs
    # 200, and the least sorted chain puts each request alone on its
    # lowest vehicle.
    edge_costs = {}
    for rid in range(40):
        for vid in range(3 * rid, 3 * rid + 3):
            edge_costs[((rid,), vid)] = 5
    for rid in (0, 10, 20, 30):
        edge_costs[((rid, rid + 1), 3 * rid)] = 10
    graph = synth_graph(sorted({m for m, _ in edge_costs}), edge_costs, prev={5: 17, 15: 47})
    assert len(graph.edges) == 124
    lowest = {rid: 3 * rid for rid in range(40)}
    solution = solve_pooling(graph)
    assert solution.pairs == lowest
    assert solution.value == (2, 40, 200)
    frozen = solve_pooling(graph, frozen=True)
    assert frozen.pairs == {**lowest, 5: 17, 15: 47}
    assert frozen.value == (2, 40, 200)


def test_dense_pooling_batches_solve_in_bounded_time():
    # 15x15 grid, 32 vehicles of capacity 4, bundles of 3: batch 11 has
    # 14 requests (5 previously assigned), 18 bundles and 87 edges, all
    # in one conflict component, and once took minutes to solve
    cfg = ScenarioConfig(
        seed=1,
        grid_width=15,
        grid_height=15,
        vehicle_count=32,
        vehicle_capacity=4,
        rate=3.5,
        engine=EngineConfig(horizon=50, mode=Mode.POOLING, max_bundle_size=3),
    )
    values = {}

    def record(ctx):
        values[ctx.batch] = ctx.solution.value

    started = time.perf_counter()
    result = run_scenario(cfg, record)
    assert time.perf_counter() - started < 20
    assert values[11] == (5, 14, 363)
    assert values[12] == (12, 17, 377)
    digest = hashlib.sha256("\n".join(event_log_lines(result)).encode()).hexdigest()
    assert digest == "076611cf9d42d2d41dfe0e7f959a2387a3498bdfd84812c80714bfa3d50934d1"


class ReachCheck:
    """Observer: each open request's `divertable_vehicles` set never grows."""

    def __init__(self, net, weights):
        self.net = net
        self.weights = weights
        self.last = {}
        self.checks = 0

    def __call__(self, ctx):
        kept = kept_plans(ctx.state, self.net, ctx.now, self.weights)
        reach = {rid: set(vids) for rid, vids in divertable_vehicles(ctx.state, self.net, kept).items()}
        for rid, vids in reach.items():
            if rid in self.last:  # else revealed this batch
                assert vids <= self.last[rid], (ctx.now, rid, vids - self.last[rid])
                self.checks += 1
        self.last = reach


@pytest.mark.parametrize("reassignment", [Reassignment.ALLOWED, Reassignment.FROZEN])
@pytest.mark.parametrize("network", ["grid", "directed"])
def test_divertable_sets_only_shrink_on_short_runs(network, reassignment, tmp_path):
    # criterion 7 off the gate, for pooling: batch intervals 1-3, and a
    # directed grid whose two directions differ (times 1-4)
    edge_list = None
    if network == "directed":
        edge_list = _directed_grid(tmp_path / "directed.txt", 8, 8, seed=11)
    checks = 0
    for seed, interval in itertools.product(range(2000, 2005), (1, 2, 3)):
        cfg = ScenarioConfig(
            seed=seed, grid_width=10, grid_height=10, edge_list_path=edge_list,
            vehicle_count=6 + seed % 11, vehicle_capacity=4, rate=0.5 + (seed % 11) / 10,
            max_wait_low=4, max_wait_high=7,
            engine=EngineConfig(
                mode=Mode.POOLING, horizon=30, max_bundle_size=3,
                reassignment=reassignment, batch_interval=interval,
            ),
        )
        net = cfg.build_network()
        pair = (ReachCheck(net, cfg.engine.weights), ReachCheck(net, cfg.engine.weights))
        twin_run(cfg, observers=pair)
        checks += sum(check.checks for check in pair)
    assert checks >= 800


def _with_engine(cfg: ScenarioConfig, **engine) -> ScenarioConfig:
    return replace(cfg, engine=replace(cfg.engine, **engine))


def test_twins_agree_without_the_bundle_cap():
    # the acceptance pooling battery's first ten seeds, solved exactly
    for seed in range(2000, 2010):
        entry = twin_run(_with_engine(pooling_cfg(seed), max_bundle_size=None))
        assert entry.equal, (seed, entry.first_divergence)


@pytest.mark.parametrize("reassignment", [Reassignment.ALLOWED, Reassignment.FROZEN])
def test_only_a_binding_bundle_cap_splits_the_seed_2016_twins(reassignment):
    cfg = pooling_cfg(2016)
    expected = {None: None, 4: None, 3: "request 160 served only under walkaway"}
    for cap, divergence in expected.items():
        entry = twin_run(
            _with_engine(cfg, batch_interval=2, reassignment=reassignment, max_bundle_size=cap)
        )
        assert entry.first_divergence == divergence, (
            f"cap {cap}: {entry.first_divergence!r}; README's paragraph on the "
            "bundle cap describes this case, update it if this changes"
        )


def test_twins_agree_exactly_when_walkaway_accepts_nothing_late():
    # the single-run certificate of the twin claim, on a battery that
    # diverges: hailing demand (capacity 1) solved as pooling with
    # single-rider bundles, and seed 2016's binding bundle cap
    cases = [
        _with_engine(hailing_cfg(seed), mode=Mode.POOLING, max_bundle_size=cap)
        for seed in (1000, 1001)
        for cap in (1, None)
    ]
    cases += [_with_engine(pooling_cfg(2016), batch_interval=2, max_bundle_size=cap) for cap in (3, None)]
    verdicts = []
    for cfg, reassignment in itertools.product(cases, (Reassignment.ALLOWED, Reassignment.FROZEN)):
        entry = twin_run(_with_engine(cfg, reassignment=reassignment))
        late = late_assignments(entry.walkaway.events)
        assert late_assignments(entry.reject.events) == []
        assert entry.equal == (late == []), (cfg.seed, entry.first_divergence, late)
        if late:
            assert entry.first_divergence == f"request {late[0]} served only under walkaway"
        verdicts.append(entry.equal)
    assert len(verdicts) == 12 and True in verdicts and False in verdicts


def test_a_bundle_cap_of_1_serves_a_chained_request_only_under_walkaway():
    # seed 1000's demand at capacity 1 and single-rider bundles, shrunk to
    # requests 308-310 and vehicles 9 and 11: at batch 179 request 310 is
    # reachable only after 309, which is a pending pickup of vehicle 9, and
    # no single-rider bundle plans "309, then 310"; once 309 is on board
    # its dropoff is in the kept plan, and 310 after it is a lone-rider edge
    cfg = _with_engine(hailing_cfg(1000), mode=Mode.POOLING, max_bundle_size=1)
    assert cfg.vehicle_capacity == 1
    net = cfg.build_network()
    logged, late, served = {}, {}, {}
    for policy in RejectionPolicy:
        state = SystemState()
        for vid, node in ((9, 47), (11, 65)):
            state.add_vehicle(Vehicle(vid, cfg.vehicle_capacity, node))
        for request in generate_demand(cfg, net):
            if request.id in (308, 309, 310):
                state.add_request(request)
        engine, events = replace(cfg.engine, rejection_policy=policy), []
        while not state.settled():
            events += step(state, engine, net)
        logged[policy] = {(e.batch, e.kind.value, e.request, e.vehicle, e.time) for e in events}
        late[policy] = late_assignments(events)
        served[policy] = {rid for rid, r in state.requests.items() if r.status is RequestStatus.SERVED}
    early, walkaway = RejectionPolicy.EARLY_REJECT, RejectionPolicy.WALK_AWAY
    assert {
        (178, "accepted", 309, 9, 178),
        (179, "rejected", 310, None, 179),
        (180, "picked_up", 309, 9, 181),
    } <= logged[early]
    assert {(180, "picked_up", 309, 9, 181), (181, "accepted", 310, 9, 181)} <= logged[walkaway]
    assert late == {early: [], walkaway: [310]}
    assert served == {early: {308, 309}, walkaway: {308, 309, 310}}


@pytest.mark.parametrize(
    "cfg",
    [
        pooling_cfg(2000),
        *(
            _with_engine(pooling_cfg(2016), batch_interval=2, max_bundle_size=cap, reassignment=how)
            for cap in (3, None)
            for how in (Reassignment.ALLOWED, Reassignment.FROZEN)
        ),
        hailing_cfg(1000),
    ],
    ids=lambda cfg: f"{cfg.engine.mode.value}-{cfg.seed}-cap{cfg.engine.max_bundle_size}"
    f"-{cfg.engine.reassignment.value}-every{cfg.engine.batch_interval}",
)
def test_each_twin_logs_what_the_same_run_alone_logs(cfg):
    entry = twin_run(cfg)
    for result in (entry.reject, entry.walkaway):
        alone = run_scenario(result.config)
        assert event_log_lines(result) == event_log_lines(alone)


def test_the_walkaway_twin_repeats_almost_no_search_and_keeps_no_store(monkeypatch):
    real, searches, stores = scenario.run_scenario, [], []

    def counted(cfg, observer=None, **kwargs):
        with searches_logged() as calls:
            result = real(cfg, lambda ctx: stores.append(ctx.state._shared_searches), **kwargs)
        searches.append(len(calls))
        return result

    monkeypatch.setattr(scenario, "run_scenario", counted)
    entry = twin_run(pooling_cfg(2000))
    early, walkaway = searches
    assert entry.equal and early > 1000 and walkaway <= early // 100
    # both runs read one store while they run, and neither keeps it
    assert stores[0] is not None and all(store is stores[0] for store in stores)
    assert entry.reject.state._shared_searches is None
    assert entry.walkaway.state._shared_searches is None
    stores.clear()
    alone = real(pooling_cfg(2000), lambda ctx: stores.append(ctx.state._shared_searches))
    assert stores and all(store is None for store in stores)
    assert alone.state._shared_searches is None


def test_uncapped_single_rider_pooling_twins_agree_on_a_short_horizon():
    # hailing demand in pooling mode has no trip-length floor; with no
    # bundle cap a capacity-1 vehicle can still plan a chain of riders,
    # so no request is accepted late and every pair agrees
    for seed, interval, reassignment in itertools.product(
        range(1000, 1005), (1, 2), (Reassignment.ALLOWED, Reassignment.FROZEN)
    ):
        cfg = _with_engine(
            hailing_cfg(seed), mode=Mode.POOLING, max_bundle_size=None, horizon=60,
            batch_interval=interval, reassignment=reassignment,
        )
        assert cfg.vehicle_capacity == 1
        entry = twin_run(cfg)
        assert entry.equal, (seed, interval, reassignment, entry.first_divergence)
        assert late_assignments(entry.reject.events) == []
        assert late_assignments(entry.walkaway.events) == []

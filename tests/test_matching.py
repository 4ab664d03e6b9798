"""Tests for the single-rider feasibility graph and exact matcher."""

from __future__ import annotations

import heapq
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from fleetsim import matching
from fleetsim.engine import Reassignment
from fleetsim.matching import (
    Bundle,
    MatchingError,
    RTVGraph,
    VBEdge,
    build_rv_graph,
    feasible_vehicles,
    kept_plans,
    solve_hailing,
)
from fleetsim.model import (
    CostWeights,
    Request,
    Route,
    Stop,
    SystemState,
    Vehicle,
    route_cost,
    schedule_stops,
)
from fleetsim.network import Network, grid_node
from fleetsim.pooling import solve_pooling
from fleetsim.scenario import twin_run
from oracles import (
    candidate_route,
    least_weight_violation,
    priority_matching_oracle,
    retained_route,
    route_feasible,
)
from test_acceptance import hailing_cfg

_DUMMY_ROUTE = Route((Stop(0, frozenset({0}), frozenset(), 0),))


def make_graph(request_ids, vehicle_ids, costs, prev=None):
    """Singleton-bundle graph from request-vehicle edge costs."""
    prev = dict(prev or {})
    bundles = [
        Bundle(bid, frozenset({rid}))
        for bid, rid in enumerate(sorted({rid for rid, _ in costs}))
    ]
    bundle_of = {min(b.members): b.id for b in bundles}
    edges = {}
    for (rid, vid), cost in sorted(costs.items(), key=lambda kv: (bundle_of[kv[0][0]], kv[0][1])):
        edges[(bundle_of[rid], vid)] = VBEdge(bundle_of[rid], vid, cost, _DUMMY_ROUTE)
    return RTVGraph(
        request_ids=sorted(request_ids),
        vehicle_ids=sorted(vehicle_ids),
        bundles=bundles,
        edges=edges,
        prev_assigned={rid: prev.get(rid) for rid in request_ids},
        baseline_cost={vid: 0 for vid in vehicle_ids},
        kept_routes={vid: None for vid in vehicle_ids},
    )


def singleton_id(graph, request_id):
    """The id of a request's singleton bundle."""
    (bid,) = [b.id for b in graph.bundles if b.members == {request_id}]
    return bid


def edge_vehicles(graph, request_id):
    """The vehicles with an edge to a request's singleton bundle."""
    return sorted(vid for (bid, vid) in graph.edges if graph.members(bid) == {request_id})


def rv_edge(graph, request_id, vehicle_id):
    """The edge of a request's singleton bundle to a vehicle."""
    return graph.edge(singleton_id(graph, request_id), vehicle_id)


# edge costs: spread out, or in 0-1 or all 0, so that equal optima
# serving different requests are common
COSTS = st.sampled_from([st.integers(-15, 15), st.integers(0, 1), st.just(0)])


@st.composite
def matching_instances(draw):
    request_ids = sorted(draw(st.sets(st.integers(0, 30), min_size=1, max_size=6)))
    vehicle_ids = sorted(draw(st.sets(st.integers(0, 30), min_size=1, max_size=6)))
    pairs = [(r, v) for r in request_ids for v in vehicle_ids]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, min_size=0, max_size=len(pairs))
    )
    cost = draw(COSTS)
    costs = {pair: draw(cost) for pair in chosen}
    prev = {}
    taken = set()
    for rid in request_ids:
        options = [v for (r, v) in costs if r == rid and v not in taken]
        if options and draw(st.booleans()):
            vid = draw(st.sampled_from(sorted(options)))
            prev[rid] = vid
            taken.add(vid)
    return request_ids, vehicle_ids, costs, prev


@st.composite
def crowded_instances(draw):
    """More requests than vehicles, with a 0-1 or 0 cost on about half of
    the pairs, so that equal optima serve different requests."""
    request_ids = sorted(draw(st.sets(st.integers(0, 30), min_size=3, max_size=7)))
    vehicle_ids = sorted(draw(st.sets(st.integers(0, 30), min_size=1, max_size=len(request_ids) - 1)))
    cost = draw(st.sampled_from([st.integers(0, 1), st.just(0)]))
    costs = {(r, v): draw(cost) for r in request_ids for v in vehicle_ids if draw(st.booleans())}
    prev = {}
    for rid, vid in costs:
        if vid not in prev.values() and rid not in prev and draw(st.integers(0, 3)) == 0:
            prev[rid] = vid
    return request_ids, vehicle_ids, costs, prev


@settings(max_examples=250, deadline=None)
@given(matching_instances())
def test_solver_matches_exhaustive_oracle(instance):
    request_ids, vehicle_ids, costs, prev = instance
    graph = make_graph(request_ids, vehicle_ids, costs, prev)
    solution = solve_hailing(graph)
    kept, assigned, cost, pairs = priority_matching_oracle(
        request_ids, vehicle_ids, costs, {rid: prev.get(rid) for rid in request_ids}
    )
    assert solution.value == (kept, assigned, cost)
    assert solution.pairs == pairs


@settings(max_examples=120, deadline=None)
@given(matching_instances())
def test_edgeless_requests_never_disturb_the_solution(instance):
    """Requests no vehicle can reach must not change what others get."""
    request_ids, vehicle_ids, costs, prev = instance
    base = solve_hailing(make_graph(request_ids, vehicle_ids, costs, prev))
    padded = sorted(set(request_ids) | {31, 2, 17})
    extra = [rid for rid in padded if rid not in request_ids]
    graph = make_graph(padded, vehicle_ids, costs, prev)
    solution = solve_hailing(graph)
    assert solution.pairs == base.pairs
    assert solution.value == base.value
    assert set(extra) <= set(solution.unassigned)


@settings(max_examples=120, deadline=None)
@given(matching_instances())
def test_frozen_mode_locks_previous_pairs(instance):
    request_ids, vehicle_ids, costs, prev = instance
    for rid, vid in prev.items():
        assert (rid, vid) in costs
    graph = make_graph(request_ids, vehicle_ids, costs, prev)
    solution = solve_hailing(graph, frozen=True)
    for rid, vid in prev.items():
        assert solution.pairs[rid] == vid
    assert solution.dropped_previous == []
    assert solution.kept_previous == len(prev)

    free_r = [r for r in request_ids if r not in prev]
    free_v = [v for v in vehicle_ids if v not in set(prev.values())]
    sub_costs = {
        (r, v): c for (r, v), c in costs.items() if r in set(free_r) and v in set(free_v)
    }
    _, extra_n, extra_c, extra_pairs = priority_matching_oracle(
        free_r, free_v, sub_costs, {r: None for r in free_r}
    )
    expected_pairs = dict(prev)
    expected_pairs.update(extra_pairs)
    assert solution.pairs == expected_pairs
    assert solution.assigned_count == len(prev) + extra_n
    assert solution.total_cost == sum(costs[p] for p in prev.items()) + extra_c


def assert_one_answer(graph, frozen):
    """The matcher and the bundle search give the same solution."""
    hailing, pooling = solve_hailing(graph, frozen=frozen), solve_pooling(graph, frozen=frozen)
    assert hailing.pairs == pooling.pairs
    assert hailing.chosen_bundles == pooling.chosen_bundles
    assert hailing.value == pooling.value


@settings(max_examples=300, deadline=None)
@given(matching_instances() | crowded_instances(), st.booleans())
def test_matcher_is_the_singleton_case_of_the_bundle_search(instance, frozen):
    """On singleton bundles the matcher and the bundle search share one
    tie rule, so they return the same optimum, not only its value."""
    assert_one_answer(make_graph(*instance), frozen)


@st.composite
def wide_matching_instances(draw):
    """Instances with more than 64 edges, so packed weights pass a word."""
    request_ids = sorted(draw(st.sets(st.integers(0, 60), min_size=7, max_size=9)))
    vehicle_ids = sorted(draw(st.sets(st.integers(0, 60), min_size=10, max_size=14)))
    pairs = [(r, v) for r in request_ids for v in vehicle_ids]
    chosen = draw(st.permutations(pairs))[: draw(st.integers(65, len(pairs)))]
    cost = draw(COSTS)
    costs = {pair: draw(cost) for pair in sorted(chosen)}
    prev = {}
    taken = set()
    for rid in request_ids:
        options = [v for (r, v) in costs if r == rid and v not in taken]
        if options and draw(st.booleans()):
            prev[rid] = draw(st.sampled_from(sorted(options)))
            taken.add(prev[rid])
    return request_ids, vehicle_ids, costs, prev


@settings(max_examples=60, deadline=None)
@given(wide_matching_instances(), st.booleans())
def test_matcher_matches_the_bundle_search_past_word_size(instance, frozen):
    graph = make_graph(*instance)
    assert len(graph.edges) > 64
    assert_one_answer(graph, frozen)


def test_matcher_and_bundle_search_break_ties_alike():
    # both optima serve two requests at cost 0; the served set {1, 2}
    # beats {1, 3} before the chain (1, 10), (3, 20) is compared
    costs = {(1, 10): 0, (1, 20): 0, (2, 10): 0, (3, 20): 0}
    graph = make_graph([1, 2, 3], [10, 20], costs)
    assert solve_hailing(graph).pairs == {1: 20, 2: 10}
    assert solve_pooling(graph).pairs == {1: 20, 2: 10}


def test_frozen_mode_requires_surviving_edges():
    graph = make_graph([1], [4], {}, prev={1: 4})
    with pytest.raises(MatchingError, match="lost feasibility"):
        solve_hailing(graph, frozen=True)


def test_canonical_tiebreak_prefers_low_ids():
    costs = {(1, 10): 5, (1, 20): 5, (2, 10): 5, (2, 20): 5}
    solution = solve_hailing(make_graph([1, 2], [10, 20], costs))
    assert solution.pairs == {1: 10, 2: 20}
    assert solution.value == (0, 2, 10)


def test_keeping_previous_beats_request_order():
    # only one vehicle; request 2 already holds an assignment on it
    costs = {(1, 7): 0, (2, 7): 0}
    solution = solve_hailing(make_graph([1, 2], [7], costs, prev={2: 7}))
    assert solution.pairs == {2: 7}
    assert solution.unassigned == [1]
    assert solution.dropped_previous == []


def test_cardinality_beats_cost():
    costs = {(1, 10): 100, (2, 10): 0, (2, 20): 50}
    solution = solve_hailing(make_graph([1, 2], [10, 20], costs))
    assert solution.pairs == {1: 10, 2: 20}
    assert solution.total_cost == 150


def test_cost_beats_vehicle_order():
    costs = {(1, 10): 5, (1, 20): 3}
    solution = solve_hailing(make_graph([1], [10, 20], costs))
    assert solution.pairs == {1: 20}


def test_negative_costs_are_welcome():
    # replacing a pricey committed plan can make an edge cheaper than idling
    costs = {(1, 10): -4, (2, 10): -9, (1, 20): 2}
    solution = solve_hailing(make_graph([1, 2], [10, 20], costs))
    assert solution.pairs == {1: 20, 2: 10}
    assert solution.total_cost == -7


def test_empty_problem():
    solution = solve_hailing(make_graph([], [], {}))
    assert solution.pairs == {}
    assert solution.value == (0, 0, 0)
    solution = solve_hailing(make_graph([3], [5], {}))
    assert solution.unassigned == [3]


# -- the matcher's contract ------------------------------------------------------


def recording_matcher(monkeypatch):
    """Wrap the matcher; returns the list of (weights, matching) it sees."""
    calls = []
    solve = matching._min_cost_matching

    def recorded(weights):
        out = solve(weights)
        calls.append((weights, out))
        return out

    monkeypatch.setattr(matching, "_min_cost_matching", recorded)
    return calls


def test_matcher_leaves_out_positive_weight_edges():
    assert matching._min_cost_matching({(1, 1): 5}) == {}
    # {2: 2} weighs -3, less than {2: 1} at -1 or {1: 1, 2: 2} at 2
    weights = {(1, 1): 5, (2, 1): -1, (2, 2): -3, (3, 2): 2}
    assert matching._min_cost_matching(weights) == {2: 2}


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 7)), st.integers(-15, 15), max_size=30
    )
)
def test_matcher_returns_a_least_weight_matching(weights):
    # ties included: any least-weight matching passes the certificate
    assert least_weight_violation(weights, matching._min_cost_matching(weights)) is None


def test_a_complete_singleton_graph_is_matched_exactly_and_fast(monkeypatch):
    calls = recording_matcher(monkeypatch)
    pops = []

    def counted_pop(heap):
        pops.append(None)
        return heapq.heappop(heap)

    monkeypatch.setattr(
        matching, "heapq", SimpleNamespace(heappush=heapq.heappush, heappop=counted_pop)
    )
    rng = random.Random(20)
    costs = {(r, v): rng.randint(1, 29) for r in range(20) for v in range(100, 120)}
    graph = make_graph(range(20), range(100, 120), costs)
    solution = solve_hailing(graph)
    assert solution.assigned_count == 20
    assert least_weight_violation(*calls[0]) is None
    # each request's search stops at its first free column: 49 heap pops
    # in all here, against one full sweep of 21 columns per request
    assert len(pops) <= 20 * 21


def test_every_hailing_batch_of_twin_runs_is_certified(monkeypatch):
    """Each batch's answer is least-weight, so with the packed weights'
    unique optimum it is also the canonical one; and the certificate
    rejects a matching with one pair dropped or two riders swapped."""
    calls = recording_matcher(monkeypatch)
    for seed in (1000, 1001):
        cfg = hailing_cfg(seed)
        for reassignment in Reassignment:
            for interval in (1, 2, 3):
                engine = replace(cfg.engine, reassignment=reassignment, batch_interval=interval)
                twin_run(replace(cfg, engine=engine))
    assert len(calls) > 1000
    assert [out for weights, out in calls if least_weight_violation(weights, out)] == []

    # a batch in which riders r1 and r2 could trade vehicles v1 and v2
    weights, out, (r1, v1), (r2, v2) = next(
        (weights, out, a, b)
        for weights, out in calls
        for a in out.items()
        for b in out.items()
        if a[0] < b[0] and (a[0], b[1]) in weights and (b[0], a[1]) in weights
    )
    dropped = dict(out)
    del dropped[r1]
    assert least_weight_violation(weights, dropped) is not None
    swapped = {**out, r1: v2, r2: v1}
    assert least_weight_violation(weights, swapped) is not None


# -- graph construction on a street grid ---------------------------------------


def _basic_state():
    net = Network.build_grid(5, 5)
    state = SystemState(now=0)
    state.add_vehicle(Vehicle(id=0, capacity=1, position=grid_node(5, 0, 0)))
    return net, state


def _add_request(state, rid, origin, destination, request_time=0, max_wait=5, max_ride=None, net=None):
    direct = net.travel_time(origin, destination)
    request = Request(
        rid, origin, destination, request_time, max_wait, direct if max_ride is None else max_ride
    )
    request.reveal()
    state.add_request(request)
    return request


def test_rv_graph_reach_boundary():
    net, state = _basic_state()
    # direct drive from the depot corner to (4, 1) takes exactly 5
    _add_request(state, 1, grid_node(5, 4, 1), grid_node(5, 0, 4), max_wait=5, net=net)
    graph = build_rv_graph(state, net, 0, CostWeights())
    assert edge_vehicles(graph, 1) == [0]
    assert (singleton_id(graph, 1), 0) in graph.edges

    net, state = _basic_state()
    _add_request(state, 1, grid_node(5, 4, 2), grid_node(5, 0, 4), max_wait=5, net=net)
    graph = build_rv_graph(state, net, 0, CostWeights())
    assert edge_vehicles(graph, 1) == []
    assert graph.edges == {}


def test_rv_graph_frozen_cost_example():
    net, state = _basic_state()
    _add_request(state, 1, grid_node(5, 1, 0), grid_node(5, 3, 0), net=net)
    graph = build_rv_graph(state, net, 0, CostWeights())
    edge = rv_edge(graph, 1, 0)
    # drive 3, wait 1, ride 2 against an empty committed plan
    assert edge.cost == 6
    ok, reason = route_feasible(state.vehicles[0], edge.route, 0, net, state.requests)
    assert ok, reason


def test_rv_graph_release_after_onboard_dropoff():
    net = Network.build_grid(5, 5)
    state = SystemState(now=0)
    rider = Request(9, grid_node(5, 4, 4), grid_node(5, 4, 2), 0, 5, 10)
    rider.reveal()
    rider.assign(1)
    rider.board(0)
    state.add_request(rider)
    vehicle = Vehicle(id=1, capacity=2, position=grid_node(5, 4, 4), onboard={9})
    vehicle.route = Route((Stop(rider.destination, frozenset(), frozenset({9}), 2),))
    state.add_vehicle(vehicle)
    plan = kept_plans(state, net, 0, CostWeights())[1]
    assert (plan.end_node, plan.end_time) == (rider.destination, 2)

    # too far once the dropoff is honored: release 2 + travel 5 > deadline 5
    _add_request(state, 1, grid_node(5, 1, 0), grid_node(5, 1, 3), max_wait=5, net=net)
    # reachable: release 2 + travel 2 <= deadline 7
    _add_request(state, 2, grid_node(5, 4, 0), grid_node(5, 2, 0), max_wait=7, net=net)
    graph = build_rv_graph(state, net, 0, CostWeights())
    assert edge_vehicles(graph, 1) == []
    assert edge_vehicles(graph, 2) == [1]

    edge = rv_edge(graph, 2, 1)
    # candidate: drop rider at 2, pick at 4, drop at 6; baseline drive 2 ride 2
    assert graph.baseline_cost[1] == 4
    assert edge.cost == (6 + 4 + (2 + 2)) - 4
    ok, reason = route_feasible(vehicle, edge.route, 0, net, state.requests)
    assert ok, reason


def test_rv_graph_pending_pickup_is_revocable():
    net = Network.build_grid(5, 5)
    state = SystemState(now=0)
    waiting = _add_request(state, 3, grid_node(5, 2, 2), grid_node(5, 2, 4), max_wait=6, net=net)
    vehicle = Vehicle(id=0, capacity=1, position=grid_node(5, 2, 0))
    state.add_vehicle(vehicle)
    graph = build_rv_graph(state, net, 0, CostWeights())
    solution = solve_hailing(graph)
    waiting.assign(0)
    vehicle.route = solution.routes[0]

    # one batch later the vehicle has driven a block toward the pickup
    vehicle.position = grid_node(5, 2, 1)
    vehicle.free_at = 1
    state.now = 1
    _add_request(state, 4, grid_node(5, 2, 1), grid_node(5, 4, 1), request_time=1, max_wait=2, net=net)
    graph = build_rv_graph(state, net, 1, CostWeights())
    # the new request is reachable because the pickup plan is revocable
    assert edge_vehicles(graph, 4) == [0]
    assert graph.prev_assigned == {3: 0, 4: None}
    # keeping the current assignment re-derives the committed plan, and its
    # edge is priced at the full remaining plan cost against an empty baseline
    assert rv_edge(graph, 3, 0).route == vehicle.route
    assert graph.baseline_cost[0] == 0
    assert rv_edge(graph, 3, 0).cost == 3 + 2 + 2


def test_rv_graph_mid_edge_release():
    net = Network.build_grid(5, 5)
    state = SystemState(now=3)
    vehicle = Vehicle(id=0, capacity=1, position=grid_node(5, 3, 0), free_at=4)
    state.add_vehicle(vehicle)
    _add_request(state, 1, grid_node(5, 4, 0), grid_node(5, 4, 3), request_time=3, max_wait=2, net=net)
    plan = kept_plans(state, net, 3, CostWeights())[0]
    assert (plan.end_node, plan.end_time) == (grid_node(5, 3, 0), 4)
    graph = build_rv_graph(state, net, 3, CostWeights())
    # pickup at 4 + 1 = 5, deadline 3 + 2 = 5
    assert edge_vehicles(graph, 1) == [0]
    assert rv_edge(graph, 1, 0).route.stops[0].planned_arrival == 5


def test_rv_graph_ride_bound_blocks_everything():
    net, state = _basic_state()
    _add_request(
        state, 1, grid_node(5, 1, 0), grid_node(5, 4, 0), max_wait=9, max_ride=2, net=net
    )
    graph = build_rv_graph(state, net, 0, CostWeights())
    assert edge_vehicles(graph, 1) == []
    assert graph.edges == {}


def test_retained_route_drops_revocable_tail():
    net = Network.build_grid(5, 5)
    rider = Request(9, grid_node(5, 0, 1), grid_node(5, 0, 3), 0, 5, 10)
    rider.reveal()
    rider.assign(0)
    rider.board(1)
    vehicle = Vehicle(id=0, capacity=1, position=grid_node(5, 0, 1), free_at=1, onboard={9})
    vehicle.route = Route(
        (
            Stop(rider.destination, frozenset(), frozenset({9}), 3),
            Stop(grid_node(5, 2, 3), frozenset({5}), frozenset(), 5),
            Stop(grid_node(5, 2, 4), frozenset(), frozenset({5}), 6),
        )
    )
    kept = retained_route(vehicle, 1, net)
    assert [s.location for s in kept.stops] == [rider.destination]
    assert kept.stops[0].planned_arrival == 3
    assert retained_route(Vehicle(id=1, capacity=1, position=0), 0, net) is None


@st.composite
def installed_plans(draw):
    """Visits on a 2x2 grid, one request each, often back to back at one
    node, and an installed route scheduled from the same visits, from
    them with one visit dropped or replaced, or from one time unit later."""
    node = st.integers(0, 3)
    visit = st.tuples(node | st.none(), st.booleans(), st.integers(0, 9))
    raw = draw(st.lists(visit, min_size=1, max_size=6, unique_by=lambda v: v[2]))
    # a visit without a node is at the node of the visit before it
    last = 0
    for i, (at, pick, rid) in enumerate(raw):
        last = last if at is None else at
        raw[i] = (last, pick, rid)
    other = list(raw)
    change = draw(st.sampled_from(["none", "drop", "replace", "later"]))
    if change in ("drop", "replace"):
        i = draw(st.integers(0, len(raw) - 1))
        fresh = (draw(node), draw(st.booleans()), 10)
        other[i:i + 1] = [] if change == "drop" else [fresh]
    start = (draw(node), draw(st.integers(0, 3)))
    delay = 1 if change == "later" else 0

    def visits(items):
        return [(at, (rid,), ()) if pick else (at, (), (rid,)) for at, pick, rid in items]

    return start, visits(raw), (start[0], start[1] + delay), visits(other)


@settings(max_examples=300, deadline=None)
@given(installed_plans())
def test_a_plan_is_the_installed_route_exactly_when_it_schedules_to_it(case):
    start, visits, installed_start, installed_visits = case
    net = Network.build_grid(2, 2)
    installed = Route(schedule_stops(net, *installed_start, installed_visits)) if installed_visits else None
    scheduled = Route(schedule_stops(net, *start, visits))
    plan = matching._plan(net, start, visits, installed)
    assert plan == scheduled
    assert (plan is installed) == (scheduled == installed)


def test_feasible_vehicles_shrink_as_time_passes():
    net = Network.build_grid(6, 6)
    rng = random.Random(99)
    state = SystemState(now=0)
    for vid in range(4):
        state.add_vehicle(Vehicle(id=vid, capacity=1, position=rng.randrange(36)))
    for rid in range(6):
        origin, destination = rng.sample(range(36), 2)
        _add_request(state, rid, origin, destination, max_wait=rng.randrange(3, 9), net=net)
    before = feasible_vehicles(state, net, kept_plans(state, net, 0, CostWeights()))
    graph = build_rv_graph(state, net, 0, CostWeights())
    solution = solve_hailing(graph)
    for rid, vid in solution.pairs.items():
        state.requests[rid].assign(vid)
        state.vehicles[vid].route = solution.routes[vid]
    state.now = 2
    after = feasible_vehicles(state, net, kept_plans(state, net, 2, CostWeights()))
    for rid in after:
        assert set(after[rid]) <= set(before[rid])


@st.composite
def dispatch_states(draw):
    """A batch state with riders on board, vehicles part way along an
    edge, pending pickups, and open requests, some of them starting at
    a vehicle's last committed dropoff."""
    edge_time = draw(st.integers(1, 3))
    net = Network.build_grid(4, 4, edge_time=edge_time)
    nodes = st.integers(0, 15)
    now = draw(st.integers(0, 6))
    state = SystemState(now=now)
    rid = 0

    def request(origin, request_time, max_wait=30, max_ride=None):
        nonlocal rid
        rid += 1
        destination = draw(nodes.filter(lambda n: n != origin))
        direct = net.travel_time(origin, destination)
        if max_ride is None:
            max_ride = direct + draw(st.integers(-edge_time, 3 * edge_time))
        made = Request(rid, origin, destination, request_time, max_wait, max(1, max_ride))
        made.reveal()
        return made

    last_drops = []
    for vid in range(draw(st.integers(1, 4))):
        # free_at beyond now: the vehicle is part way along an edge
        vehicle = Vehicle(
            id=vid, capacity=3, position=draw(nodes),
            free_at=max(0, now + draw(st.integers(-2, edge_time - 1))),
        )
        visits = []
        for _ in range(draw(st.integers(0, 2))):
            rider = request(draw(nodes), draw(st.integers(0, now)), max_ride=100)
            rider.assign(vid)
            rider.board(draw(st.integers(rider.request_time, now)))
            vehicle.onboard.add(rider.id)
            state.add_request(rider)
            visits.append((rider.destination, (), (rider.id,)))
        if visits:
            last_drops.append(visits[-1][0])
        if draw(st.booleans()):
            pending = request(draw(nodes), draw(st.integers(0, now)))
            pending.assign(vid)
            state.add_request(pending)
            visits += [(pending.origin, (pending.id,), ()), (pending.destination, (), (pending.id,))]
        if visits:
            start = max(vehicle.free_at, now)
            vehicle.route = Route(schedule_stops(net, vehicle.position, start, visits))
        state.add_vehicle(vehicle)
    for _ in range(draw(st.integers(1, 5))):
        if last_drops and draw(st.booleans()):
            origin = draw(st.sampled_from(last_drops))  # a merged stop
        else:
            origin = draw(nodes)
        state.add_request(
            request(origin, draw(st.integers(max(0, now - 3), now)), draw(st.integers(1, 12)))
        )
    weights = CostWeights(*(draw(st.integers(0, 3)) for _ in range(3)))
    return net, state, weights


@settings(max_examples=300, deadline=None)
@given(dispatch_states())
def test_rv_edges_are_priced_as_their_candidate_routes(case):
    net, state, weights = case
    now = state.now
    graph = build_rv_graph(state, net, now, weights)
    for vid, vehicle in state.vehicles.items():
        kept = retained_route(vehicle, now, net)
        assert graph.kept_routes[vid] == kept
        assert graph.baseline_cost[vid] == (
            0 if kept is None else route_cost(kept, vehicle, now, weights, state.requests)
        )
    for (bid, vid), edge in graph.edges.items():
        (rid,) = graph.members(bid)
        vehicle = state.vehicles[vid]
        assert edge.route == candidate_route(vehicle, state.requests[rid], now, net)
        ok, reason = route_feasible(vehicle, edge.route, now, net, state.requests)
        assert ok, reason
        assert edge.cost == (
            route_cost(edge.route, vehicle, now, weights, state.requests)
            - graph.baseline_cost[vid]
        )
    for frozen in (False, True):
        try:
            solution = solve_hailing(graph, frozen=frozen)
        except MatchingError:
            assert frozen  # a pending pickup its vehicle can no longer reach
            continue
        for rid, vid in solution.pairs.items():
            vehicle = state.vehicles[vid]
            assert solution.routes[vid] == candidate_route(vehicle, state.requests[rid], now, net)
        assert solution.total_cost == sum(
            route_cost(route, state.vehicles[vid], now, weights, state.requests)
            - graph.baseline_cost[vid]
            for vid, route in solution.routes.items()
        )

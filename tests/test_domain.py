"""Tests for the request/vehicle/route domain model."""

from __future__ import annotations

import random

import pytest

from fleetsim.model import (
    CostWeights,
    LeaveReason,
    Request,
    RequestStatus,
    Route,
    RouteStructureError,
    StatusError,
    Stop,
    SystemState,
    Vehicle,
    plan_start,
    route_cost,
    schedule_stops,
    validate_state,
)
from fleetsim.network import Network, grid_node
from oracles import route_feasible


def make_request(rid, origin, destination, request_time=0, max_wait=5, max_ride=10):
    return Request(rid, origin, destination, request_time, max_wait, max_ride)


def test_request_validation():
    with pytest.raises(ValueError):
        make_request(0, 3, 3)
    with pytest.raises(ValueError):
        make_request(0, 1, 2, max_wait=0)
    with pytest.raises(ValueError):
        make_request(0, 1, 2, max_ride=0)
    with pytest.raises(ValueError):
        make_request(0, 1, 2, request_time=-1)
    assert make_request(0, 1, 2, request_time=4, max_wait=6).latest_pickup == 10


def test_status_machine_happy_path():
    r = make_request(1, 0, 5)
    assert r.status is RequestStatus.UNREVEALED
    r.reveal()
    r.assign(3)
    assert r.status is RequestStatus.WAITING
    assert r.assigned_vehicle == 3
    r.assign(7)  # reassignment while waiting is legal
    assert r.assigned_vehicle == 7
    r.board(4)
    assert r.status is RequestStatus.ON_BOARD
    assert r.pickup_time == 4
    r.complete(9)
    assert r.status is RequestStatus.SERVED
    assert r.dropoff_time == 9
    assert r.assigned_vehicle is None


def test_status_machine_unassign_and_leave():
    r = make_request(1, 0, 5)
    r.reveal()
    r.assign(2)
    r.unassign()
    assert r.status is RequestStatus.NOT_ASSIGNED
    assert r.assigned_vehicle is None
    r.leave(LeaveReason.WALK_AWAY, 6)
    assert r.status is RequestStatus.LEFT
    assert r.left_time == 6
    assert r.left_reason is LeaveReason.WALK_AWAY


def test_status_machine_rejects_illegal_moves():
    r = make_request(1, 0, 5)
    with pytest.raises(StatusError):
        r.assign(1)  # not yet revealed
    with pytest.raises(StatusError):
        r.board(3)
    r.reveal()
    with pytest.raises(StatusError):
        r.reveal()
    with pytest.raises(StatusError):
        r.board(3)  # never assigned
    with pytest.raises(StatusError):
        r.complete(3)
    r.assign(1)
    with pytest.raises(StatusError):
        r.leave(LeaveReason.WALK_AWAY, 3)  # waiting users do not leave
    r.board(2)
    with pytest.raises(StatusError):
        r.assign(4)
    r.complete(5)
    with pytest.raises(StatusError):
        r.board(6)


def test_stop_invariants():
    with pytest.raises(RouteStructureError):
        Stop(0, frozenset({1}), frozenset({1}), 0)
    with pytest.raises(RouteStructureError):
        Stop(0, frozenset(), frozenset(), 0)
    with pytest.raises(RouteStructureError):
        Stop(0, frozenset({1}), frozenset(), -1)
    stop = Stop(0, {1, 2}, {3}, 4)
    assert stop.pickups == frozenset({1, 2})
    assert isinstance(stop.dropoffs, frozenset)


def test_route_structure_checks():
    good = Route(
        (
            Stop(1, frozenset({1}), frozenset(), 1),
            Stop(2, frozenset({2}), frozenset({1}), 2),
            Stop(3, frozenset(), frozenset({2}), 3),
        )
    )
    good.validate_structure()
    assert good.picked_ids() == frozenset({1, 2})

    with pytest.raises(RouteStructureError, match="picked up twice"):
        Route(
            (Stop(1, frozenset({1}), frozenset(), 1), Stop(2, frozenset({1}), frozenset(), 2))
        ).validate_structure()
    with pytest.raises(RouteStructureError, match="dropped before pickup"):
        Route(
            (Stop(1, frozenset(), frozenset({1}), 1), Stop(2, frozenset({1}), frozenset(), 2))
        ).validate_structure()
    with pytest.raises(RouteStructureError, match="never dropped"):
        Route((Stop(1, frozenset({1}), frozenset(), 1),)).validate_structure()
    with pytest.raises(RouteStructureError, match="without pickup"):
        Route((Stop(1, frozenset(), frozenset({1}), 1),)).validate_structure()
    # with request 1 on board, a lone dropoff is the only legal shape
    Route((Stop(1, frozenset(), frozenset({1}), 1),)).validate_structure(onboard={1})
    with pytest.raises(RouteStructureError, match="already on board"):
        Route(
            (Stop(1, frozenset({1}), frozenset(), 1), Stop(2, frozenset(), frozenset({1}), 2))
        ).validate_structure(onboard={1})
    with pytest.raises(RouteStructureError, match="has no dropoff"):
        Route((Stop(1, frozenset({2}), frozenset(), 1), Stop(2, frozenset(), frozenset({2}), 2))).validate_structure(
            onboard={1}
        )


def test_plan_start():
    v = Vehicle(id=0, capacity=2, position=5, free_at=3)
    assert plan_start(v, 7) == (5, 7)
    assert plan_start(v, 2) == (5, 3)


def test_schedule_stops_accumulates_and_merges():
    net = Network.build_grid(5, 5)
    stops = schedule_stops(
        net,
        grid_node(5, 0, 0),
        0,
        [
            (grid_node(5, 2, 0), {1}, ()),
            (grid_node(5, 2, 0), (), {9}),
            (grid_node(5, 2, 1), {2}, ()),
            (grid_node(5, 2, 0), (), {1}),
        ],
    )
    # back-to-back visits at one node collapse into a single stop
    assert len(stops) == 3
    assert stops[0].pickups == frozenset({1})
    assert stops[0].dropoffs == frozenset({9})
    assert [s.planned_arrival for s in stops] == [2, 3, 4]


def test_route_feasible_frozen_example():
    net = Network.build_grid(5, 5)
    r1 = make_request(1, grid_node(5, 2, 0), grid_node(5, 4, 0))
    r2 = make_request(2, grid_node(5, 2, 1), grid_node(5, 2, 3))
    requests = {1: r1, 2: r2}
    vehicle = Vehicle(id=0, capacity=4, position=grid_node(5, 0, 0))
    route = Route(
        schedule_stops(
            net,
            vehicle.position,
            0,
            [
                (r1.origin, {1}, ()),
                (r2.origin, {2}, ()),
                (r1.destination, (), {1}),
                (r2.destination, (), {2}),
            ],
        )
    )
    assert [s.planned_arrival for s in route.stops] == [2, 3, 6, 11]
    ok, reason = route_feasible(vehicle, route, 0, net, requests)
    assert ok, reason
    cost = route_cost(route, vehicle, 0, CostWeights(1, 1, 1), requests)
    # drive 11, waits 2 + 3, rides 4 + 8
    assert cost == 28
    assert route_cost(route, vehicle, 0, CostWeights(2, 3, 5), requests) == 97


def test_route_feasible_reports_first_violation():
    net = Network.build_grid(5, 5)
    r1 = make_request(1, grid_node(5, 3, 0), grid_node(5, 4, 0), max_wait=2)
    vehicle = Vehicle(id=0, capacity=1, position=grid_node(5, 0, 0))
    route = Route(
        schedule_stops(net, vehicle.position, 0, [(r1.origin, {1}, ()), (r1.destination, (), {1})])
    )
    ok, reason = route_feasible(vehicle, route, 0, net, {1: r1})
    assert not ok
    assert "latest_pickup" in reason


def test_route_feasible_rejects_unrealizable_arrivals():
    net = Network.build_grid(5, 5)
    r1 = make_request(1, grid_node(5, 3, 0), grid_node(5, 4, 0))
    vehicle = Vehicle(id=0, capacity=1, position=grid_node(5, 0, 0))
    stops = (
        Stop(r1.origin, frozenset({1}), frozenset(), 2),  # actual drive takes 3
        Stop(r1.destination, frozenset(), frozenset({1}), 4),
    )
    ok, reason = route_feasible(vehicle, Route(stops), 0, net, {1: r1})
    assert not ok
    assert "not realizable" in reason


def test_route_feasible_onboard_ride_from_realized_pickup():
    net = Network.build_grid(5, 5)
    r9 = make_request(9, grid_node(5, 4, 0), grid_node(5, 4, 4), max_ride=8)
    r9.reveal()
    r9.assign(0)
    r9.board(1)
    vehicle = Vehicle(id=0, capacity=2, position=grid_node(5, 4, 0), free_at=5, onboard={9})
    route = Route(schedule_stops(net, vehicle.position, 5, [(r9.destination, (), {9})]))
    ok, reason = route_feasible(vehicle, route, 5, net, {9: r9})
    assert ok, reason  # dropoff at 9, ride exactly 8
    assert route_cost(route, vehicle, 5, CostWeights(1, 1, 1), {9: r9}) == 4 + 8

    tight = make_request(9, r9.origin, r9.destination, max_ride=7)
    tight.status = RequestStatus.ON_BOARD
    tight.pickup_time = 1
    ok, reason = route_feasible(vehicle, route, 5, net, {9: tight})
    assert not ok
    assert "max_ride" in reason


def test_route_feasible_missing_pickup_record():
    net = Network.build_grid(3, 3)
    ghost = make_request(4, 0, 2)
    ghost.status = RequestStatus.ON_BOARD  # inconsistent: no pickup_time
    vehicle = Vehicle(id=0, capacity=1, position=0, onboard={4})
    route = Route(schedule_stops(net, 0, 0, [(2, (), {4})]))
    with pytest.raises(RouteStructureError, match="no pickup time"):
        route_feasible(vehicle, route, 0, net, {4: ghost})


def _random_staged_route(rng, net, size):
    """Build a random valid route with generous bounds, plus its requests."""
    nodes = list(net.nodes)
    vehicle = Vehicle(
        id=0,
        capacity=size,
        position=rng.choice(nodes),
        free_at=rng.randrange(0, 3),
    )
    requests = {}
    for rid in range(size):
        origin, destination = rng.sample(nodes, 2)
        requests[rid] = make_request(rid, origin, destination, max_wait=999, max_ride=999)
    # random interleaving with pickups before dropoffs
    pending = [(rid, "pick") for rid in requests]
    visits = []
    picked = set()
    while pending:
        item = rng.choice([it for it in pending if it[1] == "pick" or it[0] in picked])
        pending.remove(item)
        rid, kind = item
        if kind == "pick":
            picked.add(rid)
            pending.append((rid, "drop"))
            visits.append((requests[rid].origin, {rid}, ()))
        else:
            visits.append((requests[rid].destination, (), {rid}))
    start_node, start_time = plan_start(vehicle, 1)
    stops = schedule_stops(net, start_node, start_time, visits)
    return vehicle, requests, Route(stops)


def test_route_feasible_exact_boundaries_randomized():
    """Tighten every bound to its realized value, then past it by one."""
    net = Network.build_grid(6, 6)
    rng = random.Random(20260817)
    for _ in range(60):
        size = rng.randrange(1, 4)
        vehicle, requests, route = _random_staged_route(rng, net, size)
        now = 1
        pick_at, drop_at = {}, {}
        load, peak = 0, 0
        for stop in route.stops:
            load -= len(stop.dropoffs)
            load += len(stop.pickups)
            peak = max(peak, load)
            for rid in stop.pickups:
                pick_at[rid] = stop.planned_arrival
            for rid in stop.dropoffs:
                drop_at[rid] = stop.planned_arrival
        for rid, request in requests.items():
            request.max_wait = max(1, pick_at[rid] - request.request_time)
            request.max_ride = drop_at[rid] - pick_at[rid]
        vehicle.capacity = max(peak, 1)
        ok, reason = route_feasible(vehicle, route, now, net, requests)
        assert ok, reason

        victim = rng.choice(sorted(requests))
        tightened = requests[victim]
        if rng.random() < 0.5 and pick_at[victim] - tightened.request_time >= 2:
            tightened.max_wait -= 1
            expect = "latest_pickup"
        elif tightened.max_ride >= 2:
            tightened.max_ride -= 1
            expect = "max_ride"
        elif peak >= 2:
            vehicle.capacity = peak - 1
            expect = "capacity"
        else:
            continue
        ok, reason = route_feasible(vehicle, route, now, net, requests)
        assert not ok
        assert expect in reason


def test_route_cost_components_add_up():
    net = Network.build_grid(6, 6)
    rng = random.Random(7)
    for _ in range(40):
        vehicle, requests, route = _random_staged_route(rng, net, rng.randrange(1, 4))
        parts = [
            route_cost(route, vehicle, 1, w, requests)
            for w in (CostWeights(1, 0, 0), CostWeights(0, 1, 0), CostWeights(0, 0, 1))
        ]
        total = route_cost(route, vehicle, 1, CostWeights(1, 1, 1), requests)
        assert total == sum(parts)
        # pure drive cost equals the end-to-end plan duration (no dwell)
        _, start_time = plan_start(vehicle, 1)
        assert parts[0] == route.stops[-1].planned_arrival - start_time


def _clean_state():
    net = Network.build_grid(5, 5)
    state = SystemState(batch_index=3, now=6)
    waiting = make_request(1, grid_node(5, 2, 0), grid_node(5, 4, 0), request_time=5)
    waiting.reveal()
    waiting.assign(0)
    rider = make_request(2, grid_node(5, 0, 1), grid_node(5, 0, 4), request_time=2)
    rider.reveal()
    rider.assign(0)
    rider.board(4)
    state.add_request(waiting)
    state.add_request(rider)
    vehicle = Vehicle(id=0, capacity=2, position=grid_node(5, 0, 1), free_at=4, onboard={2})
    vehicle.route = Route(
        schedule_stops(
            net,
            vehicle.position,
            6,
            [
                (waiting.origin, {1}, ()),
                (waiting.destination, (), {1}),
                (rider.destination, (), {2}),
            ],
        )
    )
    state.add_vehicle(vehicle)
    return net, state


def test_validate_state_accepts_consistent_state():
    net, state = _clean_state()
    assert validate_state(state, net) == []


def test_validate_state_flags_cross_reference_breaks():
    net, state = _clean_state()
    stray = make_request(7, 1, 3, request_time=6)
    stray.reveal()
    stray.assign(0)  # claims to wait for vehicle 0, but no route stop exists
    state.add_request(stray)
    problems = validate_state(state)
    assert any("scheduled in 0 routes" in p for p in problems)

    net, state = _clean_state()
    state.requests[1].assigned_vehicle = 9
    problems = validate_state(state)
    assert any("assigned to vehicle 9" in p for p in problems)

    net, state = _clean_state()
    state.requests[2].pickup_time = None
    problems = validate_state(state)
    assert any("without pickup time" in p for p in problems)

    net, state = _clean_state()
    state.vehicles[0].onboard.add(1)  # waiting and on board at once
    problems = validate_state(state)
    assert any("waiting yet on board" in p for p in problems)

    net, state = _clean_state()
    state.requests[1].status = RequestStatus.LEFT
    state.requests[1].left_reason = LeaveReason.WALK_AWAY
    problems = validate_state(state)
    assert any("yet scheduled in a route" in p for p in problems)


def test_validate_state_flags_capacity_and_schedule():
    net, state = _clean_state()
    state.vehicles[0].capacity = 1
    state.vehicles[0].onboard = {1, 2}
    problems = validate_state(state)
    assert any("exceeds capacity" in p for p in problems)

    net, state = _clean_state()
    bad = list(state.vehicles[0].route.stops)
    first = bad[0]
    # planned from now=6 while free_at=4, so shaving off the slack plus one
    bad[0] = Stop(first.location, first.pickups, first.dropoffs, first.planned_arrival - 3)
    state.vehicles[0].route = Route(tuple(bad))
    problems = validate_state(state, net)
    assert any("not realizable" in p for p in problems)


def test_validate_state_flags_routes_planned_before_now():
    # vehicle 0 has idled at node 0 since t=0, but its route was planned
    # from t=0 while it is now t=10: every arrival is 10 too early
    net = Network.build_grid(5, 5)
    state = SystemState(now=10)
    request = make_request(1, grid_node(5, 2, 0), grid_node(5, 4, 0), max_wait=20)
    request.reveal()
    request.assign(0)
    state.add_request(request)
    vehicle = Vehicle(id=0, capacity=1, position=0, free_at=0)
    visits = [(request.origin, {1}, ()), (request.destination, (), {1})]
    vehicle.route = Route(schedule_stops(net, 0, 0, visits))
    state.add_vehicle(vehicle)
    assert [s.planned_arrival for s in vehicle.route.stops] == [2, 4]
    reason = "stop at node 2: planned arrival 2 is not realizable (drives to 12)"
    assert validate_state(state) == []
    assert validate_state(state, net) == [f"vehicle 0: {reason}"]
    assert route_feasible(vehicle, vehicle.route, 10, net, state.requests) == (False, reason)

    # planned from the vehicle's plan start, the same visits pass
    vehicle.route = Route(schedule_stops(net, *plan_start(vehicle, 10), visits))
    assert validate_state(state, net) == []


def test_validate_state_allows_slack_schedules():
    # a vehicle that sat idle before assignment plans from now, not free_at
    net, state = _clean_state()
    state.vehicles[0].free_at = 2
    assert validate_state(state, net) == []


def test_served_and_left_bookkeeping_checks():
    _, state = _clean_state()
    done = make_request(5, 1, 3, request_time=0)
    done.status = RequestStatus.SERVED
    state.add_request(done)
    problems = validate_state(state)
    assert any("served without realized times" in p for p in problems)

    _, state = _clean_state()
    gone = make_request(5, 1, 3, request_time=0)
    gone.status = RequestStatus.LEFT
    gone.left_time = 4
    state.add_request(gone)
    problems = validate_state(state)
    assert any("left without a reason" in p for p in problems)


def test_validate_state_flags_riders_and_pickups_missing_from_the_state():
    state = SystemState()
    state.add_vehicle(Vehicle(id=0, capacity=1, position=0, onboard={77}))
    state.vehicles[0].route = Route((Stop(2, frozenset(), frozenset({77}), 2),))
    assert validate_state(state) == [
        "request 77: not in the state, yet held by vehicles [0]"
    ]

    net, state = _clean_state()
    vehicle = state.vehicles[0]
    stops = list(vehicle.route.stops)
    stops[0] = Stop(stops[0].location, frozenset({1, 8}), frozenset(), stops[0].planned_arrival)
    stops[1] = Stop(stops[1].location, frozenset(), frozenset({1, 8}), stops[1].planned_arrival)
    vehicle.route = Route(tuple(stops))
    assert validate_state(state, net) == [
        "request 8: not in the state, yet held by vehicles [0]"
    ]


def test_validate_state_flags_riders_without_a_route():
    state = SystemState()
    rider = make_request(1, 0, 2)
    rider.reveal()
    rider.assign(0)
    rider.board(0)
    state.add_request(rider)
    state.add_vehicle(Vehicle(id=0, capacity=1, position=0, onboard={1}))
    assert validate_state(state) == ["vehicle 0: carries [1] but has no route"]


def test_validate_state_scope_skips_only_unchanged_settled_requests():
    net, state = _clean_state()
    done = make_request(5, 1, 3, request_time=0)
    state.add_request(done)
    done.reveal()
    done.assign(0)
    done.board(1)
    done.complete(3)
    assert validate_state(state, net) == []
    # settled, named by no vehicle, status unchanged since the check: out
    # of scope until a full check
    done.dropoff_time = None
    assert validate_state(state, net) == []
    state.recheck_all()
    assert validate_state(state, net) == ["request 5: served without realized times"]
    # a status write puts it back in scope, whatever wrote it
    done.status = RequestStatus.LEFT
    assert validate_state(state, net) == ["request 5: left without a reason"]
    done.left_reason = LeaveReason.WALK_AWAY
    assert validate_state(state, net) == []
    # a vehicle naming it puts it back in scope as well
    state.vehicles[0].onboard.add(5)
    assert "request 5: status left yet on board a vehicle" in validate_state(state)


def test_state_rejects_duplicate_ids():
    state = SystemState()
    state.add_request(make_request(1, 0, 2))
    with pytest.raises(ValueError):
        state.add_request(make_request(1, 3, 4))
    state.add_vehicle(Vehicle(id=0, capacity=1, position=0))
    with pytest.raises(ValueError):
        state.add_vehicle(Vehicle(id=0, capacity=2, position=1))
    with pytest.raises(ValueError, match="already belongs to a state"):
        SystemState().add_request(state.requests[1])


def test_active_requests_ordering():
    state = SystemState()
    for rid, status in ((3, RequestStatus.NOT_ASSIGNED), (1, RequestStatus.WAITING), (2, RequestStatus.SERVED)):
        r = make_request(rid, 0, 1)
        r.status = status
        state.add_request(r)
    assert [r.id for r in state.active_requests()] == [1, 3]
    assert state.status_ids(RequestStatus.SERVED) == [2]
    # writes after adding move the id, through the status machine or not
    state.requests[3].assign(0)
    state.requests[1].status = RequestStatus.LEFT
    assert [r.id for r in state.active_requests()] == [3]
    assert state.status_ids(RequestStatus.WAITING) == [3]
    assert state.status_ids(RequestStatus.LEFT) == [1]
    assert state.status_ids(RequestStatus.NOT_ASSIGNED) == []
    assert not state.settled()

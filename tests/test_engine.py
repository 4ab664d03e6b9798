"""Tests for the batch control loop."""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from fleetsim import engine, matching, pooling
from fleetsim.engine import (
    EngineConfig,
    EngineError,
    Event,
    EventKind,
    Mode,
    ObjectiveReport,
    Reassignment,
    RejectionPolicy,
    accumulate_objective,
    apply_assignment,
    reveal_requests,
    step,
    transition,
    walkaway_sweep,
)
from fleetsim.matching import AssignmentSolution
from fleetsim.model import (
    LeaveReason,
    Request,
    RequestStatus,
    Route,
    Stop,
    SystemState,
    Vehicle,
    plan_start,
    schedule_stops,
    validate_state,
)
from fleetsim.network import Network, grid_node
from fleetsim.scenario import ScenarioConfig, build_fleet, generate_demand
from oracles import expand_plan, replay_plans, retained_route


def fresh_request(rid, origin, destination, request_time=0, max_wait=5, max_ride=20):
    return Request(rid, origin, destination, request_time, max_wait, max_ride)


def run_batches(state, cfg, net, batches, observer=None):
    """Run `batches` steps; returns the events and the objective tallied from them."""
    events = []
    for _ in range(batches):
        events += step(state, cfg, net, observer)
    driven = sum(v.odometer for v in state.vehicles.values())
    return events, accumulate_objective(events, state.requests, driven)


def test_config_validation_and_coercion():
    cfg = EngineConfig(mode="pooling", rejection_policy="walk_away", reassignment="frozen")
    assert cfg.mode is Mode.POOLING
    assert cfg.rejection_policy is RejectionPolicy.WALK_AWAY
    assert cfg.reassignment is Reassignment.FROZEN
    with pytest.raises(ValueError):
        EngineConfig(batch_interval=0)
    with pytest.raises(ValueError):
        EngineConfig(horizon=0)
    with pytest.raises(ValueError):
        EngineConfig(max_bundle_size=0)
    with pytest.raises(ValueError):
        EngineConfig(mode="teleport")


def test_reveal_window_boundaries():
    state = SystemState(now=3)
    state.add_request(fresh_request(1, 0, 1, request_time=2))
    state.add_request(fresh_request(2, 0, 1, request_time=3))
    state.add_request(fresh_request(3, 0, 1, request_time=4))
    # the window is half-open: (2, 3] with a unit interval
    assert reveal_requests(state, 3, 1) == [2]
    assert state.requests[1].status is RequestStatus.UNREVEALED
    assert state.requests[3].status is RequestStatus.UNREVEALED
    assert reveal_requests(state, 3, 1) == []
    assert reveal_requests(state, 4, 1) == [3]


def test_single_request_hand_schedule():
    net = Network.build_grid(5, 5)
    state = SystemState()
    state.add_vehicle(Vehicle(id=0, capacity=1, position=grid_node(5, 0, 0)))
    state.add_request(
        fresh_request(7, grid_node(5, 1, 0), grid_node(5, 3, 0), max_wait=3)
    )
    cfg = EngineConfig(horizon=4)
    events, total = run_batches(state, cfg, net, 4)
    assert events == [
        Event(0, EventKind.REVEALED, 7, None, 0),
        Event(0, EventKind.ACCEPTED, 7, 0, 0),
        Event(0, EventKind.PICKED_UP, 7, 0, 1),
        Event(2, EventKind.DROPPED_OFF, 7, 0, 3),
    ]
    assert state.requests[7].status is RequestStatus.SERVED
    assert state.requests[7].pickup_time == 1
    assert state.requests[7].dropoff_time == 3
    assert state.vehicles[0].odometer == 3
    assert state.vehicles[0].position == grid_node(5, 3, 0)
    assert total == ObjectiveReport(0, 0, 3, 1, 2)


def _no_availability_state():
    net = Network.build_grid(5, 5)
    state = SystemState()
    state.add_vehicle(Vehicle(id=0, capacity=1, position=grid_node(5, 4, 4)))
    state.add_request(
        fresh_request(1, grid_node(5, 0, 0), grid_node(5, 2, 0), max_wait=2)
    )
    return net, state


def test_no_availability_under_both_policies():
    net, state = _no_availability_state()
    events, total = run_batches(state, EngineConfig(horizon=3), net, 3)
    assert Event(0, EventKind.REJECTED, 1, None, 0) in events
    assert state.requests[1].status is RequestStatus.LEFT
    assert state.requests[1].left_reason is LeaveReason.OPERATOR_REJECT
    assert total.p_minus_count == 1

    net, state = _no_availability_state()
    cfg = EngineConfig(rejection_policy=RejectionPolicy.WALK_AWAY, horizon=3)
    events, total = run_batches(state, cfg, net, 3)
    assert Event(1, EventKind.WALKED_AWAY, 1, None, 2) in events
    assert state.requests[1].left_reason is LeaveReason.WALK_AWAY
    assert state.requests[1].left_time == 2
    assert total.p_minus_count == 1


def test_apply_assignment_unassigns_and_strips_routes():
    state = SystemState()
    vehicle = Vehicle(id=0, capacity=1, position=grid_node(5, 0, 0))
    state.add_vehicle(vehicle)
    request = fresh_request(1, grid_node(5, 2, 0), grid_node(5, 4, 0))
    state.add_request(request)
    request.reveal()
    request.assign(0)
    vehicle.route = Route(
        (
            Stop(grid_node(5, 2, 0), frozenset({1}), frozenset(), 2),
            Stop(grid_node(5, 4, 0), frozenset(), frozenset({1}), 4),
        )
    )
    empty = AssignmentSolution(
        pairs={}, routes={}, kept_previous=0, assigned_count=0,
        total_cost=0, unassigned=[1], dropped_previous=[1],
    )
    events = apply_assignment(state, empty, EngineConfig())
    assert events == [Event(0, EventKind.UNASSIGNED, 1, 0, 0)]
    assert request.status is RequestStatus.NOT_ASSIGNED
    assert vehicle.route is None


def test_apply_assignment_reassignment_event():
    state = SystemState()
    state.add_vehicle(Vehicle(id=0, capacity=1, position=grid_node(5, 0, 0)))
    state.add_vehicle(Vehicle(id=1, capacity=1, position=grid_node(5, 0, 1)))
    request = fresh_request(1, grid_node(5, 2, 0), grid_node(5, 4, 0))
    state.add_request(request)
    request.reveal()
    request.assign(0)
    moved = Route(
        (
            Stop(grid_node(5, 2, 0), frozenset({1}), frozenset(), 3),
            Stop(grid_node(5, 4, 0), frozenset(), frozenset({1}), 5),
        )
    )
    solution = AssignmentSolution(
        pairs={1: 1}, routes={1: moved}, kept_previous=1, assigned_count=1,
        total_cost=0, unassigned=[], dropped_previous=[],
    )
    events = apply_assignment(state, solution, EngineConfig())
    assert events == [Event(0, EventKind.REASSIGNED, 1, 1, 0)]
    assert request.assigned_vehicle == 1
    assert state.vehicles[1].route == moved
    assert state.vehicles[0].route is None


def test_a_reordered_route_boards_its_riders_in_the_new_order():
    # the new route serves the same riders at the same nodes, with the
    # two pickups swapped; the vehicle must drive the new order
    net = Network.build_grid(5, 5)
    state = SystemState()
    vehicle = Vehicle(id=0, capacity=2, position=grid_node(5, 0, 0))
    state.add_vehicle(vehicle)
    a = fresh_request(1, grid_node(5, 1, 0), grid_node(5, 4, 0))
    b = fresh_request(2, grid_node(5, 0, 1), grid_node(5, 4, 1))
    for request in (a, b):
        state.add_request(request)
        request.reveal()
        request.assign(0)

    def route(first, second):
        visits = [
            (first.origin, (first.id,), ()),
            (second.origin, (second.id,), ()),
            (a.destination, (), (a.id,)),
            (b.destination, (), (b.id,)),
        ]
        return Route(schedule_stops(net, vehicle.position, 0, visits))

    vehicle.route = route(a, b)
    swapped = route(b, a)
    solution = AssignmentSolution(
        pairs={1: 0, 2: 0}, routes={0: swapped}, kept_previous=2, assigned_count=2,
        total_cost=0,
    )
    cfg = EngineConfig()
    assert apply_assignment(state, solution, cfg) == []
    assert vehicle.route == swapped
    events = []
    while vehicle.route is not None:
        events += transition(state, cfg, net)
        state.batch_index += 1
    first, second, drop_a, drop_b = (stop.planned_arrival for stop in swapped.stops)
    assert [(e.kind, e.request, e.time) for e in events] == [
        (EventKind.PICKED_UP, 2, first),
        (EventKind.PICKED_UP, 1, second),
        (EventKind.DROPPED_OFF, 1, drop_a),
        (EventKind.DROPPED_OFF, 2, drop_b),
    ]
    assert first < second
    assert vehicle.odometer == drop_b


def test_step_raises_on_a_route_whose_planned_arrival_the_drive_misses(monkeypatch):
    # the stop is installed and served inside one step, before
    # validate_state could see the route
    net = Network.build_grid(5, 5)
    state = SystemState()
    state.add_vehicle(Vehicle(id=0, capacity=1, position=grid_node(5, 0, 0)))
    request = fresh_request(1, grid_node(5, 1, 0), grid_node(5, 4, 0))
    state.add_request(request)
    # the drive reaches the pickup at 1, the route promises 2
    late = Route(
        (
            Stop(grid_node(5, 1, 0), frozenset({1}), frozenset(), 2),
            Stop(grid_node(5, 4, 0), frozenset(), frozenset({1}), 5),
        )
    )
    solution = AssignmentSolution(
        pairs={1: 0}, routes={0: late}, kept_previous=0, assigned_count=1, total_cost=0,
    )
    monkeypatch.setattr(engine, "optimize", lambda state, cfg, net: (None, solution))
    with pytest.raises(EngineError, match="route promises arrival 2 at 1"):
        step(state, EngineConfig(batch_interval=3), net)


def test_walkaway_sweep_guard_under_early_reject():
    state = SystemState(now=9)
    expired = fresh_request(1, 0, 1, request_time=0, max_wait=4)
    state.add_request(expired)
    expired.reveal()
    with pytest.raises(EngineError, match="expired despite early rejection"):
        walkaway_sweep(state, EngineConfig())
    events = walkaway_sweep(
        state, EngineConfig(rejection_policy=RejectionPolicy.WALK_AWAY)
    )
    assert [e.kind for e in events] == [EventKind.WALKED_AWAY]


def test_transition_binds_entered_edges_to_their_far_end():
    net = Network.from_edge_list("0 1 3\n1 0 3\n")
    state = SystemState()
    state.add_vehicle(Vehicle(id=0, capacity=1, position=0))
    state.add_request(fresh_request(1, 1, 0, max_wait=3, max_ride=3))
    cfg = EngineConfig(horizon=6)
    events, _ = run_batches(state, cfg, net, 1)
    vehicle = state.vehicles[0]
    # the edge was entered at t=0, so the vehicle already binds to node 1
    assert vehicle.position == 1
    assert vehicle.free_at == 3
    assert vehicle.odometer == 3
    events_rest, _ = run_batches(state, cfg, net, 5)
    timeline = [
        (e.kind, e.time)
        for e in events + events_rest
        if e.kind in (EventKind.PICKED_UP, EventKind.DROPPED_OFF)
    ]
    assert timeline == [
        (EventKind.PICKED_UP, 3),
        (EventKind.DROPPED_OFF, 6),
    ]
    assert vehicle.odometer == 6


def test_frozen_reassignment_blocks_the_swap():
    def build():
        net = Network.build_grid(7, 7)
        state = SystemState()
        state.add_vehicle(Vehicle(id=0, capacity=1, position=grid_node(7, 0, 0)))
        state.add_vehicle(Vehicle(id=1, capacity=1, position=grid_node(7, 6, 0)))
        state.add_request(
            fresh_request(1, grid_node(7, 3, 0), grid_node(7, 5, 0), max_wait=6)
        )
        state.add_request(
            fresh_request(
                2, grid_node(7, 0, 0), grid_node(7, 0, 2), request_time=1, max_wait=2
            )
        )
        return net, state

    net, state = build()
    cfg = EngineConfig(horizon=2)
    events, _ = run_batches(state, cfg, net, 2)
    assert Event(1, EventKind.REASSIGNED, 1, 1, 1) in events
    assert Event(1, EventKind.ACCEPTED, 2, 0, 1) in events

    net, state = build()
    cfg = EngineConfig(horizon=2, reassignment=Reassignment.FROZEN)
    events, _ = run_batches(state, cfg, net, 2)
    assert state.requests[1].assigned_vehicle == 0
    assert Event(1, EventKind.REJECTED, 2, None, 1) in events


def test_pooling_step_shares_one_vehicle():
    net = Network.build_grid(5, 5)
    state = SystemState()
    state.add_vehicle(Vehicle(id=0, capacity=2, position=grid_node(5, 0, 0)))
    state.add_request(fresh_request(1, grid_node(5, 1, 0), grid_node(5, 3, 0)))
    state.add_request(fresh_request(2, grid_node(5, 2, 0), grid_node(5, 2, 2)))
    cfg = EngineConfig(mode=Mode.POOLING, horizon=7)
    events, total = run_batches(state, cfg, net, 7)
    assert [e for e in events if e.kind is EventKind.ACCEPTED] == [
        Event(0, EventKind.ACCEPTED, 1, 0, 0),
        Event(0, EventKind.ACCEPTED, 2, 0, 0),
    ]
    assert state.requests[1].dropoff_time == 3
    assert state.requests[2].pickup_time == 4
    assert state.requests[2].dropoff_time == 6
    assert total == ObjectiveReport(0, 0, 6, 5, 4)


@pytest.mark.parametrize("mode", [Mode.HAILING, Mode.POOLING])
@pytest.mark.parametrize(
    "policy", [RejectionPolicy.EARLY_REJECT, RejectionPolicy.WALK_AWAY]
)
def test_random_mini_runs_stay_clean(mode, policy):
    net = Network.build_grid(6, 6)

    def build(seed):
        rng = random.Random(seed)
        state = SystemState()
        for vid in range(3):
            state.add_vehicle(
                Vehicle(id=vid, capacity=2 if mode is Mode.POOLING else 1,
                        position=rng.randrange(36))
            )
        for rid in range(1, 10):
            origin, destination = rng.sample(range(36), 2)
            state.add_request(
                fresh_request(
                    rid, origin, destination,
                    request_time=rng.randrange(0, 12),
                    max_wait=rng.randrange(2, 6),
                    max_ride=net.travel_time(origin, destination) + rng.randrange(0, 4),
                )
            )
        return state

    for seed in range(6):
        cfg = EngineConfig(
            mode=mode, rejection_policy=policy, horizon=30,
            max_bundle_size=3 if mode is Mode.POOLING else None,
        )
        state = build(seed)
        events, total = run_batches(state, cfg, net, 30)
        # every request reached a terminal state and nobody was bumped
        assert total.p_plus_count == 0
        for request in state.requests.values():
            assert request.status in (RequestStatus.SERVED, RequestStatus.LEFT)
        # identical rebuild, identical log
        replay_events, _ = run_batches(build(seed), cfg, net, 30)
        assert replay_events == events


def _scenario_state(mode, reassignment, batch_interval, seed):
    cfg = ScenarioConfig(
        seed=seed, grid_width=8, grid_height=8, vehicle_count=4,
        vehicle_capacity=3 if mode is Mode.POOLING else 1,
        rate=1.2, max_wait_low=3, max_wait_high=5,
        engine=EngineConfig(
            mode=mode, reassignment=reassignment, batch_interval=batch_interval,
            horizon=25, max_bundle_size=3 if mode is Mode.POOLING else None,
            rejection_policy=RejectionPolicy.WALK_AWAY if seed % 2 else RejectionPolicy.EARLY_REJECT,
        ),
    )
    net = cfg.build_network()
    state = SystemState()
    for vehicle in build_fleet(cfg, net):
        state.add_vehicle(vehicle)
    for request in generate_demand(cfg, net):
        state.add_request(request)
    return cfg.engine, net, state


@pytest.mark.parametrize("mode", [Mode.HAILING, Mode.POOLING])
@pytest.mark.parametrize("reassignment", [Reassignment.ALLOWED, Reassignment.FROZEN])
@pytest.mark.parametrize("batch_interval", [1, 2])
def test_status_index_matches_a_full_scan_after_every_step(mode, reassignment, batch_interval):
    for seed in (1, 2):
        cfg, net, state = _scenario_state(mode, reassignment, batch_interval, seed)
        assert len(state.requests) > 10
        for _ in range(60):
            step(state, cfg, net)
            for status in RequestStatus:
                assert state.status_ids(status) == [
                    rid for rid in sorted(state.requests)
                    if state.requests[rid].status is status
                ]
            assert state.active_requests() == [
                state.requests[rid] for rid in sorted(state.requests)
                if state.requests[rid].status
                in (RequestStatus.NOT_ASSIGNED, RequestStatus.WAITING)
            ]
            assert state.settled() == all(
                r.status in (RequestStatus.SERVED, RequestStatus.LEFT)
                for r in state.requests.values()
            )
            state.recheck_all()
            assert validate_state(state, net) == []
        assert state.settled()


@pytest.mark.parametrize("mode", [Mode.HAILING, Mode.POOLING])
@pytest.mark.parametrize("batch_interval", [1, 2, 3])
def test_reveal_queue_matches_a_brute_force_scan(mode, batch_interval):
    late_revealed = never = 0
    for seed in (1, 2):
        cfg, net, state = _scenario_state(mode, Reassignment.ALLOWED, batch_interval, seed)
        # requests that join mid-run: ahead of their window, inside it,
        # or after it has passed
        rng = random.Random(seed)
        late = []
        for k in range(20):
            origin, destination = rng.sample(range(64), 2)
            due = rng.randrange(0, 50)
            joins = due + rng.randrange(-4, 2 * batch_interval + 2)
            late.append((joins, fresh_request(10_000 + k, origin, destination, request_time=due)))
        for _ in range(60):
            t = state.now
            for joins, request in late:
                if t - batch_interval < joins <= t:
                    state.add_request(request)
            expected = [
                rid for rid, request in sorted(state.requests.items())
                if request.status is RequestStatus.UNREVEALED
                and t - batch_interval < request.request_time <= t
            ]
            events = step(state, cfg, net)
            assert [e.request for e in events if e.kind is EventKind.REVEALED] == expected
            late_revealed += sum(rid >= 10_000 for rid in expected)
        never += sum(
            1 for request in state.requests.values()
            if request.status is RequestStatus.UNREVEALED and request.request_time < state.now
        )
    assert late_revealed >= 10
    assert never >= 10


def _motion(state):
    return {
        vid: (v.position, v.free_at, v.odometer, v.route, frozenset(v.onboard))
        for vid, v in state.vehicles.items()
    }


@st.composite
def moving_fleets(draw):
    """A strongly connected digraph with edge times 1-4, and vehicles on
    routes scheduled from their plan starts, some part way along an edge."""
    n = draw(st.integers(3, 8))
    order = draw(st.permutations(range(n)))
    times = st.integers(1, 4)
    edges = [(order[i], order[(i + 1) % n], draw(times)) for i in range(n)]
    nodes = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = draw(st.lists(nodes, min_size=2, max_size=2, unique=True))
        edges.append((u, v, draw(times)))
    net = Network(edges)
    now = draw(st.integers(0, 6))
    state = SystemState(now=now)

    def rider(vid):
        origin, destination = draw(st.lists(nodes, min_size=2, max_size=2, unique=True))
        request = fresh_request(len(state.requests), origin, destination, max_ride=1000)
        state.add_request(request)
        request.reveal()
        request.assign(vid)
        return request

    for vid in range(draw(st.integers(1, 3))):
        vehicle = Vehicle(
            id=vid, capacity=6, position=draw(nodes), free_at=draw(st.integers(0, now + 3))
        )
        visits = []
        for _ in range(draw(st.integers(0, 2))):
            request = rider(vid)
            request.board(0)
            vehicle.onboard.add(request.id)
            at = draw(st.integers(0, len(visits)))
            visits.insert(at, (request.destination, (), (request.id,)))
        for _ in range(draw(st.integers(0, 2))):
            request = rider(vid)
            i = draw(st.integers(0, len(visits)))
            visits.insert(i, (request.origin, (request.id,), ()))
            j = draw(st.integers(i + 1, len(visits)))
            visits.insert(j, (request.destination, (), (request.id,)))
        if visits:
            vehicle.route = Route(schedule_stops(net, *plan_start(vehicle, now), visits))
        state.add_vehicle(vehicle)
    return net, state, draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(moving_fleets())
def test_transition_agrees_with_the_reference_walker(case):
    # the walker expands each route once and replays it; transition
    # re-derives the current leg from where the vehicle is, every batch
    net, state, interval = case
    cfg = EngineConfig(batch_interval=interval)
    reference = copy.deepcopy(state)
    plans = {vid: expand_plan(v, reference.now, net) for vid, v in reference.vehicles.items()}
    for _ in range(200):
        if all(v.route is None for v in state.vehicles.values()):
            break
        assert transition(state, cfg, net) == replay_plans(reference, plans, interval)
        assert _motion(state) == _motion(reference)
        assert state.now == reference.now
        state.batch_index += 1
        reference.batch_index += 1
    assert all(v.route is None and not v.onboard for v in state.vehicles.values())


@pytest.mark.parametrize("mode", [Mode.HAILING, Mode.POOLING])
@pytest.mark.parametrize("batch_interval", [1, 2])
def test_runs_move_vehicles_as_the_reference_walker_does(monkeypatch, mode, batch_interval):
    # the walker keeps each vehicle's expanded plan for as long as the
    # solve hands back the same route, and re-expands a changed one
    kept = {}
    checked = []
    wanted = {}
    real_transition = engine.transition

    def observe(ctx):
        # the solved route, or for a vehicle the solution leaves out the
        # one that drops its riders off: None for an empty vehicle
        wanted.clear()
        wanted.update(
            (vid, ctx.solution.routes[vid] if vid in ctx.solution.routes
             else retained_route(vehicle, ctx.now, net))
            for vid, vehicle in ctx.state.vehicles.items()
        )

    def checked_transition(state, cfg, net):
        assert {vid: v.route for vid, v in state.vehicles.items()} == wanted
        reference = copy.deepcopy(state)
        plans = {}
        for vid, vehicle in reference.vehicles.items():
            route, plan = kept.get(vid, (None, []))
            if vehicle.route != route:
                plan = expand_plan(vehicle, reference.now, net)
            plans[vid] = plan
        expected = replay_plans(reference, plans, cfg.batch_interval)
        events = real_transition(state, cfg, net)
        assert events == expected
        assert _motion(state) == _motion(reference)
        for vid, vehicle in reference.vehicles.items():
            kept[vid] = (vehicle.route, plans[vid])
        checked.append(len(events))
        return events

    monkeypatch.setattr(engine, "transition", checked_transition)
    for seed in (1, 2):
        kept.clear()
        cfg, net, state = _scenario_state(mode, Reassignment.ALLOWED, batch_interval, seed)
        for _ in range(60):
            step(state, cfg, net, observe)
    assert len(checked) == 120
    assert sum(checked) > 40


@pytest.mark.parametrize("mode", [Mode.HAILING, Mode.POOLING])
def test_a_batch_schedules_only_the_plans_it_keeps_or_chooses(monkeypatch, mode):
    # every schedule goes through matching's binding, counted here
    assert "schedule_stops" not in vars(pooling)
    calls = []
    real_schedule = matching.schedule_stops

    def counting_schedule(*args):
        calls.append(args)
        return real_schedule(*args)

    build_name = "build_rv_graph" if mode is Mode.HAILING else "build_rtv_graph"
    real_build = getattr(engine, build_name)

    def build(*args, **kwargs):
        calls.clear()
        return real_build(*args, **kwargs)

    monkeypatch.setattr(matching, "schedule_stops", counting_schedule)
    monkeypatch.setattr(engine, build_name, build)
    seen = {"held": 0, "chosen": 0}

    def observe(ctx):
        # kept plans of vehicles with riders on board, then chosen edges
        held = sum(1 for vehicle in ctx.state.vehicles.values() if vehicle.onboard)
        chosen = len(ctx.solution.chosen_bundles)
        assert len(calls) == held + chosen
        seen["held"] += held
        seen["chosen"] += chosen

    for reassignment in (Reassignment.ALLOWED, Reassignment.FROZEN):
        for seed in (1, 2):
            cfg, net, state = _scenario_state(mode, reassignment, 1, seed)
            run_batches(state, cfg, net, 40, observe)
    assert seen["held"] >= 200
    assert seen["chosen"] >= 80

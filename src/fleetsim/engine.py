"""Batch control loop: reveal, optimize, apply, move, expire.

Each step runs one batch. New requests are collected, the assignment
problem for the configured mode is solved from scratch on the current
state, the solution is written back as routes and status changes, the
fleet advances one interval, and finally users whose patience ran out
leave the system. The solution carries every vehicle's next route, so
write-back installs routes but never decides what a vehicle keeps or
schedules stops, and the fleet drives each route along shortest paths.
Everything downstream of the solver is mechanical, so the step is
deterministic given the state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .matching import build_rv_graph, solve_hailing
from .model import (
    CostWeights,
    LeaveReason,
    RequestStatus,
    Route,
    SystemState,
    plan_start,
    validate_state,
)
from .network import Network
from .pooling import build_rtv_graph, solve_pooling


class EngineError(RuntimeError):
    """The control loop reached a state it is never supposed to reach."""


class Mode(str, enum.Enum):
    HAILING = "hailing"
    POOLING = "pooling"


class RejectionPolicy(str, enum.Enum):
    # the operator answers at the end of the request's first batch
    EARLY_REJECT = "early_reject"
    # the operator stays silent; the user gives up at the deadline
    WALK_AWAY = "walk_away"


class Reassignment(str, enum.Enum):
    ALLOWED = "allowed"
    FROZEN = "frozen"


@dataclass
class EngineConfig:
    mode: Mode = Mode.HAILING
    rejection_policy: RejectionPolicy = RejectionPolicy.EARLY_REJECT
    reassignment: Reassignment = Reassignment.ALLOWED
    batch_interval: int = 1
    horizon: int = 1
    weights: CostWeights = field(default_factory=CostWeights)
    max_bundle_size: int | None = None

    def __post_init__(self) -> None:
        self.mode = Mode(self.mode)
        self.rejection_policy = RejectionPolicy(self.rejection_policy)
        self.reassignment = Reassignment(self.reassignment)
        if self.batch_interval < 1:
            raise ValueError("engine.batch_interval must be at least 1")
        if self.horizon < 1:
            raise ValueError("engine.horizon must be at least 1")
        if self.max_bundle_size is not None and self.max_bundle_size < 1:
            raise ValueError("engine.max_bundle_size must be at least 1 or None")


class EventKind(str, enum.Enum):
    REVEALED = "revealed"
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    REASSIGNED = "reassigned"
    UNASSIGNED = "unassigned"
    PICKED_UP = "picked_up"
    DROPPED_OFF = "dropped_off"
    WALKED_AWAY = "walked_away"


@dataclass(frozen=True)
class Event:
    batch: int
    kind: EventKind
    request: int
    vehicle: int | None
    time: int


@dataclass(frozen=True)
class ObjectiveReport:
    """Penalty counts plus the secondary cost components."""

    p_plus_count: int = 0
    p_minus_count: int = 0
    driven_time: int = 0
    waiting_time: int = 0
    riding_time: int = 0


@dataclass(frozen=True)
class BatchContext:
    """Snapshot handed to observers after the solve, before write-back."""

    batch: int
    now: int
    state: SystemState
    graph: object
    solution: object


def reveal_requests(state: SystemState, t: int, batch_interval: int) -> list[int]:
    """Open every request whose arrival falls in (t - interval, t].

    Reads the state's reveal queue, so `t` must not decrease from call to
    call on one state, as the engine's clock does not: an unrevealed
    request that arrived at or before t - interval is dropped from the
    queue, and no later window would hold it.
    """
    revealed = []
    for rid in state.pop_unrevealed(t):
        request = state.requests[rid]
        if t - batch_interval < request.request_time <= t:
            request.reveal()
            revealed.append(rid)
    return revealed


def optimize(state: SystemState, cfg: EngineConfig, net: Network):
    """Solve the batch assignment problem; returns (graph, solution)."""
    frozen = cfg.reassignment is Reassignment.FROZEN
    if cfg.mode is Mode.HAILING:
        graph = build_rv_graph(state, net, state.now, cfg.weights)
        return graph, solve_hailing(graph, frozen=frozen)
    graph = build_rtv_graph(
        state, net, state.now, cfg.weights, max_bundle_size=cfg.max_bundle_size
    )
    return graph, solve_pooling(graph, frozen=frozen)


def apply_assignment(state: SystemState, solution, cfg: EngineConfig) -> list[Event]:
    """Write the solver's answer back: request statuses, every vehicle's route.

    A vehicle the solution gives no route to is left without one.
    """
    batch, now = state.batch_index, state.now
    was_waiting = {
        rid: state.requests[rid].assigned_vehicle
        for rid in state.status_ids(RequestStatus.WAITING)
    }
    was_open = set(state.status_ids(RequestStatus.NOT_ASSIGNED))

    for rid in solution.pairs:
        if rid not in was_waiting and rid not in was_open:
            raise EngineError(f"solution pairs unknown or inactive request {rid}")
    for vid in solution.routes:
        if vid not in state.vehicles:
            raise EngineError(f"solution routes unknown vehicle {vid}")
    for rid, vid in solution.pairs.items():
        route = solution.routes.get(vid)
        if route is None or rid not in route.picked_ids():
            raise EngineError(f"vehicle {vid}: route omits assigned pickup {rid}")

    events = []
    for rid in sorted(set(was_waiting) | was_open):
        request = state.requests[rid]
        if rid in solution.pairs:
            vid = solution.pairs[rid]
            # a request still waiting on the same vehicle is left as it is
            if rid in was_open or was_waiting[rid] != vid:
                kind = EventKind.ACCEPTED if rid in was_open else EventKind.REASSIGNED
                events.append(Event(batch, kind, rid, vid, now))
                request.assign(vid)
        elif rid in was_waiting:
            request.unassign()
            events.append(Event(batch, EventKind.UNASSIGNED, rid, was_waiting[rid], now))
        elif cfg.rejection_policy is RejectionPolicy.EARLY_REJECT:
            request.leave(LeaveReason.OPERATOR_REJECT, now)
            events.append(Event(batch, EventKind.REJECTED, rid, None, now))

    for vehicle in state.sorted_vehicles():
        vehicle.route = solution.routes.get(vehicle.id)
    return events


def transition(state: SystemState, cfg: EngineConfig, net: Network) -> list[Event]:
    """Advance the fleet one interval, boarding and dropping along routes.

    Each vehicle drives from its plan start toward its next stop along
    the shortest path, edge by edge, and serves every stop it reaches
    by the batch boundary at the stop's planned arrival. The stops not
    yet served stay its route.
    """
    batch = state.batch_index
    t_end = state.now + cfg.batch_interval
    events = []
    for vehicle in state.sorted_vehicles():
        stops = vehicle.remaining_stops()
        node, time = plan_start(vehicle, state.now)
        served = 0
        for stop in stops:
            if node != stop.location and time < t_end:
                path = net.shortest_path(node, stop.location).node_sequence
                for nxt in path[1:]:
                    # an edge is entered strictly before the batch boundary and,
                    # once entered, binds the vehicle to its far end
                    leg = net.travel_time(node, nxt)
                    node, time = nxt, time + leg
                    vehicle.position, vehicle.free_at = node, time
                    vehicle.odometer += leg
                    if time >= t_end:
                        break
            if node != stop.location or time > t_end:
                break
            if time != stop.planned_arrival:
                raise EngineError(
                    f"vehicle {vehicle.id}: route promises arrival "
                    f"{stop.planned_arrival} at {stop.location} but the drive "
                    f"reaches it at {time}"
                )
            for rid in sorted(stop.dropoffs):
                state.requests[rid].complete(time)
                vehicle.onboard.discard(rid)
                events.append(Event(batch, EventKind.DROPPED_OFF, rid, vehicle.id, time))
            for rid in sorted(stop.pickups):
                state.requests[rid].board(time)
                vehicle.onboard.add(rid)
                events.append(Event(batch, EventKind.PICKED_UP, rid, vehicle.id, time))
            served += 1
        if served == len(stops):
            vehicle.route = None
        elif served:
            vehicle.route = Route(stops[served:])
    state.now = t_end
    return events


def walkaway_sweep(state: SystemState, cfg: EngineConfig) -> list[Event]:
    """Expire open requests whose latest pickup time has passed."""
    batch = state.batch_index
    events = []
    for rid in state.status_ids(RequestStatus.NOT_ASSIGNED):
        request = state.requests[rid]
        if state.now < request.latest_pickup:
            continue
        if cfg.rejection_policy is RejectionPolicy.EARLY_REJECT:
            # early rejection answers every request in its first batch,
            # so nothing is ever left to time out
            raise EngineError(f"request {rid} expired despite early rejection")
        request.leave(LeaveReason.WALK_AWAY, state.now)
        events.append(Event(batch, EventKind.WALKED_AWAY, rid, None, state.now))
    return events


def accumulate_objective(events, requests, driven_time: int = 0) -> ObjectiveReport:
    """Tally penalties and realized cost components from an event log.

    Waiting and riding times read each request's `request_time` and
    `pickup_time` from `requests`.
    """
    p_plus = p_minus = waiting = riding = 0
    for event in events:
        if event.kind is EventKind.UNASSIGNED:
            p_plus += 1
        elif event.kind in (EventKind.REJECTED, EventKind.WALKED_AWAY):
            p_minus += 1
        elif event.kind is EventKind.PICKED_UP:
            waiting += event.time - requests[event.request].request_time
        elif event.kind is EventKind.DROPPED_OFF:
            riding += event.time - requests[event.request].pickup_time
    return ObjectiveReport(p_plus, p_minus, driven_time, waiting, riding)


def step(state: SystemState, cfg: EngineConfig, net: Network, observer=None) -> list[Event]:
    """Run one batch; returns its events."""
    batch = state.batch_index
    events = [
        Event(batch, EventKind.REVEALED, rid, None, state.requests[rid].request_time)
        for rid in reveal_requests(state, state.now, cfg.batch_interval)
    ]
    graph, solution = optimize(state, cfg, net)
    if observer is not None:
        observer(BatchContext(batch, state.now, state, graph, solution))
    events += apply_assignment(state, solution, cfg)
    events += transition(state, cfg, net)
    events += walkaway_sweep(state, cfg)
    state.batch_index += 1
    problems = validate_state(state, net)
    if problems:
        raise EngineError(f"batch {batch} broke the state: " + "; ".join(problems))
    return events

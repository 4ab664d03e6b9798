"""Domain model: requests, vehicles, routes, and the simulation state.

Requests move through an explicit status machine; vehicles carry a
committed route, the only record of where they go next. All times and
costs are integers, which keeps every comparison exact and every run
reproducible.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .network import Network


class StatusError(ValueError):
    """Raised on an illegal request status transition."""


class RouteStructureError(ValueError):
    """Raised for malformed routes (broken pickup/dropoff structure).

    Distinct from mere infeasibility: a structurally broken route is a
    programming error, not a constraint violation.
    """


class RequestStatus(str, enum.Enum):
    UNREVEALED = "unrevealed"
    NOT_ASSIGNED = "not_assigned"
    WAITING = "waiting"
    ON_BOARD = "on_board"
    SERVED = "served"
    LEFT = "left"


class LeaveReason(str, enum.Enum):
    OPERATOR_REJECT = "operator_reject"
    WALK_AWAY = "walk_away"


class StatusIndex:
    """Request ids by status, for one SystemState.

    `changed` holds the ids added, or whose status was written, since
    the state's last validate_state. `unrevealed` is a heap of
    (request_time, id), pushed for every request added or written as
    unrevealed; an entry outlives its request's reveal until popped.
    """

    __slots__ = ("ids", "changed", "unrevealed")

    def __init__(self) -> None:
        self.ids: dict[RequestStatus, set[int]] = {status: set() for status in RequestStatus}
        self.changed: set[int] = set()
        self.unrevealed: list[tuple[int, int]] = []


class _IndexedStatus:
    """`Request.status`: every write also moves the id in its state's index.

    With no `__get__`, reads find the value in the instance dict at plain
    attribute speed; only writes, from the status machine or direct
    assignment, go through `__set__`.
    """

    def __set__(self, request: "Request", status: RequestStatus) -> None:
        index = request._index
        if index is not None:
            index.ids[request.__dict__["status"]].discard(request.id)
            index.ids[status].add(request.id)
            index.changed.add(request.id)
            if status is RequestStatus.UNREVEALED:
                heapq.heappush(index.unrevealed, (request.request_time, request.id))
        request.__dict__["status"] = status


@dataclass
class Request:
    """One trip request with its service-quality bounds.

    Args:
        id: unique non-negative integer.
        origin: pickup node.
        destination: dropoff node, distinct from origin.
        request_time: submission time.
        max_wait: longest acceptable wait for pickup, positive.
        max_ride: longest acceptable pickup-to-dropoff time.

    Once a request is in a state its origin, destination, request time
    and limits never change: pooling reuses route searches across
    batches on that basis.
    """

    id: int
    origin: int
    destination: int
    request_time: int
    max_wait: int
    max_ride: int
    status: RequestStatus = RequestStatus.UNREVEALED
    assigned_vehicle: int | None = None
    pickup_time: int | None = None
    dropoff_time: int | None = None
    left_time: int | None = None
    left_reason: LeaveReason | None = None
    # the StatusIndex of the state holding this request; a request never
    # points at its state, so dropping a state frees it without a cycle
    _index = None

    def __post_init__(self) -> None:
        if self.origin == self.destination:
            raise ValueError(f"request {self.id}: origin equals destination")
        if self.max_wait <= 0:
            raise ValueError(f"request {self.id}: max_wait must be positive")
        if self.max_ride <= 0:
            raise ValueError(f"request {self.id}: max_ride must be positive")
        if self.request_time < 0:
            raise ValueError(f"request {self.id}: request_time must be non-negative")

    @property
    def latest_pickup(self) -> int:
        """Hard pickup deadline: request time plus the wait tolerance."""
        return self.request_time + self.max_wait

    # -- status machine -------------------------------------------------------

    def reveal(self) -> None:
        self._expect(RequestStatus.UNREVEALED, "reveal")
        self.status = RequestStatus.NOT_ASSIGNED

    def assign(self, vehicle_id: int) -> None:
        if self.status not in (RequestStatus.NOT_ASSIGNED, RequestStatus.WAITING):
            raise StatusError(f"request {self.id}: cannot assign while {self.status.value}")
        self.status = RequestStatus.WAITING
        self.assigned_vehicle = vehicle_id

    def unassign(self) -> None:
        self._expect(RequestStatus.WAITING, "unassign")
        self.status = RequestStatus.NOT_ASSIGNED
        self.assigned_vehicle = None

    def board(self, time: int) -> None:
        self._expect(RequestStatus.WAITING, "board")
        self.status = RequestStatus.ON_BOARD
        self.pickup_time = time

    def complete(self, time: int) -> None:
        self._expect(RequestStatus.ON_BOARD, "complete")
        self.status = RequestStatus.SERVED
        self.dropoff_time = time
        self.assigned_vehicle = None

    def leave(self, reason: LeaveReason, time: int) -> None:
        self._expect(RequestStatus.NOT_ASSIGNED, "leave")
        self.status = RequestStatus.LEFT
        self.left_reason = reason
        self.left_time = time

    def _expect(self, status: RequestStatus, action: str) -> None:
        if self.status is not status:
            raise StatusError(
                f"request {self.id}: cannot {action} while {self.status.value}"
            )


# Installed after the dataclass is built, so that the field keeps its
# plain default and `__init__` writes the initial status through it.
Request.status = _IndexedStatus()


@dataclass(frozen=True)
class Stop:
    """A scheduled halt: boardings and alightings at one node."""

    location: int
    pickups: frozenset[int]
    dropoffs: frozenset[int]
    planned_arrival: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "pickups", frozenset(self.pickups))
        object.__setattr__(self, "dropoffs", frozenset(self.dropoffs))
        if self.pickups & self.dropoffs:
            raise RouteStructureError("stop picks up and drops off the same request")
        if not self.pickups and not self.dropoffs:
            raise RouteStructureError("stop serves no request")
        if self.planned_arrival < 0:
            raise RouteStructureError("stop has negative planned arrival")


@dataclass(frozen=True)
class Route:
    """An ordered stop sequence a vehicle has committed to."""

    stops: tuple[Stop, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "stops", tuple(self.stops))

    def picked_ids(self) -> frozenset[int]:
        out: set[int] = set()
        for stop in self.stops:
            out |= stop.pickups
        return frozenset(out)

    def validate_structure(self, onboard: Iterable[int] = ()) -> None:
        """Check pairing and precedence; raise RouteStructureError if broken.

        A request already on board must appear exactly once as a dropoff
        and never as a pickup. Any other request must appear as a pickup
        strictly before its dropoff, each exactly once.
        """
        onboard = set(onboard)
        pick_at: dict[int, int] = {}
        drop_at: dict[int, int] = {}
        for i, stop in enumerate(self.stops):
            for rid in stop.pickups:
                if rid in pick_at:
                    raise RouteStructureError(f"request {rid} picked up twice")
                if rid in onboard:
                    raise RouteStructureError(f"request {rid} is already on board")
                pick_at[rid] = i
            for rid in stop.dropoffs:
                if rid in drop_at:
                    raise RouteStructureError(f"request {rid} dropped off twice")
                drop_at[rid] = i
        for rid, i in drop_at.items():
            if rid in pick_at:
                if pick_at[rid] >= i:
                    raise RouteStructureError(f"request {rid} dropped before pickup")
            elif rid not in onboard:
                raise RouteStructureError(f"request {rid} dropped without pickup")
        for rid in pick_at:
            if rid not in drop_at:
                raise RouteStructureError(f"request {rid} picked up but never dropped")
        for rid in onboard:
            if rid not in drop_at:
                raise RouteStructureError(f"on-board request {rid} has no dropoff")


@dataclass
class Vehicle:
    """A fleet vehicle with its commitments and motion bookkeeping.

    `position` is the node the vehicle is at, or is about to arrive at
    when an edge traversal is in progress; `free_at` is the time it is
    (or will be) there. `route` holds the stops still to serve; the
    engine drives to each along the network's shortest path.
    """

    id: int
    capacity: int
    position: int
    free_at: int = 0
    onboard: set[int] = field(default_factory=set)
    route: Route | None = None
    odometer: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"vehicle {self.id}: capacity must be positive")

    def remaining_stops(self) -> tuple[Stop, ...]:
        return self.route.stops if self.route is not None else ()


@dataclass(frozen=True)
class CostWeights:
    """Integer weights of the secondary objective components."""

    drive: int = 1
    wait: int = 1
    ride: int = 1

    def __post_init__(self) -> None:
        for name in ("drive", "wait", "ride"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"weight {name} must be a non-negative integer")


@dataclass
class SystemState:
    """Complete simulation state between two batches."""

    batch_index: int = 0
    now: int = 0
    requests: dict[int, Request] = field(default_factory=dict)
    vehicles: dict[int, Vehicle] = field(default_factory=dict)
    _index: StatusIndex = field(
        default_factory=StatusIndex, init=False, repr=False, compare=False
    )
    # the last pooling graph build's route searches, which the next may carry
    _searches: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def add_request(self, request: Request) -> None:
        if request.id in self.requests:
            raise ValueError(f"duplicate request id {request.id}")
        if request._index is not None:
            # its status writes keep only one state's index current
            raise ValueError(f"request {request.id} already belongs to a state")
        self.requests[request.id] = request
        request._index = self._index
        self._index.ids[request.status].add(request.id)
        self._index.changed.add(request.id)
        if request.status is RequestStatus.UNREVEALED:
            heapq.heappush(self._index.unrevealed, (request.request_time, request.id))

    def add_vehicle(self, vehicle: Vehicle) -> None:
        if vehicle.id in self.vehicles:
            raise ValueError(f"duplicate vehicle id {vehicle.id}")
        self.vehicles[vehicle.id] = vehicle

    def sorted_vehicles(self) -> list[Vehicle]:
        return [self.vehicles[vid] for vid in sorted(self.vehicles)]

    def active_requests(self) -> list[Request]:
        """Open requests the dispatcher may (re)assign, in id order."""
        ids = self._index.ids
        return [
            self.requests[rid]
            for rid in sorted(ids[RequestStatus.NOT_ASSIGNED] | ids[RequestStatus.WAITING])
        ]

    def status_ids(self, status: RequestStatus) -> list[int]:
        return sorted(self._index.ids[status])

    def pop_unrevealed(self, t: int) -> list[int]:
        """Take every request due by t off the reveal queue.

        Returns, in id order, the ids of those still unrevealed. The
        queue is ordered by request time, so this costs what it takes
        off, not a pass over the requests still to come.
        """
        queue = self._index.unrevealed
        due: set[int] = set()
        while queue and queue[0][0] <= t:
            rid = heapq.heappop(queue)[1]
            if self.requests[rid].status is RequestStatus.UNREVEALED:
                due.add(rid)
        return sorted(due)

    def settled(self) -> bool:
        """Whether every request has been served or has left."""
        ids = self._index.ids
        return len(ids[RequestStatus.SERVED]) + len(ids[RequestStatus.LEFT]) == len(
            self.requests
        )

    def recheck_all(self) -> None:
        """Put every request in scope of the next validate_state."""
        self._index.changed.update(self.requests)


# -- schedules ----------------------------------------------------------------


def plan_start(vehicle: Vehicle, now: int) -> tuple[int, int]:
    """Where and when a new plan for the vehicle can begin."""
    return vehicle.position, max(vehicle.free_at, now)


def schedule_stops(
    net: Network,
    start_node: int,
    start_time: int,
    visits: Sequence[tuple[int, Iterable[int], Iterable[int]]],
) -> tuple[Stop, ...]:
    """Turn (location, pickups, dropoffs) visits into timed stops.

    Arrival times accumulate shortest-path travel from the start; the
    vehicle never dwells, so consecutive visits at one node share a
    time. Visits at the same node back to back are merged into a
    single stop.
    """
    stops: list[Stop] = []
    node, time = start_node, start_time
    for location, pickups, dropoffs in visits:
        time += net.travel_time(node, location)
        node = location
        if stops and stops[-1].location == location and stops[-1].planned_arrival == time:
            last = stops.pop()
            stops.append(
                Stop(
                    location,
                    last.pickups | frozenset(pickups),
                    last.dropoffs | frozenset(dropoffs),
                    time,
                )
            )
        else:
            stops.append(Stop(location, frozenset(pickups), frozenset(dropoffs), time))
    return tuple(stops)


def unrealizable_stop(
    vehicle: Vehicle, route: Route, now: int, net: Network
) -> str | None:
    """Name the first stop the vehicle cannot reach exactly as planned.

    A route is realizable when every planned arrival equals the
    shortest-path drive from `plan_start(vehicle, now)`, stop after
    stop, with no dwell: the times `schedule_stops` gives from that
    start. Returns None for a realizable route.
    """
    node, time = plan_start(vehicle, now)
    for stop in route.stops:
        time += net.travel_time(node, stop.location)
        node = stop.location
        if stop.planned_arrival != time:
            return (
                f"stop at node {stop.location}: planned arrival "
                f"{stop.planned_arrival} is not realizable (drives to {time})"
            )
    return None


def route_cost(
    candidate: Route,
    vehicle: Vehicle,
    now: int,
    weights: CostWeights,
    requests: Mapping[int, Request],
) -> int:
    """Secondary cost of driving the candidate route from now.

    Sums the driving time the route adds, planned waits of requests
    picked up in the route, and rides of requests dropped off in it.
    Rides of passengers already on board count from their realized
    pickup, so rescheduling a dropoff is priced by the full delay.

    Every time is read from the stops' planned arrivals, so the route
    must be realizable from `plan_start(vehicle, now)` (see
    `unrealizable_stop`), as a route `schedule_stops` built from that
    start is.
    """
    start = time = plan_start(vehicle, now)[1]
    wait = 0
    ride = 0
    pickup_at: dict[int, int] = {}
    for stop in candidate.stops:
        time = stop.planned_arrival
        for rid in stop.pickups:
            pickup_at[rid] = time
            wait += time - requests[rid].request_time
        for rid in stop.dropoffs:
            boarded = pickup_at.get(rid)
            if boarded is None:
                boarded = requests[rid].pickup_time
            if boarded is None:
                raise RouteStructureError(f"request {rid}: no pickup time on record")
            ride += time - boarded
    return weights.drive * (time - start) + weights.wait * wait + weights.ride * ride


# -- state validation ----------------------------------------------------------


def validate_state(state: SystemState, net: Network | None = None) -> list[str]:
    """Collect consistency violations; an empty list means a sound state.

    Violations are returned as data rather than raised so callers can
    report several at once. Every vehicle is checked, and every request
    that is open or on board, that a vehicle's route or on-board set
    names, or that was added or changed status since the state's last
    check. An unrevealed or settled request outside that scope was
    checked when it last changed status, and no step touches it
    afterwards; `SystemState.recheck_all()` brings every request back
    into scope for a full check. Given the network, it also checks that
    every vehicle's route is realizable from its plan start now
    (`unrealizable_stop`).
    """
    problems: list[str] = []
    waiting_refs: dict[int, list[int]] = {}
    onboard_refs: dict[int, list[int]] = {}
    for vehicle in state.sorted_vehicles():
        if len(vehicle.onboard) > vehicle.capacity:
            problems.append(
                f"vehicle {vehicle.id}: onboard {len(vehicle.onboard)} exceeds "
                f"capacity {vehicle.capacity}"
            )
        for rid in vehicle.onboard:
            onboard_refs.setdefault(rid, []).append(vehicle.id)
        if vehicle.route is None:
            if vehicle.onboard:
                problems.append(
                    f"vehicle {vehicle.id}: carries {sorted(vehicle.onboard)} "
                    "but has no route"
                )
        else:
            try:
                vehicle.route.validate_structure(vehicle.onboard)
            except RouteStructureError as exc:
                problems.append(f"vehicle {vehicle.id}: {exc}")
            for rid in vehicle.route.picked_ids():
                waiting_refs.setdefault(rid, []).append(vehicle.id)

    index = state._index
    scope = index.changed.union(
        index.ids[RequestStatus.NOT_ASSIGNED],
        index.ids[RequestStatus.WAITING],
        index.ids[RequestStatus.ON_BOARD],
        waiting_refs,
        onboard_refs,
    )
    index.changed.clear()
    for rid in sorted(scope):
        in_routes = waiting_refs.get(rid, [])
        in_onboard = onboard_refs.get(rid, [])
        request = state.requests.get(rid)
        if request is None:
            problems.append(
                f"request {rid}: not in the state, yet held by vehicles "
                f"{sorted(set(in_routes + in_onboard))}"
            )
            continue
        status = request.status
        if status is RequestStatus.WAITING:
            if len(in_routes) != 1:
                problems.append(
                    f"request {rid}: waiting but scheduled in {len(in_routes)} routes"
                )
            elif request.assigned_vehicle != in_routes[0]:
                problems.append(
                    f"request {rid}: assigned to vehicle {request.assigned_vehicle} "
                    f"but scheduled on {in_routes[0]}"
                )
            if in_onboard:
                problems.append(f"request {rid}: waiting yet on board {in_onboard}")
        elif status is RequestStatus.ON_BOARD:
            if len(in_onboard) != 1:
                problems.append(
                    f"request {rid}: on board {len(in_onboard)} vehicles"
                )
            elif request.assigned_vehicle != in_onboard[0]:
                problems.append(
                    f"request {rid}: on board {in_onboard[0]} but assigned to "
                    f"{request.assigned_vehicle}"
                )
            if request.pickup_time is None:
                problems.append(f"request {rid}: on board without pickup time")
            if in_routes:
                problems.append(f"request {rid}: on board yet scheduled for pickup")
        else:
            if in_routes:
                problems.append(
                    f"request {rid}: status {status.value} yet scheduled in a route"
                )
            if in_onboard:
                problems.append(
                    f"request {rid}: status {status.value} yet on board a vehicle"
                )
            if status is RequestStatus.SERVED:
                if request.pickup_time is None or request.dropoff_time is None:
                    problems.append(f"request {rid}: served without realized times")
            if status is RequestStatus.LEFT and request.left_reason is None:
                problems.append(f"request {rid}: left without a reason")

    if net is not None:
        for vehicle in state.sorted_vehicles():
            if vehicle.route is None:
                continue
            reason = unrealizable_stop(vehicle, vehicle.route, state.now, net)
            if reason is not None:
                problems.append(f"vehicle {vehicle.id}: {reason}")
    return problems


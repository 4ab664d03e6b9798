"""Reference checks and exhaustive solvers that only the tests use.

`route_feasible` checks a route against every service constraint,
independently of the route search. `priority_matching_oracle` and
`exhaustive_pooling_oracle` solve small batch instances by plain
enumeration under the same objective and tie rules as the library's
solvers, so the tests can compare the two answers. The pooling oracle
applies frozen commitments and builds its answer with its own code,
`oracle_options` and `_oracle_solution`, so that a fault in the
library's versions cannot pass unseen. `least_weight_violation`
certifies any answer of the matcher, of any size, as a least-weight
matching of its weights. `retained_route` and
`candidate_route` schedule the routes hailing keeps and offers straight
from `schedule_stops`, apart from the graph builder's own plan code.
`late_assignments` reads an event log for requests accepted late.
`expand_plan` and `replay_plans` move a fleet by the reference walker:
each route expanded once into timed edges and stops, then replayed
batch by batch, for comparison with the engine's `transition`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from fleetsim.engine import Event, EventKind
from fleetsim.matching import AssignmentSolution, MatchingError, RTVGraph
from fleetsim.model import (
    Request,
    Route,
    RouteStructureError,
    Stop,
    SystemState,
    Vehicle,
    plan_start,
    schedule_stops,
    unrealizable_stop,
)
from fleetsim.network import Network

_ORACLE_EDGE_LIMIT = 20


def route_feasible(
    vehicle: Vehicle,
    candidate: Route,
    now: int,
    net: Network,
    requests: Mapping[int, Request],
) -> tuple[bool, str | None]:
    """Check a candidate route against every service constraint.

    Returns (True, None) when the route can be driven as planned, else
    (False, reason). An unrealizable planned arrival is reported first
    (see `unrealizable_stop`); otherwise the reason names the first
    violated deadline, ride limit or capacity along the route.
    Structural defects raise RouteStructureError instead of counting
    as infeasible.
    """
    candidate.validate_structure(vehicle.onboard)
    reason = unrealizable_stop(vehicle, candidate, now, net)
    if reason is not None:
        return False, reason
    load = len(vehicle.onboard)
    pickup_seen: dict[int, int] = {}
    for stop in candidate.stops:
        time = stop.planned_arrival
        load -= len(stop.dropoffs)
        for rid in sorted(stop.dropoffs):
            request = requests[rid]
            boarded = pickup_seen.get(rid, request.pickup_time)
            if boarded is None:
                raise RouteStructureError(f"request {rid}: no pickup time on record")
            if time - boarded > request.max_ride:
                return False, (
                    f"request {rid}: ride {time - boarded} exceeds max_ride "
                    f"{request.max_ride}"
                )
        load += len(stop.pickups)
        for rid in sorted(stop.pickups):
            request = requests[rid]
            if time > request.latest_pickup:
                return False, (
                    f"request {rid}: pickup at {time} misses latest_pickup "
                    f"{request.latest_pickup}"
                )
            pickup_seen[rid] = time
        if load > vehicle.capacity:
            return False, (
                f"stop at node {stop.location}: load {load} exceeds capacity "
                f"{vehicle.capacity}"
            )
    return True, None


def _dropoff_visits(vehicle: Vehicle) -> list[tuple[int, tuple, tuple]]:
    visits = []
    for stop in vehicle.remaining_stops():
        riders = stop.dropoffs & vehicle.onboard
        if riders:
            visits.append((stop.location, (), tuple(sorted(riders))))
    return visits


def retained_route(vehicle: Vehicle, now: int, net: Network) -> Route | None:
    """The route a vehicle keeps when its pending pickups are withdrawn.

    It drops the on-board riders off in the order the vehicle's route
    holds them, from the vehicle's plan start; None when nobody is on
    board.
    """
    visits = _dropoff_visits(vehicle)
    if not visits:
        return None
    node, time = plan_start(vehicle, now)
    return Route(schedule_stops(net, node, time, visits))


def candidate_route(vehicle: Vehicle, request: Request, now: int, net: Network) -> Route:
    """Hailing's plan for a request: the retained dropoffs, then the
    request's pickup and dropoff."""
    visits = _dropoff_visits(vehicle) + [
        (request.origin, (request.id,), ()),
        (request.destination, (), (request.id,)),
    ]
    node, time = plan_start(vehicle, now)
    return Route(schedule_stops(net, node, time, visits))


def late_assignments(events: list[Event]) -> list[int]:
    """Requests accepted in a later batch than the one that revealed them.

    The outcome-equivalence argument says this list is always empty: a
    request the optimizer passes over once is never picked up later, no
    matter how long it is allowed to linger.
    """
    revealed_batch: dict[int, int] = {}
    offenders = []
    for event in events:
        if event.kind is EventKind.REVEALED:
            revealed_batch[event.request] = event.batch
        elif event.kind is EventKind.ACCEPTED:
            if event.batch > revealed_batch[event.request]:
                offenders.append(event.request)
    return offenders


@dataclass(frozen=True)
class PlanMove:
    source: int
    target: int
    depart: int
    arrive: int


@dataclass(frozen=True)
class PlanStop:
    stop: Stop


def expand_plan(vehicle: Vehicle, now: int, net: Network) -> list:
    """The vehicle's route as a timed motion plan, expanded once.

    Every edge of every leg's shortest path becomes a PlanMove from
    `plan_start(vehicle, now)` on, and each stop a PlanStop after the
    move that reaches it. Raises AssertionError if a stop's planned
    arrival differs from the time the moves reach it.
    """
    node, time = plan_start(vehicle, now)
    entries: list = []
    for stop in vehicle.remaining_stops():
        path = net.shortest_path(node, stop.location).node_sequence
        for source, target in zip(path, path[1:]):
            leg = net.travel_time(source, target)
            entries.append(PlanMove(source, target, time, time + leg))
            time += leg
        assert time == stop.planned_arrival, (vehicle.id, stop, time)
        entries.append(PlanStop(stop))
        node = stop.location
    return entries


def replay_plans(state: SystemState, plans: dict[int, list], interval: int) -> list[Event]:
    """Advance the fleet one interval by replaying expanded plans.

    A move is made if it departs before the batch boundary; a stop is
    served if the walk reaches it and its planned arrival is not past
    the boundary. Each vehicle's plan in `plans` is cut to what is left,
    and its route is rebuilt from the stops that plan still holds.
    """
    batch = state.batch_index
    t_end = state.now + interval
    events = []
    for vehicle in state.sorted_vehicles():
        plan = plans[vehicle.id]
        cursor = 0
        while cursor < len(plan):
            entry = plan[cursor]
            if isinstance(entry, PlanMove):
                if entry.depart >= t_end:
                    break
                vehicle.position = entry.target
                vehicle.free_at = entry.arrive
                vehicle.odometer += entry.arrive - entry.depart
            else:
                stop = entry.stop
                if stop.planned_arrival > t_end:
                    break
                for rid in sorted(stop.dropoffs):
                    state.requests[rid].complete(stop.planned_arrival)
                    vehicle.onboard.discard(rid)
                    events.append(
                        Event(batch, EventKind.DROPPED_OFF, rid, vehicle.id, stop.planned_arrival)
                    )
                for rid in sorted(stop.pickups):
                    state.requests[rid].board(stop.planned_arrival)
                    vehicle.onboard.add(rid)
                    events.append(
                        Event(batch, EventKind.PICKED_UP, rid, vehicle.id, stop.planned_arrival)
                    )
            cursor += 1
        plans[vehicle.id] = plan[cursor:]
        left = tuple(e.stop for e in plans[vehicle.id] if isinstance(e, PlanStop))
        vehicle.route = Route(left) if left else None
    state.now = t_end
    return events


def priority_matching_oracle(
    request_ids: list[int],
    vehicle_ids: list[int],
    costs: dict[tuple[int, int], int],
    prev_assigned: dict[int, int | None],
) -> tuple[int, int, int, dict[int, int]]:
    """Exhaustive reference matcher for small instances (<= 8 vehicles).

    Enumerates assignments by dynamic programming over vehicle subsets,
    ranking each complete matching by (kept previous, assigned count,
    cost) and then by the same canonical preference as the solver:
    include low request ids first, give each the lowest-id vehicle.
    Returns (kept, assigned, cost, pairs).
    """
    if len(vehicle_ids) > 8:
        raise ValueError("oracle is exhaustive; limit instances to 8 vehicles")
    request_ids = sorted(request_ids)
    vehicle_ids = sorted(vehicle_ids)
    big_v = len(vehicle_ids)
    memo: dict[tuple[int, int], tuple] = {}

    def best(i: int, mask: int) -> tuple:
        """Suffix value (-kept, -assigned, cost, skip flags, vehicle picks).

        The two key segments are compared whole, flags before picks, so
        which requests are served outranks which vehicle serves them.
        """
        if i == len(request_ids):
            return (0, 0, 0, (), ())
        key = (i, mask)
        if key in memo:
            return memo[key]
        rid = request_ids[i]
        skip = best(i + 1, mask)
        value = (skip[0], skip[1], skip[2], (1,) + skip[3], (big_v,) + skip[4])
        weight_prev = 1 if prev_assigned.get(rid) is not None else 0
        for j, vid in enumerate(vehicle_ids):
            if mask & (1 << j) or (rid, vid) not in costs:
                continue
            rest = best(i + 1, mask | (1 << j))
            cand = (
                rest[0] - weight_prev,
                rest[1] - 1,
                rest[2] + costs[(rid, vid)],
                (0,) + rest[3],
                (j,) + rest[4],
            )
            if cand < value:
                value = cand
        memo[key] = value
        return value

    value = best(0, 0)
    pairs: dict[int, int] = {}
    for i, rid in enumerate(request_ids):
        if value[3][i] == 0:
            pairs[rid] = vehicle_ids[value[4][i]]
    return (-value[0], -value[1], value[2], pairs)


def least_weight_violation(
    weights: Mapping[tuple[int, int], int], matching: Mapping[int, int]
) -> str | None:
    """Why `matching` is not a least-weight matching of `weights`, or None.

    The matching is modelled as a unit circulation s → request → vehicle
    → t → s whose cost is its weight, an unmatched request costing 0. It
    is of least weight if and only if its residual graph has no negative
    cycle (Ahuja, Magnanti and Orlin, "Network Flows", 1993), which
    Bellman-Ford from a virtual root finds. The check reads only the
    weights and the answer, never the solver.
    """
    for rid, vid in matching.items():
        if (rid, vid) not in weights:
            return f"request {rid} is matched to vehicle {vid} without an edge"
    taken = set(matching.values())
    if len(taken) != len(matching):
        return "a vehicle is matched twice"
    arcs = [("t", "s", 0), ("s", "t", 0)]
    for (rid, vid), w in weights.items():
        if matching.get(rid) == vid:
            arcs.append((("v", vid), ("r", rid), -w))
        else:
            arcs.append((("r", rid), ("v", vid), w))
    for rid in {rid for rid, _ in weights}:
        arcs.append((("r", rid), "s", 0) if rid in matching else ("s", ("r", rid), 0))
    for vid in {vid for _, vid in weights}:
        arcs.append(("t", ("v", vid), 0) if vid in taken else (("v", vid), "t", 0))
    dist = {node: 0 for arc in arcs for node in arc[:2]}
    for _ in dist:
        changed = False
        for a, b, cost in arcs:
            if dist[a] + cost < dist[b]:
                dist[b] = dist[a] + cost
                changed = True
        if not changed:
            return None
    return "its residual graph has a negative cycle"



def _leaf_key(graph: RTVGraph, chosen: dict[int, int]):
    """Tie key among equal optima: whether each request is left out, in
    id order, so that the lowest ids served win; then the sorted chain
    of (members, vehicle) choices."""
    served = set().union(*(graph.members(bid) for bid in chosen.values()))
    chain = sorted((tuple(sorted(graph.members(bid))), vid) for vid, bid in chosen.items())
    return tuple(rid not in served for rid in sorted(graph.request_ids)), tuple(chain)


def oracle_options(graph: RTVGraph, frozen: bool) -> dict[int, set[int | None]]:
    """Each vehicle's allowed choices: bundle ids, and None for no bundle.

    Without freezing every edge is allowed and every vehicle may stay
    out. Frozen, a vehicle must take a bundle holding every request
    committed to it, if it has any, and no bundle may hold a request
    committed to another vehicle. Raises MatchingError when a committed
    vehicle has no allowed bundle.
    """
    commitments = {}
    if frozen:
        commitments = {rid: vid for rid, vid in graph.prev_assigned.items() if vid is not None}
    options: dict[int, set[int | None]] = {vid: set() for vid in graph.vehicle_ids}
    for bid, vid in graph.edges:
        members = graph.members(bid)
        owed = {rid for rid, owner in commitments.items() if owner == vid}
        foreign = any(commitments.get(rid, vid) != vid for rid in members)
        if owed <= members and not foreign:
            options[vid].add(bid)
    for vid in graph.vehicle_ids:
        if vid not in commitments.values():
            options[vid].add(None)
        elif not options[vid]:
            raise MatchingError(f"vehicle {vid}: no bundle keeps its commitments")
    return options


def _oracle_solution(graph: RTVGraph, chosen: dict[int, int]) -> AssignmentSolution:
    pairs = {
        rid: vid
        for vid, bid in chosen.items()
        for rid in graph.members(bid)
    }
    was = {rid for rid, vid in graph.prev_assigned.items() if vid is not None}
    left = [rid for rid in sorted(graph.request_ids) if rid not in pairs]
    return AssignmentSolution(
        pairs=dict(sorted(pairs.items())),
        routes={vid: graph.edges[(bid, vid)].route for vid, bid in sorted(chosen.items())},
        kept_previous=len(was & set(pairs)),
        assigned_count=len(pairs),
        total_cost=sum(graph.edges[(bid, vid)].cost for vid, bid in chosen.items()),
        unassigned=left,
        dropped_previous=[rid for rid in left if rid in was],
        chosen_bundles=dict(sorted(chosen.items())),
    )


def exhaustive_pooling_oracle(graph: RTVGraph, frozen: bool = False) -> AssignmentSolution:
    """Reference solver: plain enumeration of every vehicle-bundle choice.

    Guarded to tiny instances so tests cannot accidentally explode.
    Applies the identical value ordering as solve_pooling, including
    the canonical tie key (`_leaf_key`), with no bounding or pruning
    anywhere. Raises MatchingError when frozen commitments cannot all
    be kept.
    """
    if len(graph.edges) > _ORACLE_EDGE_LIMIT:
        raise ValueError(
            f"oracle limited to {_ORACLE_EDGE_LIMIT} edges, got {len(graph.edges)}"
        )
    options = oracle_options(graph, frozen)
    order = graph.vehicle_ids
    results: list[tuple] = []

    def walk(i: int, used: set[int], chosen: dict[int, int], p: int, n: int, c: int):
        if i == len(order):
            results.append(((-p, -n, c, _leaf_key(graph, chosen)), dict(chosen)))
            return
        vid = order[i]
        for bid in options[vid]:
            if bid is None:
                walk(i + 1, used, chosen, p, n, c)
                continue
            members = graph.members(bid)
            if used & members:
                continue
            prev_gain = sum(
                1 for rid in members if graph.prev_assigned.get(rid) is not None
            )
            chosen[vid] = bid
            walk(
                i + 1,
                used | members,
                chosen,
                p + prev_gain,
                n + len(members),
                c + graph.edge(bid, vid).cost,
            )
            del chosen[vid]

    walk(0, set(), {}, 0, 0, 0)
    if not results:
        raise MatchingError("no joint choice keeps every frozen commitment")
    best = min(results, key=lambda item: item[0])
    return _oracle_solution(graph, best[1])

"""Batch dispatch graph, shared by both modes, and single-rider matching.

Each batch works out one kept plan per vehicle (`kept_plans`): its
on-board riders' dropoffs from its plan start, every pending pickup
withdrawn. Hailing reaches requests from where that plan ends, pooling
from where it starts. The batch then builds a request-trip-vehicle
graph: bundles of open requests a single vehicle could serve together,
each linked to the vehicles that can, with the cheapest plan found and
its cost increase over the kept plan. Single-rider hailing is the case
where every bundle holds one request and every plan carries one rider.
Its edges, and a riderless pooling vehicle's single-rider edges, are
priced by arithmetic from where, when and at what cost each kept plan
ends (`single_rider_plans`). In both modes an edge's plan is scheduled
only when someone reads it, in practice only for the chosen edges. The
solution carries every vehicle's next route: its chosen edge's, or else
its kept plan's. Both exact solvers take one priority and tie rule
(`_ranked_choices`): it filters the (bundle, vehicle) choices a frozen
batch allows, ranks them by a canonical tie key, and packs each into one
integer so that a lesser sum drops fewer promised requests, then serves
more, then adds less cost over the kept plans, then serves the lowest
request ids, then holds the least-ranked choices. A hailing batch is its
least-weight matching: the one optimum, which pooling's solver picks too.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from .model import CostWeights, Request, RequestStatus, Route, SystemState, plan_start, route_cost, schedule_stops
from .network import Network


class MatchingError(RuntimeError):
    """Raised when the matching layer hits an inconsistent input."""


@dataclass(frozen=True)
class Bundle:
    """A set of requests considered for joint service."""

    id: int
    members: frozenset[int]


class VBEdge:
    """A vehicle that can serve a bundle, with the cheapest plan found.

    `route` is given as the plan itself or as a function of no
    arguments that builds it; the function runs on the first read of
    `route`, so a graph schedules only the plans that are read.
    """

    __slots__ = ("bundle_id", "vehicle_id", "cost", "_route")

    def __init__(
        self,
        bundle_id: int,
        vehicle_id: int,
        cost: int,
        route: Route | Callable[[], Route],
    ) -> None:
        self.bundle_id = bundle_id
        self.vehicle_id = vehicle_id
        self.cost = cost
        self._route = route

    @property
    def route(self) -> Route:
        if not isinstance(self._route, Route):
            self._route = self._route()
        return self._route


@dataclass
class RTVGraph:
    """Per-batch feasibility structure for either service mode.

    `baseline_cost` and `kept_routes` give each vehicle's kept plan.
    """

    request_ids: list[int]
    vehicle_ids: list[int]
    bundles: list[Bundle]
    edges: dict[tuple[int, int], VBEdge]
    prev_assigned: dict[int, int | None]
    baseline_cost: dict[int, int]
    kept_routes: dict[int, Route | None]

    def edge(self, bundle_id: int, vehicle_id: int) -> VBEdge:
        return self.edges[(bundle_id, vehicle_id)]

    def members(self, bundle_id: int) -> frozenset[int]:
        return self.bundles[bundle_id].members


@dataclass
class AssignmentSolution:
    """Outcome of one batch optimization, for either service mode.

    `routes` holds every vehicle's route after the batch: the chosen
    edge's route, or else the route of the vehicle's kept plan. A
    vehicle absent from it has no route.
    """

    pairs: dict[int, int]
    routes: dict[int, Route]
    kept_previous: int
    assigned_count: int
    total_cost: int
    unassigned: list[int] = field(default_factory=list)
    dropped_previous: list[int] = field(default_factory=list)
    chosen_bundles: dict[int, int] = field(default_factory=dict)

    @property
    def value(self) -> tuple[int, int, int]:
        """(kept previous, assigned, cost) as optimized, for reporting."""
        return (self.kept_previous, self.assigned_count, self.total_cost)


class KeptPlan(NamedTuple):
    """A vehicle's committed dropoff `visits`, their `route` from `start`
    (None without visits), where and when it ends, its cost, and the
    route the vehicle has `installed` (None without one)."""

    start: tuple[int, int]
    visits: list[tuple[int, tuple, tuple[int, ...]]]
    route: Route | None
    end_node: int
    end_time: int
    cost: int
    installed: Route | None


def _plan(net: Network, start: tuple[int, int], visits, installed: Route | None) -> Route:
    """The route of `visits` scheduled from `start`: the `installed` route
    itself when scheduling would give its stops, else a new one."""
    node, time = start
    if installed is not None and _schedules_to(net, node, time, visits, installed.stops):
        return installed
    return Route(schedule_stops(net, node, time, visits))


def _schedules_to(net: Network, node: int, time: int, visits, stops) -> bool:
    """Whether `schedule_stops(net, node, time, visits)` equals `stops`,
    checked visit by visit without building a stop."""
    i = -1  # the stop the visits so far went into
    pickups: set[int] = set()
    dropoffs: set[int] = set()
    for location, picks, drops in visits:
        # a visit at the last visit's node takes no time, so it joins its stop
        if i < 0 or location != node:
            if i >= 0 and (stops[i].pickups != pickups or stops[i].dropoffs != dropoffs):
                return False
            time += net.travel_time(node, location)
            node = location
            i += 1
            if i == len(stops) or stops[i].location != node or stops[i].planned_arrival != time:
                return False
            pickups, dropoffs = set(), set()
        pickups.update(picks)
        dropoffs.update(drops)
    if i < 0:
        return not stops
    return i == len(stops) - 1 and stops[i].pickups == pickups and stops[i].dropoffs == dropoffs


def kept_plans(
    state: SystemState, net: Network, now: int, weights: CostWeights
) -> dict[int, KeptPlan]:
    """Every vehicle's kept plan, the one rule for what it keeps.

    A vehicle keeps its on-board riders' dropoffs, in route order,
    scheduled from its plan start; a pending pickup is revocable and
    left out. Without a route the plan ends at its start and costs 0.
    """
    out = {}
    for vehicle in state.sorted_vehicles():
        start, installed = plan_start(vehicle, now), vehicle.route
        visits = []
        for stop in vehicle.remaining_stops():
            keep = stop.dropoffs & vehicle.onboard
            if keep:
                visits.append((stop.location, (), tuple(sorted(keep))))
        if visits:
            route = _plan(net, start, visits, installed)
            last = route.stops[-1]
            cost = route_cost(route, vehicle, now, weights, state.requests)
            out[vehicle.id] = KeptPlan(start, visits, route, last.location, last.planned_arrival, cost, installed)
        else:
            out[vehicle.id] = KeptPlan(start, visits, None, start[0], start[1], 0, installed)
    return out


def reachable_vehicles(
    state: SystemState, net: Network, starts: dict[int, tuple[int, int]]
) -> dict[int, dict[int, int]]:
    """Vehicles that can reach each open request's origin before its deadline.

    `starts` maps each vehicle id to the node and time it sets out
    from. Keys are every open request, in id order, each mapping its
    vehicles, in id order, to their travel time from there to the origin.
    """
    requests = state.active_requests()
    out: dict[int, dict[int, int]] = {request.id: {} for request in requests}
    if not requests:
        return out  # no row to read, and a row's first read costs a Dijkstra
    origins = [request.origin for request in requests]
    deadlines = [(out[request.id], request.latest_pickup) for request in requests]
    for vid, (node, time) in sorted(starts.items()):
        for (fits, deadline), leg in zip(deadlines, net.travel_times(node, origins)):
            if time + leg <= deadline:
                fits[vid] = leg
    return out


def feasible_vehicles(
    state: SystemState, net: Network, kept: dict[int, KeptPlan]
) -> dict[int, dict[int, int]]:
    """Vehicles that can still reach each open request before its deadline.

    Each vehicle sets out from where and when its kept plan (from
    `kept_plans`) ends, once its on-board riders are dropped off. The
    test ignores revocable pickups, so vehicles only drift away or bind
    to dropoffs from batch to batch, the deadline never moves, and the
    set can only shrink while a request stays open.
    """
    return reachable_vehicles(
        state, net, {vid: (plan.end_node, plan.end_time) for vid, plan in kept.items()}
    )


def assemble_graph(
    state: SystemState,
    request_ids: list[int],
    plans: dict[frozenset[int], dict[int, tuple[Route | Callable[[], Route], int]]],
    kept: dict[int, KeptPlan],
) -> RTVGraph:
    """Index the batch's workable bundles into a graph.

    `request_ids` lists the open requests in id order. `plans` maps each
    bundle's members to {vehicle id: (plan, plan cost)}, the plan as a
    `VBEdge` takes it. Edge cost is the plan's cost minus the cost of the
    vehicle's kept plan (from `kept_plans`), so summing chosen edge costs
    gives the assignment's true cost increase. Bundle ids follow (size,
    sorted members).
    """
    vehicle_ids = sorted(state.vehicles)
    baseline = {vid: kept[vid].cost for vid in vehicle_ids}
    ordered = sorted(plans, key=lambda s: (len(s), tuple(sorted(s))))
    bundles = [Bundle(bid, group) for bid, group in enumerate(ordered)]
    edges: dict[tuple[int, int], VBEdge] = {}
    for bundle in bundles:
        for vid in sorted(plans[bundle.members]):
            route, cost = plans[bundle.members][vid]
            edges[(bundle.id, vid)] = VBEdge(bundle.id, vid, cost - baseline[vid], route)
    prev = {
        rid: state.requests[rid].assigned_vehicle
        if state.requests[rid].status is RequestStatus.WAITING
        else None
        for rid in request_ids
    }
    return RTVGraph(
        request_ids=request_ids,
        vehicle_ids=vehicle_ids,
        bundles=bundles,
        edges=edges,
        prev_assigned=prev,
        baseline_cost=baseline,
        kept_routes={vid: kept[vid].route for vid in vehicle_ids},
    )


def single_rider_plans(
    net: Network, weights: CostWeights, request: Request, kept: dict[int, KeptPlan], legs: dict[int, int]
) -> dict[int, tuple[Callable[[], Route], int]]:
    """{vehicle id: (plan, cost)} serving `request` alone after each kept plan.

    The plan finishes the kept plan's dropoffs, then serves the request.
    It is priced from where and when the kept plan ends, as drive·(pickup
    + trip − end) + wait·(pickup − request time) + ride·trip over the
    kept plan's cost, with pickup = end + the vehicle's leg in `legs`, its
    travel time from the kept plan's end to the origin as
    `reachable_vehicles` read it. The kept stops keep their times, so this
    is `route_cost` of the plan. The plan is scheduled when called, from
    the batch's kept plan. Empty when the direct trip alone exceeds the
    request's ride limit.
    """
    trip = net.travel_time(request.origin, request.destination)
    if trip > request.max_ride:
        return {}
    rid = request.id
    serve = [(request.origin, (rid,), ()), (request.destination, (), (rid,))]
    fits = {}
    for vid, leg in legs.items():
        start, visits, _, _, end_time, cost, installed = kept[vid]
        pickup = end_time + leg
        added = (
            weights.drive * (pickup + trip - end_time)
            + weights.wait * (pickup - request.request_time)
            + weights.ride * trip
        )
        fits[vid] = (partial(_plan, net, start, visits + serve, installed), cost + added)
    return fits


def build_rv_graph(
    state: SystemState,
    net: Network,
    now: int,
    weights: CostWeights,
) -> RTVGraph:
    """Build the batch's single-rider graph: one singleton bundle per request.

    A vehicle reaches a request when it can get from the end of its
    kept plan to the origin by the deadline; its plan and cost come
    from `single_rider_plans`.
    """
    kept = kept_plans(state, net, now, weights)
    reach = feasible_vehicles(state, net, kept)
    plans: dict[frozenset[int], dict[int, tuple[Callable[[], Route], int]]] = {}
    for rid, legs in reach.items():
        fits = single_rider_plans(net, weights, state.requests[rid], kept, legs)
        if fits:
            plans[frozenset({rid})] = fits
    return assemble_graph(state, list(reach), plans, kept)


def _ranked_choices(graph: RTVGraph, frozen: bool):
    """Every allowed (bundle, vehicle) choice, ranked and weighed, and the
    committed vehicles: the one priority and tie rule of both solvers.

    In frozen mode a vehicle holding commitments may only choose bundles
    that keep all of them, and no vehicle may take a request committed
    to another; a committed vehicle left without a choice raises
    MatchingError. The allowed choices are ranked by the tie key (sorted
    members, vehicle id), and each weighs ((level·spread + cost) <<
    (R+E)) − (mask << E) − 2^(E−1−rank) over R open requests and E
    choices: level = −(previously assigned members)·(R+1) − (members),
    spread = 1 + Σ|cost| over the choices, and the mask holds 2^(R−1−i)
    for each member `graph.request_ids[i]`.

    A solution's bundles are disjoint, so it totals P·2^(R+E) − S·2^E −
    C, with S < 2^R the mask of the requests it serves and C < 2^E its
    rank bits: totals compare as (P, −S, −C) do. Spread outweighs any
    cost and R+1 any count, so a lesser total keeps more previously
    assigned requests, then serves more, then costs less, then serves
    the lowest request ids, then holds the least-ranked choice the other
    lacks, which picks the least sorted chain (of two solutions serving
    the same requests, each holds a choice the other lacks). Distinct
    solutions never tie, deleting requests both leave out keeps their
    order, and the unbounded integers stay exact at any size.

    Returns [(vehicle id, bundle id, mask, weight)] in rank order, and
    the vehicles holding commitments (empty unless frozen).
    """
    promised = {rid: vid for rid, vid in graph.prev_assigned.items() if vid is not None}
    owner = promised if frozen else {}
    owed = Counter(owner.values())
    n_requests = len(graph.request_ids)
    scale = n_requests + 1
    bit = {rid: 1 << (n_requests - 1 - i) for i, rid in enumerate(graph.request_ids)}
    # per bundle: (tie key, mask, level, the owners of its commitments)
    about = []
    for bundle in graph.bundles:
        members = bundle.members
        about.append((
            tuple(sorted(members)),
            sum(bit[rid] for rid in members),
            -len(promised.keys() & members) * scale - len(members),
            [owner[rid] for rid in members if rid in owner],
        ))
    allowed = []
    for (bid, vid), edge in graph.edges.items():
        key, mask, level, claims = about[bid]
        # the bundle holds every commitment of this vehicle and no other's
        if claims.count(vid) == len(claims) == owed.get(vid, 0):
            allowed.append((key, vid, bid, mask, level, edge.cost))
    lost = set(owed) - {choice[1] for choice in allowed}
    if lost:
        vid = min(lost)
        need = sorted(rid for rid, owner_id in owner.items() if owner_id == vid)
        raise MatchingError(
            f"vehicle {vid}: frozen commitment to {need} lost feasibility;"
            " no workable bundle keeps it"
        )
    allowed.sort()
    spread = 1 + sum(abs(choice[5]) for choice in allowed)
    low = len(allowed)  # the rank bits
    ranked = [
        (vid, bid, mask, ((level * spread + cost) << (n_requests + low)) - (mask << low) - (1 << (low - 1 - rank)))
        for rank, (_, vid, bid, mask, level, cost) in enumerate(allowed)
    ]
    return ranked, set(owed)


def _solution_from(graph: RTVGraph, chosen: dict[int, int]) -> AssignmentSolution:
    """The solution that gives each vehicle in `chosen` its bundle and
    every other vehicle its kept route."""
    pairs: dict[int, int] = {}
    routes = {vid: route for vid, route in graph.kept_routes.items() if route is not None}
    total = 0
    for vid, bid in sorted(chosen.items()):
        edge = graph.edge(bid, vid)
        routes[vid] = edge.route
        total += edge.cost
        for rid in sorted(graph.members(bid)):
            pairs[rid] = vid
    kept = sum(1 for rid in pairs if graph.prev_assigned.get(rid) is not None)
    unassigned = sorted(set(graph.request_ids) - set(pairs))
    dropped = [rid for rid in unassigned if graph.prev_assigned.get(rid) is not None]
    return AssignmentSolution(
        pairs=pairs,
        routes=routes,
        kept_previous=kept,
        assigned_count=len(pairs),
        total_cost=total,
        unassigned=unassigned,
        dropped_previous=dropped,
        chosen_bundles=dict(sorted(chosen.items())),
    )


# -- exact solver ---------------------------------------------------------------


def _min_cost_matching(weights: dict[tuple[int, int], int]) -> dict[int, int]:
    """A least-weight matching over integer (request, vehicle) weights.

    A request left unmatched weighs 0, so an edge of positive weight is
    never taken, and the matching need not have the most edges: it is
    the one whose weights sum least. Only requests and vehicles with an
    edge take part. Returns {request: vehicle}. On `solve_hailing`'s
    weights every edge weighs less than 0 and the counts outweigh cost,
    so a matching with an augmenting path is never least: flipping the
    path serves one more request and drops none. There the least-weight
    matching also has the most edges.

    Requests enter one at a time, in the order of their first edge
    (Jonker and Volgenant's shortest augmenting path, Computing 1987).
    Request i also owns a "left out" column of weight 0. Potentials u
    (requests) and v (columns) keep every reduced weight w − u − v
    non-negative and every matched one 0, and a free column keeps v = 0.
    An entering request takes u = min(w − v) over its columns, which
    absorbs the negative raw weights, then runs one Dijkstra over reduced
    weights from itself alone, stopping at the first free column it
    settles, at distance d*. Each matched column settled at d gives up
    d* − d of v to its request, the entering request gains d*, and the
    path to the free column flips. Its own left-out column is always
    free, so every search ends.
    """
    col_of: dict[int, int] = {}
    adjs: dict[int, list[tuple[int, int]]] = {}
    for (rid, vid), w in weights.items():
        adjs.setdefault(rid, []).append((col_of.setdefault(vid, len(col_of)), w))
    request_ids = list(adjs)
    n_cols = len(col_of)
    rows = list(adjs.values())
    for i, adj in enumerate(rows):
        adj.append((n_cols + i, 0))
    u = [0] * len(rows)
    v = [0] * (n_cols + len(rows))
    row_of = [-1] * len(v)  # the request matched to each column
    col_at = [-1] * len(rows)  # the column matched to each request

    for i, adj in enumerate(rows):
        u[i] = min(w - v[c] for c, w in adj)
        dist: dict[int, int] = {}
        via: dict[int, int] = {}
        settled = []
        heap: list[tuple[int, int]] = []
        r, d = i, 0
        while True:
            base = d - u[r]
            for c, w in rows[r]:
                nd = base + w - v[c]
                if c not in dist or nd < dist[c]:
                    dist[c] = nd
                    via[c] = r
                    heapq.heappush(heap, (nd, c))
            d, c = heapq.heappop(heap)
            while d != dist[c]:
                d, c = heapq.heappop(heap)
            r = row_of[c]
            if r < 0:
                break
            settled.append(c)
        for j in settled:
            slack = d - dist[j]
            v[j] -= slack
            u[row_of[j]] += slack
        u[i] += d
        while True:
            r = via[c]
            row_of[c], col_at[r], c = r, c, col_at[r]
            if r == i:
                break

    vehicle_ids = list(col_of)
    return {request_ids[r]: vehicle_ids[c] for r, c in enumerate(col_at) if c < n_cols}


def solve_hailing(graph: RTVGraph, frozen: bool = False) -> AssignmentSolution:
    """Solve one single-rider batch exactly, with canonical tie-breaking.

    Every bundle of the graph must be a singleton. The objective is
    lexicographic: keep as many previously assigned requests assigned as
    possible, then assign as many requests as possible, then minimize
    total incremental cost. Among optima the solver prefers serving
    lower request ids and pairing each with the lowest workable vehicle
    id, so equal instances resolve equally.

    Each allowed edge weighs the integer `_ranked_choices` gives its
    choice, which packs the objective and the tie rule (see there), so
    the least-weight matching is the one optimum `solve_pooling` returns
    on the same graph.

    With frozen=True a commitment is the only allowed edge of its vehicle
    and of its request, and it weighs less than 0, so the least-weight
    matching keeps every commitment and optimizes the rest. Each bundle
    stands for its one request in the matcher, and the edges go to it in
    rank order, so requests enter it in id order.
    """
    ranked, _ = _ranked_choices(graph, frozen)
    matching = _min_cost_matching({(bid, vid): weight for vid, bid, _, weight in ranked})
    return _solution_from(graph, {vid: bid for bid, vid in matching.items()})

"""Batch dispatch graph, shared by both modes, and single-rider matching.

Each batch builds a request-trip-vehicle graph: bundles of open
requests a single vehicle could serve together, each linked to the
vehicles that can, with the cheapest plan found and its cost increase
over what the vehicle is already committed to drive. Single-rider
hailing is the case where every bundle holds one request and every
plan carries one rider; it is solved here as a min-cost matching whose
weights encode the operator's priorities: drop as few previously
promised requests as possible, serve as many requests as possible,
then minimize the cost increase over the committed plans. Ties are
broken canonically (lowest request id, then lowest vehicle id), so the
same instance always yields the same assignment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .model import Request, RequestStatus, Route, SystemState, CostWeights, route_cost, schedule_stops, plan_start
from .network import Network


class MatchingError(RuntimeError):
    """Raised when the matching layer hits an inconsistent input."""


@dataclass(frozen=True)
class Bundle:
    """A set of requests considered for joint service."""

    id: int
    members: frozenset[int]


@dataclass(frozen=True)
class VBEdge:
    """A vehicle that can serve a bundle, with the cheapest plan found."""

    bundle_id: int
    vehicle_id: int
    cost: int
    route: Route


@dataclass
class RTVGraph:
    """Per-batch feasibility structure for either service mode."""

    request_ids: list[int]
    vehicle_ids: list[int]
    bundles: list[Bundle]
    edges: dict[tuple[int, int], VBEdge]
    vehicles_for: dict[int, list[int]]
    bundles_with: dict[int, list[int]]
    vehicle_bundles: dict[int, list[int]]
    prev_assigned: dict[int, int | None]
    baseline_cost: dict[int, int]

    def edge(self, bundle_id: int, vehicle_id: int) -> VBEdge:
        return self.edges[(bundle_id, vehicle_id)]

    def members(self, bundle_id: int) -> frozenset[int]:
        return self.bundles[bundle_id].members


@dataclass
class AssignmentSolution:
    """Outcome of one batch optimization, for either service mode."""

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


def vehicle_release(vehicle, now: int) -> tuple[int, int]:
    """Node and time from which the vehicle can start a new pickup.

    Passengers already on board must reach their committed dropoffs
    first; a pending pickup is revocable and does not bind. A vehicle
    part way along an edge binds to that edge's far end.
    """
    release = None
    for stop in vehicle.remaining_stops():
        if stop.dropoffs & vehicle.onboard:
            release = stop
    if release is not None:
        return release.location, release.planned_arrival
    return plan_start(vehicle, now)


def _committed_dropoffs(vehicle) -> list[tuple[int, tuple, tuple[int, ...]]]:
    visits = []
    for stop in vehicle.remaining_stops():
        keep = stop.dropoffs & vehicle.onboard
        if keep:
            visits.append((stop.location, (), tuple(sorted(keep))))
    return visits


def candidate_route(
    vehicle, request: Request, now: int, net: Network
) -> Route:
    """Replacement plan: finish committed dropoffs, then serve the request."""
    visits = _committed_dropoffs(vehicle)
    visits.append((request.origin, (request.id,), ()))
    visits.append((request.destination, (), (request.id,)))
    node, time = plan_start(vehicle, now)
    return Route(schedule_stops(net, node, time, visits))


def retained_route(vehicle, now: int, net: Network) -> Route | None:
    """The plan a vehicle keeps when its pending pickup is withdrawn."""
    visits = _committed_dropoffs(vehicle)
    if not visits:
        return None
    node, time = plan_start(vehicle, now)
    return Route(schedule_stops(net, node, time, visits))


def reachable_vehicles(
    state: SystemState, net: Network, now: int, start
) -> dict[int, list[int]]:
    """Vehicles that can reach each open request's origin before its deadline.

    `start(vehicle, now)` gives the node and time each vehicle sets out
    from. The test ignores revocable pickup commitments, so with either
    start rule the set can only shrink while a request stays open.
    Keys are every open request, in id order.
    """
    starts = {v.id: start(v, now) for v in state.sorted_vehicles()}
    out: dict[int, list[int]] = {}
    for request in state.active_requests():
        fits = []
        for vid in sorted(starts):
            node, time = starts[vid]
            if time + net.travel_time(node, request.origin) <= request.latest_pickup:
                fits.append(vid)
        out[request.id] = fits
    return out


def feasible_vehicles(
    state: SystemState, net: Network, now: int
) -> dict[int, list[int]]:
    """Vehicles that can still reach each open request before its deadline.

    A vehicle sets out once its on-board riders are dropped off; vehicles
    drift away or bind to dropoffs from batch to batch, and the deadline
    never moves.
    """
    return reachable_vehicles(state, net, now, vehicle_release)


def assemble_graph(
    state: SystemState,
    net: Network,
    now: int,
    weights: CostWeights,
    vehicles_for: dict[int, list[int]],
    plans: dict[frozenset[int], dict[int, tuple[Route, int]]],
) -> RTVGraph:
    """Index the batch's workable bundles into a graph.

    `plans` maps each bundle's members to {vehicle id: (plan, plan
    cost)}. Edge cost is the plan's cost minus the cost of what the
    vehicle is already committed to drive, so summing chosen edge costs
    gives the assignment's true cost increase. Bundle ids follow
    (size, sorted members).
    """
    request_ids = list(vehicles_for)
    vehicle_ids = sorted(state.vehicles)
    baseline: dict[int, int] = {}
    for vid in vehicle_ids:
        vehicle = state.vehicles[vid]
        kept = retained_route(vehicle, now, net)
        baseline[vid] = (
            0 if kept is None else route_cost(kept, vehicle, now, weights, state.requests)
        )
    ordered = sorted(plans, key=lambda s: (len(s), tuple(sorted(s))))
    bundles = [Bundle(bid, group) for bid, group in enumerate(ordered)]
    edges: dict[tuple[int, int], VBEdge] = {}
    bundles_with: dict[int, list[int]] = {rid: [] for rid in request_ids}
    vehicle_bundles: dict[int, list[int]] = {vid: [] for vid in vehicle_ids}
    for bundle in bundles:
        for vid in sorted(plans[bundle.members]):
            route, cost = plans[bundle.members][vid]
            edges[(bundle.id, vid)] = VBEdge(bundle.id, vid, cost - baseline[vid], route)
            vehicle_bundles[vid].append(bundle.id)
        for rid in bundle.members:
            bundles_with[rid].append(bundle.id)
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
        vehicles_for=vehicles_for,
        bundles_with=bundles_with,
        vehicle_bundles=vehicle_bundles,
        prev_assigned=prev,
        baseline_cost=baseline,
    )


def build_rv_graph(
    state: SystemState,
    net: Network,
    now: int,
    weights: CostWeights,
) -> RTVGraph:
    """Build the batch's single-rider graph: one singleton bundle per request.

    Each reachable vehicle's plan finishes its committed dropoffs and
    then serves the request.
    """
    vehicles_for = feasible_vehicles(state, net, now)
    plans: dict[frozenset[int], dict[int, tuple[Route, int]]] = {}
    for rid, vids in vehicles_for.items():
        request = state.requests[rid]
        if net.travel_time(request.origin, request.destination) > request.max_ride:
            vehicles_for[rid] = []
            continue
        fits = {}
        for vid in vids:
            vehicle = state.vehicles[vid]
            plan = candidate_route(vehicle, request, now, net)
            fits[vid] = (plan, route_cost(plan, vehicle, now, weights, state.requests))
        if fits:
            plans[frozenset({rid})] = fits
    return assemble_graph(state, net, now, weights, vehicles_for, plans)


def _vehicle_options(graph: RTVGraph, frozen: bool):
    """Per-vehicle choice lists, most content-canonical first, None last.

    In frozen mode a vehicle holding commitments may only choose bundles
    that keep all of them, and no vehicle may take a request committed
    to another.
    """
    frozen_map: dict[int, int] = {}
    if frozen:
        frozen_map = {
            rid: vid for rid, vid in graph.prev_assigned.items() if vid is not None
        }
    needs: dict[int, set[int]] = {}
    for rid, vid in frozen_map.items():
        needs.setdefault(vid, set()).add(rid)
    options: dict[int, list[int | None]] = {}
    for vid in graph.vehicle_ids:
        allowed: list[int | None] = []
        need = needs.get(vid, set())
        for bid in graph.vehicle_bundles.get(vid, ()):
            members = graph.members(bid)
            if frozen:
                if not need <= members:
                    continue
                if any(frozen_map.get(rid, vid) != vid for rid in members):
                    continue
            allowed.append(bid)
        if need and not allowed:
            raise MatchingError(
                f"vehicle {vid}: frozen commitment to {sorted(need)} lost feasibility;"
                " no workable bundle keeps it"
            )
        if not need:
            allowed.append(None)
        options[vid] = allowed
    return options


def _solution_from(graph: RTVGraph, chosen: dict[int, int]) -> AssignmentSolution:
    """The solution that gives each vehicle in `chosen` its bundle."""
    pairs: dict[int, int] = {}
    routes: dict[int, Route] = {}
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

_ZERO3 = (0, 0, 0)


def _t_add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _t_sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _min_cost_matching(
    request_ids: list[int],
    vehicle_ids: list[int],
    weights: dict[tuple[int, int], tuple[int, int, int]],
) -> dict[int, int]:
    """Free-cardinality min-cost matching over 3-component weights.

    Weights add componentwise and compare lexicographically. Successive
    shortest augmenting paths with node potentials; the first Dijkstra
    round is a plain relaxation over single edges, which also absorbs
    the negative raw weights, and every later round runs on reduced
    weights that stay non-negative.
    """
    out: dict[int, list[tuple[int, tuple[int, int, int]]]] = {}
    for (rid, vid), w in sorted(weights.items()):
        out.setdefault(rid, []).append((vid, w))
    sources = [rid for rid in request_ids if rid in out]
    pi_r = {rid: _ZERO3 for rid in sources}
    pi_v = {vid: _ZERO3 for vid in vehicle_ids}
    match_rv: dict[int, int] = {}
    match_vr: dict[int, int] = {}

    while True:
        dist_r: dict[int, tuple] = {}
        dist_v: dict[int, tuple] = {}
        parent_v: dict[int, int] = {}
        heap: list = []
        for rid in sources:
            if rid not in match_rv:
                dist_r[rid] = _ZERO3
                heapq.heappush(heap, (_ZERO3, 0, rid))
        while heap:
            d, kind, node = heapq.heappop(heap)
            if kind == 0:
                if dist_r.get(node) != d:
                    continue
                for vid, w in out[node]:
                    if match_rv.get(node) == vid:
                        continue
                    nd = _t_add(d, _t_add(w, _t_sub(pi_r[node], pi_v[vid])))
                    if vid not in dist_v or nd < dist_v[vid]:
                        dist_v[vid] = nd
                        parent_v[vid] = node
                        heapq.heappush(heap, (nd, 1, vid))
            else:
                if dist_v.get(node) != d:
                    continue
                rid = match_vr.get(node)
                if rid is None:
                    continue
                w = weights[(rid, node)]
                nd = _t_add(d, _t_sub(_t_sub(pi_v[node], w), pi_r[rid]))
                if rid not in dist_r or nd < dist_r[rid]:
                    dist_r[rid] = nd
                    heapq.heappush(heap, (nd, 0, rid))

        best = None
        for vid in vehicle_ids:
            if vid in match_vr or vid not in dist_v:
                continue
            true_cost = _t_add(dist_v[vid], pi_v[vid])
            if best is None or (true_cost, vid) < best:
                best = (true_cost, vid)
        if best is None:
            return match_rv
        target = best[1]
        bound = dist_v[target]
        for rid in pi_r:
            if rid in dist_r:
                pi_r[rid] = _t_add(pi_r[rid], min(dist_r[rid], bound))
            else:
                pi_r[rid] = _t_add(pi_r[rid], bound)
        for vid in pi_v:
            if vid in dist_v:
                pi_v[vid] = _t_add(pi_v[vid], min(dist_v[vid], bound))
            else:
                pi_v[vid] = _t_add(pi_v[vid], bound)
        vid = target
        while True:
            rid = parent_v[vid]
            came_from = match_rv.get(rid)
            match_rv[rid] = vid
            match_vr[vid] = rid
            if came_from is None:
                break
            vid = came_from


def solve_hailing(graph: RTVGraph, frozen: bool = False) -> AssignmentSolution:
    """Solve one single-rider batch exactly, with canonical tie-breaking.

    Every bundle of the graph must be a singleton. The objective is
    lexicographic: keep as many previously assigned requests assigned as
    possible, then assign as many requests as possible, then minimize
    total incremental cost. Among optima the solver prefers serving
    lower request ids and pairing each with the lowest workable vehicle
    id, so equal instances resolve equally.

    With frozen=True every previously assigned pair is locked in and
    only the remaining requests and vehicles are optimized.
    """
    options = _vehicle_options(graph, frozen)
    # a committed vehicle's one option is its frozen request's bundle
    chosen = {vid: opts[0] for vid, opts in options.items() if None not in opts}
    fixed = {rid for bid in chosen.values() for rid in graph.members(bid)}
    free_requests = [rid for rid in graph.request_ids if rid not in fixed]
    free_vehicles = [vid for vid in graph.vehicle_ids if vid not in chosen]

    costs: dict[tuple[int, int], int] = {}
    bundle_of: dict[int, int] = {}
    for vid in free_vehicles:
        for bid in options[vid][:-1]:  # all but the trailing None
            (rid,) = graph.members(bid)
            costs[(rid, vid)] = graph.edge(bid, vid).cost
            bundle_of[rid] = bid
    if costs:
        spread = 1 + sum(abs(c) for c in costs.values())
        drop_penalty = 1 + (len(graph.request_ids) + 2) * spread
        rank_r = {rid: i for i, rid in enumerate(graph.request_ids)}
        bits_r = len(graph.request_ids)
        ranked_edges = sorted(costs)
        bits_e = len(ranked_edges)
        rank_e = {pair: i for i, pair in enumerate(ranked_edges)}
        weights = {}
        for pair, cost in costs.items():
            rid = pair[0]
            w = cost - spread
            if graph.prev_assigned.get(rid) is not None:
                w -= drop_penalty
            weights[pair] = (
                w,
                -(1 << (bits_r - 1 - rank_r[rid])),
                -(1 << (bits_e - 1 - rank_e[pair])),
            )
        matching = _min_cost_matching(free_requests, free_vehicles, weights)
        chosen.update((vid, bundle_of[rid]) for rid, vid in matching.items())
    return _solution_from(graph, chosen)


"""Shared-ride dispatch: trip bundles, routing, and exact assignment.

Open requests are grouped into bundles a single vehicle could serve
together. Bundles are grown level by level, each size admitted only
when all of its sub-bundles proved workable, and each carries the
cheapest feasible visit sequence per candidate vehicle, scheduled only
when its route is read. A vehicle with nobody on board serves a lone
request as in single-rider mode, priced by `single_rider_plans`;
`best_route` searches the rest. An exact dynamic program over the
vehicles then picks at most one bundle per vehicle, covering each
request at most once, under the single-rider mode's priority rule
(`matching._ranked_choices`), with ties broken by choice rank alone,
packed into one integer per choice.
"""

from __future__ import annotations

from functools import partial

from .matching import (
    AssignmentSolution, Bundle, KeptPlan, MatchingError, RTVGraph, VBEdge, _plan, _solution_from,
    _ranked_choices, assemble_graph, kept_plans, reachable_vehicles, single_rider_plans,
)
# route_cost is unused here; perfbench/spans.py traces this binding
from .model import CostWeights, SystemState, Vehicle, plan_start, route_cost
from .network import Network


def divertable_vehicles(
    state: SystemState, net: Network, kept: dict[int, KeptPlan]
) -> dict[int, dict[int, int]]:
    """Vehicles that could head straight to each request in time.

    Each vehicle sets out from where and when its kept plan (from
    `kept_plans`) starts. This ignores every revocable commitment and
    any detour bookkeeping: the vehicle is imagined turning toward the
    request at the next node it reaches. The set can only shrink while a
    request stays open.
    """
    return reachable_vehicles(state, net, {vid: plan.start for vid, plan in kept.items()})


def best_route(
    vehicle: Vehicle,
    members,
    now: int,
    net: Network,
    requests,
    weights: CostWeights,
) -> tuple[list[tuple[int, tuple, tuple]], int] | None:
    """Cheapest feasible plan serving the bundle plus everyone on board.

    Searches stop sequences depth first with running lower bounds on
    every pending deadline and ride limit. Among equal-cost sequences
    the first in visit order (by request id, dropoffs before pickups)
    wins, so the result is deterministic for a given state.

    Returns the winning (node, pickups, dropoffs) visits, to be driven
    from `plan_start(vehicle, now)`, with their `route_cost`, or None.
    """
    start_node, start_time = plan_start(vehicle, now)
    boarded: dict[int, int] = {}
    for rid in sorted(vehicle.onboard):
        pickup = requests[rid].pickup_time
        if pickup is None:
            raise MatchingError(f"request {rid} on board without a pickup time")
        boarded[rid] = pickup

    best: list = [None, None]  # cost, visit sequence

    def violates_bounds(node: int, time: int, picks, drops) -> bool:
        for rid in picks:
            if time + net.travel_time(node, requests[rid].origin) > requests[rid].latest_pickup:
                return True
        for rid in drops:
            request = requests[rid]
            if time + net.travel_time(node, request.destination) - boarded[rid] > request.max_ride:
                return True
        return False

    def extend(node, time, picks, drops, load, visits, cost):
        if best[0] is not None and cost > best[0]:
            return
        if not picks and not drops:
            if best[0] is None or cost < best[0]:
                best[0] = cost
                best[1] = list(visits)
            return
        options = sorted([(rid, 0) for rid in drops] + [(rid, 1) for rid in picks])
        for rid, kind in options:
            request = requests[rid]
            if kind == 1:
                if load >= vehicle.capacity:
                    continue
                target = request.origin
                leg = net.travel_time(node, target)
                arrival = time + leg
                if arrival > request.latest_pickup:
                    continue
                boarded[rid] = arrival
                step_cost = weights.drive * leg + weights.wait * (arrival - request.request_time)
                next_picks = picks - {rid}
                next_drops = drops | {rid}
                if not violates_bounds(target, arrival, next_picks, next_drops):
                    visits.append((target, (rid,), ()))
                    extend(target, arrival, next_picks, next_drops, load + 1, visits, cost + step_cost)
                    visits.pop()
                del boarded[rid]
            else:
                target = request.destination
                leg = net.travel_time(node, target)
                arrival = time + leg
                if arrival - boarded[rid] > request.max_ride:
                    continue
                step_cost = weights.drive * leg + weights.ride * (arrival - boarded[rid])
                next_drops = drops - {rid}
                if not violates_bounds(target, arrival, picks, next_drops):
                    visits.append((target, (), (rid,)))
                    extend(target, arrival, picks, next_drops, load - 1, visits, cost + step_cost)
                    visits.pop()

    picks = frozenset(members)
    drops = frozenset(vehicle.onboard)
    if violates_bounds(start_node, start_time, picks, drops):
        return None
    extend(start_node, start_time, picks, drops, len(vehicle.onboard), [], 0)
    if best[0] is None:
        return None
    return best[1], best[0]


def build_rtv_graph(
    state: SystemState,
    net: Network,
    now: int,
    weights: CostWeights,
    max_bundle_size: int | None = None,
) -> RTVGraph:
    """Enumerate workable bundles and their vehicle edges for one batch.

    Bundles grow by one request per level; a candidate is admitted only
    if every sub-bundle one smaller already has an edge, and only
    vehicles workable for all those sub-bundles are tried. With
    max_bundle_size=None levels continue until none survives. A
    vehicle whose kept plan is empty gets its single-rider edges from
    `single_rider_plans`; every other edge is `best_route`'s plan. Each
    edge holds its plan unscheduled, from the kept plan's start.
    """
    if max_bundle_size is not None and max_bundle_size < 1:
        raise ValueError("max_bundle_size must be positive or None")
    kept = kept_plans(state, net, now, weights)
    reach = divertable_vehicles(state, net, kept)
    plans: dict[frozenset[int], dict] = {}

    def fit(members: frozenset[int], vids) -> dict:
        fits = {}
        for vid in vids:
            found = best_route(state.vehicles[vid], members, now, net, state.requests, weights)
            if found is not None:
                fits[vid] = (partial(_plan, net, kept[vid].start, found[0]), found[1])
        return fits

    level: list[frozenset[int]] = []
    for rid, legs in reach.items():
        group = frozenset({rid})
        # a riderless kept plan ends where it starts, so its leg is the one read here
        riderless = {vid: leg for vid, leg in legs.items() if not kept[vid].visits}
        fits = single_rider_plans(net, weights, state.requests[rid], kept, riderless)
        fits.update(fit(group, [vid for vid in legs if kept[vid].visits]))
        if fits:
            plans[group] = fits
            level.append(group)

    size = 1
    while level and (max_bundle_size is None or size < max_bundle_size):
        size += 1
        seen: set[frozenset[int]] = set()
        grown: list[frozenset[int]] = []
        for i, left in enumerate(level):
            for right in level[i + 1:]:
                union = left | right
                if len(union) != size or union in seen:
                    continue
                seen.add(union)
                subsets = [union - {rid} for rid in sorted(union)]
                if any(sub not in plans for sub in subsets):
                    continue
                shared = set(plans[subsets[0]])
                for sub in subsets[1:]:
                    shared &= set(plans[sub])
                fits = fit(union, sorted(shared))
                if fits:
                    plans[union] = fits
                    grown.append(union)
        level = grown

    return assemble_graph(state, list(reach), plans, kept)


def solve_pooling(graph: RTVGraph, frozen: bool = False) -> AssignmentSolution:
    """Pick at most one bundle per vehicle, covering each request once.

    The objective is lexicographic: keep previously assigned requests
    assigned, then cover as many requests as possible, then minimize
    total incremental cost. Ties resolve by comparing the chosen
    bundle contents and vehicles, so runs with the same alternatives
    land on the same answer regardless of internal ordering.

    Each allowed (bundle, vehicle) choice weighs one integer,
    (priority << E) − 2^(E−1−rank), for E choices ranked by the tie key
    (sorted members, vehicle id) and the priority `_ranked_choices`
    gives it. Totals compare as (kept previous, covered, cost) do, then
    by rank bits: optima cover equally many requests, so none is a
    prefix of another, and the least sorted chain is the one holding the
    least-ranked choice the two do not share. Distinct solutions never
    tie.

    A dynamic program over the vehicles with a bundle, fewest options
    first, finds the least total. Its states map the taken requests a
    later vehicle could still take to the least total reaching them.
    Raises MatchingError when frozen commitments cannot all be kept at
    once.
    """
    ranked, committed = _ranked_choices(graph, frozen)
    total = len(ranked)
    # per vehicle with a bundle: (requests as a bitmask, weight, bundle
    # id) per option; a vehicle with none has nothing to decide
    choices: dict[int, list[tuple[int, int, int | None]]] = {}
    for rank, (vid, bid, mask, priority) in enumerate(ranked):
        weight = (priority << total) - (1 << (total - 1 - rank))
        choices.setdefault(vid, []).append((mask, weight, bid))
    for vid, listed in choices.items():
        if vid not in committed:
            listed.append((0, 0, None))

    order = sorted(choices, key=lambda vid: (len(choices[vid]), vid))
    # later[i]: the requests some vehicle after order[i] could take
    later = [0] * len(order)
    for i in range(len(order) - 1, 0, -1):
        later[i - 1] = later[i]
        for mask, _, _ in choices[order[i]]:
            later[i - 1] |= mask
    # taken requests still contested -> (least total, chosen (vehicle,
    # bundle) pairs as a linked list)
    states: dict[int, tuple[int, tuple | None]] = {0: (0, None)}
    for vid, contested in zip(order, later):
        grown: dict[int, tuple[int, tuple | None]] = {}
        for taken, (value, trail) in states.items():
            for mask, weight, bid in choices[vid]:
                if taken & mask:
                    continue
                key = (taken | mask) & contested
                score = value + weight
                held = grown.get(key)
                if held is None or score < held[0]:
                    grown[key] = (score, trail if bid is None else (vid, bid, trail))
        states = grown
    if not states:  # each commitment can be kept, but not all at once
        raise MatchingError("no joint choice of bundles keeps every frozen commitment")
    ((_, trail),) = states.values()
    chosen: dict[int, int] = {}
    while trail is not None:
        vid, bid, trail = trail
        chosen[vid] = bid
    return _solution_from(graph, chosen)

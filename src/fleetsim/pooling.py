"""Shared-ride dispatch: trip bundles, routing, and exact assignment.

Open requests are grouped into bundles a single vehicle could serve
together. Bundles are grown level by level, each size admitted only
when all of its sub-bundles proved workable, and each carries the
cheapest feasible visit sequence per candidate vehicle, scheduled only
when its route is read. A vehicle with nobody on board serves a lone
request as in single-rider mode, priced by `single_rider_plans`;
`best_route` searches the rest. A search carries to the next batch if
the vehicle moved no faster than the network allows and the route's
first arrival holds: no visit order then arrives earlier, and the move
shifts every order's cost alike. Twin runs also share one store of
searches, keyed by their whole input. An exact dynamic program over the
vehicles then picks at most one bundle per vehicle, covering each
request at most once, under the single-rider mode's priority and tie
rule (`matching._ranked_choices`), packed into one integer per choice.
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
    vehicle: Vehicle, members, now: int, net: Network, requests, weights: CostWeights
) -> tuple[list[tuple[int, tuple, tuple]], int] | None:
    """Cheapest feasible plan serving the bundle plus everyone on board.

    Searches stop sequences depth first over one list of pending stops
    in visit order (by request id; a pickup is replaced in place by its
    dropoff), leaving a branch once a pending stop is out of reach in
    time. The first of equal-cost sequences in visit order wins, so the
    result is deterministic for a given state. `build_rtv_graph` reuses
    a result at the next batch when the vehicle's move lets no visit
    order arrive earlier and the route's first arrival holds.

    Returns the winning (node, pickups, dropoffs) visits, to be driven
    from `plan_start(vehicle, now)`, with their `route_cost`, or None.
    """
    node, time = plan_start(vehicle, now)
    drive, wait, ride = weights.drive, weights.wait, weights.ride
    # pending stops in visit order: (request id, is pickup, node, latest
    # arrival, time its cost runs from, weight of that time)
    stops = []
    for rid in sorted(set(members) | vehicle.onboard):
        request, pickup = requests[rid], requests[rid].pickup_time
        if rid not in vehicle.onboard:
            stops.append((rid, True, request.origin, request.latest_pickup, request.request_time, wait))
        elif pickup is None:
            raise MatchingError(f"request {rid} on board without a pickup time")
        else:
            stops.append((rid, False, request.destination, pickup + request.max_ride, pickup, ride))
    best: list = [None, None]  # cost, visit sequence

    def extend(node, time, stops, legs, load, cost, visits):
        if not stops:
            if best[0] is None or cost < best[0]:
                best[0], best[1] = cost, list(visits)
            return
        for i, (rid, pickup, target, _, since, weight) in enumerate(stops):
            if pickup and load >= vehicle.capacity:
                continue
            arrival = time + legs[i]
            total = cost + drive * legs[i] + weight * (arrival - since)
            if best[0] is not None and total > best[0]:
                continue
            rest = stops[:]
            if pickup:
                request = requests[rid]
                rest[i] = (rid, False, request.destination, arrival + request.max_ride, arrival, ride)
            else:
                del rest[i]
            ahead = []
            for stop in rest:
                leg = net.travel_time(target, stop[2])
                if arrival + leg > stop[3]:
                    break
                ahead.append(leg)
            else:
                visit = ((target, (rid,), ()),) if pickup else ((target, (), (rid,)),)
                extend(target, arrival, rest, ahead, load + (1 if pickup else -1), total, visits + visit)

    legs = [net.travel_time(node, stop[2]) for stop in stops]
    if all(time + leg <= stop[3] for leg, stop in zip(legs, stops)):
        extend(node, time, stops, legs, len(vehicle.onboard), 0, ())
    return None if best[0] is None else (best[1], best[0])


def build_rtv_graph(
    state: SystemState, net: Network, now: int, weights: CostWeights,
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

    The state keeps this build's `best_route` results. The next build
    reuses one if the vehicle's network, capacity, weights and riders
    (id, pickup time) are the same, its start moved from (n, t) to
    (n', t') with t' - t >= travel_time(n, n'), and the result is None
    or keeps its first arrival, at drive * (t' - t) less: no order
    arrives earlier, and each costs -drive * t' plus a factor shared by
    all times its first arrival plus a part the move leaves alone. A
    request's origin, destination, times and limits must never change.

    A state holding a shared store (`run_scenario`'s `shared_searches`)
    looks each search up there by its whole input, that context plus
    the bundle, before it carries or runs one, and records there every
    search it carries or runs. `best_route` reads nothing else, so a
    stored answer is exact for every run whose request ids name the
    same requests.
    """
    if max_bundle_size is not None and max_bundle_size < 1:
        raise ValueError("max_bundle_size must be positive or None")
    kept = kept_plans(state, net, now, weights)
    reach = divertable_vehicles(state, net, kept)
    plans: dict[frozenset[int], dict] = {}
    searches: dict[int, tuple] = {}  # id -> (net, capacity, weights, riders, start, results)
    carried: dict[int, tuple] = {}  # id -> the last build's (start, results), where they hold
    store = state._shared_searches
    for vid, vehicle in state.vehicles.items():
        last, (node, time) = state._searches.get(vid), kept[vid].start
        riders = frozenset((rid, state.requests[rid].pickup_time) for rid in vehicle.onboard)
        if last and last[3] == riders:
            riders = last[3]  # one object per rider set, which the store's keys share
        context = (net, vehicle.capacity, weights, riders, kept[vid].start)
        mine = searches[vid] = (*context, {} if store is None else store.setdefault(context, {}))
        # a move no faster than the network lets no visit order arrive earlier
        if last and last[:4] == mine[:4] and time - last[4][1] >= net.travel_time(last[4][0], node):
            carried[vid] = last[4:]

    def fit(members: frozenset[int], vids) -> dict:
        fits = {}
        for vid in vids:
            (node, time), results = searches[vid][4:]
            if members in results:  # a shared search of this very input
                found = results[members]
            else:
                (then_node, then), before = carried.get(vid, ((node, time), {}))
                found = before.get(members, ())  # () where the last build did not search
                first = found[0][0][0] if found else node
                if found and time + net.travel_time(node, first) == then + net.travel_time(then_node, first):
                    found = (found[0], found[1] - weights.drive * (time - then))
                elif found is not None:
                    found = best_route(state.vehicles[vid], members, now, net, state.requests, weights)
                results[members] = found
            if found is not None:
                fits[vid] = (partial(_plan, net, kept[vid].start, found[0], kept[vid].installed), found[1])
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
        seen, grown = set(), []
        for i, left in enumerate(level):
            for right in level[i + 1:]:
                union = left | right
                if len(union) != size or union in seen:
                    continue
                seen.add(union)
                subsets = [union - {rid} for rid in sorted(union)]
                if any(sub not in plans for sub in subsets):
                    continue
                shared = set(plans[subsets[0]]).intersection(*(plans[sub] for sub in subsets[1:]))
                fits = fit(union, sorted(shared))
                if fits:
                    plans[union] = fits
                    grown.append(union)
        level = grown

    if store is not None:  # keep no input that ran no search
        for mine in searches.values():
            if not mine[5]:
                store.pop(mine[:5], None)
    state._searches = searches
    return assemble_graph(state, list(reach), plans, kept)


def solve_pooling(graph: RTVGraph, frozen: bool = False) -> AssignmentSolution:
    """Pick at most one bundle per vehicle, covering each request once.

    The objective is lexicographic: keep previously assigned requests
    assigned, then cover as many requests as possible, then minimize
    total incremental cost. Among optima the solver prefers serving
    lower request ids, then the least sorted chain of (members, vehicle)
    choices, so runs with the same alternatives land on the same answer
    regardless of internal ordering.

    Each allowed (bundle, vehicle) choice weighs the integer
    `_ranked_choices` gives it, which packs the objective and the tie
    rule (see there); distinct solutions never tie, and on a singleton
    graph the least total is the matching `solve_hailing` returns.

    A dynamic program over the vehicles with a bundle, fewest options
    first, finds the least total. Its states map the taken requests a
    later vehicle could still take to the least total reaching them.
    Raises MatchingError when frozen commitments cannot all be kept at
    once.
    """
    ranked, committed = _ranked_choices(graph, frozen)
    # per vehicle with a bundle: (requests as a bitmask, weight, bundle
    # id) per option; a vehicle with none has nothing to decide
    choices: dict[int, list[tuple[int, int, int | None]]] = {}
    for vid, bid, mask, weight in ranked:
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

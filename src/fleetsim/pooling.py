"""Shared-ride dispatch: trip bundles, routing, and exact assignment.

Open requests are grouped into bundles a single vehicle could serve
together. Bundles are grown level by level, each size admitted only
when all of its sub-bundles proved workable, and each carries the
cheapest feasible visit sequence per candidate vehicle, scheduled only
when its route is read. A vehicle with nobody on board serves a lone
request as in single-rider mode, priced by `single_rider_plans`;
`best_route` searches the rest. A branch and bound search then picks
at most one bundle per vehicle, covering each request at most once,
under the same lexicographic priorities as the single-rider mode.
"""

from __future__ import annotations

from functools import partial

from .matching import (
    AssignmentSolution, Bundle, KeptPlan, MatchingError, RTVGraph, VBEdge, _plan, _solution_from,
    _vehicle_options, assemble_graph, kept_plans, reachable_vehicles, single_rider_plans,
)
# route_cost is unused here; perfbench/spans.py traces this binding
from .model import CostWeights, SystemState, Vehicle, plan_start, route_cost
from .network import Network


def divertable_vehicles(
    state: SystemState, net: Network, kept: dict[int, KeptPlan]
) -> dict[int, list[int]]:
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
    for rid, vids in reach.items():
        group = frozenset({rid})
        riderless = [vid for vid in vids if not kept[vid].visits]
        fits = single_rider_plans(net, weights, state.requests[rid], kept, riderless)
        fits.update(fit(group, [vid for vid in vids if kept[vid].visits]))
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
    """
    options = _vehicle_options(graph, frozen)
    order = graph.vehicle_ids
    prev_set = frozenset(
        rid for rid, vid in graph.prev_assigned.items() if vid is not None
    )
    # Flatten every allowed (bundle, vehicle) choice and sort by the
    # canonical tie key. Walking assignments as increasing chains of
    # these pairs visits complete solutions in exactly tie-key order,
    # so the first solution seen at any score is the one the tie rule
    # would pick, and an equal-bound subtree can be dropped whole
    # instead of enumerated for key comparison.
    pairs = sorted(
        ((tuple(sorted(graph.members(bid))), vid), vid, bid)
        for vid in order
        for bid in options[vid]
        if bid is not None
    )
    choices = [
        (
            vid,
            bid,
            graph.edge(bid, vid).cost,
            len(graph.members(bid) & prev_set),
            graph.members(bid),
        )
        for _, vid, bid in pairs
    ]
    mandatory = frozenset(vid for vid in order if None not in options[vid])

    # Per suffix k of `choices`: the requests it still covers (and which
    # of those were assigned before), each vehicle's largest bundle size
    # in it and their total, and every request's cost share in it, the
    # least cost // size over the suffix's bundles holding the request.
    # A bundle costs at least the sum of its members' shares, floor
    # division included, and one vehicle takes at most its largest
    # bundle, so the shares and capacities bound any completion from k
    # on. The shares of suffix k equal those of suffix share_from[k],
    # the nearest one that lowered a share; they are ranked cheapest
    # first only when a bound first needs them.
    total = len(choices)
    suffix_req: list[frozenset[int]] = [frozenset()] * (total + 1)
    suffix_prev: list[frozenset[int]] = [frozenset()] * (total + 1)
    suffix_caps: list[dict[int, int]] = [{}] * (total + 1)
    suffix_cap = [0] * (total + 1)
    share_from = [total] * (total + 1)
    caps = dict.fromkeys(order, 0)
    share: dict[int, int] = {}
    tables: dict[int, dict[int, int]] = {}
    for j in range(total - 1, -1, -1):
        vid, _, cost, _, members = choices[j]
        suffix_req[j] = suffix_req[j + 1] | members
        suffix_prev[j] = suffix_req[j] & prev_set
        suffix_cap[j] = suffix_cap[j + 1]
        if len(members) > caps[vid]:
            suffix_cap[j] += len(members) - caps[vid]
            caps = {**caps, vid: len(members)}
        suffix_caps[j] = caps
        share_from[j] = share_from[j + 1]
        each = cost // len(members)
        for rid in members:
            if rid not in share or each < share[rid]:
                share[rid] = each
                share_from[j] = j
        if share_from[j] == j:
            tables[j] = share.copy()
    rankings: dict[int, list[tuple[int, int]]] = {}

    def ranked_shares(k: int) -> list[tuple[int, int]]:
        j = share_from[k]
        ranked = rankings.get(j)
        if ranked is None:
            table = tables[j]
            ranked = rankings[j] = sorted(zip(table.values(), table))
        return ranked

    def beaten(best, k, used_req, used_veh, p, n, c) -> bool:
        """Whether `best` is at or below the floor on every completion
        from choices[k:], compared one priority at a time."""
        kept = -p - len(suffix_prev[k] - used_req)
        if kept != best[0]:
            return kept > best[0]
        open_count = len(suffix_req[k] - used_req)
        room = suffix_cap[k] - sum(map(suffix_caps[k].__getitem__, used_veh))
        extra = min(open_count, room)
        if -n - extra != best[1]:
            return -n - extra > best[1]
        low = c
        for s, rid in ranked_shares(k):
            if not extra:
                break
            if rid not in used_req:
                low += s
                extra -= 1
        return low >= best[2]

    incumbent: list = [None, None]  # score, chosen dict

    def walk(
        start: int,
        used_req: frozenset[int],
        used_veh: frozenset[int],
        chosen: dict[int, int],
        p: int,
        n: int,
        c: int,
    ):
        if mandatory <= used_veh:
            value = (-p, -n, c)
            if incumbent[0] is None or value < incumbent[0]:
                incumbent[0] = value
                incumbent[1] = dict(chosen)
        for k in range(start, total):
            vid, bid, cost, pm, members = choices[k]
            if vid in used_veh or used_req & members:
                continue
            # the bound only grows as k advances, hence the break; the
            # incumbent cannot change across the skipped conflicts
            if incumbent[0] is not None and beaten(
                incumbent[0], k, used_req, used_veh, p, n, c
            ):
                break
            chosen[vid] = bid
            walk(
                k + 1,
                used_req | members,
                used_veh | {vid},
                chosen,
                p + pm,
                n + len(members),
                c + cost,
            )
            del chosen[vid]

    walk(0, frozenset(), frozenset(), {}, 0, 0, 0)
    if incumbent[1] is None:  # each commitment can be kept, but not all at once
        raise MatchingError("no joint choice of bundles keeps every frozen commitment")
    return _solution_from(graph, incumbent[1])


"""Scenario assembly: demand, fleet, full runs, and the twin harness.

A scenario is a seeded, fully reproducible experiment. The twin harness
runs the same scenario once with early operator rejection and once with
silent walk-away expiry and compares the outcomes users can observe:
who got served, who left, when everyone was picked up and dropped off,
and how far each vehicle drove. Matching outcomes across every seed is
the whole point of the exercise.
"""

from __future__ import annotations

import json
import os
import random
import time as _time
from dataclasses import dataclass, field, fields, replace

from .engine import (
    EngineConfig,
    EngineError,
    Event,
    Mode,
    ObjectiveReport,
    Reassignment,
    RejectionPolicy,
    accumulate_objective,
    step,
)
from .model import Request, RequestStatus, SystemState, Vehicle, validate_state
from .network import Network, NetworkError


class ConfigError(ValueError):
    """A scenario configuration field is missing, malformed, or invalid."""


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one experiment."""

    seed: int = 0
    grid_width: int = 10
    grid_height: int = 10
    edge_list_path: str | None = None
    vehicle_count: int = 5
    vehicle_capacity: int = 1
    vehicle_positions: tuple[int, ...] | None = None
    rate: float = 1.0
    max_wait_low: int = 5
    max_wait_high: int = 5
    detour_factor: float = 1.0
    engine: EngineConfig = field(default_factory=lambda: EngineConfig(horizon=50))

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ConfigError("demand.rate must be non-negative")
        if self.vehicle_count < 0:
            raise ConfigError("fleet.vehicles must be non-negative")
        if self.vehicle_capacity < 1:
            raise ConfigError("fleet.capacity must be at least 1")
        if self.max_wait_low < 1 or self.max_wait_high < self.max_wait_low:
            raise ConfigError(
                "demand.max_wait_low/max_wait_high must satisfy 1 <= low <= high"
            )
        if self.detour_factor < 0:
            raise ConfigError("demand.detour_factor must be non-negative")

    def build_network(self) -> Network:
        if self.edge_list_path is not None:
            return Network.load_edge_list(self.edge_list_path)
        return Network.build_grid(self.grid_width, self.grid_height)


def generate_demand(cfg: ScenarioConfig, net: Network) -> list[Request]:
    """Seeded Poisson arrivals with uniform OD pairs over the network.

    Arrival instants are exponential gaps rounded down to integer time;
    everything lands within the horizon so each request is revealed by
    some batch. In hailing mode an OD pair whose direct trip is not
    longer than the patience window is resampled: a vehicle that takes
    a trip is busy past any other request's deadline, which is the
    regime the outcome-equivalence argument speaks about.

    The floor stands in for a bundle cap of 1. At cap 1 a vehicle cannot
    plan "serve r', then r" while r' only waits for it, so early
    rejection refuses r; once r' is on board, its dropoff is in the kept
    plan, r after it is a single-rider edge, and walk-away serves r
    late. Without the floor, hailing demand run in pooling mode at
    capacity 1 and cap 1 does this (seed 1000, requests 308-310).
    """
    rng = random.Random(cfg.seed)
    horizon_time = (cfg.engine.horizon - 1) * cfg.engine.batch_interval
    nodes = net.nodes
    requests = []
    rid = 1
    clock = 0.0
    while cfg.rate > 0:
        clock += rng.expovariate(cfg.rate)
        request_time = int(clock)
        if request_time > horizon_time:
            break
        max_wait = rng.randint(cfg.max_wait_low, cfg.max_wait_high)
        for _ in range(10_000):
            origin, destination = rng.sample(nodes, 2)
            direct = net.travel_time(origin, destination)
            # Global bound, not this request's own wait: a trip merely
            # longer than its own patience can still release a vehicle
            # inside a more patient rival's window.
            if cfg.engine.mode is Mode.HAILING and direct <= cfg.max_wait_high:
                continue
            break
        else:
            raise ConfigError(
                "demand: could not sample a trip longer than max_wait "
                f"{cfg.max_wait_high}; the network is too small for hailing"
            )
        max_ride = direct + int(cfg.detour_factor * direct)
        requests.append(
            Request(rid, origin, destination, request_time, max_wait, max_ride)
        )
        rid += 1
    return requests


def build_fleet(cfg: ScenarioConfig, net: Network) -> list[Vehicle]:
    """Initial vehicle placement, explicit or drawn from the seed."""
    if cfg.vehicle_positions is not None:
        positions = list(cfg.vehicle_positions)
        if len(positions) != cfg.vehicle_count:
            raise ConfigError(
                f"fleet.positions lists {len(positions)} nodes for "
                f"{cfg.vehicle_count} vehicles"
            )
        for node in positions:
            if not net.has_node(node):
                raise ConfigError(f"fleet.positions references unknown node {node}")
    else:
        # a separate integer-offset stream so demand sampling is not
        # disturbed by fleet size (string/tuple seeds would hash-randomize)
        rng = random.Random(cfg.seed + 2**48)
        positions = [rng.choice(net.nodes) for _ in range(cfg.vehicle_count)]
    return [
        Vehicle(id=vid, capacity=cfg.vehicle_capacity, position=node)
        for vid, node in enumerate(positions)
    ]


@dataclass
class Metrics:
    seed: int
    mode: str
    policy: str
    requests: int
    served: int
    left: int
    p_plus: int
    p_minus: int
    mean_wait: float
    mean_ride: float
    driven: int
    wallclock_ms: int


@dataclass
class RunResult:
    """One run's record. `batches` holds one row per batch: its index and
    its assignment problem's open requests, edges and assigned pairs."""

    config: ScenarioConfig
    state: SystemState
    events: list[Event]
    report: ObjectiveReport
    metrics: Metrics
    batches: list[dict[str, int]]
    start_positions: dict[int, int]

    @property
    def active_counts(self) -> list[int]:
        """Open requests in each batch's assignment problem."""
        return [row["active_requests"] for row in self.batches]


def run_scenario(
    cfg: ScenarioConfig, observer=None, *, shared_searches: dict | None = None
) -> RunResult:
    """Execute one full scenario: horizon batches plus the drain tail.

    Scenarios on one grid or edge-list text share one network, and with
    it every distance row an earlier scenario in the process filled.

    `shared_searches` is a route-search store (see `build_rtv_graph`)
    the run reads and adds to while it runs; the returned state does not
    keep it. Only runs whose requests match id for id, as the two runs
    of `twin_run` do, may share one. Without it a state keeps only its
    last batch's searches.
    """
    net = cfg.build_network()
    state = SystemState()
    state._shared_searches = shared_searches
    start_positions = {}
    for vehicle in build_fleet(cfg, net):
        start_positions[vehicle.id] = vehicle.position
        state.add_vehicle(vehicle)
    requests = generate_demand(cfg, net)
    for request in requests:
        state.add_request(request)

    started = _time.perf_counter()
    events: list[Event] = []
    batches: list[dict[str, int]] = []

    def counting_observer(ctx):
        batches.append(
            {
                "batch": ctx.batch,
                "active_requests": len(ctx.graph.request_ids),
                "edges": len(ctx.graph.edges),
                "assigned": len(ctx.solution.pairs),
            }
        )
        if observer is not None:
            observer(ctx)

    # after this batch count every request has expired or been dropped off
    settle = max(
        (r.latest_pickup + r.max_ride for r in requests),
        default=0,
    )
    limit = cfg.engine.horizon + settle // cfg.engine.batch_interval + 1
    for index in range(limit):
        events += step(state, cfg.engine, net, counting_observer)
        if index + 1 >= cfg.engine.horizon and state.settled():
            break
    else:
        unfinished = [
            r.id
            for r in state.requests.values()
            if r.status not in (RequestStatus.SERVED, RequestStatus.LEFT)
        ]
        if unfinished:
            raise EngineError(f"requests never settled: {unfinished}")
    state._shared_searches = None
    # each step checks only its live part of the state; check all of it once
    state.recheck_all()
    problems = validate_state(state, net)
    if problems:
        raise EngineError("final state is broken: " + "; ".join(problems))
    # every odometer starts at 0 (build_fleet), so their sum is the run's driving
    report = accumulate_objective(
        events, state.requests, sum(v.odometer for v in state.vehicles.values())
    )
    wallclock_ms = int((_time.perf_counter() - started) * 1000)

    served = [r for r in state.requests.values() if r.status is RequestStatus.SERVED]
    left = [r for r in state.requests.values() if r.status is RequestStatus.LEFT]
    metrics = Metrics(
        seed=cfg.seed,
        mode=cfg.engine.mode.value,
        policy=cfg.engine.rejection_policy.value,
        requests=len(requests),
        served=len(served),
        left=len(left),
        p_plus=report.p_plus_count,
        p_minus=report.p_minus_count,
        mean_wait=round(report.waiting_time / len(served), 4) if served else 0.0,
        mean_ride=round(report.riding_time / len(served), 4) if served else 0.0,
        driven=report.driven_time,
        wallclock_ms=wallclock_ms,
    )
    return RunResult(cfg, state, events, report, metrics, batches, start_positions)


@dataclass
class TwinOutcome:
    """Everything a user could notice about a run, for twin comparison."""

    served: dict[int, tuple[int, int]]
    left: set[int]
    odometers: dict[int, int]

    @classmethod
    def of(cls, result: RunResult) -> "TwinOutcome":
        served = {
            r.id: (r.pickup_time, r.dropoff_time)
            for r in result.state.requests.values()
            if r.status is RequestStatus.SERVED
        }
        left = {
            r.id
            for r in result.state.requests.values()
            if r.status is RequestStatus.LEFT
        }
        odometers = {v.id: v.odometer for v in result.state.vehicles.values()}
        return cls(served, left, odometers)


@dataclass
class TwinReportEntry:
    seed: int
    mode: str
    served_set_equal: bool
    left_set_equal: bool
    times_equal: bool
    odometers_equal: bool
    first_divergence: str | None
    reject: RunResult
    walkaway: RunResult

    @property
    def equal(self) -> bool:
        return self.first_divergence is None


@dataclass
class TheoremReport:
    entries: list[TwinReportEntry] = field(default_factory=list)

    @property
    def scenarios_run(self) -> int:
        return len(self.entries)

    @property
    def mismatches(self) -> list[tuple[int, str]]:
        return [
            (e.seed, e.first_divergence) for e in self.entries if not e.equal
        ]


def _first_divergence(reject: TwinOutcome, walkaway: TwinOutcome) -> str | None:
    for rid in sorted(set(reject.served) ^ set(walkaway.served)):
        side = "reject" if rid in reject.served else "walkaway"
        return f"request {rid} served only under {side}"
    for rid in sorted(set(reject.left) ^ set(walkaway.left)):
        side = "reject" if rid in reject.left else "walkaway"
        return f"request {rid} left only under {side}"
    for rid in sorted(reject.served):
        if reject.served[rid] != walkaway.served[rid]:
            return (
                f"request {rid} times differ: reject {reject.served[rid]} "
                f"vs walkaway {walkaway.served[rid]}"
            )
    for vid in sorted(reject.odometers):
        if reject.odometers[vid] != walkaway.odometers[vid]:
            return (
                f"vehicle {vid} odometer differs: reject {reject.odometers[vid]} "
                f"vs walkaway {walkaway.odometers[vid]}"
            )
    return None


def twin_run(cfg: ScenarioConfig, observers=(None, None)) -> TwinReportEntry:
    """Run the scenario under both policies and compare the outcomes.

    Both runs build the one shared network of `cfg`, so the second run
    reads the distance rows the first one filled. They also share one
    route-search store, so the walk-away run repeats no `best_route`
    search the early-rejection run made on the same input. The store
    lives until both runs end, and neither returned state keeps it.
    """
    reject_cfg = replace(
        cfg, engine=replace(cfg.engine, rejection_policy=RejectionPolicy.EARLY_REJECT)
    )
    walk_cfg = replace(
        cfg, engine=replace(cfg.engine, rejection_policy=RejectionPolicy.WALK_AWAY)
    )
    searches: dict = {}
    reject = run_scenario(reject_cfg, observers[0], shared_searches=searches)
    walkaway = run_scenario(walk_cfg, observers[1], shared_searches=searches)
    a, b = TwinOutcome.of(reject), TwinOutcome.of(walkaway)
    return TwinReportEntry(
        seed=cfg.seed,
        mode=cfg.engine.mode.value,
        served_set_equal=set(a.served) == set(b.served),
        left_set_equal=a.left == b.left,
        times_equal=a.served == b.served,
        odometers_equal=a.odometers == b.odometers,
        first_divergence=_first_divergence(a, b),
        reject=reject,
        walkaway=walkaway,
    )


# -- config files ----------------------------------------------------------------

_POLICY_ALIASES = {
    "early": RejectionPolicy.EARLY_REJECT,
    "early_reject": RejectionPolicy.EARLY_REJECT,
    "walkaway": RejectionPolicy.WALK_AWAY,
    "walk_away": RejectionPolicy.WALK_AWAY,
}


def parse_policy(value: str) -> RejectionPolicy:
    try:
        return _POLICY_ALIASES[value.strip().lower()]
    except KeyError:
        raise ValueError(
            f"{value!r} is not a rejection policy (early or walkaway)"
        ) from None


def _bundle_cap(value: str) -> int | None:
    if value.strip().lower() in ("none", "unlimited"):
        return None
    return int(value)


def _node_list(value: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in value.split(",") if tok.strip())


# every setting's dotted key -> (the config it sets, its field, its parser)
_KEYS = {
    "seed": ("scenario", "seed", int),
    "network.grid_width": ("scenario", "grid_width", int),
    "network.grid_height": ("scenario", "grid_height", int),
    "network.edge_list": ("scenario", "edge_list_path", str),
    "fleet.vehicles": ("scenario", "vehicle_count", int),
    "fleet.capacity": ("scenario", "vehicle_capacity", int),
    "fleet.positions": ("scenario", "vehicle_positions", _node_list),
    "demand.rate": ("scenario", "rate", float),
    "demand.max_wait_low": ("scenario", "max_wait_low", int),
    "demand.max_wait_high": ("scenario", "max_wait_high", int),
    "demand.detour_factor": ("scenario", "detour_factor", float),
    "engine.mode": ("engine", "mode", Mode),
    "engine.policy": ("engine", "rejection_policy", parse_policy),
    "engine.reassignment": ("engine", "reassignment", Reassignment),
    "engine.batch_interval": ("engine", "batch_interval", int),
    "engine.horizon": ("engine", "horizon", int),
    "engine.max_bundle_size": ("engine", "max_bundle_size", _bundle_cap),
}


def parse_config_text(
    text: str, path: str = "<string>", overrides=(), folder: str = ""
) -> ScenarioConfig:
    """Parse `key = value` lines with dotted keys into a checked ScenarioConfig.

    `overrides` are `(source, key, value)` settings, such as the CLI's
    `("--seed", "seed", "7")`. They apply after the lines and parse the
    same way, and an error names the line or the source. Keys set
    nowhere keep `ScenarioConfig()`'s defaults. A relative
    `network.edge_list` is read from `folder`, by default the working
    directory.
    """
    settings = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        settings.append((f"{path}:{lineno}", key, value))
    values: dict[str, dict[str, object]] = {"scenario": {}, "engine": {}}
    for source, key, value in [*settings, *overrides]:
        if key not in _KEYS:
            raise ConfigError(f"{source}: unknown key {key!r}")
        target, name, parse = _KEYS[key]
        try:
            values[target][name] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{source}: bad value for {key}: {exc}") from exc
    named = values["scenario"]
    if "edge_list_path" in named:
        named["edge_list_path"] = os.path.join(folder, named["edge_list_path"])
    base = ScenarioConfig()
    try:
        engine = replace(base.engine, **values["engine"])
        cfg = replace(base, engine=engine, **values["scenario"])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    _check(cfg)
    return cfg


def parse_config(path, overrides=()) -> ScenarioConfig:
    """`parse_config_text` of the file's text, which names edge lists
    relative to the file's folder."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, str(path), overrides, os.path.dirname(path))


def _check(cfg: ScenarioConfig) -> None:
    """Build the network and fleet once, then check the hailing premise:
    demand must admit trips longer than the patience window."""
    grid = cfg.edge_list_path is None
    key = "network.grid_width/grid_height" if grid else "network.edge_list"
    try:
        net = cfg.build_network()
    except (OSError, UnicodeDecodeError, NetworkError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    build_fleet(cfg, net)
    if cfg.engine.mode is not Mode.HAILING or cfg.rate == 0:
        return
    if net.diameter() <= cfg.max_wait_high:
        raise ConfigError(
            "demand.max_wait_high: no trip on this network is longer than "
            f"{cfg.max_wait_high}; hailing scenarios need trips that outlast "
            "the patience window"
        )


# -- emission ----------------------------------------------------------------

_CSV_COLUMNS = [f.name for f in fields(Metrics)]


def metrics_csv(rows: list[Metrics]) -> str:
    lines = [",".join(_CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(getattr(row, col)) for col in _CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def event_log_lines(result: RunResult) -> list[str]:
    """JSON-lines event log; identity excludes wallclock noise."""
    header = {
        "seed": result.config.seed,
        "mode": result.config.engine.mode.value,
        "policy": result.config.engine.rejection_policy.value,
        "vehicles": {str(vid): node for vid, node in result.start_positions.items()},
        "requests": result.metrics.requests,
    }
    lines = [json.dumps({"header": header}, sort_keys=True, separators=(",", ":"))]
    for event in result.events:
        lines.append(
            json.dumps(
                {
                    "batch": event.batch,
                    "kind": event.kind.value,
                    "request": event.request,
                    "vehicle": event.vehicle,
                    "time": event.time,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    return lines


def emit_metrics(results: list[RunResult], report: TheoremReport | None, out_dir) -> list[str]:
    """Write metrics CSV, per-run event logs, and the twin verdict."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    csv_path = os.path.join(out_dir, "metrics.csv")
    try:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(metrics_csv([r.metrics for r in results]))
        written.append(csv_path)
        for result in results:
            name = (
                f"events_{result.config.seed}_{result.config.engine.mode.value}"
                f"_{result.config.engine.rejection_policy.value}.jsonl"
            )
            log_path = os.path.join(out_dir, name)
            with open(log_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(event_log_lines(result)) + "\n")
            written.append(log_path)
        if report is not None:
            verdict_path = os.path.join(out_dir, "twin_report.json")
            payload = {
                "scenarios_run": report.scenarios_run,
                "mismatches": [
                    {"seed": seed, "divergence": text}
                    for seed, text in report.mismatches
                ],
                "entries": [
                    {
                        "seed": e.seed,
                        "mode": e.mode,
                        "served_set_equal": e.served_set_equal,
                        "left_set_equal": e.left_set_equal,
                        "times_equal": e.times_equal,
                        "odometers_equal": e.odometers_equal,
                    }
                    for e in report.entries
                ],
            }
            with open(verdict_path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            written.append(verdict_path)
    except OSError as exc:
        raise ConfigError(f"cannot write outputs under {out_dir}: {exc}") from exc
    return written

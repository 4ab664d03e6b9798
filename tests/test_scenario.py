"""Tests for scenario assembly, the twin harness, and the CLI."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from fleetsim.cli import main
from fleetsim.engine import EngineConfig, Mode, RejectionPolicy, accumulate_objective
from fleetsim.model import RequestStatus
from fleetsim.network import Network
from fleetsim.scenario import (
    ConfigError,
    ScenarioConfig,
    build_fleet,
    event_log_lines,
    generate_demand,
    metrics_csv,
    parse_config,
    parse_config_text,
    parse_policy,
    run_scenario,
    twin_run,
)
from oracles import late_assignments


def small_cfg(**kwargs):
    engine = kwargs.pop("engine", None) or EngineConfig(
        horizon=kwargs.pop("horizon", 30),
        mode=kwargs.pop("mode", Mode.HAILING),
        rejection_policy=kwargs.pop("policy", RejectionPolicy.EARLY_REJECT),
        max_bundle_size=kwargs.pop("max_bundle_size", None),
    )
    defaults = dict(
        seed=1, grid_width=8, grid_height=8, vehicle_count=3,
        rate=0.6, max_wait_low=3, max_wait_high=5,
    )
    defaults.update(kwargs)
    return ScenarioConfig(engine=engine, **defaults)


# -- demand ------------------------------------------------------------------


def test_demand_zero_rate_and_determinism():
    net = Network.build_grid(8, 8)
    assert generate_demand(small_cfg(rate=0.0), net) == []
    first = generate_demand(small_cfg(seed=42), net)
    second = generate_demand(small_cfg(seed=42), net)
    assert first == second
    assert first != generate_demand(small_cfg(seed=43), net)


def test_demand_count_concentrates_around_the_rate():
    cfg = ScenarioConfig(
        engine=EngineConfig(horizon=100),
        rate=2.0,
        grid_width=10,
        grid_height=10,
        max_wait_low=5,
        max_wait_high=8,
    )
    net = cfg.build_network()
    counts = []
    for seed in range(100):
        cfg.seed = seed
        counts.append(len(generate_demand(cfg, net)))
    assert all(140 <= c <= 260 for c in counts)
    assert 180 <= sum(counts) / len(counts) <= 220


def test_demand_respects_the_hailing_trip_premise():
    net = Network.build_grid(8, 8)
    cfg = small_cfg(seed=7, rate=2.0)
    for request in generate_demand(cfg, net):
        # every trip outlasts every patience window, not just its own:
        # otherwise a dropoff can free a vehicle inside a rival's window
        assert net.travel_time(request.origin, request.destination) > cfg.max_wait_high
        assert request.max_wait <= cfg.max_wait_high
    # pooling demand has no such restriction: short hops happen
    pooled = generate_demand(small_cfg(seed=7, rate=2.0, mode=Mode.POOLING), net)
    direct = [net.travel_time(r.origin, r.destination) for r in pooled]
    assert any(d <= r.max_wait for d, r in zip(direct, pooled))


def test_demand_arrivals_fit_the_horizon():
    net = Network.build_grid(8, 8)
    cfg = small_cfg(seed=3, rate=3.0, horizon=20)
    demand = generate_demand(cfg, net)
    assert demand
    assert all(0 <= r.request_time <= 19 for r in demand)
    assert [r.id for r in demand] == list(range(1, len(demand) + 1))


# -- fleet and config ----------------------------------------------------------


def test_fleet_positions_explicit_and_seeded():
    net = Network.build_grid(8, 8)
    cfg = small_cfg(vehicle_positions=(0, 5, 63), vehicle_count=3)
    fleet = build_fleet(cfg, net)
    assert [v.position for v in fleet] == [0, 5, 63]
    with pytest.raises(ConfigError, match="fleet.positions"):
        build_fleet(small_cfg(vehicle_positions=(0,), vehicle_count=3), net)
    with pytest.raises(ConfigError, match="unknown node"):
        build_fleet(small_cfg(vehicle_positions=(0, 5, 999), vehicle_count=3), net)
    seeded = build_fleet(small_cfg(), net)
    assert seeded == build_fleet(small_cfg(), net)
    assert all(net.has_node(v.position) for v in seeded)


def test_config_invariants():
    with pytest.raises(ConfigError, match="demand.rate"):
        small_cfg(rate=-1.0)
    with pytest.raises(ConfigError, match="fleet.capacity"):
        small_cfg(vehicle_capacity=0)
    with pytest.raises(ConfigError, match="max_wait"):
        small_cfg(max_wait_low=6, max_wait_high=3)


def test_parse_config_round_trip():
    text = """
    # twin fixture
    seed = 11
    network.grid_width = 6
    network.grid_height = 7
    fleet.vehicles = 4
    fleet.capacity = 2
    fleet.positions = 0, 5, 11, 40
    demand.rate = 1.5
    demand.max_wait_low = 3
    demand.max_wait_high = 4
    demand.detour_factor = 0.5
    engine.mode = pooling
    engine.policy = walkaway
    engine.reassignment = frozen
    engine.batch_interval = 1
    engine.horizon = 25
    engine.max_bundle_size = none
    """
    cfg = parse_config_text(text)
    assert cfg.seed == 11
    assert (cfg.grid_width, cfg.grid_height) == (6, 7)
    assert cfg.vehicle_positions == (0, 5, 11, 40)
    assert cfg.engine.mode is Mode.POOLING
    assert cfg.engine.rejection_policy is RejectionPolicy.WALK_AWAY
    assert cfg.engine.max_bundle_size is None
    assert cfg.engine.horizon == 25


def test_parse_config_starts_from_the_defaults_and_applies_overrides_last():
    assert parse_config_text("") == ScenarioConfig()
    cfg = parse_config_text(
        "seed = 4\nengine.policy = early\n",
        overrides=[("--seed", "seed", "9"), ("--policy", "engine.policy", "walk_away")],
    )
    assert cfg.seed == 9
    assert cfg.engine.rejection_policy is RejectionPolicy.WALK_AWAY
    with pytest.raises(ConfigError, match="^--seed: bad value for seed"):
        parse_config_text("seed = 4\n", overrides=[("--seed", "seed", "x")])


def test_parse_config_errors_name_the_field():
    with pytest.raises(ConfigError, match="demand.rate"):
        parse_config_text("demand.rate = -1\n")
    with pytest.raises(ConfigError, match="engine.mode"):
        parse_config_text("engine.mode = teleport\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("demand.color = blue\n")
    with pytest.raises(ConfigError, match="expected `key = value`"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="max_wait_high"):
        parse_config_text(
            "network.grid_width = 3\nnetwork.grid_height = 3\n"
            "demand.max_wait_low = 4\ndemand.max_wait_high = 9\n"
        )
    assert parse_policy("early") is RejectionPolicy.EARLY_REJECT
    with pytest.raises(ValueError, match="rejection policy"):
        parse_policy("never")


# -- runs ----------------------------------------------------------------------


def test_run_scenario_settles_every_request():
    result = run_scenario(small_cfg(seed=5, rate=1.2))
    assert result.metrics.requests == len(result.state.requests)
    assert result.metrics.served + result.metrics.left == result.metrics.requests
    for request in result.state.requests.values():
        assert request.status in (RequestStatus.SERVED, RequestStatus.LEFT)
    assert result.metrics.p_plus == 0
    assert result.metrics.driven == sum(
        v.odometer for v in result.state.vehicles.values()
    )
    assert len(result.active_counts) >= result.config.engine.horizon


class BatchRows:
    """Observer: one problem-size row per batch, read off its BatchContext."""

    def __init__(self):
        self.rows = []

    def __call__(self, ctx):
        self.rows.append(
            {
                "batch": ctx.batch,
                "active_requests": len(ctx.graph.request_ids),
                "edges": len(ctx.graph.edges),
                "assigned": len(ctx.solution.pairs),
            }
        )


@pytest.mark.parametrize("batch_interval", [1, 2, 3])
@pytest.mark.parametrize("mode", [Mode.HAILING, Mode.POOLING])
def test_run_record_agrees_with_the_state_and_an_observer(mode, batch_interval):
    pooling = mode is Mode.POOLING
    cfg = small_cfg(
        seed=7, rate=1.0, vehicle_count=4, vehicle_capacity=3 if pooling else 1,
        engine=EngineConfig(
            mode=mode, horizon=30, batch_interval=batch_interval,
            max_bundle_size=3 if pooling else None,
        ),
    )
    observers = (BatchRows(), BatchRows())
    entry = twin_run(cfg, observers)
    for result, observer in zip((entry.reject, entry.walkaway), observers):
        state, metrics = result.state, result.metrics
        driven = sum(v.odometer for v in state.vehicles.values())
        assert result.report == accumulate_objective(result.events, state.requests, driven)
        served = [r for r in state.requests.values() if r.status is RequestStatus.SERVED]
        assert served and metrics.served == len(served)
        waits = [r.pickup_time - r.request_time for r in served]
        rides = [r.dropoff_time - r.pickup_time for r in served]
        assert metrics.mean_wait == round(sum(waits) / len(waits), 4)
        assert metrics.mean_ride == round(sum(rides) / len(rides), 4)
        assert metrics.p_plus == result.report.p_plus_count
        assert metrics.p_minus == metrics.left > 0
        assert metrics.driven == driven
        assert result.batches == observer.rows
        assert [row["batch"] for row in result.batches] == list(range(len(result.batches)))
        assert result.active_counts == [row["active_requests"] for row in observer.rows]


def test_run_scenario_with_no_vehicles_drops_everyone():
    result = run_scenario(small_cfg(seed=5, rate=0.8, vehicle_count=0))
    assert result.metrics.requests > 0
    assert result.metrics.served == 0
    assert result.metrics.left == result.metrics.requests


def test_twin_run_outcomes_match():
    for seed in (2, 9, 14):
        entry = twin_run(small_cfg(seed=seed, rate=1.5, vehicle_count=4))
        assert entry.equal, entry.first_divergence
        assert entry.served_set_equal and entry.left_set_equal
        assert entry.times_equal and entry.odometers_equal
        assert late_assignments(entry.walkaway.events) == []
        # the rejecting operator never faces a larger problem
        reject, walk = entry.reject.active_counts, entry.walkaway.active_counts
        for i in range(max(len(reject), len(walk))):
            r = reject[i] if i < len(reject) else 0
            w = walk[i] if i < len(walk) else 0
            assert r <= w


def test_twin_run_pooling_outcomes_match():
    cfg = small_cfg(
        seed=21, rate=1.0, vehicle_count=4, mode=Mode.POOLING,
        max_bundle_size=3, vehicle_capacity=3,
    )
    entry = twin_run(cfg)
    assert entry.equal, entry.first_divergence


def test_twin_run_builds_one_network_for_both_runs(monkeypatch):
    cfg = small_cfg(
        seed=21, rate=1.0, vehicle_count=4, mode=Mode.POOLING,
        max_bundle_size=3, vehicle_capacity=3,
    )
    alone = [
        event_log_lines(run_scenario(replace(cfg, engine=replace(cfg.engine, rejection_policy=policy))))
        for policy in (RejectionPolicy.EARLY_REJECT, RejectionPolicy.WALK_AWAY)
    ]
    built = []
    real_init = Network.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Network, "_shared", {})
    monkeypatch.setattr(Network, "__init__", counting_init)
    entry = twin_run(cfg)
    assert built == [1]
    assert [event_log_lines(entry.reject), event_log_lines(entry.walkaway)] == alone


def test_a_second_twin_run_builds_no_network_and_runs_no_dijkstra(monkeypatch):
    # every run on one grid shares its network and the rows filled so far
    cfg = small_cfg(seed=23, rate=1.0, vehicle_count=4, mode=Mode.POOLING, vehicle_capacity=3)
    first = twin_run(cfg)
    built, dijkstras = [], []
    real_init, real_dijkstra = Network.__init__, Network._dijkstra

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    def counting_dijkstra(self, *args):
        dijkstras.append(1)
        return real_dijkstra(self, *args)

    monkeypatch.setattr(Network, "__init__", counting_init)
    monkeypatch.setattr(Network, "_dijkstra", counting_dijkstra)
    second = twin_run(cfg)
    assert built == [] and dijkstras == []
    assert [event_log_lines(run) for run in (second.reject, second.walkaway)] == [
        event_log_lines(run) for run in (first.reject, first.walkaway)
    ]


def test_event_logs_are_reproducible_and_ordered():
    cfg = small_cfg(seed=4, rate=1.0)
    lines = event_log_lines(run_scenario(cfg))
    again = event_log_lines(run_scenario(cfg))
    assert lines == again
    header = json.loads(lines[0])
    assert header["header"]["seed"] == 4
    batches = [json.loads(line)["batch"] for line in lines[1:]]
    assert batches == sorted(batches)


def test_event_log_header_reads_the_runs_start_positions(monkeypatch):
    cfg = small_cfg(seed=4, rate=1.0)
    result = run_scenario(cfg)
    fleet = build_fleet(cfg, cfg.build_network())
    assert any(result.state.vehicles[v.id].position != v.position for v in fleet)
    built = []
    real_init = Network.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Network, "__init__", counting_init)
    lines = event_log_lines(result)
    assert built == []
    assert json.loads(lines[0])["header"]["vehicles"] == {str(v.id): v.position for v in fleet}


def test_metrics_csv_shape():
    result = run_scenario(small_cfg(seed=5, rate=0.5))
    text = metrics_csv([result.metrics])
    lines = text.strip().splitlines()
    assert lines[0].startswith("seed,mode,policy,requests,served,left")
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "5"
    assert metrics_csv([]).strip() == lines[0]


# -- cli -------------------------------------------------------------------------


def test_cli_run_twin_sweep_validate(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text(
        "seed = 3\nnetwork.grid_width = 8\nnetwork.grid_height = 8\n"
        "fleet.vehicles = 3\ndemand.rate = 1.0\n"
        "demand.max_wait_low = 3\ndemand.max_wait_high = 5\n"
        "engine.horizon = 25\n"
    )
    out = tmp_path / "out"

    assert main(["validate", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "seed=3" in printed and "served=" in printed
    assert (out / "metrics.csv").exists()
    assert (out / "events_3_hailing_early_reject.jsonl").exists()

    assert main(["twin", "--config", str(config), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "twin=ok" in printed
    assert (out / "twin_report.json").exists()
    verdict = json.loads((out / "twin_report.json").read_text())
    assert verdict["mismatches"] == []

    assert (
        main(
            [
                "twin", "--config", str(config), "--seed", "3", "--count", "2",
                "--out", str(out), "--dump-graphs",
            ]
        )
        == 0
    )
    printed = capsys.readouterr().out
    assert "seed=3 " in printed and "seed=4 " in printed
    assert (out / "graphs_3_hailing_early_reject.jsonl").exists()
    assert (out / "graphs_4_hailing_walk_away.jsonl").exists()

    # policy and mode overrides reach the engine, in either of the file's spellings
    for policy in ("walkaway", "walk_away"):
        assert main(["run", "--config", str(config), "--policy", policy]) == 0
        printed = capsys.readouterr().out
        assert "policy=walk_away" in printed
    assert main(["run", "--config", str(config), "--mode", "pooling"]) == 0
    assert "mode=pooling" in capsys.readouterr().out


def _json_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_cli_graph_dumps_are_the_run_records(tmp_path, capsys):
    config = tmp_path / "pooling.cfg"
    config.write_text(
        "seed = 3\nnetwork.grid_width = 8\nnetwork.grid_height = 8\n"
        "fleet.vehicles = 4\nfleet.capacity = 3\ndemand.rate = 1.0\n"
        "demand.max_wait_low = 3\ndemand.max_wait_high = 5\n"
        "engine.mode = pooling\nengine.batch_interval = 2\n"
        "engine.max_bundle_size = 3\nengine.horizon = 20\n"
    )
    cfg = parse_config(config)
    out = tmp_path / "out"

    assert main(["run", "--config", str(config), "--out", str(out / "run"), "--dump-graphs"]) == 0
    rows = _json_lines(out / "run" / "graphs_3_pooling_early_reject.jsonl")
    assert rows == run_scenario(cfg).batches

    args = ["twin", "--config", str(config), "--seed", "3", "--count", "2"]
    assert main(args + ["--out", str(out / "twin"), "--dump-graphs"]) == 0
    for seed in (3, 4):
        entry = twin_run(replace(cfg, seed=seed))
        for result in (entry.reject, entry.walkaway):
            policy = result.config.engine.rejection_policy.value
            assert _json_lines(out / "twin" / f"graphs_{seed}_pooling_{policy}.jsonl") == result.batches
    capsys.readouterr()


def test_cli_validation_failures_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("demand.rate = -2\n")
    assert main(["validate", "--config", str(bad)]) == 1
    assert "demand.rate" in capsys.readouterr().err
    missing_out = main(["run", "--dump-graphs"])
    assert missing_out == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs --out" in captured.err


def _single_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


@pytest.mark.parametrize("verb", ["run", "twin", "validate"])
def test_cli_missing_files_exit_one_without_a_traceback(tmp_path, capsys, verb):
    missing = tmp_path / "missing.cfg"
    assert main([verb, "--config", str(missing)]) == 1
    assert "cannot read config file" in _single_error_line(capsys)

    config = tmp_path / "edges.cfg"
    config.write_text(f"network.edge_list = {tmp_path / 'missing.txt'}\n")
    assert main([verb, "--config", str(config)]) == 1
    assert "network.edge_list" in _single_error_line(capsys)


def test_cli_validate_builds_the_network_and_places_the_fleet(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1 1\n1 2 1\n")
    config = tmp_path / "pooling.cfg"
    config.write_text(f"network.edge_list = {edges}\nengine.mode = pooling\n")
    assert main(["validate", "--config", str(config)]) == 1
    line = _single_error_line(capsys)
    assert "network.edge_list" in line and "not strongly connected" in line

    config.write_text("fleet.vehicles = 2\nfleet.positions = 0, 100\n")
    assert main(["validate", "--config", str(config)]) == 1
    assert "fleet.positions references unknown node 100" in _single_error_line(capsys)


def test_cli_twin_has_no_policy_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["twin", "--policy", "walkaway"])
    assert exc.value.code == 2
    assert "--policy" in capsys.readouterr().err


def test_cli_mode_override_is_checked_against_the_premise(tmp_path, capsys):
    lines = (
        "network.grid_width = 3\nnetwork.grid_height = 2\n"
        "demand.max_wait_low = 3\ndemand.max_wait_high = 5\nengine.horizon = 10\n"
    )
    pooling = tmp_path / "pooling.cfg"
    pooling.write_text(lines + "engine.mode = pooling\n")
    hailing = tmp_path / "hailing.cfg"
    hailing.write_text(lines + "engine.mode = hailing\n")
    assert main(["validate", "--config", str(pooling)]) == 0
    capsys.readouterr()
    assert main(["validate", "--config", str(hailing)]) == 1
    premise = _single_error_line(capsys)
    assert "demand.max_wait_high" in premise
    assert main(["run", "--config", str(pooling), "--mode", "hailing"]) == 1
    assert _single_error_line(capsys) == premise


def test_cli_flag_errors_name_the_flag(capsys):
    assert main(["run", "--seed", "x"]) == 1
    assert _single_error_line(capsys).startswith("error: --seed: bad value for seed")
    assert main(["run", "--policy", "never"]) == 1
    assert _single_error_line(capsys).startswith("error: --policy: bad value for engine.policy")
    assert main(["twin", "--mode", "teleport"]) == 1
    assert _single_error_line(capsys).startswith("error: --mode: bad value for engine.mode")
    assert main(["twin", "--count", "0"]) == 1
    assert "--count" in _single_error_line(capsys)

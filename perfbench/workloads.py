"""The benchmark's workloads: fixed, seeded lists of twin-pair configs.

A workload is a block of consecutive scenario seeds and a function that
turns one seed into a `ScenarioConfig`. The config builders take the
imported `fleetsim` package as an argument, because the benchmark times
that import as part of set-up and so imports the package afresh.

`hailing_cfg` and `pooling_cfg` are the acceptance gate's criterion 1
and criterion 2 scenarios (tests/test_acceptance.py), copied here so
the benchmark depends only on the package's public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


def hailing_cfg(fs, seed: int):
    return fs.ScenarioConfig(
        seed=seed,
        grid_width=10,
        grid_height=10,
        vehicle_count=5 + seed % 16,
        vehicle_capacity=1,
        rate=0.5 + (seed % 26) / 10,
        max_wait_low=5,
        max_wait_high=8,
        engine=fs.EngineConfig(mode=fs.Mode.HAILING, horizon=200),
    )


def pooling_cfg(fs, seed: int):
    return fs.ScenarioConfig(
        seed=seed,
        grid_width=10,
        grid_height=10,
        vehicle_count=6 + seed % 11,
        vehicle_capacity=4,
        rate=0.5 + (seed % 11) / 10,
        max_wait_low=4,
        max_wait_high=7,
        engine=fs.EngineConfig(mode=fs.Mode.POOLING, horizon=200, max_bundle_size=3),
    )


def city_cfg(fs, seed: int):
    # 1,600 nodes is above the network's all-pairs table limit (1,024),
    # so every travel-time query goes through per-node lazy Dijkstra.
    # Runnable, but not in BENCHMARK.json's gated list: its step p99 is
    # too unsteady for a bound (perfbench/layers.json says why).
    return fs.ScenarioConfig(
        seed=seed,
        grid_width=40,
        grid_height=40,
        vehicle_count=60,
        vehicle_capacity=1,
        rate=2.0,
        max_wait_low=5,
        max_wait_high=8,
        engine=fs.EngineConfig(mode=fs.Mode.HAILING, horizon=500),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    first_seed: int
    pairs: int
    make: Callable

    def configs(self, fs, first_seed: int | None = None) -> list:
        start = self.first_seed if first_seed is None else first_seed
        return [self.make(fs, seed) for seed in range(start, start + self.pairs)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hailing-twins", 1000, 10, hailing_cfg),
        Workload("pooling-twins", 2000, 10, pooling_cfg),
        Workload("hailing-city", 3000, 1, city_cfg),
    )
}

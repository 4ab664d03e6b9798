"""Event-log digests pinned for configurations the benchmark does not run.

Each case runs one short twin pair and compares the sha256 of both
event logs with the value recorded when the case was added. A change
to how the engine moves vehicles, schedules stops or breaks ties shows
up here as a changed digest, outside the benchmark's own configuration:
`batch_interval > 1`, frozen pooling, uncapped bundles and a directed
network with non-unit edge times.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from fleetsim.engine import EngineConfig, Mode, Reassignment
from fleetsim.network import grid_node
from fleetsim.scenario import ScenarioConfig, event_log_lines, twin_run


def _directed_grid(path, width: int, height: int, seed: int) -> str:
    """A grid whose two directions of each street draw times 1-4 apiece."""
    rng = random.Random(seed)
    lines = []
    for y in range(height):
        for x in range(width):
            a = grid_node(width, x, y)
            for b in (
                grid_node(width, x + 1, y) if x + 1 < width else None,
                grid_node(width, x, y + 1) if y + 1 < height else None,
            ):
                if b is not None:
                    lines.append(f"{a} {b} {rng.randint(1, 4)}")
                    lines.append(f"{b} {a} {rng.randint(1, 4)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _case(name: str, tmp_path) -> ScenarioConfig:
    common = dict(grid_width=8, grid_height=8, vehicle_count=4, max_wait_low=3, max_wait_high=6)
    if name == "hailing-interval-3":
        return ScenarioConfig(
            seed=1001, rate=0.8, vehicle_capacity=1, **common,
            engine=EngineConfig(mode=Mode.HAILING, batch_interval=3, horizon=60),
        )
    if name == "pooling-interval-2-frozen":
        return ScenarioConfig(
            seed=2001, rate=1.2, vehicle_capacity=3, **common,
            engine=EngineConfig(
                mode=Mode.POOLING, batch_interval=2, horizon=60,
                reassignment=Reassignment.FROZEN, max_bundle_size=3,
            ),
        )
    if name == "pooling-uncapped":
        return ScenarioConfig(
            seed=2002, rate=1.2, vehicle_capacity=3, **common,
            engine=EngineConfig(mode=Mode.POOLING, horizon=60, max_bundle_size=None),
        )
    assert name == "pooling-directed"
    return ScenarioConfig(
        seed=2003, rate=1.0, vehicle_capacity=3, **common,
        edge_list_path=_directed_grid(tmp_path / "directed.txt", 6, 6, seed=7),
        engine=EngineConfig(mode=Mode.POOLING, horizon=60, max_bundle_size=3),
    )


# (early rejection, walk-away) log digests per case
PINNED = {
    "hailing-interval-3": (
        "cc9da38ec8a52c3a990aea4241f96ef047f6e144839fce42b489a52aa08b0a9a",
        "485955b7095e5af07597eadf3a03ed4b88e18885f32461560bb4b9486e372cd6",
    ),
    "pooling-interval-2-frozen": (
        "d216146e2c42447459ecc6049718ae790afe6df409173e5a498384ca4930b3a9",
        "ec3acc72141bfc677a5be541b5e0185b4ae17ec9b1e9583135011b01dd6645ef",
    ),
    "pooling-uncapped": (
        "3128b1a1a52085c9d9a0af9c99ae53bcfa7f4937cdeb34e131b7ea56d84e0175",
        "a6a47e456ba27f3e11c24c13872597cb51f435083b1948d909e30acda229678c",
    ),
    "pooling-directed": (
        "0d4add99d9dd15c58f6c2e1136e55c058b5eec62f19f55c151ca1584d6da57ad",
        "093a20a65add4b6665f9a169b1798d17f02c43527ab81213c9ebea7c90ae2cd4",
    ),
}


def _digest(result) -> str:
    return hashlib.sha256("\n".join(event_log_lines(result)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_event_logs_match_their_pinned_digests(name, tmp_path):
    entry = twin_run(_case(name, tmp_path))
    assert entry.equal
    assert len(entry.reject.events) > 50
    assert (_digest(entry.reject), _digest(entry.walkaway)) == PINNED[name]

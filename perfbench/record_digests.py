"""Record the reference event-log digests of every workload's pinned block.

    python3 perfbench/record_digests.py

Run from the repository root. It runs each pinned twin pair once and
writes perfbench/digests.json: workload -> scenario seed -> the sha256
of the early-rejection and walk-away event logs. The benchmark compares
every pair it runs against these. Record them only from a commit whose
event logs are the reference; the event logs are meant to stay byte
identical across refactors and optimizations.
"""

from __future__ import annotations

import json

from run import DIGESTS, import_fleetsim, pair_digests
from workloads import WORKLOADS


def main() -> None:
    fs = import_fleetsim()
    recorded = {}
    for name, workload in sorted(WORKLOADS.items()):
        recorded[name] = {}
        for cfg in workload.configs(fs):
            entry = fs.twin_run(cfg)
            if not entry.equal:
                raise SystemExit(f"{name} seed {cfg.seed}: {entry.first_divergence}")
            recorded[name][str(cfg.seed)] = list(pair_digests(fs, entry))
            print(name, cfg.seed, *recorded[name][str(cfg.seed)])
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

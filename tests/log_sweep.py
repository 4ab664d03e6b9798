"""Digest sweep over 720 runs: event logs, objective reports, metrics rows.

A refactor that should not change behaviour must leave every digest
here unchanged. The sweep runs the acceptance gate's criterion 1 and 2
scenarios (hailing seeds 1000-1029, pooling seeds 2000-2029) with
`batch_interval` 1-3, allowed and frozen reassignment, each as a twin
pair (early rejection and walk-away). Per run it hashes the event log,
`repr` of the `RunResult.report` and the metrics row without
`wallclock_ms`.

Run from the repository root:

    python3 tests/log_sweep.py --check    # compare with tests/log_sweep.json
    python3 tests/log_sweep.py --record   # rewrite tests/log_sweep.json

`--check` lists every run that differs, with the parts that differ,
then their count, and exits 1 if any does. The file name
does not match `test_*.py`, so pytest does not collect it; a full sweep
takes about two minutes on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from fleetsim.engine import Reassignment  # noqa: E402
from fleetsim.scenario import event_log_lines, twin_run  # noqa: E402
from test_acceptance import hailing_cfg, pooling_cfg  # noqa: E402

REFERENCE = os.path.join(HERE, "log_sweep.json")


def _configs():
    for make, seeds in ((hailing_cfg, range(1000, 1030)), (pooling_cfg, range(2000, 2030))):
        for seed in seeds:
            for interval in (1, 2, 3):
                for reassignment in Reassignment:
                    cfg = make(seed)
                    engine = replace(cfg.engine, batch_interval=interval, reassignment=reassignment)
                    yield replace(cfg, engine=engine)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sweep():
    """Yield (run name, {part: digest}) for every run, in a fixed order."""
    for cfg in _configs():
        entry = twin_run(cfg)
        for result in (entry.reject, entry.walkaway):
            engine = result.config.engine
            name = (
                f"{engine.mode.value}-{cfg.seed}-interval-{engine.batch_interval}"
                f"-{engine.reassignment.value}-{engine.rejection_policy.value}"
            )
            yield name, {
                "log": _digest("\n".join(event_log_lines(result))),
                "report": _digest(repr(result.report)),
                "metrics": _digest(repr(replace(result.metrics, wallclock_ms=0))),
            }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--record", action="store_true", help="write the reference digests")
    action.add_argument("--check", action="store_true", help="compare with the reference")
    args = parser.parse_args(argv)
    if args.record:
        digests = dict(sweep())
        lines = [f"{json.dumps(name)}: {json.dumps(digests[name], sort_keys=True)}" for name in sorted(digests)]
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"recorded {len(digests)} runs in {REFERENCE}")
        return 0
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    seen = differing = 0
    for name, parts in sweep():
        seen += 1
        want = reference.get(name)
        if want != parts:
            differing += 1
            differ = sorted(k for k in parts if want is None or want.get(k) != parts[k])
            print(f"differs: {name} ({', '.join(differ)})", flush=True)
    if seen != len(reference):
        print(f"the sweep ran {seen} runs, the reference holds {len(reference)}")
        return 1
    if differing:
        print(f"{differing} of {seen} runs differ from {REFERENCE}")
        return 1
    print(f"all {seen} runs match {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Twin-battery benchmark for fleetsim.

Runs one workload's fixed list of twin pairs (early rejection against
walk-away) through the public `twin_run` API, checks every pair's
outcome, and prints each metric by name with its unit. The last line
of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Run from the repository root, which must hold the package sources in
./src (nothing needs building):

    python3 perfbench/run.py --workload hailing-twins --seed 1 --seconds 30 --trace 0

With --trace 0 a run repeats the workload in passes until --seconds
have gone by and reports the end-to-end metrics. With --trace 1 it
alternates untraced and traced passes and reports the per-layer
metrics; the spans are written to perfbench/out/.

`--seed` fixes the order the pairs run in within each pass; the
scenarios themselves come from the workload's seed block, pinned by
default and chosen with `--block FIRST_SEED`. Each pair's event logs
are hashed outside the timed window and compared with the digests
recorded in perfbench/digests.json (for seeds recorded there), between
passes, and between traced and untraced passes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")

# Every run compiles the package from source, so the import measured in
# set-up does not depend on bytecode caches left by earlier runs.
sys.dont_write_bytecode = True
sys.pycache_prefix = os.path.join(HERE, "out", "no-pycache")

from spans import Tracer, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")
SPANS_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 7
# A twin pair that runs longer than this is recorded as "dnf". The whole
# run also stops starting work after RUN_BUDGET_S, so it always ends in
# well under three minutes.
PAIR_CAP_S = 60.0
RUN_BUDGET_S = 150.0


class PairTimeout(BaseException):
    """Raised from SIGALRM inside a twin pair that outruns its cap.

    A BaseException, so that no `except Exception` inside the package
    under test can swallow it.
    """


def _on_alarm(signum, frame):
    raise PairTimeout


def import_fleetsim():
    """Import fleetsim afresh from ./src, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "fleetsim" or m.startswith("fleetsim.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    fs = importlib.import_module("fleetsim")
    if not os.path.abspath(fs.__file__).startswith(SRC + os.sep):
        raise ImportError(f"fleetsim imported from {fs.__file__}, not from {SRC}")
    return fs


def pair_digests(fs, entry) -> tuple[str, str]:
    """sha256 of each twin's JSON-lines event log."""
    return tuple(
        hashlib.sha256("\n".join(fs.scenario.event_log_lines(run)).encode()).hexdigest()
        for run in (entry.reject, entry.walkaway)
    )


def set_up(workload, block):
    """Import fleetsim and build the workload's networks and demand.

    Repeated SETUP_REPEATS times; returns the last import, the configs
    and the set-up times.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        fs = import_fleetsim()
        configs = workload.configs(fs, block)
        for cfg in configs:
            fs.generate_demand(cfg, cfg.build_network())
        times.append(time.perf_counter() - started)
    return fs, configs, times


class Battery:
    """Runs passes over the pairs and keeps what each pass measured."""

    def __init__(self, fs, configs, references, seed, deadline):
        self.fs = fs
        self.configs = configs
        self.references = references
        self.rng = random.Random(seed)
        self.deadline = deadline
        self.tracer = Tracer(fs)
        self.passes = []
        self.digests = {}
        self.attempted = 0
        self.failures = []  # (pass, seed, what)
        self.wrong = False
        self._steps = None
        timed_step = fs.scenario.step

        def step(*args, **kwargs):
            started = time.perf_counter_ns()
            result = timed_step(*args, **kwargs)
            self._steps.append(time.perf_counter_ns() - started)
            return result

        fs.scenario.step = step

    def run_pass(self, traced: bool) -> None:
        number = len(self.passes)
        record = {"traced": traced, "pair_s": {}, "steps": {}}
        if traced:
            self.tracer.reset()
        order = list(self.configs)
        self.rng.shuffle(order)
        for cfg in order:
            self.attempted += 1
            self._steps = record["steps"][cfg.seed] = []
            record["pair_s"][cfg.seed] = self._run_pair(cfg, number, traced)
        if traced:
            record["layers"] = self.tracer.layer_metrics()
        self.passes.append(record)

    def _run_pair(self, cfg, number: int, traced: bool) -> float:
        cap = min(PAIR_CAP_S, self.deadline - time.monotonic())
        if cap <= 0:
            self.failures.append((number, cfg.seed, "dnf: run budget spent"))
            return 0.0
        if traced:
            self.tracer.attach(f"{number}:{cfg.seed}")
        entry = None
        signal.setitimer(signal.ITIMER_REAL, cap)
        started = time.perf_counter()
        try:
            entry = self.fs.twin_run(cfg)
        except PairTimeout:
            self.failures.append((number, cfg.seed, f"dnf: over the {cap:.3g} s cap"))
        except Exception:
            self.failures.append((number, cfg.seed, "raised"))
            self.wrong = True
            traceback.print_exc(file=sys.stderr)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - started
            if traced:
                self.tracer.detach()
        if entry is not None:
            self._check(entry, number, cfg.seed)
        return elapsed

    def _check(self, entry, number: int, seed: int) -> None:
        digests = pair_digests(self.fs, entry)
        problem = None
        if not entry.equal:
            problem = f"twins diverge: {entry.first_divergence}"
        elif seed in self.references and list(digests) != self.references[seed]:
            problem = "event-log digest differs from the recorded reference"
        elif self.digests.setdefault(seed, digests) != digests:
            problem = "event-log digest differs from an earlier pass"
        if problem is not None:
            self.failures.append((number, seed, problem))
            self.wrong = True

    def pass_seconds(self, traced: bool) -> list[float]:
        return [sum(p["pair_s"].values()) for p in self.passes if p["traced"] == traced]


def end_to_end(battery: Battery, setup_times) -> tuple[dict, int]:
    """End-to-end metrics from the untraced passes, and the step sample count."""
    untraced = [p for p in battery.passes if not p["traced"]]
    # per pair, the median over passes, so one disturbed pair in one
    # pass does not move the total
    seeds = untraced[0]["pair_s"]
    wall = sum(statistics.median(p["pair_s"][s] for p in untraced) for s in seeds)
    # A pair runs the same batches in every pass, so each batch's latency
    # is likewise its median over passes; that keeps a stall in one pass
    # out of the tail.
    steps = []
    for seed in seeds:
        runs = [p["steps"][seed] for p in untraced]
        if len({len(r) for r in runs}) == 1:
            steps += [statistics.median(batch) for batch in zip(*runs)]
        else:  # a pair cut off by the cap ran fewer batches
            steps += [ns for r in runs for ns in r]
    batches = statistics.median(sum(map(len, p["steps"].values())) for p in untraced)
    return {
        "wall_s": (wall, "s"),
        "batches_per_s": (batches / wall, "1/s"),
        "step_ms_p50": (percentile(steps, 0.50) / 1e6, "ms"),
        "step_ms_p99": (percentile(steps, 0.99) / 1e6, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }, len(steps)


def per_layer(battery: Battery) -> dict:
    """Per-layer metrics: medians over the traced passes, whose counts must agree."""
    traced = [p["layers"] for p in battery.passes if p["traced"]]
    metrics = {}
    for name, (value, unit) in traced[0].items():
        values = [layers[name][0] for layers in traced]
        if unit == "count" and len(set(values)) > 1:
            battery.failures.append((None, None, f"{name} differs between traced passes"))
            battery.wrong = True
        metrics[name] = (values[0] if unit == "count" else statistics.median(values), unit)
    overhead = statistics.median(battery.pass_seconds(True)) / statistics.median(
        battery.pass_seconds(False)
    )
    metrics["trace_overhead_ratio"] = (overhead - 1, "ratio")
    return metrics


def load_references(workload) -> dict[int, list[str]]:
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh).get(workload.name, {})
    return {int(seed): digests for seed, digests in recorded.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="orders the pairs in each pass")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long to keep running passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--block", type=int, default=None,
        help="first scenario seed of the workload's block (default: the pinned block)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    workload = WORKLOADS[args.workload]
    try:
        fs, configs, setup_times = set_up(workload, args.block)
        references = load_references(workload)
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot set up {workload.name}: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    battery = Battery(fs, configs, references, args.seed, deadline)

    started = time.monotonic()
    while True:
        battery.run_pass(traced=bool(args.trace) and len(battery.passes) % 2 == 1)
        enough = len(battery.passes) >= (2 if args.trace else 1)
        if enough and time.monotonic() - started >= args.seconds:
            break
        if time.monotonic() >= deadline:
            break

    e2e, step_samples = end_to_end(battery, setup_times)
    metrics = e2e
    if args.trace:
        metrics = per_layer(battery)
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_path = os.path.join(SPANS_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl")
        battery.tracer.write_spans(spans_path)
        print(f"spans: {len(battery.tracer.spans)} written to {os.path.relpath(spans_path)}")

    failed = len({(n, s) for n, s, _ in battery.failures if s is not None})
    for number, seed, what in battery.failures:
        print(f"FAILED pass {number} pair {seed}: {what}")
    print(
        f"workload {workload.name}: {len(battery.passes)} passes, "
        f"{battery.attempted} twin pairs, {step_samples} batch latencies (each the median over passes)"
    )
    print(f"failed_ratio {failed / battery.attempted:.4f} ({failed}/{battery.attempted} pairs)")
    print(f"events digest {_combined_digest(battery.digests)}")
    for name, (value, unit) in (e2e | metrics).items():
        print(f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(
        json.dumps(
            {
                "correct": not battery.wrong,
                "attempted": battery.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def _combined_digest(digests: dict) -> str:
    """One hash over every pair's digests, to compare runs on any block."""
    text = json.dumps(sorted((seed, list(d)) for seed, d in digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())

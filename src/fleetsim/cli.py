"""Command-line front end: single runs, twin comparisons, and sweeps."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .engine import Mode
from .scenario import (
    ConfigError,
    ScenarioConfig,
    TheoremReport,
    emit_metrics,
    parse_config,
    parse_policy,
    twin_run,
    run_scenario,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetsim",
        description="Batch-dispatch fleet simulator with a twin-run comparison harness.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, needs_config=False):
        p.add_argument("--config", required=needs_config, help="scenario config file")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--out", help="directory for metrics, logs, and reports")
        p.add_argument(
            "--mode", choices=[m.value for m in Mode], help="override engine mode"
        )
        p.add_argument(
            "--policy",
            choices=["early", "walkaway"],
            help="override the rejection policy",
        )
        p.add_argument(
            "--dump-graphs",
            action="store_true",
            help="also write per-batch assignment-problem sizes (needs --out)",
        )

    common(sub.add_parser("run", help="run one scenario"))
    common(sub.add_parser("twin", help="run both policies on one scenario and compare"))
    sweep = sub.add_parser("twin-sweep", aliases=["sweep"], help="twin runs over a seed range")
    common(sweep)
    sweep.add_argument(
        "--seeds",
        default="0:10",
        help="seed range as start:count (default 0:10)",
    )
    validate = sub.add_parser("validate", help="check a config file and exit")
    validate.add_argument("--config", required=True)
    return parser


def _load_config(args) -> ScenarioConfig:
    if args.config:
        cfg = parse_config(args.config)
    else:
        cfg = ScenarioConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    engine = cfg.engine
    if getattr(args, "mode", None):
        engine = replace(engine, mode=Mode(args.mode))
    if getattr(args, "policy", None):
        engine = replace(engine, rejection_policy=parse_policy(args.policy))
    return replace(cfg, engine=engine)


def _write_graph_rows(out_dir, result) -> None:
    """One JSON line per batch of `result`: its assignment problem's size."""
    engine = result.config.engine
    label = f"{result.config.seed}_{engine.mode.value}_{engine.rejection_policy.value}"
    path = os.path.join(out_dir, f"graphs_{label}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for row in result.batches:
            fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")


def _metrics_line(metrics) -> str:
    return (
        f"seed={metrics.seed} mode={metrics.mode} policy={metrics.policy} "
        f"requests={metrics.requests} served={metrics.served} left={metrics.left} "
        f"p_plus={metrics.p_plus} p_minus={metrics.p_minus} driven={metrics.driven}"
    )


def _cmd_run(args) -> int:
    result = run_scenario(_load_config(args))
    print(_metrics_line(result.metrics))
    if args.out:
        emit_metrics([result], None, args.out)
        if args.dump_graphs:
            _write_graph_rows(args.out, result)
    return 0


def _run_twins(args, seeds) -> int:
    base = _load_config(args)
    report = TheoremReport()
    results = []
    for seed in seeds:
        entry = twin_run(replace(base, seed=seed))
        report.entries.append(entry)
        results += [entry.reject, entry.walkaway]
        verdict = "ok" if entry.equal else f"MISMATCH: {entry.first_divergence}"
        print(f"seed={seed} mode={entry.mode} twin={verdict}")
    if args.out:
        emit_metrics(results, report, args.out)
        if args.dump_graphs:
            for result in results:
                _write_graph_rows(args.out, result)
    return 2 if report.mismatches else 0


def _cmd_twin(args) -> int:
    cfg = _load_config(args)
    return _run_twins(args, [cfg.seed])


def _cmd_sweep(args) -> int:
    try:
        start_text, count_text = args.seeds.split(":", 1)
        start, count = int(start_text), int(count_text)
        if count < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(f"--seeds must be start:count, got {args.seeds!r}") from None
    return _run_twins(args, range(start, start + count))


def _cmd_validate(args) -> int:
    parse_config(args.config)
    print(f"{args.config}: ok")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "twin": _cmd_twin,
        "twin-sweep": _cmd_sweep,
        "sweep": _cmd_sweep,
        "validate": _cmd_validate,
    }
    try:
        if getattr(args, "dump_graphs", False) and not args.out:
            raise ConfigError("--dump-graphs needs --out")
        return handlers[args.verb](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

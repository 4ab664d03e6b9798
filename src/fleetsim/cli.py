"""Command-line front end: single runs, twin comparisons, and config checks."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .scenario import (
    ConfigError,
    ScenarioConfig,
    TheoremReport,
    emit_metrics,
    parse_config,
    parse_config_text,
    twin_run,
    run_scenario,
)

# flags that are config settings, applied after the file's lines
_SETTING_FLAGS = {"seed": "seed", "mode": "engine.mode", "policy": "engine.policy"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetsim",
        description="Batch-dispatch fleet simulator with a twin-run comparison harness.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", help="scenario config file")
        p.add_argument("--seed", help="set `seed`")
        p.add_argument("--mode", help="set `engine.mode` (hailing or pooling)")
        p.add_argument("--out", help="directory for metrics, logs, and reports")
        p.add_argument(
            "--dump-graphs",
            action="store_true",
            help="also write per-batch assignment-problem sizes (needs --out)",
        )
        return p

    run = common(sub.add_parser("run", help="run one scenario"))
    run.add_argument("--policy", help="set `engine.policy` (early or walkaway)")
    twin = common(
        sub.add_parser("twin", help="run both policies on each seed and compare")
    )
    twin.add_argument(
        "--count",
        type=int,
        default=1,
        help="twin seeds seed .. seed+COUNT-1 (default 1)",
    )
    validate = sub.add_parser("validate", help="check a config file and exit")
    validate.add_argument("--config", required=True)
    return parser


def _load_config(args) -> ScenarioConfig:
    flags = [
        (f"--{flag}", key, getattr(args, flag))
        for flag, key in _SETTING_FLAGS.items()
        if getattr(args, flag, None) is not None
    ]
    if args.config is None:
        return parse_config_text("", "defaults", flags)
    return parse_config(args.config, flags)


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


def _cmd_twin(args) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be at least 1, got {args.count}")
    base = _load_config(args)
    report = TheoremReport()
    results = []
    for seed in range(base.seed, base.seed + args.count):
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


def _cmd_validate(args) -> int:
    parse_config(args.config)
    print(f"{args.config}: ok")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "twin": _cmd_twin,
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

"""Command-line surface: run experiments, plot results, inspect partitions.

Subcommands: run, plot, partition-stats, emit-defaults. Every config key is
also available as a flag (flag > file > default); the FASSL_OUT env var
overrides the output directory. Exit codes: 0 success, 1 config error,
2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import ExperimentSpec, apply_overrides, default_spec, emit_defaults, parse_config
from .data import dirichlet_partition, downstream_suite, partition_label_entropies, synth_dataset
from .errors import ConfigError, ContractError
from .orchestrator import run
from .plotting import plot_results
from .seeding import derive_seed

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _add_schema_flags(parser: argparse.ArgumentParser) -> None:
    for key, (_, _, doc) in cfgmod.SCHEMA.items():
        parser.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}", metavar="V", help=doc)


def _build_spec(args: argparse.Namespace) -> ExperimentSpec:
    spec = parse_config(args.config) if args.config else default_spec()
    overrides = {
        key: getattr(args, f"cfg_{key}")
        for key in cfgmod.SCHEMA
        if getattr(args, f"cfg_{key}", None) is not None
    }
    return apply_overrides(spec, overrides)


def _out_root(spec: ExperimentSpec) -> Path:
    return Path(os.environ.get("FASSL_OUT", spec["out_dir"]))


def _build_pretext(spec: ExperimentSpec):
    return synth_dataset(
        spec["pretext_classes"], spec["pretext_per_class"], spec["frames"], spec["bands"],
        seed=derive_seed(spec["master_seed"], "pretext-data"),
    )


def cmd_run(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    root = _out_root(spec)
    cells = [(name, cell, cell.base_run_config()) for name, cell in spec.cells()]
    failures = []
    for name, cell, cfg in cells:
        cell_dir = root / name
        try:
            pretext = _build_pretext(cell)
            tasks = downstream_suite(derive_seed(cfg.master_seed, "downstream-data"), cfg.frames, cfg.bands)
            cell_dir.mkdir(parents=True, exist_ok=True)
            config_text = cell.to_text(f"resolved configuration for cell {name}")
            (cell_dir / "config.txt").write_text(config_text, encoding="utf-8")
            result = run(cfg, pretext, tasks, out_dir=cell_dir)
        except Exception as exc:  # noqa: BLE001 - cell isolation; partial results stay on disk
            failures.append((name, exc))
            print(f"[{name}] FAILED: {exc}", file=sys.stderr)
            continue
        print(f"[{name}] optimal global model per task (accuracy % (round)):")
        for task, best_round, best_acc in result.tracker.summary_rows():
            print(f"  {task:<14s} {100.0 * best_acc:6.2f} ({best_round})")
    if spec["plot"] and len(failures) < len(cells):
        plot_results(root)
    if failures:
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    written = plot_results(args.results_dir)
    for path in written:
        print(path)
    return EXIT_OK


def cmd_partition_stats(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    pretext = _build_pretext(spec)
    partition = dirichlet_partition(
        pretext, spec["clients"], spec["alpha"], derive_seed(spec["master_seed"], "partition")
    )
    print(f"alpha = {spec['alpha']}, clients = {spec['clients']}, clips = {len(pretext)}")
    print(f"{'client':>6s} {'size':>6s} {'label_entropy':>14s}")
    entropies = partition_label_entropies(pretext, partition)
    for client, (shard, h) in enumerate(zip(partition.shards, entropies)):
        print(f"{client:>6d} {len(shard):>6d} {h:>14.4f}")
    print(
        f"entropy mean/min/max = {np.mean(entropies):.4f}/{np.min(entropies):.4f}/{np.max(entropies):.4f}"
    )
    print(f"sizes sum = {sum(partition.sizes())}")
    return EXIT_OK


def cmd_emit_defaults(_args: argparse.Namespace) -> int:
    sys.stdout.write(emit_defaults())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fassl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the experiment matrix")
    p_run.add_argument("--config", help="path to a key=value config file")
    _add_schema_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_plot = sub.add_parser("plot", help="render SVG curves from result CSVs")
    p_plot.add_argument("results_dir", help="directory containing results.csv files")
    p_plot.set_defaults(func=cmd_plot)

    p_stats = sub.add_parser("partition-stats", help="print per-client shard stats")
    p_stats.add_argument("--config", help="path to a key=value config file")
    _add_schema_flags(p_stats)
    p_stats.set_defaults(func=cmd_partition_stats)

    p_defaults = sub.add_parser("emit-defaults", help="print the default config file")
    p_defaults.set_defaults(func=cmd_emit_defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ContractError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

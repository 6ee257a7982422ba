"""Command-line surface: run experiments, plot results, inspect partitions.

Subcommands: run, plot, partition-stats, emit-defaults. Every config key,
the output root ``out_dir`` among them, is also a flag (flag > file >
default), and nothing else sets one. A cell's config.txt is printed from the
``RunConfig`` the cell runs and its output root, so it states the whole
cell. Exit codes: 0 success, 1 config or usage error, 2 runtime failure (an
allocation numpy refuses is one).

``run`` resolves every matrix cell to its ``RunConfig`` up front and runs
them on ``min(workers, cells, cpu count)`` spawned processes, or in this
process through plain ``map`` when that count is 1. A cell's job carries
its own ``RunConfig``; cells write only their own directories and print in
cell order, so outputs do not depend on ``workers``, at any size. A cell
process runs one BLAS thread, as every process that loads ``fassl`` does.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .checkpoint import _write_replacing
from .config import apply_overrides, cells, config_text, default_values, emit_defaults, parse_config
from .data import partition_label_entropies
from .errors import ConfigError, ContractError
from .orchestrator import RunConfig, pretext_and_partition, run
from .plotting import plot_results

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """Usage errors are config errors (exit 1), not argparse's own exit 2; subparsers inherit this."""

    def error(self, message: str):
        raise ConfigError(message)


def _add_schema_flags(parser: argparse.ArgumentParser) -> None:
    for key, (_, doc) in cfgmod.SCHEMA.items():
        if key in cfgmod.AXES:
            doc += " (comma list: a matrix axis)"
        parser.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}", metavar="V", help=doc)


def _build_values(args: argparse.Namespace) -> dict:
    values = parse_config(args.config) if args.config else default_values()
    overrides = {
        key: getattr(args, f"cfg_{key}")
        for key in cfgmod.SCHEMA
        if getattr(args, f"cfg_{key}", None) is not None
    }
    return apply_overrides(values, overrides)


def _run_cell(job: tuple[str, RunConfig, str]) -> list[tuple[str, int, float]] | str:
    """Run one matrix cell into its directory under the output root; its optima summary rows, or its error text.

    Cells are isolated: a failing cell keeps its partial results on disk
    and leaves the other cells running.
    """
    name, cfg, root = job
    cell_dir = Path(root) / name
    try:
        cell_dir.mkdir(parents=True, exist_ok=True)
        text = config_text(cfg, root, f"resolved configuration for cell {name}")
        _write_replacing(cell_dir / "config.txt", text.encode("utf-8"))
        return run(cfg, cell_dir).tracker.summary_rows()
    except Exception as exc:  # noqa: BLE001 - cell isolation; partial results stay on disk
        return str(exc)


@contextmanager
def _cell_mapper(processes: int):
    """``map`` over cells: in this process for 1, else on that many spawned processes."""
    if processes == 1:
        yield map
        return
    # spawn: a child inherits neither this process's threads nor a changed default start method
    with ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("spawn")) as pool:
        yield pool.map


def cmd_run(args: argparse.Namespace) -> int:
    values = _build_values(args)
    # every cell resolves before any runs, so a config error leaves no cell directory
    jobs = [(name, cfg, values["out_dir"]) for name, cfg in cells(values)]
    failures = 0
    try:
        with _cell_mapper(min(values["workers"], len(jobs), os.cpu_count() or 1)) as cell_map:
            for (name, *_), outcome in zip(jobs, cell_map(_run_cell, jobs)):
                if isinstance(outcome, str):
                    failures += 1
                    print(f"[{name}] FAILED: {outcome}", file=sys.stderr)
                    continue
                print(f"[{name}] optimal global model per task (accuracy % (round)):")
                for task, best_round, best_acc in outcome:
                    print(f"  {task:<14s} {100.0 * best_acc:6.2f} ({best_round})")
    except BrokenExecutor as exc:
        print(f"error: a cell process died: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_RUNTIME if failures else EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    written = plot_results(args.results_dir)
    for path in written:
        print(path)
    return EXIT_OK


def cmd_partition_stats(args: argparse.Namespace) -> int:
    values = _build_values(args)
    pretext, partition = pretext_and_partition(
        values["master_seed"], values["pretext_classes"], values["pretext_per_class"], values["frames"],
        values["bands"], values["clients"], values["alpha"],
    )
    print(f"alpha = {values['alpha']}, clients = {values['clients']}, clips = {len(pretext)}")
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
    parser = _Parser(prog="fassl", description=__doc__)
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ContractError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

"""Golden digests: every run cell's output bytes, pinned.

Each cell of a fixed tiny matrix (3 SSL tasks x 5 strategies x 2 scopes,
4 rounds of 3 of 6 clients, eval every 2 rounds, 12 clips per class) runs
end to end, and the SHA-256 of its ``results.csv`` and ``final.ckpt`` must
match ``golden_digests.json``. A change that alters a trajectory by accident
fails here.

Float results can follow the BLAS build and the CPU's SIMD set, so the file
stores the environment it was written in. On any other environment the test
skips and names both; it never compares digests across environments.

To change bits on purpose, regenerate the file and say why in CHANGES.md::

    python tests/test_golden.py --write

Before overwriting, it prints which cells changed, stayed, appeared or went
relative to the file it replaces.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # run as a script: use the in-tree package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest

from fassl.aggregation import STRATEGY_KINDS, Strategy
from fassl.data import downstream_suite, synth_dataset
from fassl.orchestrator import SSL_TASKS, RunConfig, run
from fassl.seeding import derive_seed

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")
SCOPES = ("full", "backbone")
OUTPUTS = ("results.csv", "final.ckpt")
CELLS = [f"{task}/{kind}/{scope}" for task in SSL_TASKS for kind in STRATEGY_KINDS for scope in SCOPES]


def environment() -> dict:
    """What float bits depend on besides the code: numpy, its BLAS build, the CPU's SIMD set."""
    config = np.show_config(mode="dicts")
    return {
        "numpy": np.__version__,
        "openblas": config["Build Dependencies"]["blas"].get("openblas configuration", ""),
        "simd_found": list(config["SIMD Extensions"]["found"]),
    }


def cell_config(cell: str) -> RunConfig:
    task, kind, scope = cell.split("/")
    return RunConfig(
        rounds=4, n_clients=6, clients_per_round=3, eval_every=2, pretext_per_class=12,
        ssl_task=task, strategy=Strategy(kind), scope=scope,
    )


def cell_digests(cell: str, out_dir: Path) -> dict[str, str]:
    cfg = cell_config(cell)
    pretext = synth_dataset(
        cfg.pretext_classes, cfg.pretext_per_class, cfg.frames, cfg.bands,
        seed=derive_seed(cfg.master_seed, "pretext-data"),
    )
    tasks = downstream_suite(derive_seed(cfg.master_seed, "downstream-data"), cfg.frames, cfg.bands)
    run(cfg, pretext, tasks, out_dir=out_dir)
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in OUTPUTS}


@pytest.fixture(scope="module")
def golden() -> dict:
    stored = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    here = environment()
    if stored["environment"] != here:
        pytest.skip(f"digests were written on {stored['environment']}, this environment is {here}")
    return stored["cells"]


def test_digest_file_covers_the_matrix():
    assert sorted(json.loads(DIGEST_FILE.read_text(encoding="utf-8"))["cells"]) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_cell_bytes_match_golden(cell, golden, tmp_path):
    assert cell_digests(cell, tmp_path) == golden[cell]


def blast_radius(old: dict, new: dict) -> list[str]:
    """Lines naming the cells whose digests changed, stayed, appeared or went."""
    kept = old.keys() & new.keys()
    groups = {
        "changed": [c for c in kept if old[c] != new[c]],
        "unchanged": [c for c in kept if old[c] == new[c]],
        "added": list(new.keys() - old.keys()),
        "removed": list(old.keys() - new.keys()),
    }
    return [f"{what} {len(cells)}: {' '.join(sorted(cells))}".rstrip() for what, cells in groups.items()]


def test_blast_radius_names_every_cell_once():
    old = {"a": 1, "b": 2, "c": 3}
    new = {"a": 1, "b": 9, "d": 4}
    assert blast_radius(old, new) == ["changed 1: b", "unchanged 1: a", "added 1: d", "removed 1: c"]


def write_digest_file() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cells = {cell: cell_digests(cell, Path(tmp) / cell.replace("/", "-")) for cell in CELLS}
    payload = {"environment": environment(), "cells": cells}
    old = json.loads(DIGEST_FILE.read_text(encoding="utf-8")) if DIGEST_FILE.exists() else {"cells": {}}
    if old["cells"] and old["environment"] != payload["environment"]:
        print(f"note: the replaced file was written on {old['environment']}; digests differ across environments")
    print("\n".join(blast_radius(old["cells"], cells)))
    DIGEST_FILE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(cells)} cells to {DIGEST_FILE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    write_digest_file()

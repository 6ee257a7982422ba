"""Golden digests: every run cell's output bytes, pinned.

Each cell of a fixed tiny matrix (3 SSL tasks x 5 strategies x 2 scopes,
less fedu in backbone scope, which ``RunConfig`` refuses; 4 rounds of 3 of
6 clients, eval every 2 rounds, 12 clips per class) runs end to end, and
the SHA-256 of its ``results.csv`` and ``final.ckpt`` must match
``golden_digests.json``. A change that alters a trajectory by accident
fails here.

Float results can follow the BLAS build, the BLAS kernel it runs (OpenBLAS
picks one per CPU, and ``OPENBLAS_CORETYPE`` overrides it) and the CPU's
SIMD set, so the file stores the environment it was written in. On any
other environment the test skips and names both; it never compares digests
across environments. The BLAS thread count is not part of that
environment: loading ``fassl`` pins BLAS to one thread, which a test checks
on the ldawa and fedu cells in two fresh processes under OpenBLAS's Haswell
kernels, one asked for one BLAS thread and one for two.

To change bits on purpose, regenerate the file and say why in CHANGES.md::

    python tests/test_golden.py --write

Before overwriting, it prints which cells changed, stayed, appeared or went
relative to the file it replaces.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # run as a script: use the in-tree package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest

import fassl
from fassl.aggregation import STRATEGY_KINDS, Strategy
from fassl.orchestrator import RunConfig, run
from fassl.ssl_tasks import TASKS

from conftest import bundled_openblas

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")
SCOPES = ("full", "backbone")
OUTPUTS = ("results.csv", "final.ckpt")
CELLS = [
    f"{task}/{kind}/{scope}" for task in TASKS for kind in STRATEGY_KINDS for scope in SCOPES
    if (kind, scope) != ("fedu", "backbone")  # a config error: fedu gates only heads, which backbone scope never sends
]


def environment() -> dict:
    """What float bits depend on besides the code: numpy, its BLAS build and running kernel, the CPU's SIMD set."""
    config = np.show_config(mode="dicts")
    openblas = bundled_openblas()
    return {
        "numpy": np.__version__,
        "openblas": config["Build Dependencies"]["blas"].get("openblas configuration", ""),
        "openblas_core": openblas.scipy_openblas_get_corename64_().decode() if openblas else None,
        "simd_found": list(config["SIMD Extensions"]["found"]),
    }


def cell_config(cell: str) -> RunConfig:
    task, kind, scope = cell.split("/")
    return RunConfig(
        rounds=4, n_clients=6, clients_per_round=3, eval_every=2, pretext_per_class=12,
        ssl_task=task, strategy=Strategy(kind), scope=scope,
    )


def cell_digests(cell: str, out_dir: Path) -> dict[str, str]:
    run(cell_config(cell), out_dir)
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


def matrix_digests(cells: list[str]) -> dict[str, dict[str, str]]:
    with tempfile.TemporaryDirectory() as tmp:
        return {cell: cell_digests(cell, Path(tmp) / cell.replace("/", "-")) for cell in cells}


def test_blas_thread_count_changes_no_byte():
    """The ldawa and fedu cells give the same bytes when the environment asks BLAS for one thread and for two.

    These two strategies reduce over whole layers to form their weights.
    Both processes run OpenBLAS's Haswell kernels, whose products change
    bits with the thread count, where SkylakeX ones do not. The test
    compares two fresh processes, not the stored file, so unlike the golden
    test it never skips.
    """
    cells = [c for c in CELLS if c.split("/")[1] in ("ldawa", "fedu")]
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(p for p in (str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")) if p)
    code = f"import json, test_golden; print(json.dumps(test_golden.matrix_digests({cells!r})))"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads, "OPENBLAS_CORETYPE": "Haswell"},
        )
        for threads in ("1", "2")
    ]
    outputs = [proc.communicate()[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    one, two = (json.loads(out) for out in outputs)
    assert sorted(one) == sorted(cells)
    assert [c for c in cells if one[c] != two[c]] == []


@pytest.mark.skipif(bundled_openblas() is None, reason="numpy bundles no scipy-openblas to ask")
def test_the_pin_leaves_blas_alone_on_a_numpy_whose_library_lacks_the_setter(tmp_path, monkeypatch):
    """Another build's library under the bundled name, without ``scipy_openblas_set_num_threads64_``, changes nothing."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    other = next(libs.glob("libquadmath*"), None)  # a shared library the wheel ships that has no such setter
    if other is None:
        pytest.skip("the wheel ships no library to stand in for another build's")
    (tmp_path / "numpy.libs").mkdir()
    shutil.copy(other, tmp_path / "numpy.libs" / "libscipy_openblas64_other.so")
    blas = bundled_openblas()
    blas.scipy_openblas_set_num_threads64_(2)
    asked = blas.scipy_openblas_get_num_threads64_()
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    try:
        fassl._pin_blas_threads()
        assert blas.scipy_openblas_get_num_threads64_() == asked
    finally:
        blas.scipy_openblas_set_num_threads64_(1)


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
    cells = matrix_digests(CELLS)
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

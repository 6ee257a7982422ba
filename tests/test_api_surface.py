"""Guards on the package's shape: public names have callers, no autodiff in data, concurrency in the CLI, no asserts.

A public function, class or constant of ``src/fassl/<module>.py`` counts as
used when some program file refers to it: a loaded name in its own module
(its definition does not count), an import of it from another package
module or from ``perfbench/``, or an attribute read through an imported
module (``kernels.topk_hits``). ``__init__`` re-exports, ``__all__`` strings
and the tests do not count, so a helper that only tests call must live in
the tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(p for p in (ROOT / "src" / "fassl").glob("*.py") if p.name != "__init__.py")
BENCHMARK = sorted(p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_perfbench.py")


def public_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def _package_module(node: ast.ImportFrom) -> str | None:
    """'' for ``from . import m`` / ``from fassl import m``, the module for ``from .m`` / ``from fassl.m``."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "fassl":
        return node.module.partition(".")[2]
    return None


def references(tree: ast.Module, own_module: str | None) -> set[tuple[str, str]]:
    """(module, name) pairs this file refers to."""
    found: set[tuple[str, str]] = set()
    module_aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _package_module(node)
            for alias in node.names if module is not None else ():
                if module:
                    found.add((module, alias.name))
                else:
                    module_aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own_module:
            found.add((own_module, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in module_aliases:
                found.add((module_aliases[node.value.id], node.attr))
    return found


def imported_package_modules(tree: ast.Module) -> set[str]:
    """Top-level package modules this file imports, however it names them."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _package_module(node)
            if module:
                found.add(module.split(".")[0])
            elif module == "":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "fassl" and rest:
                    found.add(rest.split(".")[0])
    return found


def test_data_does_not_import_autodiff():
    """Datasets hold plain arrays; tensors are what autodiff computes on."""
    path = ROOT / "src" / "fassl" / "data.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert "autodiff" not in imported_package_modules(tree)


def imported_modules(tree: ast.Module) -> set[str]:
    """Top-level names of the absolute imports in this file (``concurrent`` for ``concurrent.futures``)."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
    return found


def test_concurrency_lives_only_in_the_cli():
    """The library runs one thing at a time; ``fassl run`` alone spreads cells over processes."""
    for path in PACKAGE:
        imported = imported_modules(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        assert "threading" not in imported, path.name
        if path.name != "cli.py":
            assert not imported & {"concurrent", "multiprocessing"}, path.name


def test_imported_modules_sees_every_import_form():
    for source in (
        "import threading", "import concurrent.futures", "from concurrent.futures import ProcessPoolExecutor",
        "import multiprocessing as mp", "def f():\n    from threading import Lock",
    ):
        assert len(imported_modules(ast.parse(source))) == 1, source
    assert imported_modules(ast.parse("from . import threading\nfrom .x import y")) == set()


def test_imported_package_modules_sees_every_import_form():
    for source in (
        "from .autodiff import Tensor", "from . import autodiff", "from . import autodiff as ad",
        "from fassl.autodiff import Tensor", "from fassl import autodiff", "import fassl.autodiff",
        "def f():\n    from .autodiff import Tensor",
    ):
        assert imported_package_modules(ast.parse(source)) == {"autodiff"}, source
    assert imported_package_modules(ast.parse("import numpy\nfrom .errors import ContractError")) == {"errors"}


def test_no_assert_statement_in_the_package():
    """``python -O`` strips asserts, so a runtime check raises an error instead."""
    for path in sorted((ROOT / "src" / "fassl").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert statements at lines {lines}"


def test_every_public_name_has_a_program_caller():
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE + BENCHMARK}
    used: set[tuple[str, str]] = set()
    for path, tree in trees.items():
        used |= references(tree, path.stem if path in PACKAGE else None)
    unused = [
        f"{path.stem}.{name}" for path in PACKAGE for name in public_names(trees[path])
        if (path.stem, name) not in used
    ]
    assert not unused, f"public names no program file uses (move them into the tests or delete them): {unused}"


def test_references_resolve_through_module_aliases():
    tree = ast.parse(
        "from . import kernels as k\nfrom .model import encode\nfrom fassl import data\n"
        "k.topk_hits(); data.Clip; cfg.augment; local_name\n"
    )
    assert references(tree, "evaluator") == {
        ("kernels", "topk_hits"), ("model", "encode"), ("data", "Clip"),
        ("evaluator", "k"), ("evaluator", "data"), ("evaluator", "cfg"), ("evaluator", "local_name"),
    }

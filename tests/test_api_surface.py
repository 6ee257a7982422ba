"""Guards on the package's shape: public names and methods have callers, the package root re-exports exactly what
program files and README examples import from it, public defaults have callers that rely on them and callers that
override them, no autodiff in data, no data in ssl_tasks, concurrency in the CLI, no asserts, no setting read from
the environment, config states no rule or converter of a run key, a library function checks a setting by its rule
and not by hand, each literal stream tag is derived in one call, a cell's files are named only where they are
written, and only ssl_tasks states a view batch's row layout.

A public function, class or constant of ``src/fassl/<module>.py`` counts as
used when some program file refers to it: a loaded name in its own module
(its definition does not count), an import of it from another package
module or from ``perfbench/``, or an attribute read through an imported
module (``kernels.topk_hits``). A public method of a public package class
counts as used when some program file reads an attribute of its name, or
when ``perfbench/`` names it in a string (its tracing patches methods by
``getattr``). ``__init__`` re-exports, ``__all__`` strings and the tests do
not count, so a helper that only tests call must live in the tests.

A default of a public function or method (a class call reaches its
``__init__``) counts as relied on when some program call leaves it out, or
passes ``*args`` or ``**kwargs``. A default that every program call
overrides is a second statement of a value the callers already own, so only
tests would read it; a dataclass field's default is where a setting's value
lives, and is no function's default. A default counts as a setting when some
program call passes it, or passes ``*args`` or ``**kwargs``: one that no
program call overrides is a constant of its function, and only tests would
set it (``cli.main(argv)`` is the named exception).
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path
from typing import NamedTuple

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


def test_ssl_tasks_does_not_import_data():
    """Pretext batches are built from plain arrays with index tables of ssl_tasks' own; datasets live elsewhere."""
    path = ROOT / "src" / "fassl" / "ssl_tasks.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert "data" not in imported_package_modules(tree)


def imported_names(tree: ast.Module) -> set[str]:
    """Names this file imports from the package's modules (``Clip`` for ``from .data import Clip``)."""
    return {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and _package_module(node)
        for alias in node.names
    }


def test_training_path_does_not_import_clip():
    """Clients train on rows of the pretext matrix; a ``Clip`` object is not how training reads a clip."""
    for name in ("ssl_tasks.py", "orchestrator.py"):
        path = ROOT / "src" / "fassl" / name
        assert "Clip" not in imported_names(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))), name


def test_imported_names_sees_every_package_import_form():
    for source in (
        "from .data import Clip", "from fassl.data import Clip", "from .data import Partition, Clip as C",
        "def f():\n    from .data import Clip",
    ):
        assert "Clip" in imported_names(ast.parse(source)), source
    assert imported_names(ast.parse("from numpy import Clip\nfrom . import data")) == set()


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


def test_config_only_converts_text():
    """A key's rule and kind live in its dataclass's RULES: SCHEMA states no run key's converter, and config imports
    no choices."""
    from fassl import config

    for key, entry in config.SCHEMA.items():
        assert not any(callable(part) for part in entry), f"SCHEMA states a converter for {key}"
    # out_dir is the output root as given, refused only where a config.txt line could not carry it back;
    # a second key without a run path would need a converter of its own
    assert [key for key, (path, _) in config.SCHEMA.items() if path is None] == ["out_dir"]
    path = ROOT / "src" / "fassl" / "config.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        module = _package_module(node) if isinstance(node, ast.ImportFrom) else None
        for alias in node.names if module is not None else ():
            imported = getattr(importlib.import_module(f"fassl.{module}" if module else "fassl"), alias.name)
            assert not isinstance(imported, tuple), f"config imports the choice tuple {alias.name}"


# Each public library function that reads a run setting, and the names it reads settings under, in parameter order
SETTING_READERS = {
    ("aggregation", "aggregate"): ("strategy",),
    ("aggregation", "scope_apply"): ("scope",),
    ("data", "synth_dataset"): ("n_classes", "n_per_class", "frames", "bands", "seed", "noise_std"),
    ("data", "downstream_suite"): ("seed", "frames", "bands"),
    ("data", "dirichlet_partition"): ("n_clients", "alpha", "seed"),
    ("evaluator", "knn_retrieval_accuracy"): ("k",),
    ("evaluator", "evaluate_global"): ("k", "feature_layer"),
    ("model", "init_encoder"): ("hidden_dim", "embed_dim", "projection_dim", "seed"),
    ("model", "split"): ("scope",),
    ("model", "sgd_step"): ("lr",),
    ("orchestrator", "sample_clients"): ("n_clients", "s", "master_seed"),
    ("orchestrator", "pretext_and_partition"): (
        "master_seed", "pretext_classes", "pretext_per_class", "frames", "bands", "n_clients", "alpha",
    ),
    ("seeding", "derive_seed"): ("master_seed", "indices"),
    ("seeding", "rng_for"): ("master_seed", "indices"),
    ("ssl_tasks", "nt_xent_loss"): ("tau",),
    ("ssl_tasks", "barlow_twins_loss"): ("lam",),
}
# Names a library function reads a setting under besides the setting's own field name
SETTING_ALIASES = {
    "lam": "bt_lambda", "s": "clients_per_round", "n_classes": "pretext_classes",
    "n_per_class": "pretext_per_class", "seed": "master_seed", "indices": "master_seed",
}
# Public functions that read a setting and check nothing, and why
UNCHECKED_READERS = {
    ("kernels", "topk_hits"): "a kernel converts and checks nothing; knn_retrieval_accuracy hands it a checked k",
}


def setting_names() -> set[str]:
    """The fields of RunConfig and of the settings dataclasses it nests, and their aliases."""
    from fassl.orchestrator import RunConfig

    names = set(RunConfig.RULES) | set(SETTING_ALIASES)
    for kind, _, _ in RunConfig.RULES.values():
        names |= set(getattr(kind, "RULES", ()))
    return names


def setting_parameters(tree: ast.Module, settings: set[str]) -> dict[str, tuple[str, ...]]:
    """Each public function or public method of a public class, by name, with its parameters named after a setting."""
    funcs = [(n.name, n) for n in tree.body if isinstance(n, ast.FunctionDef)]
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef) and not n.name.startswith("_")):
        funcs += [(f"{cls.name}.{n.name}", n) for n in cls.body if isinstance(n, ast.FunctionDef)]
    found = {}
    for name, func in funcs:
        args = func.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs) if a is not None]
        read = tuple(p for p in params if p in settings)
        if read and not name.rpartition(".")[2].startswith("_"):
            found[name] = read
    return found


def test_every_public_function_reading_a_setting_is_a_setting_reader():
    """A function with a parameter named after a setting is in SETTING_READERS, so the guards below reach it."""
    settings = setting_names()
    found = {}
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.update({(path.stem, name): read for name, read in setting_parameters(tree, settings).items()})
    assert set(UNCHECKED_READERS) <= set(found), "an unchecked reader no longer reads a setting"
    readers = {key: read for key, read in found.items() if key not in UNCHECKED_READERS}
    assert readers == SETTING_READERS


def test_setting_parameters_sees_every_form():
    source = (
        "def f(tau, x, *indices, k=1): pass\ndef _g(tau): pass\ndef h(x): pass\n"
        "class C:\n    def m(self, scope): pass\n    def _n(self, scope): pass\n"
        "class _D:\n    def m(self, scope): pass\n"
    )
    assert setting_parameters(ast.parse(source), {"tau", "indices", "k", "scope"}) == {
        "f": ("tau", "indices", "k"), "C.m": ("scope",),
    }


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def hand_written_bounds(func: ast.FunctionDef, settings: tuple[str, ...]) -> list[int]:
    """Lines where func compares a setting with a constant, or masks one by a constant.

    A setting is one of settings or a name a ``for`` loop binds to their items. A constant mentions no name, so
    ``len(data) < n_clients`` bounds a setting by the data, not by a rule of its own. An equality test branches on a
    choice, and counts only where func has not checked the setting by a rule (``check(name, setting, rule)``) on an
    earlier line, so a reader that raises for a choice none of its branches takes is seen.
    """
    names = set(settings)
    for node in ast.walk(func):
        if isinstance(node, ast.For) and _names(node.iter) & names:
            names |= _names(node.target)
    checked: dict[str, int] = {}  # a setting checked by a rule, and the first line that checks it
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "check":
            if len(node.args) == 3 and isinstance(node.args[1], ast.Name):
                name = node.args[1].id
                checked[name] = min(checked.get(name, node.lineno), node.lineno)
    lines = []
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            branch = all(isinstance(op, ast.Eq) for op in node.ops)
            if branch and all(checked.get(n, node.lineno) < node.lineno for n in set().union(*map(_names, operands))):
                continue
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.Mod)):
            operands = [node.left, node.right]
        else:
            continue
        if any(_names(o) & names for o in operands) and any(not _names(o) for o in operands):
            lines.append(node.lineno)
    return sorted(lines)


def test_setting_readers_check_by_the_setting_rule():
    """A library function checks a setting by the rule RunConfig checks it by, so both reject the same values."""
    for (module, name), settings in SETTING_READERS.items():
        path = ROOT / "src" / "fassl" / f"{module}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        [func] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
        lines = hand_written_bounds(func, settings)
        assert not lines, f"{module}.{name} bounds a setting by hand at lines {lines}; check it by its rule"


def test_hand_written_bounds_sees_every_form():
    source = (
        "def f(tau, lam, n_clients, seed, indices, scope, feature_layer, strategy):\n"
        "    if tau <= 0: pass\n    if min(lam, tau) < 1: pass\n    x = seed & 0xFFFF\n"
        "    for idx in indices:\n        y = idx & 0xFF\n    ok = 0 <= seed < 2**64\n    z = -1 > lam\n"
        "    if len(data) < n_clients: pass\n    check('tau', tau, RULE)\n    if other < 0: pass\n"
        "    w = lam * lam\n    if scope == 'full': pass\n    check('scope', scope, SCOPE)\n"
        "    if scope == 'full': pass\n    if scope != 'full': pass\n    if scope in ('full',): pass\n"
        "    if feature_layer == 'backbone': pass\n    if strategy.kind == 'loss': pass\n"
        "    check('strategy', strategy, S)\n"
        "    if strategy.kind == 'loss': pass\n"
    )
    [func] = ast.parse(source).body
    settings = ("tau", "lam", "n_clients", "seed", "indices", "scope", "feature_layer", "strategy")
    assert hand_written_bounds(func, settings) == [2, 3, 4, 6, 7, 8, 13, 16, 17, 18, 19]


def _is_os(node: ast.AST, name: str) -> bool:
    """Whether node is ``os.<name>``."""
    return (
        isinstance(node, ast.Attribute) and node.attr == name
        and isinstance(node.value, ast.Name) and node.value.id == "os"
    )


def environment_reads(tree: ast.Module) -> list[int]:
    """Lines that read a value from the environment: ``os.getenv(...)``, ``os.environ.get(...)``, ``os.environ[...]``.

    Testing for a variable (``var in os.environ``), setting one and deleting one are no reads of a value.
    """
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            environ_get = isinstance(func, ast.Attribute) and func.attr == "get" and _is_os(func.value, "environ")
            if environ_get or _is_os(func, "getenv"):
                lines.append(node.lineno)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) and _is_os(node.value, "environ"):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_package_module_reads_a_setting_from_the_environment():
    """A setting is a config key, so a cell's config.txt states all of it."""
    for path in PACKAGE:
        lines = environment_reads(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        assert not lines, f"{path.name} reads the environment at lines {lines}"


def test_environment_reads_sees_each_read_and_no_write():
    source = (
        "x = os.getenv('A')\ny = os.environ.get('B', 'b')\nz = os.environ['C']\n"
        "if 'D' not in os.environ:\n    os.environ.update(D='1')\nos.environ['E'] = '1'\ndel os.environ['E']\n"
    )
    assert environment_reads(ast.parse(source)) == [1, 2, 3]


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


def public_methods(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, method) for each public method of each public top-level class."""
    return [
        (node.name, item.name) for node in tree.body if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    ]


def attributes_read(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def string_constants(tree: ast.Module) -> set[str]:
    return {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_public_method_has_a_program_caller():
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE + BENCHMARK}
    used = set().union(*(attributes_read(tree) for tree in trees.values()))
    used |= set().union(*(string_constants(trees[p]) for p in BENCHMARK))
    unused = [
        f"{path.stem}.{cls}.{name}" for path in PACKAGE for cls, name in public_methods(trees[path])
        if name not in used
    ]
    assert not unused, f"public methods no program file uses (move them into the tests or delete them): {unused}"


def test_public_methods_and_their_uses_are_seen():
    tree = ast.parse(
        "class A:\n    def kept(self): pass\n    def _own(self): pass\n    @property\n    def size(self): pass\n"
        "class _B:\n    def hidden(self): pass\n"
        "a.kept(); x = a.size; a.stored = 1; setattr(A, 'named', f)\n"
    )
    assert public_methods(tree) == [("A", "kept"), ("A", "size")]
    assert attributes_read(tree) == {"kept", "size"}
    assert "named" in string_constants(tree)


def test_references_resolve_through_module_aliases():
    tree = ast.parse(
        "from . import kernels as k\nfrom .model import encode\nfrom fassl import data\n"
        "k.topk_hits(); data.Clip; cfg.augment; local_name\n"
    )
    assert references(tree, "evaluator") == {
        ("kernels", "topk_hits"), ("model", "encode"), ("data", "Clip"),
        ("evaluator", "k"), ("evaluator", "data"), ("evaluator", "cfg"), ("evaluator", "local_name"),
    }



def reexports() -> dict[str, tuple[str, str]]:
    """Names ``fassl/__init__.py`` re-exports, each mapped to the (module, name) that defines it."""
    path = ROOT / "src" / "fassl" / "__init__.py"
    return {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }


def root_imports(tree: ast.Module) -> set[str]:
    """Non-module names this file imports from the package root (``run`` for ``from fassl import run``)."""
    modules = {p.stem for p in PACKAGE}
    return {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and _package_module(node) == ""
        for alias in node.names if alias.name not in modules
    }


def test_the_package_root_exports_exactly_what_its_callers_import():
    """A re-export that no program file and no README example imports is surface only tests could reach."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "src").rglob("*.py")) + BENCHMARK]
    sources += re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    imported = set().union(*(root_imports(ast.parse(source)) for source in sources))
    assert sorted(importlib.import_module("fassl").__all__) == sorted(imported)
    assert set(reexports()) == imported


def test_root_imports_sees_every_root_import_form():
    tree = ast.parse(
        "from fassl import run, RunConfig as Cfg\nfrom fassl import kernels\nfrom . import data\n"
        "from .model import encode\nfrom fassl.orchestrator import run_round\nimport fassl\n"
    )
    assert root_imports(tree) == {"run", "RunConfig"}


class Callee(NamedTuple):
    label: str  # module.function or module.Class.method
    fn: ast.FunctionDef
    offset: int  # leading parameters a call does not pass: 1 for self, else 0


def public_functions(trees: dict[str, ast.Module]) -> tuple[dict[tuple[str, str], Callee], dict[str, list[Callee]]]:
    """The package's public functions by (module, name), and its public classes' methods by name.

    A public class's (module, name) maps to its ``__init__``, which a call of
    the class reaches; a dataclass states its field defaults on the class, so
    they are no function's.
    """
    functions: dict[tuple[str, str], Callee] = {}
    methods: dict[str, list[Callee]] = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                functions[(module, node.name)] = Callee(f"{module}.{node.name}", node, 0)
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or (item.name.startswith("_") and item.name != "__init__"):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                callee = Callee(f"{module}.{node.name}.{item.name}", item, 0 if static else 1)
                if item.name == "__init__":
                    functions[(module, node.name)] = callee
                else:
                    methods.setdefault(item.name, []).append(callee)
    return functions, methods


def calls_reaching(tree: ast.Module, own_module: str | None, functions: dict, methods: dict, exported: dict):
    """(call, callee) for each call in this file that may reach a public package function.

    A callee resolves as ``references`` resolves a name: imported from a
    package module or re-exported by the package, read through a package
    module alias, or this package module's own. Any other ``x.name(...)`` may
    reach each public method of that name, but ``subprocess.run(...)``
    reaches nothing: ``subprocess`` is an imported module.
    """
    names: dict[str, tuple[str, str]] = {}
    module_aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _package_module(node)
            for alias in node.names if module is not None else ():
                local = alias.asname or alias.name
                if module:
                    names[local] = (module, alias.name)
                elif alias.name in exported:
                    names[local] = exported[alias.name]
                else:
                    module_aliases[local] = alias.name
        elif isinstance(node, ast.Import):
            module_aliases.update({(alias.asname or alias.name).split(".")[0]: "" for alias in node.names})
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            found = [functions.get(names.get(func.id, (own_module, func.id)))]
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in module_aliases:
            found = [functions.get((module_aliases[func.value.id], func.attr))]
        elif isinstance(func, ast.Attribute):
            found = methods.get(func.attr, [])
        else:
            found = []
        yield from ((node, callee) for callee in found if callee is not None)


def defaulted(fn: ast.FunctionDef) -> set[str]:
    positional = fn.args.posonlyargs + fn.args.args
    names = {a.arg for a in positional[len(positional) - len(fn.args.defaults):]}
    return names | {a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None}


def omitted_defaults(call: ast.Call, callee: Callee) -> set[str]:
    """The defaulted parameters this call leaves to their default: all of them under ``*`` or ``**``."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return defaulted(callee.fn)
    passed = (callee.fn.args.posonlyargs + callee.fn.args.args)[:callee.offset + len(call.args)]
    return defaulted(callee.fn) - {a.arg for a in passed} - {k.arg for k in call.keywords}


def passed_defaults(call: ast.Call, callee: Callee) -> set[str]:
    """The defaulted parameters this call passes: all of them under ``*`` or ``**``."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return defaulted(callee.fn)
    return defaulted(callee.fn) - omitted_defaults(call, callee)


def defaults_no_program_call(seen) -> list[str]:
    """Each public default that ``seen(call, callee)`` names for no program call."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE + BENCHMARK}
    functions, methods = public_functions({p.stem: trees[p] for p in PACKAGE})
    exported = reexports()
    hits: set[tuple[str, str]] = set()
    for path, tree in trees.items():
        own = path.stem if path in PACKAGE else None
        for call, callee in calls_reaching(tree, own, functions, methods, exported):
            hits |= {(callee.label, name) for name in seen(call, callee)}
    callees = list(functions.values()) + [c for found in methods.values() for c in found]
    return sorted(f"{c.label}({name})" for c in callees for name in defaulted(c.fn) if (c.label, name) not in hits)


def test_every_public_default_is_omitted_by_a_program_call():
    """A default that every program call overrides states the value a second time; the callers own it."""
    unused = defaults_no_program_call(omitted_defaults)
    assert not unused, f"defaults no program call relies on (delete them; tests pass the value): {unused}"


# Defaults no program call passes that stay parameters, with the reason.
CONSTANT_DEFAULTS_KEPT = {
    "cli.main(argv)": "the console script calls main(), and the tests pass argv through that seam",
}


def test_every_public_default_is_passed_by_a_program_call():
    """A default that no program call overrides is a constant of its function, not a setting."""
    constant = [d for d in defaults_no_program_call(passed_defaults) if d not in CONSTANT_DEFAULTS_KEPT]
    assert not constant, f"defaults no program call overrides (make them constants): {constant}"


def test_calls_resolve_as_references_do():
    functions, methods = public_functions({"orchestrator": ast.parse(
        "def run(cfg, out_dir=None): pass\n"
        "class Sink:\n    def __init__(self, out_dir=None): pass\n    def close(self, cfg, final=1): pass\n"
    )})
    tree = ast.parse(
        "import subprocess\nfrom fassl import run as go\nfrom .orchestrator import Sink\n"
        "subprocess.run(cmd)\ngo(cfg)\nSink(out)\nsink.close(cfg)\ngo(*args)\nSink(**kw)\n"
    )
    exported = {"run": ("orchestrator", "run")}
    found = [
        (call.lineno, callee.label, omitted_defaults(call, callee))
        for call, callee in calls_reaching(tree, None, functions, methods, exported)
    ]
    assert sorted(found) == [
        (5, "orchestrator.run", {"out_dir"}),
        (6, "orchestrator.Sink.__init__", set()),
        (7, "orchestrator.Sink.close", {"final"}),
        (8, "orchestrator.run", {"out_dir"}),
        (9, "orchestrator.Sink.__init__", {"out_dir"}),
    ]
    passed = [
        (call.lineno, passed_defaults(call, callee))
        for call, callee in calls_reaching(tree, None, functions, methods, exported)
    ]
    assert sorted(passed) == [(5, set()), (6, {"out_dir"}), (7, set()), (8, {"out_dir"}), (9, {"out_dir"})]


STREAM_FUNCTIONS = ("derive_seed", "rng_for")


def stream_tags(tree: ast.Module) -> list[str]:
    """The literal purpose tag of each ``derive_seed`` or ``rng_for`` call, in walk order; f-string tags skip."""
    tags = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        purpose = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "purpose"), None
        )
        if name in STREAM_FUNCTIONS and isinstance(purpose, ast.Constant) and isinstance(purpose.value, str):
            tags.append(purpose.value)
    return tags


def test_each_literal_stream_tag_is_derived_in_one_call():
    """Two calls deriving one stream state its derivation twice; one helper both callers share keeps it once."""
    calls: dict[str, int] = {}
    for path in PACKAGE:
        for tag in stream_tags(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            calls[tag] = calls.get(tag, 0) + 1
    assert calls, "no stream tag found"
    repeated = sorted(tag for tag, n in calls.items() if n > 1)
    assert not repeated, f"stream tags derived in more than one call: {repeated}"


def test_stream_tags_sees_every_call_form():
    source = (
        "derive_seed(s, 'a')\nseeding.rng_for(s, 'b', r, c)\nrng_for(s, purpose='c')\n"
        "derive_seed(s, f'task-{kind}')\nrng_for(s, tag)\nother(s, 'd')\nderive_seed(s)\n"
    )
    assert stream_tags(ast.parse(source)) == ["a", "b", "c"]


CELL_FILE_SUFFIXES = (".csv", ".ckpt", ".tmp")
# orchestrator writes and reads a cell's record; checkpoint writes each file through a temporary sibling
CELL_FILE_OWNERS = ("orchestrator.py", "checkpoint.py")


def cell_file_names(tree: ast.Module) -> list[str]:
    """String constants ending in a cell file's suffix, f-string parts among them, sorted; docstrings are prose."""
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
    }
    return sorted(
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.endswith(CELL_FILE_SUFFIXES)
        and id(node) not in docstrings
    )


def test_a_cells_files_are_named_only_where_they_are_written():
    """A second statement of a file name is a reader that can look for a file its writer no longer writes."""
    for path in PACKAGE:
        if path.name not in CELL_FILE_OWNERS:
            names = cell_file_names(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            assert not names, f"{path.name} names cell files {names}; take the name from its writer"


def test_cell_file_names_sees_every_constant_form_and_no_docstring():
    source = (
        '"""Writes results.csv"""\n'
        'def f():\n    """Reads a.ckpt"""\n    return "results.csv", f"round_{r}.ckpt", p + ".tmp", "config.txt", "a.csv!"\n'
        'class C:\n    """x.tmp"""\n    NAME = "optima.csv"\n'
    )
    assert cell_file_names(ast.parse(source)) == [".ckpt", ".tmp", "optima.csv", "results.csv"]


# What states a view batch's row layout: the gather that splits the views and the names of ssl_tasks' pair table
VIEW_LAYOUT_NAMES = ("gather_rows", "view_rows", "_pair_layout", "_PairLayout")


def view_layout_statements(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, what) for each layout name this file refers to or imports, and each slice or ``arange`` of stride 2."""
    found = []
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name in VIEW_LAYOUT_NAMES:
            found.append((node.lineno, name))
        if isinstance(node, ast.Slice):
            stride = node.step
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "arange":
            stride = node.args[2] if len(node.args) == 3 else None
        else:
            stride = None
        if isinstance(stride, ast.Constant) and stride.value == 2:
            found.append((node.lineno, "stride 2"))
    return sorted(found)


def test_only_ssl_tasks_knows_a_view_batchs_row_layout():
    """two_view_batch interleaves each clip's two views, and both pair losses take that matrix whole."""
    for path in PACKAGE + BENCHMARK:
        if path.name != "ssl_tasks.py":
            found = view_layout_statements(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            assert not found, f"{path.name} states a view batch's row layout at {found}"


def test_view_layout_statements_sees_every_form():
    source = (
        "ad.gather_rows(z, r)\ngather_rows(z, r)\nssl_tasks.view_rows(8)\nfrom .ssl_tasks import _pair_layout\n"
        "z[0::2]\nz[1::2, :]\nnp.arange(0, n, 2)\narange(1, n, 2)\n"
        "z[::3]\nnp.arange(n)\nnp.arange(0, n)\ngather(z, 2)\nrange(0, n, 2)\n'gather_rows'\n"
    )
    assert view_layout_statements(ast.parse(source)) == [
        (1, "gather_rows"), (2, "gather_rows"), (3, "view_rows"), (4, "_pair_layout"),
        (5, "stride 2"), (6, "stride 2"), (7, "stride 2"), (8, "stride 2"),
    ]

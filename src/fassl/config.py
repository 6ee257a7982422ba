"""Flat key=value experiment configuration.

The file format is one ``key = value`` per line; blank lines and lines
starting with ``#`` are ignored. Unknown keys and malformed or out-of-range
values are rejected with the offending line number. Rules across keys
(``clients_per_round <= clients``, enough pretext clips for every client,
enough frames for the pretext task's views or segments) are checked when
``base_run_config`` builds the run, so a command that trains nothing does
not enforce them.
Flags override file values, which override defaults. ``SCHEMA`` is the one
table of keys: it maps each key to the ``RunConfig`` field it sets, and run
defaults are read from the dataclasses, so a spec, its ``RunConfig`` and
its config text cannot drift apart.

Matrix keys (``strategies``, ``scopes``, ``local_epochs_list``) are
comma-separated lists of distinct values; when empty they fall back to the
corresponding single-value key, and ``cells()`` yields the cartesian
product, so every cell has a directory of its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from .aggregation import STRATEGY_KINDS
from .errors import ConfigError, ContractError
from .evaluator import FEATURE_LAYERS, METRICS
from .model import SCOPES
from .orchestrator import SSL_TASKS, RunConfig


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _choice(*options: str):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {options}, got {raw!r}")
        return raw

    return parse


def _positive_int(raw: str) -> int:
    v = int(raw)
    if v < 1:
        raise ValueError(f"expected a positive integer, got {v}")
    return v


def _positive_float(raw: str) -> float:
    v = float(raw)
    if not 0 < v < math.inf:
        raise ValueError(f"expected a finite positive number, got {v}")
    return v


def _nonneg_float(raw: str) -> float:
    v = float(raw)
    if not 0 <= v < math.inf:
        raise ValueError(f"expected a finite non-negative number, got {v}")
    return v


def _unit_fraction(raw: str) -> float:
    v = float(raw)
    if not 0.0 < v <= 1.0:
        raise ValueError(f"expected a value in (0, 1], got {v}")
    return v


def _probability(raw: str) -> float:
    v = float(raw)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"expected a value in [0, 1], got {v}")
    return v


def _distinct(items: tuple) -> tuple:
    """The axis values as given; a repeat is an error, since its two cells would share one directory."""
    repeated = sorted({str(v) for v in items if items.count(v) > 1})
    if repeated:
        raise ValueError(f"repeated values {repeated}")
    return items


def _str_list(options: tuple[str, ...]):
    def parse(raw: str) -> tuple[str, ...]:
        items = tuple(s.strip() for s in raw.split(",") if s.strip())
        bad = [s for s in items if s not in options]
        if bad:
            raise ValueError(f"unknown values {bad}, expected from {options}")
        return _distinct(items)

    return parse


def _int_list(raw: str) -> tuple[int, ...]:
    return _distinct(tuple(_positive_int(s.strip()) for s in raw.split(",") if s.strip()))


# key -> (parser, RunConfig field path, help). A dotted path reaches into
# the nested Strategy / AugmentPolicy; None marks a key that configures the
# CLI rather than a run, whose default lives in CLI_DEFAULTS. Every other
# default is read from RunConfig().
SCHEMA: dict[str, tuple] = {
    "rounds": (_positive_int, "rounds", "federated rounds R"),
    "clients": (_positive_int, "n_clients", "client pool size N"),
    "clients_per_round": (_positive_int, "clients_per_round", "clients sampled per round s"),
    "local_epochs": (_positive_int, "local_epochs", "local epochs E per round"),
    "batch_size": (_positive_int, "batch_size", "local batch size"),
    "lr": (_positive_float, "lr", "constant SGD learning rate"),
    "ssl_task": (_choice(*SSL_TASKS), "ssl_task", "pretext task"),
    "strategy": (_choice(*STRATEGY_KINDS), "strategy.kind", "aggregation strategy"),
    "scope": (_choice(*SCOPES), "scope", "transceived parameter scope"),
    "alpha": (_positive_float, "alpha", "Dirichlet heterogeneity coefficient"),
    "master_seed": (int, "master_seed", "root seed for every stream"),
    "eval_every": (_positive_int, "eval_every", "rounds between downstream evaluations"),
    "k": (_positive_int, "k", "k for retrieval"),
    "workers": (
        _positive_int, "workers", "processes `fassl run` spreads matrix cells over; a single run ignores it"
    ),
    "fedu_mu": (_positive_float, "strategy.fedu_mu", "relative divergence gate for fedu heads"),
    "loss_weight_direction": (
        _choice("high", "low"), "strategy.loss_direction", "loss strategy: weigh high- or low-loss clients"
    ),
    "tau": (_positive_float, "tau", "contrastive temperature"),
    "bt_lambda": (_nonneg_float, "bt_lambda", "off-diagonal weight of the matching loss"),
    "bt_eps": (_positive_float, "bt_eps", "std guard in column standardization"),
    "crop_fraction": (_unit_fraction, "augment.crop_fraction", "time-crop fraction for views"),
    "noise_std": (_nonneg_float, "augment.noise_std", "additive view noise std"),
    "band_mask_prob": (_probability, "augment.band_mask_prob", "per-band dropout probability"),
    "pretext_classes": (_positive_int, "pretext_classes", "pretext dataset classes"),
    "pretext_per_class": (_positive_int, "pretext_per_class", "pretext clips per class"),
    "frames": (_positive_int, "frames", "frames per clip"),
    "bands": (_positive_int, "bands", "bands per clip"),
    "hidden_dim": (_positive_int, "hidden_dim", "encoder hidden width"),
    "embed_dim": (_positive_int, "embed_dim", "backbone embedding width"),
    "projection_dim": (_positive_int, "projection_dim", "projection head output width"),
    "feature_layer": (_choice(*FEATURE_LAYERS), "feature_layer", "retrieval feature layer"),
    "metric": (_choice(*METRICS), "metric", "retrieval distance"),
    "out_dir": (str, None, "output directory (FASSL_OUT env overrides)"),
    "plot": (_parse_bool, None, "emit SVG plots after a run"),
    "strategies": (_str_list(STRATEGY_KINDS), None, "matrix axis; empty = [strategy]"),
    "scopes": (_str_list(SCOPES), None, "matrix axis; empty = [scope]"),
    "local_epochs_list": (_int_list, None, "matrix axis; empty = [local_epochs]"),
}

CLI_DEFAULTS = {"out_dir": "results", "plot": False, "strategies": (), "scopes": (), "local_epochs_list": ()}
_DEFAULT_RUN = RunConfig()


@dataclass(frozen=True)
class ExperimentSpec:
    """Resolved experiment: one base run plus the sweep axes."""

    values: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    def base_run_config(self) -> RunConfig:
        """The run the single-value keys describe; each key lands on its SCHEMA path."""
        top: dict = {}
        nested: dict[str, dict] = {}
        for key, (_, path, _) in SCHEMA.items():
            if path is not None:
                head, _, name = path.rpartition(".")
                (nested.setdefault(head, {}) if head else top)[name] = self.values[key]
        try:
            for head, kwargs in nested.items():
                top[head] = type(getattr(_DEFAULT_RUN, head))(**kwargs)
            return RunConfig(**top)
        except ContractError as exc:
            raise ConfigError(str(exc)) from exc

    def matrix_axes(self) -> tuple[tuple[str, ...], tuple[str, ...], tuple[int, ...]]:
        strategies = self["strategies"] or (self["strategy"],)
        scopes = self["scopes"] or (self["scope"],)
        epochs = self["local_epochs_list"] or (self["local_epochs"],)
        return strategies, scopes, epochs

    def cells(self) -> list[tuple[str, ExperimentSpec]]:
        """(cell name, single-cell spec) per point of the strategy x scope x E grid."""
        out = []
        for strategy, scope, epochs in itertools.product(*self.matrix_axes()):
            name = f"{self['ssl_task']}-{strategy}-{scope}-e{epochs}"
            values = dict(
                self.values, strategy=strategy, scope=scope, local_epochs=epochs,
                strategies=(), scopes=(), local_epochs_list=(),
            )
            out.append((name, ExperimentSpec(values=values)))
        return out

    def to_text(self, title: str = "experiment configuration") -> str:
        """Config file text; parsing it back yields this spec exactly."""
        lines = [f"# {title} (key = value; '#' starts a comment line)"]
        for key, (_, _, doc) in SCHEMA.items():
            value = self[key]
            if value == ():
                lines.append(f"# {key} = <comma list>  ({doc})")
            else:
                lines.append(f"# {doc}")
                lines.append(f"{key} = {_format_value(value)}")
        return "\n".join(lines) + "\n"


def default_spec() -> ExperimentSpec:
    return ExperimentSpec(values={
        key: CLI_DEFAULTS[key] if path is None else attrgetter(path)(_DEFAULT_RUN)
        for key, (_, path, _) in SCHEMA.items()
    })


def parse_config_text(text: str, source: str = "<config>") -> ExperimentSpec:
    values = dict(default_spec().values)
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        parser = SCHEMA[key][0]
        try:
            values[key] = parser(raw_value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return ExperimentSpec(values=values)


def parse_config(path: str | Path) -> ExperimentSpec:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    blob = p.read_bytes()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; count lines the way parse_config_text does
        line = len((blob[:exc.start] + b"x").decode("utf-8").splitlines())
        raise ConfigError(f"{p}:{line}: not valid UTF-8") from None
    return parse_config_text(text, source=str(p))


def apply_overrides(spec: ExperimentSpec, overrides: dict[str, str]) -> ExperimentSpec:
    """Apply raw flag values on top of a spec (flag > file > default)."""
    values = dict(spec.values)
    for key, raw in overrides.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        parser = SCHEMA[key][0]
        try:
            values[key] = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for flag --{key.replace('_', '-')}: {exc}") from exc
    return ExperimentSpec(values=values)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def emit_defaults() -> str:
    """Default config file; parsing it back yields the default spec exactly."""
    return default_spec().to_text()

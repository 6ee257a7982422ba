"""Flat key=value experiment configuration.

The file format is one ``key = value`` per line; blank lines and lines
starting with ``#`` are ignored. An unknown key, a key set twice, and a
malformed or out-of-range value are rejected with the line number. The
parser states no rule: it converts a run key's text by the kind of the
``RULES`` entry of the dataclass that owns the key's field (a comma list of
that kind for an axis), then checks each value, under its key's name, by
that entry (see ``errors``), so the message is the one that dataclass gives.
``out_dir`` is the output root as written, refused only where a config line
could not carry it back: leading or trailing whitespace, a line break, or a
character UTF-8 cannot encode. Parsing gives a plain dict of key values.
Rules across keys (``clients_per_round <= clients``, enough pretext clips
for every client, enough frames and clips for the pretext task's batches,
``feature_layer = projection`` only where a run trains ``head.proj``) are
checked when ``cells`` builds the runs, so a command that trains nothing
does not enforce them.
Flags override file values, which override defaults, and nothing else sets
a key (the output root is ``out_dir``'s). ``SCHEMA`` is the one
table of keys: it maps each key to the ``RunConfig`` field it sets. Run
defaults are read from the dataclasses, and ``config_text`` reads each key
off the ``RunConfig`` a cell runs, so a cell's config text and its run
cannot drift apart.

The matrix axes (``AXES``: ``strategy``, ``scope``, ``local_epochs``) take
a comma-separated list of distinct values, and one value is a one-cell
axis. ``cells()`` yields one named ``RunConfig`` per point of their
cartesian product, so every cell has a directory of its own.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from pathlib import Path

from .errors import ConfigError, ContractError, check
from .orchestrator import RunConfig


def _axis(convert):
    """Converter of a matrix axis: a comma list of distinct values, each read by convert."""

    def parse(raw: str) -> tuple:
        items = tuple(convert(s.strip()) for s in raw.split(",") if s.strip())
        if not items:
            raise ValueError("expected at least one value")
        repeated = sorted({str(v) for v in items if items.count(v) > 1})
        if repeated:  # the two cells of a repeated value would share one directory
            raise ValueError(f"repeated values {repeated}")
        return items

    return parse


# Keys whose value is a tuple of distinct values, one matrix cell per point.
AXES = ("strategy", "scope", "local_epochs")

# key -> (RunConfig field path, help). A dotted path reaches into the nested
# Strategy / AugmentPolicy; None marks out_dir, which configures the CLI
# rather than a run: the output root as given ("results" by default),
# refused only where a config.txt line could not carry it back.
# Every other default is read from RunConfig(), and every other rule and kind
# from the RULES table of the dataclass that owns the path's field.
SCHEMA: dict[str, tuple] = {
    "rounds": ("rounds", "federated rounds R"),
    "clients": ("n_clients", "client pool size N"),
    "clients_per_round": ("clients_per_round", "clients sampled per round s"),
    "local_epochs": ("local_epochs", "local epochs E per round"),
    "batch_size": ("batch_size", "local batch size"),
    "lr": ("lr", "constant SGD learning rate"),
    "ssl_task": ("ssl_task", "pretext task"),
    "strategy": ("strategy.kind", "aggregation strategy"),
    "scope": ("scope", "transceived parameter scope"),
    "alpha": ("alpha", "Dirichlet heterogeneity coefficient"),
    "master_seed": ("master_seed", "root seed for every stream"),
    "eval_every": ("eval_every", "rounds between downstream evaluations"),
    "k": ("k", "k for retrieval"),
    "workers": ("workers", "processes `fassl run` spreads matrix cells over; a single run ignores it"),
    "fedu_mu": ("strategy.fedu_mu", "relative divergence gate for fedu heads"),
    "tau": ("tau", "contrastive temperature"),
    "bt_lambda": ("bt_lambda", "off-diagonal weight of the matching loss"),
    "crop_fraction": ("augment.crop_fraction", "time-crop fraction for views"),
    "noise_std": ("augment.noise_std", "additive view noise std"),
    "band_mask_prob": ("augment.band_mask_prob", "per-band dropout probability"),
    "pretext_classes": ("pretext_classes", "pretext dataset classes"),
    "pretext_per_class": ("pretext_per_class", "pretext clips per class"),
    "frames": ("frames", "frames per clip"),
    "bands": ("bands", "bands per clip"),
    "hidden_dim": ("hidden_dim", "encoder hidden width"),
    "embed_dim": ("embed_dim", "backbone embedding width"),
    "projection_dim": ("projection_dim", "projection head output width"),
    "feature_layer": ("feature_layer", "retrieval feature layer"),
    "out_dir": (None, "output root: one directory per matrix cell"),
}

_DEFAULT_RUN = RunConfig()


def _owner(head: str) -> type:
    """The dataclass that owns the fields under a SCHEMA path's head ('' for RunConfig's own)."""
    return type(getattr(_DEFAULT_RUN, head)) if head else RunConfig


def default_values() -> dict:
    """Every key's default value, a one-value tuple for each of AXES."""
    values = {
        key: "results" if path is None else attrgetter(path)(_DEFAULT_RUN)
        for key, (path, _) in SCHEMA.items()
    }
    return dict(values, **{key: (values[key],) for key in AXES})


def cells(values: dict) -> list[tuple[str, RunConfig]]:
    """(cell name, run) per point of the strategy x scope x E grid; each key lands on its SCHEMA path."""
    out = []
    for point in itertools.product(*(values[key] for key in AXES)):
        cell = dict(values, **dict(zip(AXES, point)))
        top: dict = {}
        nested: dict[str, dict] = {}
        for key, (path, _) in SCHEMA.items():
            if path is not None:
                head, _, name = path.rpartition(".")
                (nested.setdefault(head, {}) if head else top)[name] = cell[key]
        try:
            top.update({head: _owner(head)(**kwargs) for head, kwargs in nested.items()})
            cfg = RunConfig(**top)
        except ContractError as exc:
            raise ConfigError(str(exc)) from exc
        out.append((f"{cfg.ssl_task}-{cfg.strategy.kind}-{cfg.scope}-e{cfg.local_epochs}", cfg))
    return out


def config_text(cfg: RunConfig, out_dir: str, title: str) -> str:
    """Config file text of one run, each key read off cfg by its SCHEMA path; parsing it back gives cfg's cell."""
    lines = [f"# {title} (key = value; '#' starts a comment line)"]
    for key, (path, doc) in SCHEMA.items():
        lines.append(f"# {doc}")
        lines.append(f"{key} = {out_dir if path is None else attrgetter(path)(cfg)}")
    return "\n".join(lines) + "\n"


def _out_dir(raw: str) -> str:
    """The output root as given, refused where a config.txt line could not carry it back unchanged."""
    if raw != raw.strip():
        raise ValueError(f"{raw!r} has leading or trailing whitespace, which a config line drops")
    if len(raw.splitlines()) > 1:
        raise ValueError(f"{raw!r} holds a line break, which would end its config line")
    try:
        raw.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{raw!r} holds a character UTF-8 cannot encode") from None
    return raw


def _parse(key: str, raw: str):
    """Convert a key's text by the kind of its field's rule, then check each value by that rule."""
    path, _ = SCHEMA[key]
    if path is None:
        return _out_dir(raw)
    head, _, name = path.rpartition(".")
    rule = _owner(head).RULES[name]
    value = (_axis(rule[0]) if key in AXES else rule[0])(raw)
    for item in value if key in AXES else (value,):
        check(key, item, rule)
    return value


def parse_config_text(text: str, source: str) -> dict:
    values = default_values()
    first_line: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"{source}:{lineno}: key {key!r} is already set on line {first_line[key]}")
        first_line[key] = lineno
        try:
            values[key] = _parse(key, raw_value.strip())
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def parse_config(path: str | Path) -> dict:
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


def apply_overrides(values: dict, overrides: dict[str, str]) -> dict:
    """Apply raw flag values on top of key values (flag > file > default)."""
    values = dict(values)
    for key, raw in overrides.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            values[key] = _parse(key, raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for flag --{key.replace('_', '-')}: {exc}") from exc
    return values


def emit_defaults() -> str:
    """Default config file; parsing it back yields default_values() exactly."""
    return config_text(_DEFAULT_RUN, default_values()["out_dir"], "experiment configuration")

"""Exception types shared across the package, and the one check of a field's rule.

A settings dataclass (``RunConfig``, ``Strategy``) or a result
(``TaskAccuracy``, ``ClientUpdate``) names each field's rule in its
``RULES`` table, and its ``__post_init__`` is ``check_fields(self)``. A rule
the package reads outside its dataclass is stated once, beside the code that
reads it (``model.SCOPE``, ``ssl_tasks.TEMPERATURE``), and ``RULES`` refers
to it; the config parser, the results reader and every library function
reading the setting check a value by that same rule object. A rule is
``(kind, test, message)``: the value must be a ``kind`` (``int`` is an
integer and never a ``bool``, ``float`` any real number, another class an
``isinstance`` test), a float must be finite, and ``test(value)`` must
hold, else ``message`` is formatted with the field's ``name`` and ``value``.
"""

from __future__ import annotations

import math
from numbers import Integral, Real


class ContractError(ValueError):
    """A caller violated a documented precondition (bad shape, empty input, ...)."""


class ConfigError(ValueError):
    """A config file or flag value could not be parsed or is out of range."""


COUNT = (int, lambda v: v >= 1, "{name} must be positive, got {value}")
POSITIVE = (float, lambda v: v > 0, "{name} must be positive, got {value}")
NON_NEGATIVE = (float, lambda v: v >= 0, "{name} must be non-negative, got {value}")

# kind -> (its name in a message, the class a value must be an instance of)
_KINDS = {int: ("an integer", Integral), float: ("a number", Real), str: ("a string", str)}


def one_of(*choices: str) -> tuple:
    return (str, lambda v: v in choices, f"unknown {{name}} {{value!r}}, expected one of {choices}")


def instance_of(cls: type) -> tuple:
    """Any value of cls; a nested settings dataclass checks its own fields."""
    return (cls, lambda v: True, "")


def check(name: str, value, rule: tuple) -> None:
    kind, test, message = rule
    what, cls = _KINDS.get(kind, (f"of type {kind.__name__}", kind))
    if isinstance(value, bool) or not isinstance(value, cls):
        raise ContractError(f"{name} must be {what}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ContractError(f"{name} must be finite, got {value}")
    if not test(value):
        raise ContractError(message.format(name=name, value=value))


def check_fields(obj) -> None:
    """Check each field of a settings dataclass against its ``RULES`` entry, in table order."""
    for name, rule in obj.RULES.items():
        check(name, getattr(obj, name), rule)

"""Exception hierarchy for the cluster substrate, and the declared bounds on
settings: a settings dataclass subclasses :class:`Settings` and declares each
numeric field's bound where its default is written (``interval: float =
positive(5.0)``), and building one refuses a value outside it with a
:class:`ConfigurationError` naming ``Class.field`` (ARCHITECTURE.md,
"Settings and their bounds")."""

from __future__ import annotations

import dataclasses
import math
import numbers
import types
import typing
from typing import Any, Callable, List, NamedTuple, Optional, Tuple


class ClusterError(Exception):
    """Base class for every error raised by :mod:`repro.cluster`."""


class ConfigurationError(ClusterError, ValueError):
    """Raised for an invalid setting (outside its bound, or RF larger than cluster)."""


class UnknownNodeError(ClusterError):
    """Raised when an operation references a node that is not a member."""


class TopologyError(ClusterError):
    """Raised for invalid topology changes (e.g. removing the last node)."""


class Bound(NamedTuple):
    """The finite numbers in ``[low, high]``, or ``(low, high]`` when ``low_open``."""

    low: float
    high: float = math.inf
    low_open: bool = False

    def admits(self, value: object) -> bool:
        if not (isinstance(value, numbers.Real) and -math.inf < value < math.inf):
            return False
        return (self.low < value if self.low_open else self.low <= value) and value <= self.high

    def __str__(self) -> str:
        if self.high < math.inf:
            return f"in {'(' if self.low_open else '['}{self.low:g}, {self.high:g}]"
        if self.low == -math.inf:
            return "finite"
        return f"finite and {'>' if self.low_open else '>='} {self.low:g}"


FINITE = Bound(-math.inf)
POSITIVE = Bound(0.0, low_open=True)
NON_NEGATIVE = Bound(0.0)
FRACTION = Bound(0.0, 1.0)
POSITIVE_FRACTION = Bound(0.0, 1.0, low_open=True)


def check(owner: str, name: str, value: Any, bound: Bound) -> Any:
    """``value`` unchanged, or one :class:`ConfigurationError` naming ``owner.name``."""
    if not bound.admits(value):
        raise ConfigurationError(f"{owner}.{name} must be {bound}, got {value!r}")
    return value


# A field declaring its bound; without a ``default`` the field is required.
def _declare(bound: Bound, default: Any) -> Any:
    return dataclasses.field(default=default, metadata={"bound": bound})


def positive(default: Any = dataclasses.MISSING) -> Any:
    return _declare(POSITIVE, default)


def non_negative(default: Any = dataclasses.MISSING) -> Any:
    return _declare(NON_NEGATIVE, default)


def at_least(low: float, default: Any = dataclasses.MISSING) -> Any:
    return _declare(Bound(low), default)


def fraction(default: Any = dataclasses.MISSING) -> Any:
    return _declare(FRACTION, default)


def positive_fraction(default: Any = dataclasses.MISSING) -> Any:
    return _declare(POSITIVE_FRACTION, default)


# (field, its bound, or else the settings class it holds, whether None passes)
_Rule = Tuple[str, Optional[Bound], Optional[type], bool]


def _rules(cls: type) -> List[_Rule]:
    hints = typing.get_type_hints(cls)
    rules: List[_Rule] = []
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        union = typing.get_origin(hint) in (typing.Union, types.UnionType)
        members = typing.get_args(hint) if union else (hint,)
        nested = [
            kind for kind in members if isinstance(kind, type) and issubclass(kind, Settings)
        ]
        bound = field.metadata.get("bound")
        if bound is not None or len(nested) == 1:
            kind = nested[0] if bound is None else None
            rules.append((field.name, bound, kind, type(None) in members))
    return rules


class Settings:
    """Base of the settings dataclasses: building one checks each declared bound
    and each field annotated with a settings class (annotations resolved once
    per class), then runs the class's own ``__post_init__``."""

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own: Optional[Callable[[Any], None]] = cls.__dict__.get("__post_init__")
        rules: Optional[List[_Rule]] = None

        def __post_init__(self: Any) -> None:
            nonlocal rules
            if rules is None:
                rules = _rules(cls)
            owner = type(self).__name__
            for name, bound, kind, optional in rules:
                value = getattr(self, name)
                if value is None and optional:
                    continue
                if bound is not None:
                    check(owner, name, value, bound)
                elif not isinstance(value, kind):
                    raise ConfigurationError(
                        f"{owner}.{name} must be {kind.__name__}, got {type(value).__name__}"
                    )
            if own is not None:
                own(self)

        cls.__post_init__ = __post_init__

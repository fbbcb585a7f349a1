"""Exception types shared across the package.

Every error carries a machine-readable ``kind`` tag and a ``details`` dict so
the CLI can serialize failures as JSON without string parsing.  Two helpers
raise them where user input meets the library: ``open_path`` for a path that
does not open, ``from_table`` for an unknown name or bad params.  ``to_json``
is the one encoder of artifact data; ``JsonResult`` gives a result dataclass
its ``.to_json()``.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass

import numpy as np


class SaacertError(Exception):
    """Base class for all package errors."""

    kind = "error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def to_json(self) -> dict:
        return {"error": self.kind, "message": self.message, "details": self.details}


class EmptySampleError(SaacertError):
    kind = "empty-sample"


class DimensionMismatchError(SaacertError):
    kind = "dimension-mismatch"


class BudgetError(SaacertError):
    kind = "budget-exceeded"


class SlaterMarginError(SaacertError):
    kind = "slater-margin"


class InfeasibleError(SaacertError):
    kind = "infeasible"


class DegenerateFeatureError(SaacertError):
    kind = "degenerate-feature"


class ConfigError(SaacertError):
    kind = "config"


class UncalibratableError(SaacertError):
    kind = "uncalibratable"


def from_table(table: dict, what: str, name, params: dict):
    """``table[name](**params)``; an unknown ``name``, params the entry does
    not take, or values that are not floats or overflow one raise ConfigError."""
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"unknown {what} {name!r}", allowed=sorted(table))
    try:
        return table[name](**params)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {what} params: {exc}", name=name) from exc


def open_path(path, mode: str = "r", **kwargs):
    """``open(path, mode)``; an OSError becomes a ConfigError naming the path."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot open file: {exc.strerror}",
                          path=str(path)) from exc


def to_json(obj):
    """``obj`` as JSON-ready Python data.

    A dataclass becomes its fields plus the derived values its class names in
    ``_JSON_EXTRA``, less the ``_JSON_OPTIONAL`` keys whose value is None.
    Dicts (keys become strings), lists, tuples and arrays are encoded item by
    item; numpy scalars become Python values, and non-finite floats their
    repr (``"inf"``, ``"-inf"``, ``"nan"``).
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        names = [f.name for f in fields(obj)] + list(getattr(obj, "_JSON_EXTRA", ()))
        optional = getattr(obj, "_JSON_OPTIONAL", ())
        obj = {name: value for name in names
               if (value := getattr(obj, name)) is not None or name not in optional}
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


class JsonResult:
    """Mixin for result dataclasses: ``.to_json()`` is ``to_json(self)``."""

    def to_json(self) -> dict:
        return to_json(self)

"""Exception types shared across the package.

Every error carries a machine-readable ``kind`` tag and a ``details`` dict so
the CLI can serialize failures as JSON without string parsing.  Two helpers
raise them where user input meets the library: ``open_path`` for a path that
does not open, ``from_table`` for an unknown name or bad params.
"""

from __future__ import annotations


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
    """``table[name](**params)``; an unknown ``name`` or params the entry does
    not take raise ConfigError."""
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"unknown {what} {name!r}", allowed=sorted(table))
    try:
        return table[name](**params)
    except TypeError as exc:
        raise ConfigError(f"bad {what} params: {exc}", name=name) from exc


def open_path(path, mode: str = "r", **kwargs):
    """``open(path, mode)``; an OSError becomes a ConfigError naming the path."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot open file: {exc.strerror}",
                          path=str(path)) from exc

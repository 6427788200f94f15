"""Shared exception types.

Every failure mode that a caller can act on gets its own class so that
pipelines and the CLI can report machine-readable error records instead
of tracebacks.
"""
from __future__ import annotations


class CocycleLabError(Exception):
    """Base class for all structured errors raised by this package."""

    def record(self) -> dict:
        return {"error": type(self).__name__, "message": str(self)}


class DepthMismatch(CocycleLabError):
    """Two cylinder words were combined at incompatible depths."""


class DepthExhausted(CocycleLabError):
    """A search over refinement depths hit its configured depth budget."""


class BudgetExhausted(CocycleLabError):
    """An iterative pairing or enumeration ran out of its work budget."""


class SearchExhausted(CocycleLabError):
    """A witness search finished without finding a verified witness."""

    def __init__(self, message: str, best: dict | None = None):
        super().__init__(message)
        self.best = dict(best) if best else {}

    def record(self) -> dict:
        rec = super().record()
        if self.best:
            rec["best"] = {k: str(v) for k, v in self.best.items()}
        return rec


class SizeGuard(CocycleLabError):
    """An exhaustive check was requested beyond its guarded size."""


class UnboundedClass(CocycleLabError):
    """A conjugacy class enumeration exceeded its element budget."""


class EmptyCore(CocycleLabError):
    """The disjoint core of a construction step missed its mass bound."""


class PostconditionFailure(CocycleLabError):
    """An exact postcondition check failed after a construction."""

    def __init__(self, clause: str, detail: str = ""):
        msg = f"postcondition {clause!r} failed" + (f": {detail}" if detail else "")
        super().__init__(msg)
        self.clause = clause
        self.detail = detail

    def record(self) -> dict:
        rec = super().record()
        rec["clause"] = self.clause
        return rec


class ConfigError(CocycleLabError):
    """A pipeline configuration was malformed or inconsistent."""


class MalformedInput(CocycleLabError, ValueError):
    """A word or an element label in a config or a stored report is not
    one this package can name, or a report cannot be read; it is a
    ValueError as well."""

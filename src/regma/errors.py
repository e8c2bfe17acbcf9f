"""Shared exception types and enumeration-guard handling."""

from __future__ import annotations

import os

GUARD_ENV = "REGMA_GUARD_OVERRIDE"


class RegmaError(Exception):
    """Base class for library errors."""


class DimensionError(RegmaError):
    """Matrix or vector dimensions are inconsistent with the operation."""


class RankDeficientError(RegmaError):
    """An operation requires a full-rank representation."""


class GuardExceeded(RegmaError):
    """An enumeration guard was hit; set REGMA_GUARD_OVERRIDE=1 to lift it."""


class DisconnectedGraphError(RegmaError):
    """The operation requires a connected graph."""


class AcyclicGraphError(RegmaError):
    """The operation requires a graph containing at least one cycle."""


class PreconditionError(RegmaError):
    """A documented operation precondition was violated."""


class InputError(PreconditionError):
    """Text or JSON from outside the program (a graph, matroid, weight or
    certificate file, or a matroid expression) is malformed."""


class VerificationError(RegmaError):
    """A computed result failed its certificate or consistency check."""


def check_guard(value: int, limit: int, what: str) -> None:
    """Raise GuardExceeded when value > limit, unless overridden by env."""
    if value > limit and not os.environ.get(GUARD_ENV):
        raise GuardExceeded(
            f"{what}: size {value} exceeds guard {limit} "
            f"(set {GUARD_ENV}=1 to override)"
        )

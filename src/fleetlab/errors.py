"""Exception hierarchy shared across the package, and its argument checks."""

import math
import numbers


class FleetlabError(Exception):
    """Base class for all fleetlab errors."""


class ConfigError(FleetlabError):
    """A network configuration violates its invariants or cannot be parsed."""


class InvalidArgument(FleetlabError):
    """An argument refers to an unknown status or is otherwise out of range."""


class ContractViolation(FleetlabError):
    """An action or state fails the feasibility contract of an operation."""


class TrainingDiagnostic(FleetlabError):
    """Non-finite values encountered during network training."""


class LpInfeasible(FleetlabError):
    """The linear program has no feasible point."""


class LpUnbounded(FleetlabError):
    """The linear program objective is unbounded above."""


class StateSpaceTooLarge(FleetlabError):
    """Exact solution refused because the enumerable state space is too big."""


class ValueIterationNotConverged(FleetlabError):
    """Exact value iteration reached its sweep limit before converging."""


def require_int(name: str, value, least: int) -> None:
    """Raise InvalidArgument unless ``value`` is an integer (an int or numpy
    integer, not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidArgument(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidArgument(f"{name} must be >= {least}, got {value}")


def require_real(name: str, value, least: float, most: float = math.inf,
                 strict: bool = False) -> None:
    """Raise InvalidArgument unless ``value`` is a finite real number, not a
    bool, of at least ``least`` (above it if ``strict``) and at most ``most``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidArgument(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(value) and least <= value <= most and not (strict and value == least)):
        op = ">" if strict else ">="
        upper = f" and <= {most}" if most < math.inf else ""
        raise InvalidArgument(f"{name} must be finite and {op} {least}{upper}, got {value}")

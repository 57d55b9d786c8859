"""Exception hierarchy shared across the package."""


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

"""Exception types shared across the package."""


class VotectrlError(Exception):
    """Base class for all package-specific errors."""


class InvalidName(VotectrlError):
    """A candidate name contains a symbol outside the codec alphabet."""


class ParseError(VotectrlError):
    """A text file or grammar string could not be parsed."""


class ShapeMismatch(VotectrlError):
    """A control action does not fit the control instance variant."""


class BoundViolation(VotectrlError):
    """A control action violates the instance's bounds (e.g. over the limit k)."""


class BudgetExceeded(VotectrlError):
    """An exhaustive search would exceed the configured action budget."""


class WrongSystem(VotectrlError):
    """A specialized decision procedure was handed the wrong election system."""


class InvariantViolation(VotectrlError):
    """A source instance violates the invariants a reduction relies on."""


class ParityViolation(InvariantViolation):
    """A graph has the wrong vertex-count parity for the requested target."""


class TooManyEdges(InvariantViolation):
    """A graph has more edges than the construction's voter budget allows."""


class NonInjectiveMap(VotectrlError):
    """A renaming map is not injective on the relevant candidate set."""


class PreconditionFailed(VotectrlError):
    """A harness construction's stated precondition does not hold."""


class ReplayMismatch(VotectrlError):
    """A replayed worked example deviates from its recorded outcome."""

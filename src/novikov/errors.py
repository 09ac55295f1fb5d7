"""Exception types shared across the package.

Everything derives from NovikovError so callers can catch the whole family;
the CLI maps NumericalError to its own exit code and treats the rest as
input validation failures.
"""


class NovikovError(Exception):
    """Base class for errors raised by this package."""


class BackendMismatchError(NovikovError):
    """Scalars from incompatible backends were mixed in one matrix or formula."""


class ReducibilityError(NovikovError):
    """A claimed minimal polynomial turned out to be reducible.

    Carries the nontrivial factor discovered during inversion, when known.
    """

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor


class IncompleteCocycleError(NovikovError):
    """A cocycle is missing values on edges of its complex."""


class InvalidLoopError(NovikovError):
    """A vertex loop steps outside the edge set of the complex."""


class InvalidMapError(NovikovError):
    """A vertex map is not a simplicial map / automorphism where one is required."""


class ConstructionError(NovikovError):
    """A complex construction produced a degenerate or inconsistent result."""


class NumericalError(NovikovError):
    """A floating-point computation failed to converge or lost too much accuracy."""

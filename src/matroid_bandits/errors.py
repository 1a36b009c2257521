"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the operation's domain (bad id, bad range)."""


class PreconditionError(ValueError):
    """A documented precondition was violated by the caller."""


class CapacityError(ValueError):
    """A brute-force enumeration guard was exceeded."""


class BudgetError(RuntimeError):
    """A sampling/recursion/round budget was exhausted.

    ``guard`` names the guard that raised it: ``budget`` (the pull budget),
    ``drawability`` (a pull count too large to draw), ``depth`` (the pac
    recursion depth), ``elimination_round`` or ``selection_round``.
    """

    def __init__(self, message: str, guard: str):
        super().__init__(message)
        self.guard = guard

    def __reduce__(self):  # the default would re-create it from the message alone
        return type(self), (str(self), self.guard)


class ValidationError(ValueError):
    """An instance description failed validation."""


class ConfigError(ValueError):
    """A CLI or run configuration is invalid."""


class InvariantError(AssertionError):
    """An internal invariant that should never fail did fail."""

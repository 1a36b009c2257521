"""Exception types shared across the package, and the rules for numeric arguments.

Every layer checks a scalar numeric argument through one of two rules,
raising its own error type:

- :func:`integer`: a Python or numpy integer, not a bool, at least ``least``
  when that is given (:func:`seed_integer` is this rule for seeds);
- :func:`real`: a real number (``numbers.Real``, numpy's included) or a
  ``Decimal``, not a bool, inside one of the ranges in ``_RANGES``.

Each returns the value as a plain Python ``int`` or ``float``, which the
caller stores, and refuses anything else as ``<what> must be <rule>, not
<value!r>``.
"""

import math
from decimal import Decimal
from numbers import Integral, Real


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


def integer(value, what: str, error: type[Exception], least: int | None = None,
            rule: str | None = None) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, and at least
    ``least`` when that is given. Anything else raises ``error``; ``rule``
    names what was asked for, "an integer" or "an integer >= <least>" by default."""
    if type(value) is int:  # the common case skips the abstract-class checks
        number = value
    elif isinstance(value, Integral) and not isinstance(value, bool):
        number = int(value)
    else:
        number = None
    if number is None or least is not None and number < least:
        if rule is None:
            rule = "an integer" if least is None else f"an integer >= {least}"
        raise error(f"{what} must be {rule}, not {value!r}")
    return number


def seed_integer(value, error: type[Exception], what: str = "seed") -> int:
    """A seed, or the index of a trial, which seeds its stream: an integer >= 0."""
    return integer(value, what, error, 0, "a non-negative integer")


# The ranges that a real argument may be asked to lie in: each one's ends,
# whether each end belongs to it, and its text.
_RANGES = {
    "> 0": (0.0, math.inf, False, True, "> 0 and real"),
    ">= 0": (0.0, math.inf, True, True, ">= 0 and real"),
    "(0, 1)": (0.0, 1.0, False, False, "a real number in (0, 1)"),
    "(0, 1]": (0.0, 1.0, False, True, "a real number in (0, 1]"),
    "[0, 1]": (0.0, 1.0, True, True, "a real number in [0, 1]"),
    "finite": (-math.inf, math.inf, False, False, "a finite real number"),
}


def real(value, what: str, error: type[Exception], within: str) -> float:
    """``value`` as a float: a real number or a ``Decimal``, not a bool, inside
    the range that ``within`` names (a key of ``_RANGES``). Anything else,
    NaN included, raises ``error``."""
    low, high, has_low, has_high, rule = _RANGES[within]
    number = value
    if type(value) is not float:  # the common case skips the abstract-class checks
        number = math.nan  # which no range holds
        if isinstance(value, (Real, Decimal)) and not isinstance(value, bool):
            try:
                number = float(value)
            except (OverflowError, ValueError):  # past the float range, or a signalling NaN
                pass
    if not (low < number < high or has_low and number == low or has_high and number == high):
        raise error(f"{what} must be {rule}, not {value!r}")
    return number

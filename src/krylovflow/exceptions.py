"""Package-wide exception types, and the one integer rule of the library's
counts."""

from numbers import Integral


class NumericalFailure(RuntimeError):
    """An algorithm produced non-finite values or failed to converge."""


class InvariantViolation(RuntimeError):
    """A verified internal identity or physical invariant did not hold."""


def require_integer(value, name):
    """ValueError unless the count ``name`` is a Python or NumPy integer:
    a bool or a float, even 400.0, is not one."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} = {value!r} is not an integer")

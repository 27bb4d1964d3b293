"""Exception types shared across the package, and the value guards."""

import math
import numbers
import sys

LOG_FLOAT_MAX = math.log(sys.float_info.max)  # ~709.78, the largest x with e^x finite


class ParameterError(ValueError):
    """A model or run parameter violates its admissibility condition."""


class DomainError(ValueError):
    """A demand level lies outside the state space of the model."""


class GridError(ValueError):
    """A time grid is incompatible with the requested operation,
    e.g. the build lag is not an integer number of steps."""


class NumericsError(RuntimeError):
    """An iterative numerical routine failed to converge or produced
    values outside its guaranteed range."""


class TruncationError(RuntimeError):
    """The analytic bound on the discarded tail of a discounted integral
    exceeds the accepted fraction of the estimate."""


class StepError(ValueError):
    """A finite-difference step left the admissible parameter region."""


def require_finite(owner: str, **values: float) -> None:
    """Raise ParameterError naming the first of `values` that is nan or
    infinite; `owner` names the object being built."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{owner} needs finite {name}, got {name}={value}")


def require_nonnegative(**values: float) -> None:
    """Raise ParameterError naming the first of `values` not finite and >= 0."""
    for name, value in values.items():
        if not (math.isfinite(value) and value >= 0.0):
            raise ParameterError(f"need finite {name} >= 0, got {name}={value}")


def require_lag(owner: str, rho: float, h: float) -> None:
    """Raise ParameterError naming h unless e^(rho h), the growth of the
    cost of capital over the lag, is a finite float; `owner` names the
    object being built."""
    if not rho * h <= LOG_FLOAT_MAX:
        raise ParameterError(
            f"{owner} needs h with e^(rho h) inside the float range, got h={h} at rho={rho}")


def require_count(least: int, **values) -> None:
    """Raise ParameterError naming the first of `values` that is not an
    integer >= `least`.  A bool is not a count, though Python makes it an
    int; numpy integers are counts."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise ParameterError(f"need integer {name} >= {least}, got {name}={value!r}")

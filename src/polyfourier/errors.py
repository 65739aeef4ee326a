"""Shared exception types, and the float-range check of the scalar functions."""

import functools
import math


class ConvergenceError(RuntimeError):
    """An iterative evaluation hit its term/node cap before converging."""


def in_float_range(fn):
    """fn, with an overflow, a result that is not finite, or a nonzero result
    below 2^-1022 (a subnormal double holds too few bits) raised as ValueError."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            value = fn(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{fn.__name__} overflows double precision")
        if value and abs(value) < 2.0**-1022:
            raise ValueError(f"{fn.__name__} underflows double precision")
        return value

    return checked

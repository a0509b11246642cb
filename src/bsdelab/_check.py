"""Counts are integers, reals are finite, a bool is neither, and nothing is
truncated. A check returns a Python int or float, or raises `error` naming the value."""

import math
import numbers


def count(name: str, value, minimum: int, error=ValueError) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise error(f"{name} must be integers >= {minimum}, got {value!r}")
    return int(value)


def real(name: str, value, error=ValueError, above=-math.inf, at_least=-math.inf,
         below=math.inf, at_most=math.inf) -> float:
    is_real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if is_real else math.nan
    except OverflowError:   # an int beyond the largest float
        x = math.nan
    if not (math.isfinite(x) and above < x < below and at_least <= x <= at_most):
        lo = f"[{at_least}" if at_least > above else f"({above}"
        hi = f"{at_most}]" if at_most < below else f"{below})"
        raise error(f"{name} must be finite reals in {lo}, {hi}, got {value!r}")
    return x

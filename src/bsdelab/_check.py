"""Counts are integers, reals and arrays are finite, a bool is neither, per-path values
broadcast, and nothing is truncated or reshaped. A check returns the value or raises."""

import math
import numbers

import numpy as np


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


def per_path(name: str, value, shape: tuple) -> np.ndarray:
    """value as float64 if its shape broadcasts to shape without adding or
    growing an axis; it is not reshaped, flattened or broadcast."""
    value = np.asarray(value, dtype=np.float64)
    got = value.shape
    if got != shape and got and (len(got) > len(shape) or any(
            g not in (1, s) for g, s in zip(got[::-1], shape[::-1]))):
        raise ValueError(f"{name} got shape {got}: per-path values broadcast to shape "
                         f"{shape}, not {got}")
    return value


def finite(name: str, value) -> np.ndarray:
    """value as float64; the ValueError names its first non-finite entry in C order."""
    value = np.asarray(value, dtype=np.float64)
    ok = np.isfinite(value)
    if not ok.all():
        i = tuple(int(j) for j in np.argwhere(~ok)[0])
        raise ValueError(f"{name} holds non-finite values: {float(value[i])!r} at index {i}")
    return value

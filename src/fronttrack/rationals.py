"""Exact rational helpers.

Every speed, time, position, state and potential value in this package is a
``fractions.Fraction``.  This module holds the small amount of shared plumbing:
parsing/formatting of "p/q" strings and exact grid rounding.
"""

from fractions import Fraction
from math import floor

from .errors import InputError


def parse_rational(value) -> Fraction:
    """Convert a config value to an exact Fraction.

    Strings may be "p/q", an integer, or a decimal literal ("0.6" -> 3/5,
    exact).  Python floats are converted exactly from their binary value.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a rational value: {value!r}")
    if isinstance(value, (int, float, str)):
        # an infinite float (JSON reads 1e400 and Infinity as one) overflows
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InputError(f"not a rational value: {value!r}") from exc
    raise InputError(f"not a rational value: {value!r}")


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" (or "p") form; inverse of parse_rational on its image."""
    return str(value if isinstance(value, Fraction) else Fraction(value))


def grid_index(u: Fraction, epsilon: Fraction) -> int:
    """The integer k with u = k*epsilon, or InputError if u is off-grid."""
    q = Fraction(u) / epsilon
    if q.denominator != 1:
        raise InputError(f"value {u} is not a multiple of the grid size {epsilon}")
    return q.numerator


def round_to_grid_half_even(u: Fraction, epsilon: Fraction) -> Fraction:
    """Nearest grid multiple of epsilon, ties to the even multiple."""
    q = Fraction(u) / epsilon
    lo = floor(q)
    frac = q - lo
    half = Fraction(1, 2)
    if frac < half:
        k = lo
    elif frac > half:
        k = lo + 1
    else:
        k = lo if lo % 2 == 0 else lo + 1
    return k * epsilon

"""Exact rational helpers.

Every speed, time, position and potential value in this package is a
``fractions.Fraction``.  A state is a grid point k*epsilon: it is a
``Fraction`` where it enters (configs, profiles), where it is checked (the
validators derive its k with `grid_coordinate`) and where it is reported,
while the kernel (the Riemann solver, front tracking and wave tracing) and
the potentials (the speed change) carry it as its grid index k, an int,
from the hull a front is born on.  This module holds the small amount of
shared plumbing: parsing/formatting of "p/q" strings, exact grid indices,
and the one reader of JSON fields that configs, flux specs and reports
share.
"""

import sys
from fractions import Fraction

from .errors import InputError


def parse_rational(value) -> Fraction:
    """Convert a config value to an exact Fraction.

    Strings may be "p/q", an integer, or a decimal literal ("0.6" -> 3/5,
    exact).  Python floats are converted exactly from their binary value.
    Where the interpreter limits int-to-str conversion, a value whose
    numerator or denominator has more digits than that is refused: no
    report could write it.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a rational value: {_shown(value)}")
    if isinstance(value, (int, float, str)):
        # an infinite float (JSON reads 1e400 and Infinity as one) overflows
        try:
            q = Fraction(value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InputError(f"not a rational value: {_shown(value)}") from exc
        if _too_long(q.numerator) or _too_long(q.denominator):
            raise InputError(
                f"rational value has more digits than this interpreter's limit of "
                f"{sys.get_int_max_str_digits()}: {_shown(value)}"
            )
        return q
    raise InputError(f"not a rational value: {_shown(value)}")


def _shown(value) -> str:
    """A rejected value as an error message echoes it: its text cut to the
    first 20 characters, quoted, so that a line stays short."""
    return repr(str(value)[:20])


def _too_long(n: int) -> bool:
    """Whether ``n`` has more decimal digits than the interpreter's
    int-to-str limit, where it has one; below 2**(3 * limit), which is less
    than 10**limit, no power is computed."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    return bool(limit) and abs(n).bit_length() > 3 * limit and abs(n) >= 10 ** limit


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" (or "p") form; inverse of parse_rational on its image.

    A run can derive a value with more digits than the interpreter's
    int-to-str limit from inputs within it; no output can write that value,
    so it is an input error, as such an input is."""
    value = value if isinstance(value, Fraction) else Fraction(value)
    try:
        return str(value)
    except ValueError:
        raise InputError(
            f"derived value has more digits than this interpreter's limit of "
            f"{sys.get_int_max_str_digits()}"
        ) from None


def grid_index(u: Fraction, epsilon: Fraction) -> int:
    """The integer k with u = k*epsilon, or InputError if u is off-grid."""
    k, rest = divmod(u.numerator * epsilon.denominator, u.denominator * epsilon.numerator)
    if rest:
        raise InputError(f"value {u} is not a multiple of the grid size {epsilon}")
    return k


def grid_coordinate(u: Fraction, epsilon: Fraction):
    """u / epsilon, exactly and without raising: the int k when u = k*epsilon
    is a grid point, else a `Fraction` that is not an integer.  Coordinates
    compare, subtract and add as the states do, scaled by 1/epsilon, and an
    off-grid one equals no grid index."""
    n, d = u.numerator * epsilon.denominator, u.denominator * epsilon.numerator
    k, rest = divmod(n, d)
    return Fraction(n, d) if rest else k


REQUIRED = object()  # json_field's default: the field must be present

_JSON_KINDS = {int: "integer", bool: "boolean", str: "string", list: "array", dict: "object"}


def json_field(obj, key, kind, doc, path="", default=REQUIRED):
    """``obj[key]`` checked to be a JSON ``kind`` (int, bool, str, list or
    dict; a bool is never an int; ``object`` accepts any value), or
    ``default`` when the field is absent and a default is given.

    Errors name the field ``<doc> field '<path><key>'``, with a list index
    ``key`` written ``[key]``, and say that it ``is missing`` or ``must be a
    JSON <kind>``.
    """
    try:
        value = obj[key]
    except (KeyError, IndexError):
        if default is REQUIRED:
            raise InputError(f"{doc} field '{_field_name(path, key)}' is missing") from None
        return default
    if isinstance(value, kind) and (kind is not int or type(value) is not bool):
        return value
    raise InputError(
        f"{doc} field '{_field_name(path, key)}' must be a JSON {_JSON_KINDS[kind]}"
    )


def _field_name(path, key) -> str:
    return f"{path}[{key}]" if type(key) is int else f"{path}{key}"

"""Entropic Riemann solver for the grid-sampled flux.

A jump between two grid states decomposes into one front per affine piece of
the convex (increasing jump) or concave (decreasing jump) envelope of the
flux on the state interval.  Fronts come out ordered left to right by
strictly increasing speed, with states chaining from the left state to the
right one.

States enter and leave the solver as grid indices: `solve_riemann` takes the
jump's two indices k_left and k_right (the states k*epsilon), reads the hull
on them, and gives every front it births the indices of its own states
(`Front.k_left`, `Front.k_right`, read off the hull's `indices`), so front
tracking, wave tracing and the potentials never turn a state back into its
index.  The `Fraction` states are kept for the validators and the report.

A fan depends on its hull and on the direction it is traversed in, not on
where it is born.  So the first solve that reads a hull in one direction
derives the fan's fields that do not depend on the birth point (states and
their indices, speed), runs the fan's guards, and keeps the result on the
hull (`PiecewiseLinearFn.fans`); every later solve of a jump on that hull
reads it back and derives only each front's line through its birth point
(`line`), on integers.  Every front of a fan has the sign of its jump.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .envelope import GridFlux, envelope
from .errors import ConsistencyError, InputError


def _jump_sign(left, right) -> int:
    """The sign of a front's jump: 1 up, -1 down."""
    if left == right:
        raise InputError("a front must carry a nonzero jump")
    return 1 if right > left else -1


def _line(n, m, t0, x0) -> tuple:
    """The integers (a, b, n, m) of the line through (t0, x0) at the speed
    n/m: a/b is its intercept (its position at t = 0) in lowest terms; with
    x0 = p/q and t0 = r/w, x0 - (n/m)*t0 = (p*w*m - n*r*q) / (q*w*m)."""
    if t0:
        r, w = t0.numerator, t0.denominator
        p, q = x0.numerator, x0.denominator
        x0 = Fraction(p * w * m - n * r * q, q * w * m)
    return x0.numerator, x0.denominator, n, m


@dataclass(frozen=True)
class Front:
    """One admissible wavefront: a jump travelling at its chord speed.

    A front moves on one line from its birth to its death, so its sign and
    the line's integers ``line`` (the numerator and denominator of its
    intercept, its position at t = 0, and of ``speed``) are derived once,
    when it is made; `dataclasses.replace` cannot set them, and derives them
    again from the edited fields.  `solve_riemann` births its fronts from a
    fan template with the same fields (`_jump_sign`, `_line`).

    A front born in `solve_riemann` also carries the grid indices of its left
    and right states, ``k_left`` and ``k_right``, which front tracking, wave
    tracing and the potentials read in place of the states.  A front made by
    hand or by `dataclasses.replace` carries None there, so it fails on the
    first integer use instead of giving a wrong answer."""

    left: Fraction
    right: Fraction
    speed: Fraction
    birth_time: Fraction
    birth_x: Fraction
    fid: int = -1
    sign: int = field(init=False, compare=False, repr=False)
    line: tuple = field(init=False, compare=False, repr=False)
    k_left: int = field(init=False, compare=False, repr=False)
    k_right: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        fields, speed = vars(self), self.speed
        fields["sign"] = _jump_sign(self.left, self.right)
        fields["line"] = _line(speed.numerator, speed.denominator, self.birth_time, self.birth_x)
        # a front cannot know the grid size: only `solve_riemann` sets them
        fields["k_left"] = fields["k_right"] = None

    def position_at(self, t) -> Fraction:
        """Where the front's line is at time t (a `Fraction` or an int): with
        intercept a/b and speed c/d, (a*d*t_d + c*b*t_n) / (b*d*t_d)."""
        a, b, c, d = self.line
        td = t.denominator
        return Fraction(a * d * td + c * b * t.numerator, b * d * td)

    def offset(self, t: Fraction, x: Fraction) -> int:
        """An int with the sign of the front's position at time t minus x
        (0 when its line holds the point (t, x)): with intercept a/b and
        speed c/d, (a*d*t_d + c*b*t_n) * x_d - x_n * b*d*t_d."""
        a, b, c, d = self.line
        td = t.denominator
        return (a * d * td + c * b * t.numerator) * x.denominator - x.numerator * b * d * td


def _fan(hull, rising: bool, k_left: int, k_right: int) -> tuple:
    """The fan template of ``hull`` traversed from the k_left end: for each
    piece, left to right, its front's states and speed, the speed's
    numerator and denominator, and the states' grid indices (k_left,
    k_right, read off ``hull.indices``).  The fan's guards run here, once
    per hull and direction: a hull's end states are its grid points, so
    every jump that reads it has the same two states."""
    ks, us = hull.indices, hull.breakpoints
    pieces = list(zip(ks, ks[1:], us, us[1:], hull.slopes))
    if not rising:
        # decreasing jump: traverse the concave envelope from the top state
        pieces = [(kb, ka, b, a, s) for ka, kb, a, b, s in reversed(pieces)]
    fan = tuple((a, b, s, s.numerator, s.denominator, ka, kb) for ka, kb, a, b, s in pieces)
    speeds = [s for *_, s in pieces]
    if any(s >= t for s, t in zip(speeds, speeds[1:])):
        raise ConsistencyError("Riemann fan speeds must strictly increase")
    if pieces[0][0] != k_left or pieces[-1][1] != k_right:
        raise ConsistencyError("Riemann fan states do not chain to the data")
    return fan


def solve_riemann(k_left: int, k_right: int, flux: GridFlux, t0=Fraction(0), x0=Fraction(0),
                  fid_start=0):
    """Decompose the jump between the grid states k_left*epsilon and
    k_right*epsilon at (t0, x0) into admissible fronts, numbered fid_start,
    fid_start + 1, ... from left to right.

    Returns [] for a null jump.  Fronts are in bijection with the envelope
    pieces between the two states, traversed from the k_left end.  k_left
    and k_right must be ints, checked on every call (TypeError otherwise: a
    bool, an integral `Fraction`, or the None that a `Front` made by hand
    carries); t0 and x0 are used as given, as `Fraction`s.  Each front is
    born from the hull's fan template (`_fan`) with the fields that
    `Front.__post_init__` would derive, so it equals, field for field, the
    `Front(left, right, speed, t0, x0, fid)` of its piece, and carries its
    states' grid indices besides.
    """
    if type(k_left) is not int or type(k_right) is not int:
        raise TypeError(f"grid indices must be ints, got {k_left!r} and {k_right!r}")
    rising = k_right > k_left
    if rising:
        hull = envelope(flux, k_left, k_right, 1)
    elif k_left == k_right:
        return []
    else:
        hull = envelope(flux, k_right, k_left, -1)
    fans = hull.fans
    fan = fans[rising]
    if fan is None:
        fan = fans[rising] = _fan(hull, rising, k_left, k_right)
    sign = 1 if rising else -1
    fronts = []
    for fid, (left, right, speed, n, m, ka, kb) in enumerate(fan, fid_start):
        front = object.__new__(Front)
        object.__setattr__(front, "__dict__", {
            "left": left, "right": right, "speed": speed, "birth_time": t0, "birth_x": x0,
            "fid": fid, "sign": sign, "line": _line(n, m, t0, x0), "k_left": ka, "k_right": kb,
        })
        fronts.append(front)
    return fronts


def is_admissible(front: Front, flux: GridFlux, k_left: int, k_right: int) -> bool:
    """True iff the envelope over the jump from grid index k_left to k_right
    is the single chord at the front's speed.  A validator: the caller
    derives the indices from the front's states (they must be ints inside
    the flux window), not from the ones it carries."""
    if k_right > k_left:
        env = envelope(flux, k_left, k_right, 1)
    else:
        env = envelope(flux, k_right, k_left, -1)
    return len(env.slopes) == 1 and env.slopes[0] == front.speed

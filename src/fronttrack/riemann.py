"""Entropic Riemann solver for the grid-sampled flux.

A jump (u_left, u_right) decomposes into one front per affine piece of the
convex (increasing jump) or concave (decreasing jump) envelope of the flux on
the state interval.  Fronts come out ordered left to right by strictly
increasing speed, with states chaining from u_left to u_right.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .envelope import GridFlux, envelope
from .errors import ConsistencyError, InputError


@dataclass(frozen=True)
class Front:
    """One admissible wavefront: a jump travelling at its chord speed.

    A front moves on one line from its birth to its death, so its sign,
    strength, state span, the line's intercept ``x_at_zero`` (its position
    at t = 0) and the line's integers ``line`` (the numerator and
    denominator of ``x_at_zero`` and of ``speed``) are derived once, when it
    is made; `dataclasses.replace` cannot set them, and derives them again
    from the edited fields."""

    left: Fraction
    right: Fraction
    speed: Fraction
    birth_time: Fraction
    birth_x: Fraction
    fid: int = -1
    sign: int = field(init=False, compare=False, repr=False)
    strength: Fraction = field(init=False, compare=False, repr=False)
    u_lo: Fraction = field(init=False, compare=False, repr=False)
    u_hi: Fraction = field(init=False, compare=False, repr=False)
    x_at_zero: Fraction = field(init=False, compare=False, repr=False)
    line: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        left, right = self.left, self.right
        if left == right:
            raise InputError("a front must carry a nonzero jump")
        sign, lo, hi = (1, left, right) if right > left else (-1, right, left)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "strength", hi - lo)
        object.__setattr__(self, "u_lo", lo)
        object.__setattr__(self, "u_hi", hi)
        x0, t0, v = self.birth_x, self.birth_time, self.speed
        x_at_zero = x0 - v * t0 if t0 else x0
        object.__setattr__(self, "x_at_zero", x_at_zero)
        object.__setattr__(
            self, "line", (x_at_zero.numerator, x_at_zero.denominator, v.numerator, v.denominator)
        )

    def position_at(self, t: Fraction) -> Fraction:
        return self.x_at_zero + self.speed * t

    def passes_through(self, t: Fraction, x: Fraction) -> bool:
        """Whether the front's line holds the point (t, x): with x_at_zero =
        a/b and speed = c/d, whether (a*d + c*b*t) / (b*d) == x, compared by
        cross-multiplying the integers."""
        a, b, c, d = self.line
        td = t.denominator
        return (a * d * td + c * b * t.numerator) * x.denominator == x.numerator * b * d * td


def solve_riemann(u_left, u_right, flux: GridFlux, t0=Fraction(0), x0=Fraction(0),
                  fid_start=0):
    """Decompose the jump (u_left, u_right) at (t0, x0) into admissible fronts,
    numbered fid_start, fid_start + 1, ... from left to right.

    Returns [] for a null jump.  Fronts are in bijection with the envelope
    pieces on [min, max] of the two states, traversed from the u_left end.
    The arguments are used as given: t0 and x0 must be `Fraction`s.
    """
    if u_left == u_right:
        return []
    if u_right > u_left:
        pieces = list(envelope(flux, u_left, u_right, 1).pieces())
    else:
        # decreasing jump: traverse the concave envelope from the top state
        pieces = list(envelope(flux, u_right, u_left, -1).pieces())
        pieces = [(x1, x0_, s) for x0_, x1, s in reversed(pieces)]
    fronts = [
        Front(a, b, s, t0, x0, fid) for fid, (a, b, s) in enumerate(pieces, fid_start)
    ]
    speeds = [fr.speed for fr in fronts]
    if any(s >= t for s, t in zip(speeds, speeds[1:])):
        raise ConsistencyError("Riemann fan speeds must strictly increase")
    if fronts[0].left != u_left or fronts[-1].right != u_right:
        raise ConsistencyError("Riemann fan states do not chain to the data")
    return fronts


def is_admissible(front: Front, flux: GridFlux) -> bool:
    """True iff the envelope over the front's jump is the single chord at its speed."""
    env = envelope(flux, front.u_lo, front.u_hi, front.sign)
    pieces = list(env.pieces())
    return len(pieces) == 1 and pieces[0][2] == front.speed

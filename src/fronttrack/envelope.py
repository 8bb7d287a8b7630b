"""Piecewise-linear flux algebra over exact rationals.

A smooth flux is sampled on the grid ``k*epsilon`` into a :class:`GridFlux`;
between grid points the flux is the affine interpolant.  Everything downstream
(Riemann fans, front speeds, interaction weights) reduces to convex/concave
envelopes of those samples on grid subintervals and the slopes of their
affine pieces.  All arithmetic is exact, so envelope
identities and inequalities can be asserted with ``==`` rather than
tolerances.

The discrete curvature constant K (largest jump of consecutive cell slopes
divided by epsilon) plays the role a second-derivative bound plays for smooth
fluxes: for any envelope on any grid interval, slopes at two states differ by
at most K times the state gap.

Hulls and K run on integers: with D the lcm of the sample denominators,
every D*F(k*epsilon) is an integer, so a hull is a monotone chain with
integer cross products and K an integer second difference over D*epsilon^2.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import DomainError, InputError
from .rationals import grid_index, json_field, parse_rational


@dataclass(frozen=True, eq=False)
class GridFlux:
    """Flux samples F(k*epsilon) for k in [k_min, k_max], affine in between.

    A flux compares and hashes by identity, so the hull and slope caches key
    on the run's own flux object: a run and its restart probes, which share
    that object, share hulls; no other run reaches them."""

    epsilon: Fraction
    k_min: int
    k_max: int
    values: tuple  # values[i] = F((k_min + i) * epsilon)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise InputError("epsilon must be positive")
        if self.k_max <= self.k_min:
            raise InputError("flux window must contain at least two grid points")
        if len(self.values) != self.k_max - self.k_min + 1:
            raise InputError("flux sample count does not match the index range")
        # D, the lcm of the sample denominators, and the integer samples
        # D*F(k*epsilon), read by the hull builder, the curvature constant
        # and the slope keys of `potential._cell_slopes`
        scale = lcm(*(v.denominator for v in self.values))
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(
            self, "_scaled", tuple(v.numerator * (scale // v.denominator) for v in self.values)
        )

    # -- grid geometry -----------------------------------------------------

    def grid_u(self, k: int) -> Fraction:
        return k * self.epsilon

    def contains_index(self, k: int) -> bool:
        return self.k_min <= k <= self.k_max

    def index_of(self, u: Fraction) -> int:
        """Grid index of a grid-aligned state; errors if off-grid or outside."""
        k = grid_index(u, self.epsilon)
        if not self.contains_index(k):
            raise DomainError(f"state {u} outside the flux window")
        return k

    # -- evaluation ---------------------------------------------------------

    def value_at_index(self, k: int) -> Fraction:
        if not self.contains_index(k):
            raise DomainError(f"grid index {k} outside the flux window")
        return self.values[k - self.k_min]


def parse_flux_spec(flux_spec):
    """("polynomial", coefficients) or ("table", {grid index: value}) from a
    flux spec: ``{"polynomial": [c0, c1, ...]}`` (rational coefficients) or
    ``{"table": {k: value, ...}}`` keyed by grid index."""
    if not isinstance(flux_spec, dict) or len(flux_spec) != 1:
        raise InputError("flux spec must be {'polynomial': [...]} or {'table': {...}}")
    if "polynomial" in flux_spec:
        coefficients = json_field(flux_spec, "polynomial", list, "config", "flux.")
        return "polynomial", [parse_rational(c) for c in coefficients]
    if "table" in flux_spec:
        table = {}
        for k, v in json_field(flux_spec, "table", dict, "config", "flux.").items():
            # only the canonical spelling, str(int(k)) == k: "01" or "1_0"
            # would alias "1" or "10"
            if not re.fullmatch("0|-?[1-9][0-9]*", k):
                raise InputError(
                    f"flux table keys must be grid indices: {k!r} is not a plain decimal integer"
                )
            index = int(k)
            try:
                table[index] = parse_rational(v)
            except InputError as exc:
                raise InputError(f"flux table value at grid index {index}: {exc}") from exc
        return "table", table
    raise InputError("flux spec must be {'polynomial': [...]} or {'table': {...}}")


def sample_flux(flux_spec, epsilon, index_range) -> GridFlux:
    """Sample a flux spec (see `parse_flux_spec`) on the grid.

    A polynomial is evaluated exactly on integers: with coefficients
    c_i = a_i/b_i, B = lcm(b_i), epsilon = p/q and degree n, B*q^n*F(k*epsilon)
    is the integer sum of (a_i*B/b_i) * q^(n-i) * (k*p)^i, taken by Horner's
    rule in k*p, and each sample is one `Fraction` of it over B*q^n.  An empty
    coefficient list is the zero flux."""
    eps = parse_rational(epsilon)
    k_min, k_max = int(index_range[0]), int(index_range[1])

    kind, spec = parse_flux_spec(flux_spec)
    if kind == "polynomial":
        p, q = eps.numerator, eps.denominator
        n = max(len(spec) - 1, 0)
        scale = lcm(*(c.denominator for c in spec))
        coefficients = [c.numerator * (scale // c.denominator) * q ** (n - i)
                        for i, c in enumerate(spec)][::-1]
        den = scale * q**n
        values = []
        for k in range(k_min, k_max + 1):
            x, acc = k * p, 0
            for c in coefficients:
                acc = acc * x + c
            values.append(Fraction(acc, den))
    else:
        missing = [k for k in range(k_min, k_max + 1) if k not in spec]
        if missing:
            raise InputError(f"flux table is missing grid indices {missing}")
        values = [spec[k] for k in range(k_min, k_max + 1)]
    return GridFlux(eps, k_min, k_max, tuple(values))


@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Continuous piecewise-linear function with its breakpoints on the grid."""

    indices: tuple  # strictly increasing grid indices k of the breakpoints
    breakpoints: tuple  # k * epsilon for each k in indices
    slopes: tuple  # of the affine pieces, left to right
    # the Riemann fan template of each traversal direction, [falling, rising],
    # made by `riemann.solve_riemann` on its first read of the hull
    fans: list = field(
        default_factory=lambda: [None, None], init=False, compare=False, repr=False
    )


def _lower_hull(points):
    """Lower convex hull of x-sorted integer points; collinear interior
    points dropped."""
    hull = []
    for p in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # keep only strict right turns: cross <= 0 means (x1,y1) is on or
            # above the chord from (x0,y0) to p, so it is not a hull vertex
            if (x1 - x0) * (p[1] - y0) - (p[0] - x0) * (y1 - y0) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _hull_by_index(f: GridFlux, ka: int, kb: int, sign: int) -> PiecewiseLinearFn:
    """sign times the lower hull of sign*F on the grid points ka..kb: the
    convex envelope for sign 1, the concave one for sign -1.  The chain runs
    on the integer points (k, sign*D*F(k*eps)); a piece rising by dI on the
    integer samples over dk cells has slope dI / (dk * D * eps)."""
    base, scaled = f.k_min, f._scaled
    hull = _lower_hull([(k, sign * scaled[k - base]) for k in range(ka, kb + 1)])
    ks = tuple(k for k, _ in hull)
    num, den = f.epsilon.denominator, f._scale * f.epsilon.numerator
    return PiecewiseLinearFn(
        ks,
        tuple(f.grid_u(k) for k in ks),
        tuple(
            Fraction(sign * (y1 - y0) * num, (k1 - k0) * den)
            for (k0, y0), (k1, y1) in zip(hull, hull[1:])
        ),
    )


@lru_cache(maxsize=None)
def _convex_by_index(f: GridFlux, ka: int, kb: int) -> PiecewiseLinearFn:
    return _hull_by_index(f, ka, kb, 1)


@lru_cache(maxsize=None)
def _concave_by_index(f: GridFlux, ka: int, kb: int) -> PiecewiseLinearFn:
    return _hull_by_index(f, ka, kb, -1)


def envelope(f: GridFlux, a: int, b: int, sign: int) -> PiecewiseLinearFn:
    """On the grid interval from index a to index b (the states a*epsilon and
    b*epsilon), the largest convex minorant of the samples for sign > 0
    (positive jumps), else the smallest concave majorant.  The indices must
    be ints (a bool is not): the hull caches hash an integral `Fraction`
    like its int, so it is rejected here, on every call, with a TypeError."""
    if type(a) is not int or type(b) is not int:
        raise TypeError(f"grid indices must be ints, got {a!r} and {b!r}")
    if a >= b:
        raise InputError(f"need a < b, got [{a}, {b}]")
    if a < f.k_min or b > f.k_max:
        raise DomainError(f"grid interval [{a}, {b}] outside the flux window")
    by_index = _convex_by_index if sign > 0 else _concave_by_index
    return by_index(f, a, b)


def curvature_constant(f: GridFlux) -> Fraction:
    """max_k |cell slope k - cell slope k-1| / epsilon, zero iff affine: the
    largest second difference of the integer samples over D * epsilon**2."""
    if f.k_max - f.k_min < 2:
        raise InputError("need at least three grid points for a curvature bound")
    s = f._scaled
    best = max(abs(s[i - 1] - 2 * s[i] + s[i + 1]) for i in range(1, len(s) - 1))
    eps = f.epsilon
    return Fraction(best * eps.denominator**2, f._scale * eps.numerator**2)

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
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, InputError
from .rationals import grid_index, json_field, parse_rational


@dataclass(frozen=True)
class GridFlux:
    """Flux samples F(k*epsilon) for k in [k_min, k_max], affine in between."""

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
        # the lru caches key on the flux: hash the samples once, not on
        # every lookup
        object.__setattr__(
            self, "_hash", hash((self.epsilon, self.k_min, self.k_max, self.values))
        )

    def __hash__(self):
        return self._hash

    # -- grid geometry -----------------------------------------------------

    def grid_u(self, k: int) -> Fraction:
        return k * self.epsilon

    def contains_index(self, k: int) -> bool:
        return self.k_min <= k <= self.k_max

    def contains_u(self, u: Fraction) -> bool:
        return self.grid_u(self.k_min) <= u <= self.grid_u(self.k_max)

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

    def cell_slope(self, k: int) -> Fraction:
        """Slope of the affine piece on [k*eps, (k+1)*eps]."""
        return (self.value_at_index(k + 1) - self.value_at_index(k)) / self.epsilon


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
            try:
                index = int(k)
            except ValueError as exc:
                raise InputError(f"flux table keys must be grid indices: {exc}") from exc
            try:
                table[index] = parse_rational(v)
            except InputError as exc:
                raise InputError(f"flux table value at grid index {index}: {exc}") from exc
        return "table", table
    raise InputError("flux spec must be {'polynomial': [...]} or {'table': {...}}")


def sample_flux(flux_spec, epsilon, index_range) -> GridFlux:
    """Sample a flux spec (see `parse_flux_spec`) on the grid; a polynomial
    is evaluated exactly by Horner's rule at each grid point."""
    eps = parse_rational(epsilon)
    k_min, k_max = int(index_range[0]), int(index_range[1])

    kind, spec = parse_flux_spec(flux_spec)
    if kind == "polynomial":
        values = []
        for k in range(k_min, k_max + 1):
            u = k * eps
            acc = Fraction(0)
            for c in reversed(spec):
                acc = acc * u + c
            values.append(acc)
    else:
        missing = [k for k in range(k_min, k_max + 1) if k not in spec]
        if missing:
            raise InputError(f"flux table is missing grid indices {missing}")
        values = [spec[k] for k in range(k_min, k_max + 1)]
    return GridFlux(eps, k_min, k_max, tuple(values))


@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Continuous piecewise-linear function given by its breakpoints."""

    breakpoints: tuple  # strictly increasing Fractions
    ordinates: tuple

    def __post_init__(self):
        if len(self.breakpoints) < 2 or len(self.breakpoints) != len(self.ordinates):
            raise InputError("need matching breakpoints/ordinates, at least two")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if a >= b:
                raise InputError("breakpoints must strictly increase")
        xs, ys = self.breakpoints, self.ordinates
        object.__setattr__(self, "_slopes", tuple(
            (y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])
        ))

    def pieces(self):
        """(x_lo, x_hi, slope) for each affine piece, left to right."""
        return zip(self.breakpoints, self.breakpoints[1:], self._slopes)


def _lower_hull(points):
    """Lower convex hull of x-sorted points; collinear interior points dropped."""
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
    convex envelope for sign 1, the concave one for sign -1."""
    pts = [(f.grid_u(k), sign * f.value_at_index(k)) for k in range(ka, kb + 1)]
    hull = _lower_hull(pts)
    return PiecewiseLinearFn(tuple(x for x, _ in hull), tuple(sign * y for _, y in hull))


@lru_cache(maxsize=None)
def _convex_by_index(f: GridFlux, ka: int, kb: int) -> PiecewiseLinearFn:
    return _hull_by_index(f, ka, kb, 1)


@lru_cache(maxsize=None)
def _concave_by_index(f: GridFlux, ka: int, kb: int) -> PiecewiseLinearFn:
    return _hull_by_index(f, ka, kb, -1)


def envelope(f: GridFlux, a, b, sign: int) -> PiecewiseLinearFn:
    """On the grid interval [a, b], the largest convex minorant of the samples
    for sign > 0 (positive jumps), else the smallest concave majorant."""
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise InputError(f"need a < b, got [{a}, {b}]")
    by_index = _convex_by_index if sign > 0 else _concave_by_index
    return by_index(f, f.index_of(a), f.index_of(b))


def curvature_constant(f: GridFlux) -> Fraction:
    """max_k |cell_slope(k) - cell_slope(k-1)| / epsilon, zero iff affine."""
    if f.k_max - f.k_min < 2:
        raise InputError("need at least three grid points for a curvature bound")
    best = Fraction(0)
    prev = f.cell_slope(f.k_min)
    for k in range(f.k_min + 1, f.k_max):
        cur = f.cell_slope(k)
        jump = abs(cur - prev) / f.epsilon
        if jump > best:
            best = jump
        prev = cur
    return best

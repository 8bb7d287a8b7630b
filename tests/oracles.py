"""Independent oracles and shared fixtures for the test suite.

The hull oracle and the slope-integral oracle deliberately avoid the
package's monotone-chain envelope code path: envelopes are evaluated as
minima over all chords, so agreement is a real cross-check.  The pointwise
envelope queries (`value_at`, `slope_at`, `piece_slopes`), the chord speed
`rh_speed` and the binary same-sign closed form `delta_sigma_closed_form`
are queries only the tests make.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction as F

from fronttrack.envelope import sample_flux
from fronttrack.errors import DomainError, InputError
from fronttrack.tracker import SAME_SIGN, Profile


def hull_oracle_values(points):
    """Lower-hull value at each sample point, as a min over all chords."""
    n = len(points)
    out = []
    for m in range(n):
        xm, ym = points[m]
        best = ym
        for i in range(m + 1):
            for j in range(m, n):
                xi, yi = points[i]
                xj, yj = points[j]
                if xi == xj:
                    continue
                chord = yi + (yj - yi) * (xm - xi) / (xj - xi)
                if chord < best:
                    best = chord
        out.append(best)
    return out


# -- pointwise envelope queries ------------------------------------------------------


def piece_slopes(env):
    """The slope of each affine piece of a `PiecewiseLinearFn`, left to right."""
    return [s for _, _, s in env.pieces()]


def value_at(env, u):
    xs = env.breakpoints
    lo, hi = xs[0], xs[-1]
    if not lo <= u <= hi:
        raise DomainError(f"{u} outside [{lo}, {hi}]")
    i = min(bisect_right(xs, u) - 1, len(xs) - 2)
    return env.ordinates[i] + piece_slopes(env)[i] * (u - xs[i])


def slope_at(env, u, side="right"):
    """One-sided slope at u; at domain endpoints only the inward side exists."""
    if side not in ("left", "right"):
        raise InputError("side must be 'left' or 'right'")
    xs = env.breakpoints
    lo, hi = xs[0], xs[-1]
    if not lo <= u <= hi:
        raise DomainError(f"{u} outside [{lo}, {hi}]")
    if u == lo and side == "left":
        raise DomainError("no left slope at the left endpoint")
    if u == hi and side == "right":
        raise DomainError("no right slope at the right endpoint")
    if side == "right":
        i = min(bisect_right(xs, u) - 1, len(xs) - 2)
    else:
        i = max(bisect_left(xs, u) - 1, 0)
    return piece_slopes(env)[i]


def rh_speed(f, a, b):
    """Chord slope (F(b) - F(a)) / (b - a): the jump's propagation speed."""
    a, b = F(a), F(b)
    if a == b:
        raise InputError("rh_speed needs two distinct states")
    fa = f.value_at_index(f.index_of(a))
    fb = f.value_at_index(f.index_of(b))
    return (fb - fa) / (b - a)


def delta_sigma_closed_form(event):
    """2 (s' - s'') |jump'||jump''| / (|jump'| + |jump''|) for a binary
    same-sign interaction; equals the envelope integral exactly there."""
    if event.kind != SAME_SIGN or len(event.incoming) != 2:
        raise InputError("closed form applies to binary same-sign events")
    left, right = event.incoming
    s_l, s_r = left.strength, right.strength
    return 2 * (left.speed - right.speed) * s_l * s_r / (s_l + s_r)


# -- slope-integral oracles ----------------------------------------------------------


def oracle_cell_slopes(flux, lo_idx, hi_idx, sign):
    """Envelope slope per state cell from the brute-force hull values."""
    s = 1 if sign > 0 else -1
    pts = [
        (flux.grid_u(k), s * flux.value_at_index(k)) for k in range(lo_idx, hi_idx + 1)
    ]
    vals = hull_oracle_values(pts)
    return {
        lo_idx + i: s * (vals[i + 1] - vals[i]) / flux.epsilon
        for i in range(len(vals) - 1)
    }


def oracle_same_sign_speed_change(a, b, c, flux):
    """The interaction speed-change integral, via brute-force hulls."""
    from fronttrack.rationals import grid_index

    eps = flux.epsilon
    ia, ib, ic = (grid_index(u, eps) for u in (a, b, c))
    if a < b < c:
        spans = [((ia, ib), (ia, ic), (ia, ib)), ((ib, ic), (ia, ic), (ib, ic))]
        sign = 1
    elif a > b > c:
        spans = [((ib, ia), (ic, ia), (ib, ia)), ((ic, ib), (ic, ia), (ic, ib))]
        sign = -1
    else:
        raise ValueError("not a monotone triple")
    total = F(0)
    for span1, span2, over in spans:
        s1 = oracle_cell_slopes(flux, *span1, sign)
        s2 = oracle_cell_slopes(flux, *span2, sign)
        for k in range(*over):
            total += abs(s1[k] - s2[k]) * eps
    return total


def oracle_cancellation_speed_change(a, b, c, flux):
    from fronttrack.rationals import grid_index

    if a == c:
        return F(0)
    eps = flux.epsilon
    sign = 1 if c > a else -1
    survivor = (min(a, c), max(a, c))
    big = (min(a, b), max(a, b)) if abs(b - a) > abs(b - c) else (min(b, c), max(b, c))
    i_surv = tuple(grid_index(u, eps) for u in survivor)
    i_big = tuple(grid_index(u, eps) for u in big)
    s1 = oracle_cell_slopes(flux, *i_surv, sign)
    s2 = oracle_cell_slopes(flux, *i_big, sign)
    return sum(abs(s1[k] - s2[k]) for k in range(*i_surv)) * eps


def l1_profile_distance_oracle(p, q):
    """Exact L1 distance of two profiles by breakpoint sweep."""
    assert p.constant_state == q.constant_state
    assert p.right_constant == q.right_constant
    xs = sorted({x for x, _ in p.jumps} | {x for x, _ in q.jumps})
    total = F(0)
    for x0, x1 in zip(xs, xs[1:]):
        total += abs(p.value_at(x0) - q.value_at(x0)) * (x1 - x0)
    return total


# -- the worked non-convex example --------------------------------------------
#
# Flux samples 0, 4, 5, 7, 8, 17/2 at states 0..5 and the profile
# 1 | 0 | 3 | 4 | 5 (jumps at x = 0, 1, 4, 7).  The fast negative front
# cancels into the big positive one at t=3/5, splitting its survivors into
# chords (1,2] and (2,3]; the fast piece then merges with the x=4 front at
# t=14/5, and the result with the x=7 front at t=22/5.

WORKED_FLUX = sample_flux(
    {"table": {"0": "0", "1": "4", "2": "5", "3": "7", "4": "8", "5": "17/2"}},
    "1",
    (0, 5),
)

WORKED_PROFILE = Profile(
    F(1), ((F(0), F(0)), (F(1), F(3)), (F(4), F(4)), (F(7), F(5)))
)

WORKED_EVENT_TIMES = [F(3, 5), F(14, 5), F(22, 5)]
WORKED_K = F(3)
WORKED_Q_BY_SLAB = [F(97, 6), F(7, 6), F(2, 3), F(0)]

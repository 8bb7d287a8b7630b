"""Independent oracles and shared fixtures for the test suite.

The hull oracle and the slope-integral oracles deliberately avoid the
package's monotone-chain envelope code path: envelopes are evaluated as
minima over all chords, so agreement is a real cross-check.  The per-cell
sum `slope_gap_integral_by_cells` is the slow path the speed change's
breakpoint walk replaced; it reads the package's cell slopes.  The pointwise
envelope queries (`ordinates`, `value_at`, `slope_at`, `piece_slopes`), the chord speed
`rh_speed`, the binary same-sign closed form `delta_sigma_closed_form` and an
event's kind and extremal state `event_kind_and_b` are queries only the
tests make.

`oracle_evolve` and `oracle_validate_timeline` are the full-scan tracker:
every step recomputes every live front's position, and every slab is
checked in full.  The package's event-local `evolve` and `validate_timeline`
are compared against them.  They read a front's kinematics through
`front_position`, `front_kinematics` and `meeting_time`, which restate the
definitions from the front's states and birth point, not from the fields a
`Front` derives at its birth.
"""

from bisect import bisect_left, bisect_right
from dataclasses import replace
from fractions import Fraction as F
from math import lcm

from fronttrack.envelope import sample_flux
from fronttrack.errors import ConsistencyError, DomainError, InputError, TrackerError
from fronttrack.potential import _cell_slopes
from fronttrack.riemann import is_admissible
from fronttrack.tracker import (
    CANCELLATION,
    SAME_SIGN,
    Collision,
    Profile,
    Timeline,
    initial_fronts,
    resolve_event,
)


def hull_oracle_values(points):
    """Lower-hull value at each sample point, as a min over all chords.

    The points are scaled to integers first (x by the lcm of the x
    denominators, y by that of the y denominators), and each chord value
    N / W at x_m is compared to the best so far by cross-multiplying."""
    x_scale = lcm(*(F(x).denominator for x, _ in points))
    y_scale = lcm(*(F(y).denominator for _, y in points))
    xs = [int(x * x_scale) for x, _ in points]
    ys = [int(y * y_scale) for _, y in points]
    n = len(points)
    out = []
    for m in range(n):
        xm = xs[m]
        best_n, best_w = ys[m], 1
        for i in range(m + 1):
            xi, yi = xs[i], ys[i]
            for j in range(m, n):
                w = xs[j] - xi
                if w == 0:
                    continue
                chord_n = yi * w + (ys[j] - yi) * (xm - xi)
                if chord_n * best_w < best_n * w:
                    best_n, best_w = chord_n, w
        out.append(F(best_n, best_w * y_scale))
    return out


# -- pointwise envelope queries ------------------------------------------------------


def piece_slopes(env):
    """The slope of each affine piece of a `PiecewiseLinearFn`, left to right."""
    return [s for _, _, s in env.pieces()]


def ordinates(f, env):
    """The samples of ``f`` at the breakpoints of its envelope ``env``, where
    the envelope touches them."""
    return tuple(f.values[k - f.k_min] for k in env.indices)


def value_at(f, env, u):
    """The value at u of ``env``, an envelope of the samples of ``f``."""
    xs = env.breakpoints
    lo, hi = xs[0], xs[-1]
    if not lo <= u <= hi:
        raise DomainError(f"{u} outside [{lo}, {hi}]")
    i = min(bisect_right(xs, u) - 1, len(xs) - 2)
    return ordinates(f, env)[i] + piece_slopes(env)[i] * (u - xs[i])


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


def event_kind_and_b(incoming):
    """The kind of the event the chained fronts ``incoming`` make, and the
    intermediate state farthest outside the span of the end states (the
    first such for a monotone chain), restated from their definitions."""
    states = [incoming[0].left] + [fr.right for fr in incoming]
    a, c = states[0], states[-1]
    signs = {front_kinematics(fr)[0] for fr in incoming}
    kind = SAME_SIGN if len(signs) == 1 and a != c else CANCELLATION
    lo, hi = min(a, c), max(a, c)
    outside = [max(lo - u, u - hi, F(0)) for u in states[1:-1]]
    return kind, states[1 + outside.index(max(outside))]


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


def slope_gap_integral_by_cells(flux, span_a, span_b, over, sign):
    """`_slope_gap_integral` as one sum per state cell of ``over``: the gap
    between the two envelopes' cell slopes, as Q reads them (`_cell_slopes`)."""
    sa = _cell_slopes(flux, *span_a, sign)
    sb = _cell_slopes(flux, *span_b, sign)
    return sum((abs(sa[k] - sb[k]) for k in range(*over)), F(0)) * flux.epsilon


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


def profile_value_at(p, x):
    """The value of the right-continuous profile ``p`` at x, by a scan from
    the left."""
    v = p.constant_state
    for xj, vj in p.jumps:
        if xj <= x:
            v = vj
        else:
            break
    return v


def l1_profile_distance_oracle(p, q):
    """Exact L1 distance of two profiles by breakpoint sweep."""
    assert p.constant_state == q.constant_state
    assert p.right_constant == q.right_constant
    xs = sorted({x for x, _ in p.jumps} | {x for x, _ in q.jumps})
    total = F(0)
    for x0, x1 in zip(xs, xs[1:]):
        total += abs(profile_value_at(p, x0) - profile_value_at(q, x0)) * (x1 - x0)
    return total


# -- front kinematics from the definitions ----------------------------------------


def front_position(fr, t):
    """Where ``fr`` is at time t: its birth point moved at its speed."""
    return fr.birth_x + fr.speed * (t - fr.birth_time)


def front_kinematics(fr):
    """(sign, strength, u_lo, u_hi) of ``fr``, read off its two states."""
    sign = 1 if fr.right > fr.left else -1
    return sign, abs(fr.right - fr.left), min(fr.left, fr.right), max(fr.left, fr.right)


def meeting_time(left, right, after):
    """When two neighbours, ordered at time ``after``, meet: ``after`` plus
    their gap over the speed difference; None if they do not converge."""
    gap = front_position(right, after) - front_position(left, after)
    if gap < 0:
        raise ConsistencyError("front ordering lost")
    ds = left.speed - right.speed
    return after + gap / ds if ds > 0 else None


# -- full-scan tracker oracles --------------------------------------------------------


def oracle_next_collision(fronts, after):
    """Earliest (t, x), lexicographic, at which adjacent live fronts meet.

    ``fronts`` must be ordered and pairwise non-crossed at time ``after``.
    Fronts already sharing a position collide immediately iff their speeds
    cross (this happens for same-time events at distinct positions); a fan
    spreading from a single point does not count as a collision.
    """
    best = None
    for i in range(len(fronts) - 1):
        t = meeting_time(fronts[i], fronts[i + 1], after)
        if t is None:
            continue
        x = front_position(fronts[i], t)
        if best is None or (t, x) < (best[0], best[1]):
            best = (t, x, i)
    if best is None:
        return None
    t, x, i = best
    first = i
    while first > 0 and front_position(fronts[first - 1], t) == x:
        first -= 1
    last = i + 1
    while last + 1 < len(fronts) and front_position(fronts[last + 1], t) == x:
        last += 1
    return Collision(t, x, first, last)


def _tv(fronts):
    return sum((front_kinematics(fr)[1] for fr in fronts), F(0))


def _slab_tvs(slabs):
    return tuple(_tv(fronts) for fronts in slabs)


def oracle_evolve(profile, flux, max_events=None):
    """`evolve` by a full rescan of the live line at every event; each slab's
    total variation is the sum of its front strengths."""
    lo, hi = profile.value_span()
    if not (flux.contains_u(lo) and flux.contains_u(hi)):
        raise InputError("flux window does not cover the profile's value range")

    live = [replace(fr, fid=i) for i, fr in enumerate(initial_fronts(profile, flux))]
    fronts_by_id = {fr.fid: fr for fr in live}
    next_fid = len(live)
    cap = max_events if max_events is not None else 10 * max(len(live), 1) ** 2

    events = []
    slabs = []
    t_prev = F(0)
    while True:
        slabs.append(tuple(live))
        hit = oracle_next_collision(live, t_prev)
        if hit is None:
            break
        if len(events) >= cap:
            partial = Timeline(
                flux, profile, tuple(events), tuple(slabs), fronts_by_id,
                _slab_tvs(slabs),
            )
            raise TrackerError(
                f"event cap {cap} exceeded at t={hit.t}", partial_timeline=partial
            )
        block = live[hit.first : hit.last + 1]
        event = resolve_event(block, hit.t, hit.x, flux, fid_start=next_fid)
        next_fid += len(event.outgoing)
        for fr in event.outgoing:
            fronts_by_id[fr.fid] = fr
        live[hit.first : hit.last + 1] = list(event.outgoing)
        events.append(event)
        t_prev = hit.t
    return Timeline(
        flux, profile, tuple(events), tuple(slabs), fronts_by_id, _slab_tvs(slabs)
    )


def oracle_validate_timeline(tl):
    """`validate_timeline` with every check run on every slab; it ignores
    ``tl.slab_tvs`` and sums each slab's front strengths itself."""
    p, flux = tl.initial_profile, tl.flux
    lo0, hi0 = p.value_span()

    for ev, nxt in zip(tl.events, tl.events[1:]):
        if (ev.t, ev.x) >= (nxt.t, nxt.x):
            raise ConsistencyError("events not in lexicographic (t, x) order")
    last = tl.slabs[-1]
    if any(fr.speed > gr.speed for fr, gr in zip(last, last[1:])):
        raise ConsistencyError("fronts still converge after the last event")

    tail_flux = (flux.value_at_index(flux.index_of(p.right_constant))
                 - flux.value_at_index(flux.index_of(p.constant_state)))
    baseline = sum((v - u) * x for (x, v), u in zip(p.jumps, p.values()))
    admissible = set()
    prev_tv = None
    for s, fronts in enumerate(tl.slabs):
        tv = _tv(fronts)
        if prev_tv is not None and tv > prev_tv:
            raise ConsistencyError("total variation increased")
        if s > 0:
            ev = tl.events[s - 1]
            drop = prev_tv - tv
            if ev.kind == SAME_SIGN and drop != 0:
                raise ConsistencyError("same-sign event changed total variation")
            if ev.kind == CANCELLATION and drop != ev.canceled_mass:
                raise ConsistencyError("cancellation mass does not match TV drop")
        prev_tv = tv

        prev_v = p.constant_state
        for fr in fronts:
            if fr.left != prev_v:
                raise ConsistencyError("front states do not chain inside a slab")
            prev_v = fr.right
            _, _, u_lo, u_hi = front_kinematics(fr)
            if not (lo0 <= u_lo and u_hi <= hi0):
                raise ConsistencyError("profile left the initial value range")
            if fr not in admissible:
                if not is_admissible(fr, flux):
                    raise ConsistencyError("live front is not admissible")
                admissible.add(fr)
        if prev_v != p.right_constant:
            raise ConsistencyError("right tail value changed")

        t_lo, t_hi = tl.slab_bounds(s)
        for t_probe in (t_lo, t_hi):
            if t_probe is None:
                continue
            xs = [front_position(fr, t_probe) for fr in fronts]
            if any(b < a for a, b in zip(xs, xs[1:])):
                raise ConsistencyError("fronts crossed inside a slab")
        # xs holds the positions at t_hi, or at t_lo on the last slab
        t_ref = t_lo if t_hi is None else t_hi
        moment = sum((fr.right - fr.left) * x for fr, x in zip(fronts, xs))
        if moment - t_ref * tail_flux != baseline:
            raise ConsistencyError("conserved moment drifted")


def slab_midpoints(tl: Timeline):
    """A time inside each slab (t_lo + 1 on the last), where a restart starts."""
    bounds = [tl.slab_bounds(s) for s in range(len(tl.slabs))]
    return [t_lo + 1 if t_hi is None else (t_lo + t_hi) / 2 for t_lo, t_hi in bounds]


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


# -- schedule cases ------------------------------------------------------------------
#
# TRIPLE_POINT on TABLE: three fronts meet at (6, 6) and cancel completely,
# an event with no outgoing front.  SIMULTANEOUS on BURGERS_WIDE: two merging
# pairs meet at t = 1 at distinct positions, so slab 1 has zero length.

BURGERS_WIDE = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (-4, 4))
TABLE = sample_flux(
    {"table": {"-2": "-1", "-1": "-1/2", "0": "0", "1": "1", "2": "2", "3": "3"}},
    "1",
    (-2, 3),
)
TRIPLE_POINT = Profile(F(0), ((F(0), F(2)), (F(1), F(-1)), (F(3), F(0))))
SIMULTANEOUS = Profile(
    F(1), ((F(0), F(0)), (F(1), F(-1)), (F(5), F(3)), (F(10), F(2)), (F(11), F(1)))
)

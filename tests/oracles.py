"""Independent oracles and shared fixtures for the test suite.

`horner_samples` evaluates a polynomial flux on `Fraction`s, against which
`sample_flux`'s integer evaluation is checked.

The hull oracle and the slope-integral oracles deliberately avoid the
package's monotone-chain envelope code path: envelopes are evaluated as
minima over all chords, so agreement is a real cross-check.  The per-cell
sum `slope_gap_integral_by_cells` is the slow path the speed change's
breakpoint walk replaced; it reads `fraction_cell_slopes`, the per-cell
dictionary of envelope slopes that Q read before its slope ids came from
hull pieces with integer keys, and that the pair-walk oracles still read.
The pointwise envelope queries (`ordinates`, `value_at`, `slope_at`,
`piece_slopes`), the chord speed `rh_speed`, the binary same-sign closed
form `delta_sigma_closed_form` and an event's kind and extremal state
`event_kind_and_b` are queries only the tests make.

`oracle_evolve` and `oracle_validate_timeline` are the full-scan tracker:
every step recomputes every live front's position, and every slab is
checked in full.  The package's event-local `evolve` and `validate_timeline`
are compared against them.  They read a front's kinematics through
`front_position`, `front_kinematics` and `meeting_time`, which restate the
definitions from the front's states and birth point, not from the fields a
`Front` derives at its birth.  `fraction_validate_timeline` is the
event-local `validate_timeline` as it ran on the fronts' `Fraction` states,
before it checked grid coordinates: the two must give the same verdict,
exception and message on every timeline.  `fraction_delta_sigma` and
`fraction_profile_at` are the speed change and the profile reconstruction
as they ran on `Fraction` states, before they read the grid indices the
fronts carry: they must give the same values.  `fraction_verdict_table` is
the verdict table as it ran on `Fraction`s, before it cross-multiplied
(numerator, denominator) pairs: it must give the same table.
"""

from bisect import bisect_left, bisect_right
from dataclasses import replace
from fractions import Fraction as F
from math import lcm
from operator import attrgetter

from fronttrack.envelope import envelope, sample_flux
from fronttrack.errors import ConsistencyError, DomainError, InputError, TrackerError
from fronttrack.potential import (
    HARD_EVENT_VERDICTS, VerdictTable, _slope_gap_integral,
)
from fronttrack.rationals import grid_index
from fronttrack.riemann import is_admissible
from fronttrack.tracker import (
    CANCELLATION,
    SAME_SIGN,
    Collision,
    Profile,
    Timeline,
    _block_index,
    initial_fronts,
    merge_steps,
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


def horner_samples(coefficients, eps, k_min, k_max):
    """F(k*eps) for k = k_min..k_max, F the polynomial with ``coefficients``
    (constant term first), by Horner's rule on `Fraction`s: the slow path
    that `sample_flux`'s integer Horner replaced."""
    values = []
    for k in range(k_min, k_max + 1):
        u, acc = k * F(eps), F(0)
        for c in reversed(coefficients):
            acc = acc * u + c
        values.append(acc)
    return tuple(values)


# -- pointwise envelope queries ------------------------------------------------------


def piece_slopes(env):
    """The slope of each affine piece of a `PiecewiseLinearFn`, left to right."""
    return list(env.slopes)


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
    s_l, s_r = front_kinematics(left)[1], front_kinematics(right)[1]
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


def fraction_cell_slopes(flux, lo, hi, sign):
    """Envelope slope on each state cell k in [lo, hi) for the given sign:
    the per-cell dictionary of `Fraction`s that Q read before its slope ids
    came from hull pieces with integer keys (`potential._cell_slopes`)."""
    env = envelope(flux, lo, hi, sign)
    out = {}
    for k0, k1, s in zip(env.indices, env.indices[1:], env.slopes):
        for k in range(k0, k1):
            out[k] = s
    return out


def slope_gap_integral_by_cells(flux, span_a, span_b, over, sign):
    """`_slope_gap_integral` as one sum per state cell of ``over``: the gap
    between the two envelopes' cell slopes (`fraction_cell_slopes`)."""
    sa = fraction_cell_slopes(flux, *span_a, sign)
    sb = fraction_cell_slopes(flux, *span_b, sign)
    return sum((abs(sa[k] - sb[k]) for k in range(*over)), F(0)) * flux.epsilon


def oracle_same_sign_speed_change(a, b, c, flux):
    """The interaction speed-change integral, via brute-force hulls."""
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


def admissible(fr, flux):
    """`is_admissible` on the grid indices of the front's states, lower state
    first, as `GridFlux.index_of` gives them (or its error for a state off
    the grid or outside the window)."""
    sign, _, u_lo, u_hi = front_kinematics(fr)
    k_lo, k_hi = flux.index_of(u_lo), flux.index_of(u_hi)
    return is_admissible(fr, flux, *((k_lo, k_hi) if sign > 0 else (k_hi, k_lo)))


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


def oracle_evolve(profile, flux, max_events=None):
    """`evolve` by a full rescan of the live line at every event."""
    lo, hi = profile.value_span()
    if not (flux.grid_u(flux.k_min) <= lo and hi <= flux.grid_u(flux.k_max)):
        raise InputError("flux window does not cover the profile's value range")

    live = initial_fronts(profile, flux)
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
            partial = Timeline(flux, profile, tuple(events), tuple(slabs), fronts_by_id)
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
    return Timeline(flux, profile, tuple(events), tuple(slabs), fronts_by_id)


def oracle_validate_timeline(tl):
    """`validate_timeline` with every check run on every slab; each slab's
    total variation is the sum of its front strengths."""
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
    checked = set()
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
            if fr not in checked:
                if not admissible(fr, flux):
                    raise ConsistencyError("live front is not admissible")
                checked.add(fr)
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


def _moment_rate(fronts):
    """d/dt of sum_j jump_j * x_j(t) while ``fronts`` move."""
    return sum(((fr.right - fr.left) * fr.speed for fr in fronts), F(0))


def fraction_validate_timeline(tl: Timeline) -> None:
    """`validate_timeline` as it ran on the fronts' `Fraction` states, with
    `Fraction` sums for each event's total variation drop, the moment and
    its rate.

    Among them: the moment sum_j jump_j * x_j(t) - t * (F(right tail) -
    F(left tail)) keeps its time-zero value (with equal tails, the integral
    of u - constant is conserved), and no fronts converge after the last
    event.

    Slab 0 is checked in full.  Every later slab is then checked to be its
    predecessor with the event's incoming block replaced by its outgoing
    fronts, where the incoming fronts meet and the outgoing ones are born at
    the event point.  That makes local checks sufficient: chaining, value
    range and admissibility only for the new fronts; non-crossing for a pair
    of neighbours when it forms and when it ends (positions are linear in t);
    the total variation and the moment's rate by each event's change.
    """
    p, flux = tl.initial_profile, tl.flux
    events, slabs = tl.events, tl.slabs
    lo0, hi0 = p.value_span()

    for ev, nxt in zip(events, events[1:]):
        if (ev.t, ev.x) >= (nxt.t, nxt.x):
            raise ConsistencyError("events not in lexicographic (t, x) order")
    last = slabs[-1]
    if any(fr.speed > gr.speed for fr, gr in zip(last, last[1:])):
        raise ConsistencyError("fronts still converge after the last event")
    if len(slabs) != len(events) + 1:
        raise ConsistencyError("slabs do not span the events")

    def check_new(fronts, left, right):
        """Chaining, value range and admissibility of ``fronts``, which sit
        between the fronts ``left`` and ``right`` (None at an end)."""
        prev_v = p.constant_state if left is None else left.right
        for fr in fronts:
            if fr.left != prev_v:
                raise ConsistencyError("front states do not chain inside a slab")
            prev_v = fr.right
            _, _, u_lo, u_hi = front_kinematics(fr)
            if not (lo0 <= u_lo and u_hi <= hi0):
                raise ConsistencyError("profile left the initial value range")
            if not admissible(fr, flux):
                raise ConsistencyError("live front is not admissible")
        if right is None and prev_v != p.right_constant:
            raise ConsistencyError("right tail value changed")
        if right is not None and prev_v != right.left:
            raise ConsistencyError("front states do not chain inside a slab")

    def check_ordered(fronts, t):
        xs = [fr.position_at(t) for fr in fronts]
        if any(b < a for a, b in zip(xs, xs[1:])):
            raise ConsistencyError("fronts crossed inside a slab")

    first = slabs[0]
    check_new(first, None, None)
    check_ordered(first, F(0))
    tail_flux = (flux.value_at_index(flux.index_of(p.right_constant))
                 - flux.value_at_index(flux.index_of(p.constant_state)))
    baseline = sum((v - u) * x for (x, v), u in zip(p.jumps, p.values()))
    moment0 = sum((fr.right - fr.left) * fr.position_at(0) for fr in first)
    if moment0 != baseline or _moment_rate(first) != tail_flux:
        raise ConsistencyError("conserved moment drifted")

    for s, ev in enumerate(events):
        before, after = slabs[s], slabs[s + 1]
        k = len(ev.incoming)
        m = len(after) - len(before) + k
        i = _block_index(before, ev.incoming)
        if (i is None or m < 0 or after[:i] != before[:i]
                or after[i + m :] != before[i + k :]):
            raise ConsistencyError(f"slab {s + 1} is not slab {s} after event {s}")
        new = after[i : i + m]
        left = before[i - 1] if i > 0 else None
        right = before[i + k] if i + k < len(before) else None
        check_new(new, left, right)
        if new != ev.outgoing:
            raise ConsistencyError(f"slab {s + 1} is not slab {s} after event {s}")
        t, x = ev.t, ev.x
        if any(fr.offset(t, x) for fr in ev.incoming) or any(
            fr.birth_time != t or fr.birth_x != x for fr in ev.outgoing
        ):
            raise ConsistencyError(f"event {s}: its fronts do not meet at its point")
        # every pair that ends or forms here has a block front, at x, on one
        # side and the block's neighbour, or another block front, on the other
        if (left is not None and left.position_at(t) > x) or (
            right is not None and right.position_at(t) < x
        ):
            raise ConsistencyError("fronts crossed inside a slab")

        drop = _tv(ev.incoming) - _tv(ev.outgoing)
        if drop < 0:
            raise ConsistencyError("total variation increased")
        if ev.kind == SAME_SIGN and drop != 0:
            raise ConsistencyError("same-sign event changed total variation")
        if ev.kind == CANCELLATION and drop != ev.canceled_mass:
            raise ConsistencyError("cancellation mass does not match TV drop")
        # the block's jumps sum to the same total before and after, all at x,
        # so the moment is continuous; its rate must not change either
        if _moment_rate(ev.incoming) != _moment_rate(ev.outgoing):
            raise ConsistencyError("conserved moment drifted")

    check_ordered(last, tl.slab_bounds(len(events))[0])


def _index_span(u, v, flux):
    """The grid index range (lo, hi) of the states between u and v."""
    return tuple(sorted((grid_index(u, flux.epsilon), grid_index(v, flux.epsilon))))


def fraction_delta_sigma(event, flux):
    """`delta_sigma` as it ran on the event's chain of `Fraction` states,
    each merge step's states turned into grid indices by `grid_index`."""
    total = F(0)
    for _, p, q, r in merge_steps(event.chain_states):
        if p == q or p == r:
            continue  # a step that cancels out changes no speed
        sign = 1 if r > p else -1
        whole = _index_span(p, r, flux)
        if (r > q) == (q > p):
            total += sum(
                _slope_gap_integral(flux, part, whole, part, sign)
                for part in (_index_span(p, q, flux), _index_span(q, r, flux))
            )
        else:
            part = (p, q) if abs(q - p) > abs(q - r) else (q, r)
            total += _slope_gap_integral(flux, whole, _index_span(*part, flux), whole, sign)
    return total


def slab_index(tl, t, side="post"):
    """The slab live at time t; at an event instant, ``side`` picks the one
    just before ("pre") or just after ("post", `Timeline.slab_index_at`) it."""
    s = tl.slab_index_at(t)  # raises on a negative time
    return bisect_left(tl.events, t, key=attrgetter("t")) if side == "pre" else s


def fraction_profile_at(tl, t, side="post"):
    """`profile_at` as it ran on the fronts' `Fraction` states: chained and
    with repeated values dropped by comparing states; ``side`` as in
    `slab_index`."""
    t = F(t)
    constant = tl.initial_profile.constant_state
    merged = []
    prev_v = constant
    prev_x = None
    for fr in tl.slabs[slab_index(tl, t, side)]:
        x = fr.position_at(t)
        if fr.left != prev_v:
            raise ConsistencyError("front states lost their chaining")
        if prev_x is not None and x < prev_x:
            raise ConsistencyError("fronts crossed inside a slab")
        if merged and merged[-1][0] == x:
            merged[-1] = (x, fr.right)
        else:
            merged.append((x, fr.right))
        prev_v = fr.right
        prev_x = x
    jumps = []
    prev_v = constant
    for x, v in merged:
        if v != prev_v:
            jumps.append((x, v))
            prev_v = v
    return Profile(constant, tuple(jumps))


def fraction_verdict_table(K, tv0, slabs, events, restarts) -> VerdictTable:
    """`verdict_table` as it ran on `Fraction`s, before it cross-multiplied
    (numerator, denominator) pairs: the same arguments with every rational a
    `Fraction`, and the same table."""
    failures = []
    if any(q > K * tv * tv for q, tv, _, _ in slabs):
        failures.append("slab_q_bound")
    verdicts, paper_drop_failures = [], []
    for index, kind, composite, a, b, c, dsig in events:
        q_minus, tv_minus, up_minus, us_minus = slabs[index]
        q_plus, tv_plus, up_plus, us_plus = slabs[index + 1]
        drop = q_minus - q_plus
        v = {
            "q_monotone": drop >= 0,
            "delta_sigma_le_upsilon_strict_drop": dsig <= us_minus - us_plus,
            "delta_sigma_le_upsilon_paper_drop": dsig <= up_minus - up_plus,
            "upsilon_paper_monotone": up_plus <= up_minus,
            "upsilon_strict_monotone": us_plus <= us_minus,
        }
        if not composite:
            if kind == SAME_SIGN:
                v["half_delta_sigma_le_q_drop"] = dsig / 2 <= drop
            else:
                v["cancellation_curvature_bound"] = dsig <= K * abs(c - a) * abs(c - b)
                v["cancellation_tv_bound"] = dsig <= K * tv0 * (tv_minus - tv_plus)
        if not v["delta_sigma_le_upsilon_paper_drop"]:
            paper_drop_failures.append(index)
        failures += [
            f"event{index}:{name}" for name in HARD_EVENT_VERDICTS if v.get(name) is False
        ]
        verdicts.append(v)
    equal = [q == q_restart for _, q, q_restart in restarts]
    failures += [f"restart@slab{s}" for (s, _, _), ok in zip(restarts, equal) if not ok]
    bound = K * tv0 * tv0
    flags = {
        "upsilon0_le_k_tv0_sq": slabs[0][2] <= bound,
        "upsilon0_le_2k_tv0_sq": slabs[0][2] <= 2 * bound,
        "upsilon_paper_drop_failures": paper_drop_failures,
    }
    if not flags["upsilon0_le_2k_tv0_sq"]:
        failures.append("upsilon0_le_2k_tv0_sq")
    return VerdictTable(verdicts, equal, flags, failures)


def state_forgeries(tl):
    """(what, timeline) for each front of ``tl`` with one state moved half an
    atom off the grid or one grid point outside the flux window, in every
    slab and event it appears in."""
    eps, f = tl.flux.epsilon, tl.flux
    outside = ((f.k_max + 1) * eps, (f.k_min - 1) * eps)
    for fr in tl.fronts_by_id.values():
        for name in ("left", "right"):
            u = getattr(fr, name)
            for value in (u + eps / 2, u - eps / 2, *outside):
                if value == (fr.right if name == "left" else fr.left):
                    continue
                forged = replace(fr, **{name: value})

                def sub(fronts):
                    return tuple(forged if g is fr else g for g in fronts)

                events = tuple(replace(ev, incoming=sub(ev.incoming), outgoing=sub(ev.outgoing))
                               for ev in tl.events)
                yield f"front {fr.fid} {name} {value}", replace(
                    tl, slabs=tuple(map(sub, tl.slabs)), events=events)


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

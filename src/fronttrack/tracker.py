"""Event-driven front tracking.

`evolve` builds the complete history of a piecewise-constant initial profile:
fronts move at constant speed until two or more adjacent ones share a
position, the merged jump is re-solved through the Riemann solver, and the
outgoing fan replaces the incoming fronts.  Exact rational arithmetic makes
collision detection and simultaneity handling deterministic: events are
ordered lexicographically by (time, position), and same-time events at
distinct positions are processed as separate, causally independent events.

The resulting Timeline is a list of slabs (t_j, t_{j+1}], each with its live
ordered front set, plus the event records.  Profiles can be reconstructed at
any time, with a pre/post side selector at the event instants themselves.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .envelope import GridFlux
from .errors import ConsistencyError, InputError, TrackerError
from .rationals import parse_rational, round_to_grid_half_even
from .riemann import is_admissible, solve_riemann

SAME_SIGN = "same_sign"
CANCELLATION = "cancellation"


@dataclass(frozen=True)
class Profile:
    """Right-continuous piecewise-constant state: value before the first jump
    is ``constant_state``; after a jump at x the value is that jump's
    right_value.  Jump positions strictly increase and consecutive values
    differ.  Tails may differ (a single shock is a valid profile)."""

    constant_state: Fraction
    jumps: tuple  # ((x, right_value), ...)

    def __post_init__(self):
        prev_x = None
        prev_v = self.constant_state
        for x, v in self.jumps:
            if prev_x is not None and x <= prev_x:
                raise InputError("jump positions must strictly increase")
            if v == prev_v:
                raise InputError("consecutive profile values must differ")
            prev_x, prev_v = x, v

    @property
    def right_constant(self) -> Fraction:
        return self.jumps[-1][1] if self.jumps else self.constant_state

    def values(self):
        """The value sequence, starting from the left constant."""
        return [self.constant_state] + [v for _, v in self.jumps]

    def value_at(self, x: Fraction) -> Fraction:
        v = self.constant_state
        for xj, vj in self.jumps:
            if xj <= x:
                v = vj
            else:
                break
        return v

    def total_variation(self) -> Fraction:
        vals = self.values()
        return sum((abs(b - a) for a, b in zip(vals, vals[1:])), Fraction(0))

    def value_span(self):
        vals = self.values()
        return min(vals), max(vals)


def discretize_initial(datum, epsilon) -> Profile:
    """Project a raw piecewise-constant datum onto the state grid.

    ``datum`` is (constant_state, [(x, right_value), ...]) with arbitrary
    rational values.  The base level is rounded half-to-even; each further
    value is taken as the grid point nearest to it *on the segment from the
    previous projected value*, which keeps the projection's total variation
    at or below the input's (plain pointwise rounding does not).
    """
    eps = parse_rational(epsilon)
    constant, raw_jumps = datum
    constant = parse_rational(constant)
    base = round_to_grid_half_even(constant, eps)
    shift = base - constant

    out = []
    prev = base
    for x, v in raw_jumps:
        x = parse_rational(x)
        target = parse_rational(v) + shift
        if target >= prev:
            stepped = prev + ((target - prev) // eps) * eps
        else:
            stepped = prev - ((prev - target) // eps) * eps
        if stepped != prev:
            out.append((x, stepped))
            prev = stepped
    return Profile(base, tuple(out))


@dataclass(frozen=True)
class InteractionEvent:
    index: int
    t: Fraction
    x: Fraction
    incoming: tuple  # Fronts, ordered by pre-collision position
    outgoing: tuple  # Fronts born at (t, x), ordered by speed
    kind: str
    a: Fraction  # left state of the merged jump
    b: Fraction  # extremal intermediate state
    c: Fraction  # right state of the merged jump

    @property
    def chain_states(self):
        return (self.incoming[0].left,) + tuple(fr.right for fr in self.incoming)

    def merge_steps(self):
        """The left-to-right pairwise merge: for each incoming front i >= 1,
        yield (i, p, q, r), where (p, q) is the jump merged from the fronts
        before i (p == q once they cancel out) and r is front i's right state."""
        states = self.chain_states
        p, q = states[0], states[1]
        for i in range(1, len(self.incoming)):
            r = states[i + 1]
            yield i, p, q, r
            q = r

    @property
    def canceled_mass(self) -> Fraction:
        incoming_tv = sum((fr.strength for fr in self.incoming), Fraction(0))
        return incoming_tv - abs(self.c - self.a)


@dataclass(frozen=True)
class Slab:
    """Live front set on the time interval (t_lo, t_hi]; t_hi None for the last."""

    index: int
    t_lo: Fraction
    t_hi: object  # Fraction or None
    fronts: tuple  # ordered left to right


@dataclass
class Timeline:
    flux: GridFlux
    initial_profile: Profile
    events: tuple
    slabs: tuple
    fronts_by_id: dict

    def slab_index_at(self, t: Fraction, side: str = "post") -> int:
        if t < 0:
            raise InputError("time must be nonnegative")
        if side == "pre":
            return bisect_left(self.events, t, key=attrgetter("t"))
        if side == "post":
            return bisect_right(self.events, t, key=attrgetter("t"))
        raise InputError("side must be 'pre' or 'post'")

    def slab_tv(self, slab_index: int) -> Fraction:
        return sum(
            (fr.strength for fr in self.slabs[slab_index].fronts), Fraction(0)
        )


def initial_fronts(profile: Profile, flux: GridFlux):
    """Riemann fans at every initial jump, at time zero."""
    fronts = []
    prev = profile.constant_state
    for x, v in profile.jumps:
        fronts.extend(solve_riemann(prev, v, flux, Fraction(0), x))
        prev = v
    return fronts


@dataclass(frozen=True)
class Collision:
    t: Fraction
    x: Fraction
    first: int  # index range [first, last] into the live front list
    last: int


def next_collision(fronts, after: Fraction):
    """Earliest (t, x), lexicographic, at which adjacent live fronts meet.

    ``fronts`` must be ordered and pairwise non-crossed at time ``after``.
    Fronts already sharing a position collide immediately iff their speeds
    cross (this happens for same-time events at distinct positions); a fan
    spreading from a single point does not count as a collision.
    """
    best = None
    positions = [fr.position_at(after) for fr in fronts]
    for i in range(len(fronts) - 1):
        gap = positions[i + 1] - positions[i]
        if gap < 0:
            raise ConsistencyError("front ordering lost")
        ds = fronts[i].speed - fronts[i + 1].speed
        if ds <= 0:
            continue
        t = after + gap / ds
        x = fronts[i].position_at(t)
        if best is None or (t, x) < (best[0], best[1]):
            best = (t, x, i)
    if best is None:
        return None
    t, x, i = best
    first = i
    while first > 0 and fronts[first - 1].position_at(t) == x:
        first -= 1
    last = i + 1
    while last + 1 < len(fronts) and fronts[last + 1].position_at(t) == x:
        last += 1
    return Collision(t, x, first, last)


def _extremal_intermediate(states):
    """Among the intermediate chain states, the one farthest outside the
    closed span of the end states (any of them for a monotone chain)."""
    a, c = states[0], states[-1]
    lo, hi = min(a, c), max(a, c)
    best, best_d = states[1], None
    for u in states[1:-1]:
        d = max(lo - u, u - hi, Fraction(0))
        if best_d is None or d > best_d:
            best, best_d = u, d
    return best


def resolve_event(colliding, t, x, flux, index=0, fid_start=0):
    """Solve the Riemann problem spanned by a colliding block of fronts."""
    for fr, gr in zip(colliding, colliding[1:]):
        if fr.right != gr.left:
            raise ConsistencyError("colliding front states do not chain")
        if fr.position_at(t) != x or gr.position_at(t) != x:
            raise ConsistencyError("colliding fronts do not meet at the event point")
    a = colliding[0].left
    c = colliding[-1].right
    states = [a] + [fr.right for fr in colliding]
    b = _extremal_intermediate(states)
    signs = {fr.sign for fr in colliding}
    kind = SAME_SIGN if len(signs) == 1 and a != c else CANCELLATION
    outgoing = []
    if a != c:
        outgoing = [
            fr.with_fid(fid_start + i)
            for i, fr in enumerate(solve_riemann(a, c, flux, t, x))
        ]
    return InteractionEvent(
        index=index, t=t, x=x,
        incoming=tuple(colliding), outgoing=tuple(outgoing),
        kind=kind, a=a, b=b, c=c,
    )


def evolve(profile: Profile, flux: GridFlux, max_events=None) -> Timeline:
    """Run the tracking to completion and return the full Timeline."""
    lo, hi = profile.value_span()
    if not (flux.contains_u(lo) and flux.contains_u(hi)):
        raise InputError("flux window does not cover the profile's value range")

    live = [fr.with_fid(i) for i, fr in enumerate(initial_fronts(profile, flux))]
    fronts_by_id = {fr.fid: fr for fr in live}
    next_fid = len(live)
    cap = max_events if max_events is not None else 10 * max(len(live), 1) ** 2

    events = []
    slabs = []
    t_prev = Fraction(0)
    while True:
        hit = next_collision(live, t_prev)
        if hit is None:
            slabs.append(Slab(len(slabs), t_prev, None, tuple(live)))
            break
        if len(events) >= cap:
            partial = Timeline(
                flux, profile, tuple(events),
                tuple(slabs + [Slab(len(slabs), t_prev, None, tuple(live))]),
                fronts_by_id,
            )
            raise TrackerError(
                f"event cap {cap} exceeded at t={hit.t}", partial_timeline=partial
            )
        slabs.append(Slab(len(slabs), t_prev, hit.t, tuple(live)))
        block = live[hit.first : hit.last + 1]
        event = resolve_event(
            block, hit.t, hit.x, flux, index=len(events), fid_start=next_fid
        )
        next_fid += len(event.outgoing)
        for fr in event.outgoing:
            fronts_by_id[fr.fid] = fr
        live[hit.first : hit.last + 1] = list(event.outgoing)
        events.append(event)
        t_prev = hit.t
    return Timeline(flux, profile, tuple(events), tuple(slabs), fronts_by_id)


def profile_at(tl: Timeline, t: Fraction, side: str = "post") -> Profile:
    """Reconstruct the profile at time t (pre/post selects the one-sided limit
    at event instants; elsewhere the two agree)."""
    t = Fraction(t)
    if t < 0:
        raise InputError("time must be nonnegative")
    slab = tl.slabs[tl.slab_index_at(t, side)]
    constant = tl.initial_profile.constant_state
    merged = []
    prev_v = constant
    prev_x = None
    for fr in slab.fronts:
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


def validate_timeline(tl: Timeline) -> None:
    """Exact structural checks; raises ConsistencyError on any failure.

    Among them: the moment sum_j jump_j * x_j(t) - t * (F(right tail) -
    F(left tail)) keeps its time-zero value (with equal tails, the integral
    of u - constant is conserved), and no fronts converge after the last
    event."""
    p, flux = tl.initial_profile, tl.flux
    lo0, hi0 = p.value_span()

    for ev, nxt in zip(tl.events, tl.events[1:]):
        if (ev.t, ev.x) >= (nxt.t, nxt.x):
            raise ConsistencyError("events not in lexicographic (t, x) order")
    last = tl.slabs[-1].fronts
    if any(fr.speed > gr.speed for fr, gr in zip(last, last[1:])):
        raise ConsistencyError("fronts still converge after the last event")

    tail_flux = (flux.value_at_index(flux.index_of(p.right_constant))
                 - flux.value_at_index(flux.index_of(p.constant_state)))
    baseline = sum((v - u) * x for (x, v), u in zip(p.jumps, p.values()))
    admissible = set()  # Front values, not fids: a reused fid is checked again
    prev_tv = None
    for slab in tl.slabs:
        tv = tl.slab_tv(slab.index)
        if prev_tv is not None and tv > prev_tv:
            raise ConsistencyError("total variation increased")
        if slab.index > 0:
            ev = tl.events[slab.index - 1]
            drop = prev_tv - tv
            if ev.kind == SAME_SIGN and drop != 0:
                raise ConsistencyError("same-sign event changed total variation")
            if ev.kind == CANCELLATION and drop != ev.canceled_mass:
                raise ConsistencyError("cancellation mass does not match TV drop")
        prev_tv = tv

        prev_v = p.constant_state
        for fr in slab.fronts:
            if fr.left != prev_v:
                raise ConsistencyError("front states do not chain inside a slab")
            prev_v = fr.right
            if not (lo0 <= fr.u_lo and fr.u_hi <= hi0):
                raise ConsistencyError("profile left the initial value range")
            if fr not in admissible:
                if not is_admissible(fr, flux):
                    raise ConsistencyError("live front is not admissible")
                admissible.add(fr)
        if prev_v != p.right_constant:
            raise ConsistencyError("right tail value changed")

        for t_probe in (slab.t_lo, slab.t_hi):
            if t_probe is None:
                continue
            xs = [fr.position_at(t_probe) for fr in slab.fronts]
            if any(b < a for a, b in zip(xs, xs[1:])):
                raise ConsistencyError("fronts crossed inside a slab")
        # xs holds the positions at t_hi, or at t_lo on the last slab
        t_ref = slab.t_lo if slab.t_hi is None else slab.t_hi
        moment = sum((fr.right - fr.left) * x for fr, x in zip(slab.fronts, xs))
        if moment - t_ref * tail_flux != baseline:
            raise ConsistencyError("conserved moment drifted")

"""Event-driven front tracking.

`evolve` builds the complete history of a piecewise-constant initial profile:
fronts move at constant speed until two or more adjacent ones share a
position, the merged jump is re-solved through the Riemann solver, and the
outgoing fan replaces the incoming fronts.  Exact rational arithmetic makes
collision detection and simultaneity handling deterministic: events are
ordered lexicographically by (time, position), and same-time events at
distinct positions are processed as separate, causally independent events.

Each event costs the size of its block, not the length of the line.  The
meeting (t, x) of every converging pair of neighbours sits in a min-heap,
entered when the pair forms: at t = 0, or at an event's block edges (a fan's
own pairs diverge).  Two lines meet at one time whenever they are looked at,
so an entry stays exact while its pair stays adjacent; an entry whose pair
was broken up by an event is skipped when popped (lazy invalidation).  Each
entry leads with the integer key floor(t * 2^64), which never decreases as t
grows, so the heap sifts on ints and compares the exact (t, x) only when two
keys tie.  The total variation of each slab is carried along, event by
event, as a whole number of atoms of size epsilon (every state is a grid
point), and made a `Fraction` once per slab, when the Timeline is built.

States enter and leave the tracker as grid indices.  `initial_fronts` turns
each profile value into its index once, and every front carries the indices
of its two states from its birth (`Front.k_left`, `Front.k_right`), so an
event's chain test, its re-solve (`solve_riemann` on the block's end
indices), the atom counts, `profile_at`'s chaining and an event's chain of
indices (`InteractionEvent.chain_indices`) are integer operations.
`validate_timeline` does not read the carried indices: it derives each new
front's grid coordinates from its `Fraction` states, checks on those
integers and hands them to `is_admissible`.  The flux window is checked
once, in `initial_fronts`, on the profile's grid coordinates.

The collision kernel runs on integers.  Each front carries the numerators
and denominators of its line's intercept and speed (`Front.line`, fixed at
its birth), so the ordering test and the convergence test of a new pair are
cross-multiplications, a converging pair makes two `Fraction`s, its meeting
time and its meeting point (`Front.position_at`, one `Fraction` from the
line's integers), and "this front is at x at time t"
(`Front.passes_through`), asked when a block is extended, when an event is
resolved and when it is validated, is one integer equality.  An event's
outgoing fan is born from its hull's fan template (see `riemann`), so an
event that re-solves a jump seen before derives only the new fronts' lines.

The resulting Timeline holds what the run decides, each fact once: the live
ordered front set of each slab (t_j, t_{j+1}], the events (their point, the
fronts that meet there and the fan born there) and the per-slab total
variation.  Everything else is derived: an event's kind and merged states
from its incoming fronts, a slab's bounds from the event times
(`Timeline.slab_bounds`), an index by position in its list.  Profiles can be
reconstructed at any time, with a pre/post side selector at the event
instants themselves.

`validate_timeline` checks slab 0 in full and then each event locally.  Once
slab s+1 is known to be slab s with the event's incoming block, met at the
event point, replaced by its outgoing fronts, born there, a front needs its
checks only when it is new, a pair of neighbours only when it forms and when
it ends (positions are linear in t), and the total variation and the
conserved moment's rate only each event's change.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from operator import attrgetter

from .envelope import GridFlux
from .errors import ConsistencyError, InputError, TrackerError
from .rationals import grid_coordinate, grid_index, parse_rational
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
    base = round(constant / eps) * eps  # Fraction rounds half to even
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


def _atoms(fronts) -> int:
    """The total strength of ``fronts`` in atoms of size epsilon: the number
    of grid cells between each front's carried state indices."""
    return sum(abs(fr.k_right - fr.k_left) for fr in fronts)


@dataclass(frozen=True)
class InteractionEvent:
    """The fronts that meet at (t, x) and the fan born there.  The merged
    jump (a, c), its extremal intermediate state b and the event's kind are
    read off the incoming chain when the event is made, so they cannot
    disagree with it, and `dataclasses.replace` cannot set them."""

    t: Fraction
    x: Fraction
    incoming: tuple  # Fronts, ordered by pre-collision position
    outgoing: tuple  # Fronts born at (t, x), ordered by speed
    kind: str = field(init=False)
    a: Fraction = field(init=False)  # left state of the merged jump
    b: Fraction = field(init=False)  # extremal intermediate state
    c: Fraction = field(init=False)  # right state of the merged jump

    def __post_init__(self):
        states = self.chain_states
        a, c = states[0], states[-1]
        same_sign = a != c and len({fr.sign for fr in self.incoming}) == 1
        object.__setattr__(self, "kind", SAME_SIGN if same_sign else CANCELLATION)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", _extremal_intermediate(states))
        object.__setattr__(self, "c", c)

    @property
    def chain_states(self):
        return (self.incoming[0].left,) + tuple(fr.right for fr in self.incoming)

    @property
    def chain_indices(self):
        """The grid indices of `chain_states`, as the incoming fronts carry them."""
        return (self.incoming[0].k_left,) + tuple(fr.k_right for fr in self.incoming)

    @property
    def canceled_mass(self) -> Fraction:
        return sum(abs(fr.right - fr.left) for fr in self.incoming) - abs(self.c - self.a)


def merge_steps(states):
    """The left-to-right pairwise merge of an event's chain of states (its
    `chain_states`, or its `chain_indices`): for each incoming front i >= 1,
    yield (i, p, q, r), where (p, q) is the jump merged from the fronts
    before i (p == q once they cancel out) and r is front i's right state."""
    p, q = states[0], states[1]
    for i in range(1, len(states) - 1):
        r = states[i + 1]
        yield i, p, q, r
        q = r


@dataclass
class Timeline:
    flux: GridFlux
    initial_profile: Profile
    events: tuple
    slabs: tuple  # the live fronts of each slab, left to right
    fronts_by_id: dict
    slab_tvs: tuple  # total variation of each slab, updated event by event

    def slab_bounds(self, s: int):
        """(t_lo, t_hi) of slab s, the time interval (t_lo, t_hi] between the
        events around it; t_hi is None on the last slab."""
        t_lo = self.events[s - 1].t if s else Fraction(0)
        t_hi = self.events[s].t if s < len(self.events) else None
        return t_lo, t_hi

    def slab_index_at(self, t: Fraction, side: str = "post") -> int:
        if t < 0:
            raise InputError("time must be nonnegative")
        if side == "pre":
            return bisect_left(self.events, t, key=attrgetter("t"))
        if side == "post":
            return bisect_right(self.events, t, key=attrgetter("t"))
        raise InputError("side must be 'pre' or 'post'")


def initial_fronts(profile: Profile, flux: GridFlux):
    """Riemann fans at every initial jump, at time zero, numbered from 0.

    Each profile value is turned into its grid coordinate once
    (`grid_coordinate`), and the flux window is checked on those: it must
    cover every value, the constant of a profile without jumps included
    (InputError).  Where there are jumps every value must then be a grid
    point, or `grid_index` raises its InputError for the first that is not."""
    eps = flux.epsilon
    values = profile.values()
    ks = [grid_coordinate(u, eps) for u in values]
    if min(ks) < flux.k_min or max(ks) > flux.k_max:
        raise InputError("flux window does not cover the profile's value range")
    fronts = []
    if not profile.jumps:
        return fronts
    if any(type(k) is not int for k in ks):
        ks = [grid_index(u, eps) for u in values]
    t0 = Fraction(0)
    for (x, _), k0, k1 in zip(profile.jumps, ks, ks[1:]):
        fronts.extend(solve_riemann(k0, k1, flux, t0, x, len(fronts)))
    return fronts


@dataclass(frozen=True)
class Collision:
    t: Fraction
    x: Fraction
    first: int  # index range [first, last] into the live front list
    last: int


def _schedule(heap, left, right, t):
    """Enter two fronts that became neighbours at time t: they must still be
    ordered there, and if they converge their meeting joins the heap.  The
    gap between their lines is gap0 - ds * t, so they meet at gap0 / ds.

    It runs on the lines' integers: gap0 = g_n / g_d and ds = d_n / d_d with
    positive denominators, so the ordering test and the sign of ds are
    cross-multiplications, and the meeting time and its point on the left
    line (`Front.position_at`) are the two `Fraction`s made.  The entry leads
    with the integer key floor(t_meet * 2^64), which never decreases as
    t_meet grows: entries pop in (t, x, left fid, right fid) order, and the
    `Fraction`s are compared only when two keys tie."""
    al, bl, cl, dl = left.line
    ar, br, cr, dr = right.line
    g_n, g_d = ar * bl - al * br, bl * br
    d_n, d_d = cl * dr - cr * dl, dl * dr
    if g_n * d_d * t.denominator < d_n * t.numerator * g_d:
        raise ConsistencyError("front ordering lost")
    if d_n > 0:
        num, den = g_n * d_d, g_d * d_n
        t_meet = Fraction(num, den)
        x = left.position_at(t_meet)
        heappush(heap, ((num << 64) // den, t_meet, x, left.fid, right.fid))


def next_collision(heap, live, fids):
    """Pop the earliest (t, x), lexicographic, at which live neighbours meet.

    ``heap`` holds one (key, t, x, left fid, right fid) entry per converging
    pair that was ever adjacent, key = floor(t * 2^64) (see `_schedule`);
    ``live`` is the ordered front list and ``fids`` its fids.  An entry is
    stale once its left front has left the line or has another right
    neighbour.  The block that collides is every front at x at time t, found
    by extending the popped pair left and right.
    """
    while heap:
        _, t, x, lf, rf = heappop(heap)
        if lf in fids:
            i = fids.index(lf)
            if i + 1 < len(fids) and fids[i + 1] == rf:
                break
    else:
        return None
    first = i
    while first > 0 and live[first - 1].passes_through(t, x):
        first -= 1
    last = i + 1
    while last + 1 < len(live) and live[last + 1].passes_through(t, x):
        last += 1
    return Collision(t, x, first, last)


def _extremal_intermediate(states):
    """Among the intermediate chain states, the one farthest outside the
    closed span of the end states (any of them for a monotone chain)."""
    if len(states) == 3:
        return states[1]  # a two-front event has one intermediate state
    a, c = states[0], states[-1]
    lo, hi = (a, c) if a < c else (c, a)
    best, best_d = states[1], None
    for u in states[1:-1]:
        d = lo - u if u < lo else u - hi if u > hi else 0
        if best_d is None or d > best_d:
            best, best_d = u, d
    return best


def resolve_event(colliding, t, x, flux, fid_start=0):
    """Solve the Riemann problem spanned by a colliding block of fronts, on
    the grid indices the fronts carry."""
    for fr, gr in zip(colliding, colliding[1:]):
        if fr.k_right != gr.k_left:
            raise ConsistencyError("colliding front states do not chain")
    if not all(fr.passes_through(t, x) for fr in colliding):
        raise ConsistencyError("colliding fronts do not meet at the event point")
    outgoing = solve_riemann(colliding[0].k_left, colliding[-1].k_right, flux, t, x, fid_start)
    return InteractionEvent(t, x, tuple(colliding), tuple(outgoing))


def evolve(profile: Profile, flux: GridFlux, max_events=None) -> Timeline:
    """Run the tracking to completion and return the full Timeline."""
    live = initial_fronts(profile, flux)
    fids = [fr.fid for fr in live]
    fronts_by_id = {fr.fid: fr for fr in live}
    next_fid = len(live)
    cap = max_events if max_events is not None else 10 * max(len(live), 1) ** 2

    heap, t0 = [], Fraction(0)
    for fr, gr in zip(live, live[1:]):
        _schedule(heap, fr, gr, t0)
    events = []
    slabs = [tuple(live)]
    eps = flux.epsilon
    tv_atoms = [_atoms(live)]  # each slab's total variation / eps

    def timeline():
        tvs = tuple(n * eps for n in tv_atoms)
        return Timeline(flux, profile, tuple(events), tuple(slabs), fronts_by_id, tvs)

    while True:
        hit = next_collision(heap, live, fids)
        if hit is None:
            break
        if len(events) >= cap:
            raise TrackerError(
                f"event cap {cap} exceeded at t={hit.t}", partial_timeline=timeline()
            )
        block = live[hit.first : hit.last + 1]
        event = resolve_event(block, hit.t, hit.x, flux, fid_start=next_fid)
        out = event.outgoing
        next_fid += len(out)
        for fr in out:
            fronts_by_id[fr.fid] = fr
        live[hit.first : hit.last + 1] = out
        fids[hit.first : hit.last + 1] = [fr.fid for fr in out]
        # the new neighbour pairs at the block's edges (one pair after a full
        # cancellation); the fan's own pairs diverge
        for j in {hit.first - 1, hit.first + len(out) - 1}:
            if 0 <= j < len(live) - 1:
                _schedule(heap, live[j], live[j + 1], hit.t)
        tv_atoms.append(tv_atoms[-1] - _atoms(block) + _atoms(out))
        events.append(event)
        slabs.append(tuple(live))
    return timeline()


def profile_at(tl: Timeline, t: Fraction, side: str = "post") -> Profile:
    """Reconstruct the profile at time t (pre/post selects the one-sided limit
    at event instants; elsewhere the two agree).  Order is checked first;
    chaining and repeated values are decided on the carried grid indices."""
    t = Fraction(t)
    constant = tl.initial_profile.constant_state
    k0 = grid_coordinate(constant, tl.flux.epsilon)
    merged = []  # (x, k, value) after each position
    k_prev, prev_x = k0, None
    for fr in tl.slabs[tl.slab_index_at(t, side)]:
        x = fr.position_at(t)
        if prev_x is not None and x < prev_x:
            raise ConsistencyError("fronts crossed inside a slab")
        if fr.k_left != k_prev:
            raise ConsistencyError("front states lost their chaining")
        if merged and merged[-1][0] == x:
            merged[-1] = (x, fr.k_right, fr.right)
        else:
            merged.append((x, fr.k_right, fr.right))
        k_prev, prev_x = fr.k_right, x
    jumps = []
    k_prev = k0
    for x, k, v in merged:
        if k != k_prev:
            jumps.append((x, v))
            k_prev = k
    return Profile(constant, tuple(jumps))


def _block_index(fronts, block):
    """Where ``block`` (two or more fronts) sits in the tuple ``fronts``, or None."""
    fids = list(map(attrgetter("fid"), fronts))
    if len(block) < 2 or block[0].fid not in fids:
        return None
    i = fids.index(block[0].fid)
    return i if fronts[i : i + len(block)] == block else None


def _exact_sum(terms):
    """The sum of c * n / d over ``terms`` of (c, n, d), d > 0, as the pair
    (numerator, denominator) over the lcm of the d's, on integers."""
    terms = list(terms)
    den = lcm(*(d for _, _, d in terms))
    return sum(c * n * (den // d) for c, n, d in terms), den


def _rate_terms(fronts, ks):
    """The terms (k_right - k_left, n, m) of the moment's rate over epsilon,
    sum_j (k_right - k_left) * speed_j, with speed_j = n/m."""
    return ((kr - kl, fr.speed.numerator, fr.speed.denominator)
            for fr, (kl, kr) in zip(fronts, ks))


def _offset(fr, t: Fraction, x: Fraction) -> int:
    """An integer with the sign of the front's position at time t minus x:
    with intercept a/b and speed = c/d, (a*d*t_d + c*b*t_n) * x_d -
    x_n * b*d*t_d, all denominators positive."""
    a, b, c, d = fr.line
    td = t.denominator
    return (a * d * td + c * b * t.numerator) * x.denominator - x.numerator * b * d * td


def _ordered_at(fronts, t: Fraction) -> bool:
    """Whether the fronts' positions at time t do not decrease, compared by
    cross-multiplying each position's numerator and denominator."""
    tn, td = t.numerator, t.denominator
    prev = None
    for fr in fronts:
        a, b, c, d = fr.line
        num, den = a * d * td + c * b * tn, b * d * td
        if prev is not None and num * prev[1] < prev[0] * den:
            return False
        prev = num, den
    return True


def validate_timeline(tl: Timeline) -> None:
    """Exact structural checks; raises ConsistencyError on any failure.

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

    The checks run on grid coordinates that the validator derives itself
    (`grid_coordinate`), each front's two once, when it is new: it reads no
    index a front carries.  A state's coordinate is its grid index, or the
    exact non-integral u/epsilon of an off-grid state, so every comparison
    is the one on the `Fraction` states, scaled by 1/epsilon, and deriving
    one raises nothing.  The total variation is counted in atoms (each slab
    a running count), and the moment and its rate are sums of coordinate
    changes times positions or speeds, exact over the lcm of their
    denominators; the factor epsilon cancels between their two sides.
    """
    p, flux = tl.initial_profile, tl.flux
    events, slabs, tvs = tl.events, tl.slabs, tl.slab_tvs
    eps = flux.epsilon
    e_n, e_d = eps.numerator, eps.denominator
    pks = [grid_coordinate(u, eps) for u in p.values()]
    lo0, hi0 = min(pks), max(pks)

    for ev, nxt in zip(events, events[1:]):
        t0, t1 = ev.t, nxt.t
        dt = t0.numerator * t1.denominator - t1.numerator * t0.denominator
        if dt > 0 or (dt == 0 and ev.x >= nxt.x):
            raise ConsistencyError("events not in lexicographic (t, x) order")
    last = slabs[-1]
    speeds = [(fr.speed.numerator, fr.speed.denominator) for fr in last]
    if any(n0 * m1 > n1 * m0 for (n0, m0), (n1, m1) in zip(speeds, speeds[1:])):
        raise ConsistencyError("fronts still converge after the last event")
    if len(slabs) != len(events) + 1 or len(tvs) != len(slabs):
        raise ConsistencyError("slabs do not span the events")

    def check_new(fronts, k_prev, k_next):
        """Chaining, value range and admissibility of ``fronts``, which sit
        between the states of coordinates k_prev and k_next (None at the
        right end); returns each front's (k_left, k_right)."""
        ks = []
        for fr in fronts:
            kl, kr = grid_coordinate(fr.left, eps), grid_coordinate(fr.right, eps)
            if kl != k_prev:
                raise ConsistencyError("front states do not chain inside a slab")
            k_prev = kr
            lo, hi = (kl, kr) if kl < kr else (kr, kl)
            if not (lo0 <= lo and hi <= hi0):
                raise ConsistencyError("profile left the initial value range")
            if type(lo) is not int or type(hi) is not int or lo < flux.k_min or hi > flux.k_max:
                for u in sorted((fr.left, fr.right)):  # raises the state's own error
                    flux.index_of(u)
            if not is_admissible(fr, flux, kl, kr):
                raise ConsistencyError("live front is not admissible")
            ks.append((kl, kr))
        if k_next is None and k_prev != pks[-1]:
            raise ConsistencyError("right tail value changed")
        if k_next is not None and k_prev != k_next:
            raise ConsistencyError("front states do not chain inside a slab")
        return ks

    def matches_atoms(tv, count) -> bool:
        """Whether tv == count * epsilon."""
        return tv.numerator * e_d == count * tv.denominator * e_n

    first = slabs[0]
    coords = check_new(first, pks[0], None)  # (k_left, k_right) of each live front
    if not _ordered_at(first, Fraction(0)):
        raise ConsistencyError("fronts crossed inside a slab")
    count = sum(abs(kr - kl) for kl, kr in coords)  # the live atoms
    if not matches_atoms(tvs[0], count):
        raise ConsistencyError("slab total variation does not match its fronts")
    tail_flux = (flux.value_at_index(flux.index_of(p.right_constant))
                 - flux.value_at_index(flux.index_of(p.constant_state)))
    # the moment at t = 0, front by front and jump by jump, over epsilon
    m_n, m_d = _exact_sum((kr - kl, *fr.line[:2]) for fr, (kl, kr) in zip(first, coords))
    b_n, b_d = _exact_sum((v - u, x.numerator, x.denominator)
                          for (x, _), u, v in zip(p.jumps, pks, pks[1:]))
    r_n, r_d = _exact_sum(_rate_terms(first, coords))
    if (m_n * b_d != b_n * m_d
            or e_n * r_n * tail_flux.denominator != tail_flux.numerator * e_d * r_d):
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
        k_prev = coords[i - 1][1] if i > 0 else pks[0]
        k_next = coords[i + k][0] if i + k < len(before) else None
        new_ks = check_new(new, k_prev, k_next)
        if new != ev.outgoing:
            raise ConsistencyError(f"slab {s + 1} is not slab {s} after event {s}")
        t, x = ev.t, ev.x
        if not all(fr.passes_through(t, x) for fr in ev.incoming) or any(
            fr.birth_time != t or fr.birth_x != x for fr in ev.outgoing
        ):
            raise ConsistencyError(f"event {s}: its fronts do not meet at its point")
        # every pair that ends or forms here has a block front, at x, on one
        # side and the block's neighbour, or another block front, on the other
        if (i > 0 and _offset(before[i - 1], t, x) > 0) or (
            k_next is not None and _offset(before[i + k], t, x) < 0
        ):
            raise ConsistencyError("fronts crossed inside a slab")

        in_ks = coords[i : i + k]
        atoms_in = sum(abs(kr - kl) for kl, kr in in_ks)
        drop = atoms_in - sum(abs(kr - kl) for kl, kr in new_ks)
        if not matches_atoms(tvs[s + 1], count - drop):
            raise ConsistencyError("slab total variation does not match its fronts")
        if drop < 0:
            raise ConsistencyError("total variation increased")
        if ev.kind == SAME_SIGN and drop != 0:
            raise ConsistencyError("same-sign event changed total variation")
        if ev.kind == CANCELLATION and drop != atoms_in - abs(in_ks[-1][1] - in_ks[0][0]):
            raise ConsistencyError("cancellation mass does not match TV drop")
        # the block's jumps sum to the same total before and after, all at x,
        # so the moment is continuous; its rate must not change either
        in_n, in_d = _exact_sum(_rate_terms(ev.incoming, in_ks))
        out_n, out_d = _exact_sum(_rate_terms(ev.outgoing, new_ks))
        if in_n * out_d != out_n * in_d:
            raise ConsistencyError("conserved moment drifted")
        count -= drop
        coords[i : i + k] = new_ks

    if not _ordered_at(last, tl.slab_bounds(len(events))[0]):
        raise ConsistencyError("fronts crossed inside a slab")

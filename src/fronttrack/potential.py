"""Interaction accounting: speed changes, pair weights, and the potentials.

The speed change of an interaction is an envelope-slope integral over the
states involved; with grid-aligned states it is an exact finite sum over
state cells, read off the grid indices its fronts carry
(`InteractionEvent.chain_indices`).  Each ordered pair of waves (w < w')
carries a weight q:

* K (the flux curvature constant) when the live waves between them mix signs,
* 0 when they share a position or will never share one,
* pi/d otherwise, where d is the mass of the waves present at the pair's
  first future meeting and pi is the positive part of the gap between the
  entropic speeds the meeting assigns to w and w'.

Q(t) integrates q over ordered pairs; it is constant between events, drops
at events, and its drop at a same-sign interaction dominates half the speed
change there.  Q is evaluated per slab at atom granularity, where all
quantities are piecewise constant, so the double integral is an exact
finite sum.  Only events whose survivors come from two or more incoming
fronts make pairs meet, so Q is a sweep over those events, kept slab by
slab, and no pair is listed: a meeting event's survivors form a line of
positions, each survivor group's atoms count as a pair's smaller atom
from one threshold slab on and as its larger atom from another, so its
pairs on each (slope id, slope id) term are products of per-group
histograms over the hull pieces' integer slope keys; a pair that meets
again after a split is a correction to those products, and a slab settles
only the meeting events whose counts changed (see `_SlabPotential`).  The
sign blocks that decide Q's weight-K pairs are kept event by event too
(`_SignBlocks`).  The cubic speed-spread (Bianchini) sum is kept event by
event in integer Fenwick trees over the front speed rank, O(k log F) per
event of k fronts; the same walk counts each slab's live atoms, whose mass
is its total variation TV.  Adding K * TV(initial) * TV(current) yields the
combined functionals (`upsilon`); the variant with the Q term doubled is
the one whose event drops dominate the full speed change.

All classifications look only forward in time: they depend on front
membership in the current slab and on the event list from the slab onward,
never on how the profile got there.  The restart checks in `verify_run`
exercise exactly that property.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from math import gcd, lcm

from .envelope import GridFlux, curvature_constant, envelope
from .errors import ConsistencyError, InputError
from .tracker import SAME_SIGN, InteractionEvent, Timeline, evolve, merge_steps, profile_at
from .tracing import WaveSystem, advance_tracing, build_initial_waves, first_common_event


# -- speed change ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _cell_slopes(flux: GridFlux, lo: int, hi: int, sign: int):
    """The envelope's pieces on the state cells [lo, hi) for the given sign:
    its breakpoints (grid indices, lo first and hi last), an exact integer
    key per piece and the pieces' slopes.  A key is the reduced (rise, run)
    of the piece on the integer samples D*F(k*eps), run > 0: the slope is
    rise / (run * D * eps), so two pieces of one flux have equal slopes
    exactly when their keys are equal."""
    env = envelope(flux, lo, hi, sign)
    base, scaled = flux.k_min, flux._scaled
    keys = []
    for k0, k1 in zip(env.indices, env.indices[1:]):
        rise, run = scaled[k1 - base] - scaled[k0 - base], k1 - k0
        g = gcd(rise, run)
        keys.append((rise // g, run // g))
    return env.indices, tuple(keys), env.slopes


def _slope_gap_integral(flux, span_a, span_b, over, sign):
    """Integral over ``over`` of |envelope-slope(span_a) - envelope-slope(span_b)|.

    One walk over the merged breakpoints of the two envelopes: on each
    stretch [k0, k1) of cells where both are affine, (k1 - k0) times the
    gap of their slopes."""
    env_a = envelope(flux, *span_a, sign)
    env_b = envelope(flux, *span_b, sign)
    ka, kb = env_a.indices, env_b.indices
    k, hi = over
    i, j = bisect_right(ka, k) - 1, bisect_right(kb, k) - 1
    total = Fraction(0)
    while k < hi:
        k1 = min(ka[i + 1], kb[j + 1], hi)
        total += (k1 - k) * abs(env_a.slopes[i] - env_b.slopes[j])
        if ka[i + 1] == k1:
            i += 1
        if kb[j + 1] == k1:
            j += 1
        k = k1
    return total * flux.epsilon


def _span(i, j):
    """The grid index range (lo, hi) between the indices i and j."""
    return (i, j) if i < j else (j, i)


def _same_sign_triple(a, b, c, flux) -> Fraction:
    """Each part's envelope slopes against the whole jump's, over the part."""
    if not (a < b < c or a > b > c):
        raise InputError("same-sign speed change needs a monotone state triple")
    whole, sign = _span(a, c), 1 if c > a else -1
    return sum(
        _slope_gap_integral(flux, part, whole, part, sign) for part in (_span(a, b), _span(b, c))
    )


def _cancellation_triple(a, b, c, flux) -> Fraction:
    """The survivor's envelope slopes against the larger part's, over it."""
    if a == c:
        return Fraction(0)
    survivor = _span(a, c)
    bigger = _span(a, b) if abs(b - a) > abs(b - c) else _span(b, c)
    return _slope_gap_integral(flux, survivor, bigger, survivor, 1 if c > a else -1)


def delta_sigma(event: InteractionEvent, flux: GridFlux) -> Fraction:
    """Total speed change of an event; composite events sum their merge
    steps, walked on the grid indices the incoming fronts carry."""
    total = Fraction(0)
    for _, p, q, r in merge_steps(event.chain_indices):
        if p == q:
            continue
        if (r > q) == (q > p):
            total += _same_sign_triple(p, q, r, flux)
        else:
            total += _cancellation_triple(p, q, r, flux)
    return total


# -- pair weights and Q ------------------------------------------------------------


# the two roles of a survivor group: its atoms as a pair's smaller atom, or
# as its larger one
LEFT, RIGHT = 0, 1
# the kinds of a meeting event's changes: a role's stretch grows, a group
# pair starts to count, a re-meeting pair's correction starts, and ends
GROW, PAIR, DEFER, COUNT = range(4)


class _Meeting:
    """What the run fixes about one meeting event for the whole sweep.

    Its survivors, in id order, sit at positions 0, 1, ...; their cells run
    from ``cell0`` one cell per position, in the direction of ``sign``, so
    every set of survivors the sweep counts is a stretch of positions.  The
    survivor groups (one per incoming front with survivors) are the
    stretches [groups[i], groups[i+1]).  ``actions`` maps a slab to the
    changes due on it: a role's active stretch grows, a group pair starts
    to count, or a re-meeting pair's correction starts or ends."""

    def __init__(self, ws, e):
        self.outs = [ws.atoms_of[fr.fid] for fr in ws.timeline.events[e].outgoing]
        self.firsts = [atoms[0] for atoms in self.outs]
        self.offsets = list(accumulate(map(len, self.outs), initial=0))
        self.sign = ws.sign[self.firsts[0]]
        self.cell0 = ws.cell[self.firsts[0]]
        self.groups = [0]
        self.empty = {}  # role that counts pairs -> its stretch before it counts any
        self.actions = {}

    def rank(self, x):
        """The number of survivors with ids below x."""
        j = bisect_right(self.firsts, x) - 1
        return 0 if j < 0 else self.offsets[j] + bisect_left(self.outs[j], x)

    def atom(self, k):
        """The survivor at position k."""
        j = bisect_right(self.offsets, k) - 1
        return self.outs[j][k - self.offsets[j]]

    def span(self, atoms):
        """The positions [lo, hi) of the survivors in the id range of ``atoms``."""
        return self.rank(atoms[0]), self.rank(atoms[-1] + 1)

    def cells(self, lo, hi):
        """The cells [lo', hi') of the survivors at the positions [lo, hi)."""
        if self.sign > 0:
            return self.cell0 + lo, self.cell0 + hi
        return self.cell0 + 1 - hi, self.cell0 + 1 - lo


class _MeetingSums:
    """One meeting event's slope histograms and its pair counts per term,
    from the first slab it counts on to the event."""

    def __init__(self, meeting: _Meeting):
        self.meeting = meeting
        self.size = meeting.offsets[-1]  # the survivors: the mass at the meeting over eps
        self.range = dict(meeting.empty)  # role -> its active stretch of positions [lo, hi)
        self.partners = {role: [] for role in self.range}  # role -> the roles it counts pairs with
        self.hist = {}  # live role -> {slope id: active atoms}
        self.deferred = {}  # (position, position) of a re-meeting pair not yet met -> its term
        self.terms = {}  # term -> (num, den, whether its weight exceeds K), or () unless gap > 0
        self.counts = {}  # positive-gap term -> active pairs
        self.delta = {}  # term -> change of its pair count not yet settled
        self.offending = set()  # active terms whose weight exceeds K


def _add_products(delta, left, right):
    """Add the pair counts of two histograms, left atoms' slope ids first,
    to the pending changes ``delta``."""
    for p, n in left.items():
        for q, m in right.items():
            delta[p, q] = delta.get((p, q), 0) + n * m


def _role_steps(inside, bound):
    """The (slab, bound) steps of a role's stretch: from slab on, it reaches
    bound.  ``inside`` holds the (rank, slab) barriers inside its group in
    the order the stretch grows past them, and ``bound`` is the group's far
    end: the stretch grows past a barrier once it and every barrier before
    it have cancelled."""
    steps, cur = [], -1
    for r, t in inside:
        if t > cur:
            steps.append((cur + 1, r))
            cur = t
    steps.append((cur + 1, bound))
    return steps


class _SignBlocks:
    """The sign blocks (maximal stretches of fronts of one sign) of a slab,
    kept event by event from slab 0 on.  Each block is named by its first
    atom; its size, the live atoms from there to the next block, is counted
    in a Fenwick tree over atom ids that holds 1 per live atom, built when
    the first event is crossed.  An event changes only the blocks that hold
    its incoming fronts and their two neighbours."""

    def __init__(self, ws: WaveSystem, fids):
        # ``fids``: the fronts of slab 0, which carry every atom
        self.ws = ws
        self.sign = ws.sign
        self.end = ws.atom_count
        self.live = None
        self.canceled = None  # event -> the atoms it cancels
        self.n = ws.atom_count  # live atoms
        self.size = {}  # block -> live atoms
        self.starts = []
        for fid in fids:
            atoms = ws.atoms_of[fid]
            if not self.starts or self.sign[atoms[0]] != self.sign[self.starts[-1]]:
                self.starts.append(atoms[0])
                self.size[atoms[0]] = 0
            self.size[self.starts[-1]] += len(atoms)
        self.squares = sum(n * n for n in self.size.values())  # of the block sizes

    def _measure(self, starts, end):
        """Count the blocks named by ``starts``, the last ending before ``end``."""
        prefix = self.live.prefix
        for x, y in zip(starts, [*starts[1:], end]):
            n = self.size[x] = prefix(y) - prefix(x)
            self.squares += n * n

    def cross_pairs(self) -> int:
        """The atom pairs in two different blocks."""
        return (self.n * self.n - self.squares) // 2

    def replace(self, first, last, outgoing, after, e):
        """Cross event e: the fronts with atoms in [first, last], its incoming
        block, give way to fronts starting at the atoms ``outgoing``;
        ``after`` is the first atom of the front after the block, or None."""
        starts, sign = self.starts, self.sign
        if self.live is None:
            self.live = _Fenwick(self.end, 1)
            self.canceled = [[] for _ in self.ws.timeline.events]
            for a, at in enumerate(self.ws.canc_event):
                if at is not None:
                    self.canceled[at].append(a)
        canceled = self.canceled[e]
        lo = bisect_right(starts, first) - 1
        hi = bisect_right(starts, last) - 1
        a, b = max(lo - 1, 0), min(hi + 2, len(starts))  # the blocks to rebuild
        heads = starts[a:lo]  # the fronts that can open a block, in order
        if starts[lo] < first:
            heads.append(starts[lo])
        heads += outgoing
        if after is not None and (hi + 1 == len(starts) or after < starts[hi + 1]):
            heads.append(after)
        heads += starts[hi + 1:b]
        end = starts[b] if b < len(starts) else self.end
        for x in starts[a:b]:
            self.squares -= self.size.pop(x) ** 2
        for x in canceled:
            self.live.add(x, -1)
        self.n -= len(canceled)
        starts[a:b] = new = [x for k, x in enumerate(heads)
                             if k == 0 or sign[x] != sign[heads[k - 1]]]
        self._measure(new, end)


class _SlabPotential:
    """Per-slab Q as a sweep over the run's meeting events, each counted
    as products of slope histograms.

    A same-sign pair weighs pi/d at its first future meeting, and two atoms
    on one front stay together until an event they both survive, so a pair
    can only meet at a *meeting event*: one whose survivors come from two or
    more incoming fronts.  The candidates are the pairs (a, b), a < b, in
    two different survivor groups G_i < G_j (incoming fronts) of a meeting
    event e.  Such a pair weighs pi/d at e on exactly the slabs T < s <= e,
    where T is the later of its last common event before e and the last
    cancellation of an opposite-sign atom between a and b (from then on the
    two share a sign block).  Every other same-block pair shares a front or
    never meets, and weighs 0; every pair across two blocks weighs K, which
    Q counts as K times an integer pair count.

    The sign-block part of T factors: it is max(u_i(a), c_ij, v_j(b)), the
    last such cancellation among the ids from a to the end of G_i, between
    the two groups, and from the start of G_j to b.  u_i falls and v_j rises
    along a group, so the atoms of G_i counted as smaller atoms from slab s
    on (u_i(a) < s) are a suffix of G_i, its *left* role, and those of G_j
    counted as larger atoms (v_j(b) < s) a prefix, its *right* role; each
    grows at the slabs the listing reads off those cancellations, and the
    group pair counts from c_ij + 1 on.  So the active pairs on the term
    (p, q) number the sum over the counting group pairs of n_i(p) * m_j(q),
    the atoms of G_i's left role with slope id p times those of G_j's right
    role with slope id q.  Two atoms that met and meet again were split in
    between, so their last common event can be later: the listing takes
    only atoms whose last split (an event with two or more outgoing fronts)
    is later than their own threshold, looks up (`first_common_event`) the
    pairs of those whose last splits are both later than the pair's T, and
    counts each pair that met again as a correction of -1 on its term from
    the slab the product counts it on to its true T.  The listing walks the
    events in order and keeps each atom's last split event as it goes.

    The engine holds a cursor slab.  Per pending meeting event it keeps a
    histogram over slope ids for each *live* role (one with a counting
    partner role that holds atoms; no other role's slopes are read) and
    integer pair counts per (slope id, slope id) term.  A change of n_i(p)
    by delta changes the count of (p, q) by delta * m_j(q) for each partner
    role, one row of its histogram.  Crossing event s drops event s's share
    of Q, re-counts the live roles' atoms on event s's outgoing fronts (the
    meeting slope of an atom is read through its current front), and
    applies the changes due on slab s + 1.

    Slope ids come from the envelopes' pieces: `_cell_slopes` gives each
    piece an integer key, the reduced (rise, run) of the piece on the
    integer samples, and the engine interns the keys of each (front, meeting
    event) table once, so the sweep hashes no `Fraction`.  A front's
    survivors of a meeting event are one stretch of positions, and their
    cells are monotone, so its table's pieces cut the stretch into
    sub-stretches, and an atom count per piece is a sum of stretch lengths:
    no atom is visited.  A request settles only the meeting events whose
    counts changed since the last one, computes each term's gap (on the two
    keys' ints) and its test against K once per meeting event, keeps Q's
    same-block part as one running exact sum, and tracks the meeting events
    that hold a weight above K; only when a slab holds one are those
    events' pairs listed, to name the first.

    The first request lists the meeting events and puts the cursor on slab
    0; a request for an earlier slab puts it back there (`_start` resets the
    cursor, the counts and the running sum): Q is one sweep forward in time.
    A slab holding a weight above K raises and leaves the engine usable for
    the next slab.
    """

    def __init__(self, ws: WaveSystem, K: Fraction):
        self.ws = ws
        self.flux = ws.timeline.flux
        self.K = K
        self._pieces = {}  # (fid, e) -> (piece bounds, piece slope ids) on e's positions
        self._id_of = {}  # slope key -> slope id
        self._keys = []  # slope id -> slope key
        self.max_weight = Fraction(0)
        self._meetings = None  # meeting event that counts pairs -> _Meeting
        self._by_sign = None  # sign -> its atoms, increasing, once a meeting needs them
        self._due = None  # slab -> the meeting events with changes due on it
        self._slab = None  # the cursor
        self._firsts = []  # the first atom of each front of the cursor slab, in order
        self._fids = []  # those fronts
        self._blocks = None  # the cursor slab's sign blocks
        self._sums = {}  # meeting event at or after the cursor -> _MeetingSums
        self._changed = set()  # meeting events with count changes not yet settled
        self._offending = set()  # meeting events holding a weight above K
        (kn, kd), (en, ed) = K.as_integer_ratio(), ws.epsilon.as_integer_ratio()
        self._k_eps_sq = Fraction(kn * en * en, kd * ed * ed)  # a cross-block pair's share of Q
        # a slope key (rise, run) stands for rise / (run * D * eps), D the
        # flux's scale, so a term's gap is num / (den * D * eps) with the
        # ints num = rise_p * run_q - rise_q * run_p and den = run_p * run_q,
        # and its weight gap / d, at a meeting of n survivors (d = n * eps),
        # is num / (den * n) / (D * eps^2)
        self._scale = scale = self.flux._scale
        self._k_num, self._k_den = kn * scale * en * en, kd * ed * ed  # K * D * eps^2
        self._w_num, self._w_den = ed * ed, scale * en * en  # 1 / (D * eps^2)
        self._total = Fraction(0)  # Q's same-block part: the settled meeting events' shares

    def _pieces_of(self, fid, e):
        """Breakpoints (positions, increasing) and slope ids of the pieces of
        the envelope on the cells front ``fid`` carries into event e."""
        table = self._pieces.get((fid, e))
        if table is None:
            m = self._meetings[e]
            bounds, keys, _ = _cell_slopes(
                self.flux, *m.cells(*m.span(self.ws.atoms_of[fid])), m.sign
            )
            ids = []
            for key in keys:
                i = self._id_of.get(key)
                if i is None:
                    i = self._id_of[key] = len(self._keys)
                    self._keys.append(key)
                ids.append(i)
            if m.sign > 0:
                bounds = [k - m.cell0 for k in bounds]
            else:
                bounds = [m.cell0 + 1 - k for k in reversed(bounds)]
                ids.reverse()
            table = self._pieces[fid, e] = bounds, ids
        return table

    def _start(self):
        """Put the cursor on slab 0, listing the meeting events first when
        they are not listed yet."""
        ws = self.ws
        if self._meetings is None:
            self._meetings, self._due = self._list_meetings()
        self._slab = 0
        self._fids = [fr.fid for fr in ws.timeline.slabs[0]]
        self._firsts = [ws.atoms_of[fid][0] for fid in self._fids]
        self._blocks = _SignBlocks(ws, self._fids)
        self._sums = {}
        self._changed = set()
        self._offending = set()
        self._total = Fraction(0)
        for e in self._due.get(0, ()):
            self._advance(e, 0)

    def _list_meetings(self):
        """(meeting event -> its _Meeting, slab -> the meeting events with
        changes due on it), over the meeting events that count pairs."""
        ws = self.ws
        atoms_of = ws.atoms_of
        # atom -> the last split event (two or more outgoing fronts) it
        # survived before the event the walk is at, or -1
        last_split = [-1] * ws.atom_count
        meetings, due = {}, {}
        for e, ev in enumerate(ws.timeline.events):
            if not ev.outgoing:
                continue
            # the survivors (the outgoing atoms, in id order) come from one
            # incoming front when the front holding the first holds the last
            first = atoms_of[ev.outgoing[0].fid][0]
            for fr in ev.incoming:
                end = atoms_of[fr.fid][-1]
                if end >= first:
                    break
            if end < atoms_of[ev.outgoing[-1].fid][-1]:
                m = self._meeting(e, last_split)
                if m is not None:
                    meetings[e] = m
                    for slab in m.actions:
                        due.setdefault(slab, []).append(e)
            if len(ev.outgoing) > 1:
                for fr in ev.outgoing:
                    for a in atoms_of[fr.fid]:
                        last_split[a] = e
        return meetings, due

    def _barriers(self, m):
        """(rank, slab) for each gap between two neighbouring survivors of a
        meeting event that holds atoms of the other sign: they split the
        survivors' sign block until the last of them cancels, on that slab.
        (The rank of a gap is the number of survivors below it.)"""
        first, last = m.firsts[0], m.outs[-1][-1]
        if last - first + 1 == m.offsets[-1]:
            return []  # the survivors' ids leave no gap
        if self._by_sign is None:
            signs = self.ws.sign
            order = sorted(range(len(signs)), key=signs.__getitem__)
            k = signs.count(-1)
            self._by_sign = {-1: order[:k], 1: order[k:]}
        other, canc = self._by_sign[-m.sign], self.ws.canc_event
        k, stop = bisect_right(other, first), bisect_left(other, last)
        barriers = []
        while k < stop:
            r = m.rank(other[k])
            end = bisect_left(other, m.atom(r), k, stop)
            # no atom in the survivors' id range outlives the event but
            # the survivors, so each of these has a cancellation event
            barriers.append((r, max(map(canc.__getitem__, other[k:end]))))
            k = end
        return barriers

    def _meeting(self, e, last_split):
        """Meeting event e's groups and the changes due on each slab, or
        None when no pair of it ever counts."""
        ws = self.ws
        m = _Meeting(ws, e)
        g = m.groups
        for fr in ws.timeline.events[e].incoming:
            hi = m.rank(ws.atoms_of[fr.fid][-1] + 1)
            if hi > g[-1]:
                g.append(hi)  # the front has survivors
        barriers = self._barriers(m)
        ranks = [r for r, _ in barriers]
        n = len(g) - 1
        counting = {}  # (i, j) -> c_ij, for the group pairs that count before e
        for i in range(n - 1):
            # the barriers from the last survivor of group i to the first of
            # group j, for j = i + 1, i + 2, ...
            c, k = -1, bisect_left(ranks, g[i + 1])
            for j in range(i + 1, n):
                stop = bisect_right(ranks, g[j])
                for _, t in barriers[k:stop]:
                    c = max(c, t)
                k = stop
                if c < e:
                    counting[i, j] = c
        if not counting:
            return None
        start = min(counting.values()) + 1
        # per counting role, its (slab, bound) steps; the barriers inside the
        # group hold its stretch back
        lefts, rights = {}, {}
        for i, j in counting:
            if i not in lefts:
                inside = barriers[bisect_right(ranks, g[i]):bisect_left(ranks, g[i + 1])]
                lefts[i] = _role_steps(reversed(inside), g[i])
                m.empty[LEFT, i] = (g[i + 1], g[i + 1])
            if j not in rights:
                inside = barriers[bisect_right(ranks, g[j]):bisect_left(ranks, g[j + 1])]
                rights[j] = _role_steps(inside, g[j + 1])
                m.empty[RIGHT, j] = (g[j], g[j])
        actions = m.actions

        def add(slab, action):
            if slab <= e:
                actions.setdefault(max(slab, start), []).append(action)

        for side, steps_of in ((LEFT, lefts), (RIGHT, rights)):
            for i, steps in steps_of.items():
                for slab, bound in steps:
                    add(slab, (GROW, (side, i), bound))
        for (i, j), c in counting.items():
            add(c + 1, (PAIR, i, j))
        # each slab's changes are in kind order, as `_advance` applies them
        for ka, kb, t, t_met in self._remeetings(e, m, lefts, rights, counting, last_split):
            add(t + 1, (DEFER, ka, kb))
            add(t_met + 1, (COUNT, ka, kb))
        return m

    def _remeetings(self, e, m, lefts, rights, counting, last_split):
        """Yield (position of a, position of b, T, true T) for each pair of
        meeting event e whose last common event before e is later than the
        sign-block T of the product count."""
        ws = self.ws
        survivors = list(chain.from_iterable(m.outs))
        split = list(map(last_split.__getitem__, survivors))
        if max(split) < 0:
            return

        def candidates(stretches, c):
            # (position, threshold) of the atoms whose last split is later
            # than their threshold, the later of their stretch's and c
            found = []
            for lo, hi, t in stretches:
                t = max(t, c)
                if t < e and max(split[lo:hi]) > t:
                    found += [(k, t) for k in range(lo, hi) if split[k] > t]
            return found

        def stretches(steps, end, left):
            # (lo, hi, threshold) of each stretch a role's steps add
            out = []
            for slab, bound in steps:
                out.append((bound, end, slab - 1) if left else (end, bound, slab - 1))
                end = bound
            return out

        g = m.groups
        for (i, j), c in counting.items():
            smaller = candidates(stretches(lefts[i], g[i + 1], True), c)
            larger = candidates(stretches(rights[j], g[j], False), c) if smaller else []
            for ka, t_a in smaller:
                a, split_a = survivors[ka], split[ka]
                for kb, t_b in larger:
                    t = max(t_a, t_b)
                    # two atoms that met before e were split since, so
                    # both survived a split after their last meeting
                    if t < split_a and t < split[kb]:
                        b, t_met = survivors[kb], t
                        met = first_common_event(ws, a, b, t_met + 1)
                        while met != e:
                            t_met = met
                            met = first_common_event(ws, a, b, t_met + 1)
                        if t_met > t:
                            yield ka, kb, t, t_met

    def _advance(self, e, slab):
        """Apply the changes of meeting event e due on the cursor slab: its
        roles' growth, then the group pairs that start to count, then the
        re-meeting corrections, which read slope ids the first two made
        live."""
        sums = self._sums.get(e)
        m = self._meetings[e]
        if sums is None:
            sums = self._sums[e] = _MeetingSums(m)
        for kind, *args in m.actions[slab]:
            if kind == GROW:
                self._grow(e, sums, *args)
            elif kind == PAIR:
                self._pair(e, sums, *args)
            elif kind == DEFER:
                term = sums.deferred[tuple(args)] = self._term(e, *args)
                sums.delta[term] = sums.delta.get(term, 0) - 1
            else:
                term = sums.deferred.pop(tuple(args))
                sums.delta[term] = sums.delta.get(term, 0) + 1
        self._changed.add(e)

    def _count(self, e, lo, hi):
        """Slope id -> the number of meeting event e's survivors at the
        positions [lo, hi) with that slope through their cursor-slab front."""
        m = self._meetings[e]
        atoms_of, fids = self.ws.atoms_of, self._fids
        counts = {}
        if lo < hi:
            i = bisect_right(self._firsts, m.atom(lo)) - 1
        while lo < hi:
            fid = fids[i]
            i += 1
            stop = min(m.rank(atoms_of[fid][-1] + 1), hi)
            if stop <= lo:
                continue  # no survivor of e on this front
            bounds, piece_ids = self._pieces_of(fid, e)
            t = bisect_right(bounds, lo) - 1
            while lo < stop:
                end = min(bounds[t + 1], stop)
                counts[piece_ids[t]] = counts.get(piece_ids[t], 0) + end - lo
                lo = end
                t += 1
        return counts

    def _slope_id(self, e, k):
        """The slope id of meeting event e's survivor at position k, through
        its cursor-slab front."""
        fid = self._fids[bisect_right(self._firsts, self._meetings[e].atom(k)) - 1]
        bounds, piece_ids = self._pieces_of(fid, e)
        return piece_ids[bisect_right(bounds, k) - 1]

    def _term(self, e, ka, kb):
        """The term of the pair of meeting event e's survivors at the
        positions ka < kb."""
        return self._slope_id(e, ka), self._slope_id(e, kb)

    def _apply(self, sums, role, change):
        """Add ``change`` (slope id -> atoms) to a live role's histogram, and
        its pairs with the partner roles' histograms to the pending term
        counts."""
        for other in sums.partners[role]:
            row = sums.hist.get(other)
            if row:
                if role[0] == LEFT:
                    _add_products(sums.delta, change, row)
                else:
                    _add_products(sums.delta, row, change)
        hist = sums.hist[role]
        for p, n in change.items():
            n += hist.get(p, 0)
            if n:
                hist[p] = n
            else:
                del hist[p]

    def _go_live(self, e, sums, role):
        """Start a role's histogram: it has a partner role holding atoms."""
        sums.hist[role] = {}
        self._apply(sums, role, self._count(e, *sums.range[role]))

    def _grow(self, e, sums, role, bound):
        """Move a role's stretch to ``bound``."""
        lo, hi = sums.range[role]
        if role[0] == LEFT:
            sums.range[role], extra = (bound, hi), (bound, lo)
        else:
            sums.range[role], extra = (lo, bound), (hi, bound)
        if role in sums.hist:
            self._apply(sums, role, self._count(e, *extra))
        if lo == hi:
            # the role holds atoms now, so its partners are live
            for other in sums.partners[role]:
                if other not in sums.hist:
                    self._go_live(e, sums, other)

    def _pair(self, e, sums, i, j):
        """Start counting the pairs of group i's left role and group j's
        right role."""
        left, right = (LEFT, i), (RIGHT, j)
        sums.partners[left].append(right)
        sums.partners[right].append(left)
        hist = sums.hist
        if left in hist and right in hist:
            _add_products(sums.delta, hist[left], hist[right])
            return
        lo, hi = sums.range[right]
        if lo < hi and left not in hist:
            self._go_live(e, sums, left)
        lo, hi = sums.range[left]
        if lo < hi and right not in hist:
            self._go_live(e, sums, right)

    def _cross_event(self):
        """Move the cursor from slab s to slab s + 1, across event s."""
        s = self._slab
        ws = self.ws
        done = self._sums.pop(s, None)
        if done is not None:
            self._total -= self._share(done.size, (
                (done.terms[term], count) for term, count in done.counts.items()
            ))
            self._changed.discard(s)
            self._offending.discard(s)
        ev = ws.timeline.events[s]
        atoms_of = ws.atoms_of
        first, last = atoms_of[ev.incoming[0].fid][0], atoms_of[ev.incoming[-1].fid][-1]
        # the live roles' atoms in event s's block move to its outgoing
        # fronts: count them before and after
        moves, moved_pairs = [], []
        for e, sums in self._sums.items():
            m = sums.meeting
            if last < m.firsts[0] or first > m.outs[-1][-1]:
                continue
            lo, hi = m.rank(first), m.rank(last + 1)
            if lo == hi:
                continue
            for role in sums.hist:
                x, y = sums.range[role]
                x, y = max(x, lo), min(y, hi)
                if x < y:
                    moves.append((e, sums, role, x, y, self._count(e, x, y)))
            moved_pairs += [(e, sums, pair) for pair in sums.deferred
                            if lo <= pair[0] < hi or lo <= pair[1] < hi]
        i = bisect_left(self._firsts, first)
        n = len(ev.incoming)
        outgoing = [atoms_of[fr.fid][0] for fr in ev.outgoing]
        after = self._firsts[i + n] if i + n < len(self._firsts) else None
        self._blocks.replace(first, last, outgoing, after, s)
        self._fids[i:i + n] = [fr.fid for fr in ev.outgoing]
        self._firsts[i:i + n] = outgoing
        for e, sums, role, x, y, old in moves:
            new = self._count(e, x, y)
            if new != old:
                for p, count in old.items():
                    new[p] = new.get(p, 0) - count
                self._apply(sums, role, {p: count for p, count in new.items() if count})
                self._changed.add(e)
        for e, sums, pair in moved_pairs:
            was, now = sums.deferred[pair], self._term(e, *pair)
            if was != now:
                sums.deferred[pair] = now
                sums.delta[was] = sums.delta.get(was, 0) + 1
                sums.delta[now] = sums.delta.get(now, 0) - 1
                self._changed.add(e)
        self._slab = s + 1
        for e in self._due.get(s + 1, ()):
            self._advance(e, s + 1)

    def _settle(self, e):
        """Fold meeting event e's pending count changes into its counts and
        the running total, and its largest changed active gap into
        ``max_weight``, on the ints of the terms' gaps."""
        sums = self._sums[e]
        terms, counts, keys = sums.terms, sums.counts, self._keys
        top_num, top_den = 0, 1  # the largest changed active gap, as num / den
        changed = []  # (gap, change) of each changed positive-gap term
        for term, change in sums.delta.items():
            if not change:
                continue
            gap = terms.get(term)
            if gap is None:
                (rise_p, run_p), (rise_q, run_q) = keys[term[0]], keys[term[1]]
                num, den = rise_p * run_q - rise_q * run_p, run_p * run_q
                above = num * self._k_den > den * sums.size * self._k_num
                gap = terms[term] = (num, den, above) if num > 0 else ()
            if not gap:
                continue
            num, den, above = gap
            count = counts.get(term, 0) + change
            if count:
                counts[term] = count
                if num * top_den > top_num * den:
                    top_num, top_den = num, den
            else:
                del counts[term]
            changed.append((gap, change))
            if above:
                if count:
                    sums.offending.add(term)
                else:
                    sums.offending.discard(term)
        sums.delta.clear()
        if changed:
            self._total += self._share(sums.size, changed)
        if sums.offending:
            self._offending.add(e)
        else:
            self._offending.discard(e)
        if top_num:
            # the weight gap / d is num / (den * n * D * eps^2)
            num, den = top_num * self._w_num, top_den * sums.size * self._w_den
            top = self.max_weight
            if num * top.denominator > den * top.numerator:
                self.max_weight = Fraction(num, den)

    def _share(self, size, counts):
        """The share of Q of a meeting event of ``size`` survivors, over
        (gap, pair count) terms: the sum of count * gap over d, with d = size
        * eps and gap = num / (den * D * eps), summed per den on ints."""
        by_den = {}
        for (num, den, _), count in counts:
            by_den[den] = by_den.get(den, 0) + count * num
        den = lcm(*by_den)
        return Fraction(sum(n * (den // d) for d, n in by_den.items()), den * size * self._scale)

    def q_of_slab(self, s: int) -> Fraction:
        """eps^2 times the sum of the pair weights over the slab's atom pairs.

        Runs split into sign blocks (maximal stretches of one sign).  Every
        atom pair across two blocks weighs K, so that part is K times an
        integer pair count, kept with the cursor (`_SignBlocks`).  The pairs
        inside one block come from the sweep state at slab s: the running
        sum of the meeting events' shares, once the events whose counts
        changed are settled.
        """
        if self._slab is None or s < self._slab:
            self._start()
        while self._slab < s:
            self._cross_event()

        cross_pairs = self._blocks.cross_pairs()
        if cross_pairs and self.K > self.max_weight:
            self.max_weight = self.K

        for e in self._changed:
            self._settle(e)
        self._changed.clear()
        if self._offending:
            self._raise_first_weight_above_k(s)
        return self._k_eps_sq * cross_pairs + self._total

    def _raise_first_weight_above_k(self, s):
        """Name the slab's first offending pair in run order: the least
        (run of a, run of b, a, b), over the active pairs of the meeting
        events that hold a weight above K, listed here only."""
        firsts = self._firsts
        found = []
        for e in self._offending:
            sums = self._sums[e]
            m = sums.meeting
            for (side, i), partners in sums.partners.items():
                lo, hi = sums.range[side, i]
                if side != LEFT or lo == hi:
                    continue
                smaller = [(k, m.atom(k), self._slope_id(e, k)) for k in range(lo, hi)]
                for right in partners:
                    larger = [(k, m.atom(k), self._slope_id(e, k))
                              for k in range(*sums.range[right])]
                    found += [
                        (bisect_right(firsts, a) - 1, bisect_right(firsts, b) - 1, a, b)
                        for ka, a, p in smaller for kb, b, q in larger
                        if (p, q) in sums.offending and (ka, kb) not in sums.deferred
                    ]
        *_, a, b = min(found)
        raise ConsistencyError(f"weight above K for atoms ({a}, {b}) in slab {s}")


def upsilon(q, tv_now, tv0, K):
    """The combined potentials K*TV0*TV(t) + Q and K*TV0*TV(t) + 2Q.

    Each argument and each result is an exact rational as a (numerator,
    denominator) pair with a positive denominator; the results are not
    reduced."""
    (qn, qd), (tn, td), (t0n, t0d), (kn, kd) = q, tv_now, tv0, K
    base, den = kn * t0n * tn * qd, kd * t0d * td
    return (base + qn * den, den * qd), (base + 2 * qn * den, den * qd)


def initial_bound_flags(upsilon0, tv0, K) -> dict:
    """Upsilon(0) <= K*TV0^2 (constant 1) and <= 2*K*TV0^2 (constant 2), on
    (numerator, denominator) pairs with positive denominators."""
    (un, ud), (t0n, t0d), (kn, kd) = upsilon0, tv0, K
    lhs, bound = un * kd * t0d * t0d, kn * t0n * t0n * ud
    return {
        "upsilon0_le_k_tv0_sq": lhs <= bound,
        "upsilon0_le_2k_tv0_sq": lhs <= 2 * bound,
    }


class _Fenwick:
    """Prefix sums of integers over positions 0 .. size-1, O(log size) per
    update and per query (P. M. Fenwick, Software: Practice and Experience
    24(3), 1994)."""

    def __init__(self, size: int, value: int = 0):
        # ``value`` at every position
        self._tree = [value * (i & -i) for i in range(size + 1)]

    def add(self, i: int, value: int):
        """Add ``value`` at position i."""
        tree = self._tree
        i += 1
        while i < len(tree):
            tree[i] += value
            i += i & -i

    def prefix(self, i: int) -> int:
        """The sum over positions below i."""
        tree = self._tree
        total = 0
        while i:
            total += tree[i]
            i &= i - 1
        return total


def _bianchini_of_slab(ws: WaveSystem) -> list:
    """(Bianchini sum, total variation) of every slab, in slab order: over
    run pairs, |speed gap| times both run masses, and the mass of the live
    waves, N * epsilon.  (One call covers the whole run; the name is kept for
    the benchmark tracer, which wraps it.)

    Slab s+1 is slab s with event s's incoming fronts replaced by its
    outgoing ones, so the sum is kept event by event, O(k log F) for an event
    of k fronts.  Two Fenwick trees over the rank of the run's distinct front
    speeds hold the atom count N and the moment S (atoms times speed) of the
    live fronts.  A front of n atoms at speed v adds n * (v * N - S) against
    the slower fronts and n * (S - v * N) against the faster ones; the fronts
    at its own speed add exactly 0 to both forms, so the total is
    n*v * (2*N_below - N) - n * (2*S_below - S) with N and S over all live
    fronts.  Moments are scaled by L, the lcm of the denominators of n * v,
    so the trees and the running total are ints.
    """
    tl = ws.timeline
    born = tl.fronts_by_id.values()  # slab 0's fronts, then each event's fan
    rank = {v: r for r, v in enumerate(sorted({fr.speed for fr in born}))}
    moments = {fr.fid: len(ws.atoms_of[fr.fid]) * fr.speed for fr in born}
    scale = lcm(*(m.denominator for m in moments.values()))
    weight = {  # fid -> (speed rank, atom count, moment times L)
        fr.fid: (rank[fr.speed], len(ws.atoms_of[fr.fid]), int(moments[fr.fid] * scale))
        for fr in born
    }

    counts, sums = _Fenwick(len(rank)), _Fenwick(len(rank))
    n_live = s_live = total = 0  # N, S and the scaled sum over the live fronts

    def move(fid, sign):
        nonlocal n_live, s_live, total
        r, n, m = weight[fid]
        total += sign * (m * (2 * counts.prefix(r) - n_live) - n * (2 * sums.prefix(r) - s_live))
        counts.add(r, sign * n)
        sums.add(r, sign * m)
        n_live += sign * n
        s_live += sign * m

    for fr in tl.slabs[0]:
        move(fr.fid, 1)
    eps = ws.epsilon
    eps_sq = eps * eps
    out = [(Fraction(total, scale) * eps_sq, n_live * eps)]
    for ev in tl.events:
        for fr in ev.incoming:
            move(fr.fid, -1)
        for fr in ev.outgoing:
            move(fr.fid, 1)
        out.append((Fraction(total, scale) * eps_sq, n_live * eps))
    return out


# -- run-level verification ---------------------------------------------------------

# report.json writes each record's fields in declaration order, as its keys


@dataclass(frozen=True)
class SlabRecord:
    index: int
    t_lo: Fraction
    t_hi: object
    Q: Fraction
    TV: Fraction
    upsilon_paper: Fraction
    upsilon_strict: Fraction
    bianchini: Fraction


@dataclass(frozen=True)
class EventRecord:
    index: int
    t: Fraction
    x: Fraction
    kind: str
    a: Fraction
    b: Fraction
    c: Fraction
    delta_sigma: Fraction
    Q_minus: Fraction
    Q_plus: Fraction
    TV_minus: Fraction
    TV_plus: Fraction
    composite: bool
    verdicts: dict


@dataclass(frozen=True)
class RestartCheck:
    slab: int
    t: Fraction
    Q: Fraction
    Q_restart: Fraction
    equal: bool


HARD_EVENT_VERDICTS = (
    "q_monotone",
    "half_delta_sigma_le_q_drop",
    "cancellation_curvature_bound",
    "cancellation_tv_bound",
    "delta_sigma_le_upsilon_strict_drop",
    "upsilon_paper_monotone",
    "upsilon_strict_monotone",
)


@dataclass(frozen=True)
class VerdictTable:
    events: list  # verdict dict per event
    restarts: list  # per restart probe: Q reproduced exactly
    flags: dict
    hard_failures: list


def _difference(x, y):
    """x - y for (numerator, denominator) pairs, unreduced."""
    return x[0] * y[1] - y[0] * x[1], x[1] * y[1]


def verdict_table(K, tv0, slabs, events, restarts) -> VerdictTable:
    """Every inequality the run is checked against, from its exact values.

    Every rational is a (numerator, denominator) pair with a positive
    denominator, reduced or not, and every inequality is decided by
    cross-multiplying ints.  ``slabs`` holds (Q, TV, upsilon_paper,
    upsilon_strict) per slab, in order; ``events`` holds (index, kind,
    composite, a, b, c, delta_sigma) per event, event i separating slabs i
    and i+1; ``restarts`` holds (slab, Q, Q_restart) per restart probe.
    `verify_run` and `report.verify_report` both call this, so a run and
    its stored report are judged by the same table.

    Hard verdicts (exact, expected to hold always): Q non-increasing; at
    binary same-sign events half the speed change is dominated by the Q drop;
    at binary cancellations the speed change is dominated by K|c-a||c-b| and
    by K*TV0*(TV drop); the doubled-Q functional dominates the full speed
    change at every event and never increases; Q <= K*TV^2 on every slab;
    every restart reproduces Q; Upsilon(0) <= 2*K*TV0^2 (its flag
    ``upsilon0_le_2k_tv0_sq``).

    Flags (recorded, allowed to fail): the single-Q drop bound and the
    constant-1 initial bound, which the doubled-Q forms repair.
    """
    (kn, kd), (t0n, t0d) = K, tv0
    failures = []
    if any(qn * kd * td * td > kn * tn * tn * qd for (qn, qd), (tn, td), _, _ in slabs):
        failures.append("slab_q_bound")
    verdicts, paper_drop_failures = [], []
    for index, kind, composite, a, b, c, (dn, dd) in events:
        q_minus, tv_minus, up_minus, us_minus = slabs[index]
        q_plus, tv_plus, up_plus, us_plus = slabs[index + 1]
        # each drop (minus - plus) as an unreduced pair
        drop_n, drop_d = _difference(q_minus, q_plus)
        up_n, up_d = _difference(up_minus, up_plus)
        us_n, us_d = _difference(us_minus, us_plus)
        v = {
            "q_monotone": drop_n >= 0,
            "delta_sigma_le_upsilon_strict_drop": dn * us_d <= us_n * dd,
            "delta_sigma_le_upsilon_paper_drop": dn * up_d <= up_n * dd,
            "upsilon_paper_monotone": up_n >= 0,
            "upsilon_strict_monotone": us_n >= 0,
        }
        # the per-kind drop bounds are statements about one state triple; they
        # are attached only to binary events (composite events carry a summed
        # speed change and are covered by the combined-potential verdicts)
        if not composite:
            if kind == SAME_SIGN:
                v["half_delta_sigma_le_q_drop"] = dn * drop_d <= 2 * drop_n * dd
            else:
                ca_n, ca_d = _difference(c, a)
                cb_n, cb_d = _difference(c, b)
                v["cancellation_curvature_bound"] = (
                    dn * kd * ca_d * cb_d <= kn * abs(ca_n * cb_n) * dd
                )
                tv_n, tv_d = _difference(tv_minus, tv_plus)
                v["cancellation_tv_bound"] = dn * kd * t0d * tv_d <= kn * t0n * tv_n * dd
        if not v["delta_sigma_le_upsilon_paper_drop"]:
            paper_drop_failures.append(index)
        failures += [
            f"event{index}:{name}" for name in HARD_EVENT_VERDICTS if v.get(name) is False
        ]
        verdicts.append(v)
    equal = [qn * rd == rn * qd for _, (qn, qd), (rn, rd) in restarts]
    failures += [f"restart@slab{s}" for (s, _, _), ok in zip(restarts, equal) if not ok]
    flags = {
        **initial_bound_flags(slabs[0][2], tv0, K),
        "upsilon_paper_drop_failures": paper_drop_failures,
    }
    if not flags["upsilon0_le_2k_tv0_sq"]:
        failures.append("upsilon0_le_2k_tv0_sq")
    return VerdictTable(verdicts, equal, flags, failures)


@dataclass
class PotentialSeries:
    K: Fraction
    tv0: Fraction
    slabs: list
    events: list
    restart_checks: list
    flags: dict
    hard_failures: list  # the verdict table's
    max_weight: Fraction

    @property
    def all_pass(self) -> bool:
        return not self.hard_failures


def _restart_probe_times(tl: Timeline, count: int):
    """Deterministic spread of slab midpoints (the last slab probes t_lo + 1)."""
    if count <= 0:
        return []
    # at most one probe per slab: for count >= n the picks cover every slab
    n = len(tl.slabs)
    count = min(count, n)
    step = max(count - 1, 1)
    picks = sorted({(i * (n - 1)) // step for i in range(count)})
    out = []
    for s in picks:
        t_lo, t_hi = tl.slab_bounds(s)
        if t_hi is None:
            out.append((s, t_lo + 1))
        elif t_hi > t_lo:
            out.append((s, (t_lo + t_hi) / 2))
        # zero-length slabs (simultaneous events) have no interior to probe
    return out


def run_pipeline(profile, flux):
    """Evolve and trace one profile, unvalidated: a restart probe."""
    tl = evolve(profile, flux)
    ws = advance_tracing(build_initial_waves(profile, flux.epsilon), tl)
    return tl, ws


def verify_run(ws: WaveSystem, restart_checks: int = 0) -> PotentialSeries:
    """Evaluate every potential on every slab of the traced run, re-run the
    restart probes, and judge the run by `verdict_table`."""
    ws._require_traced()
    tl, flux = ws.timeline, ws.timeline.flux
    K = curvature_constant(flux)
    tv0 = tl.initial_profile.total_variation()
    engine = _SlabPotential(ws, K)
    # the verdict table reads each rational as its (numerator, denominator)
    K_pair, tv0_pair = K.as_integer_ratio(), tv0.as_integer_ratio()

    slabs, rows = [], []
    for s, (bianchini, tv) in enumerate(_bianchini_of_slab(ws)):
        q_val = engine.q_of_slab(s)
        q, tv_pair = q_val.as_integer_ratio(), tv.as_integer_ratio()
        paper, strict = upsilon(q, tv_pair, tv0_pair, K_pair)
        rows.append((q, tv_pair, paper, strict))
        slabs.append(SlabRecord(
            s, *tl.slab_bounds(s), q_val, tv, Fraction(*paper), Fraction(*strict), bianchini
        ))
    sigmas = [delta_sigma(ev, flux) for ev in tl.events]
    event_rows = [
        (i, ev.kind, len(ev.incoming) > 2,
         *(x.as_integer_ratio() for x in (ev.a, ev.b, ev.c, dsig)))
        for i, (ev, dsig) in enumerate(zip(tl.events, sigmas))
    ]

    probes = []
    for s, t_probe in _restart_probe_times(tl, restart_checks):
        _, ws2 = run_pipeline(profile_at(tl, t_probe), flux)
        probes.append((s, t_probe, _SlabPotential(ws2, K).q_of_slab(0)))

    table = verdict_table(K_pair, tv0_pair, rows, event_rows, [
        (s, rows[s][0], q_restart.as_integer_ratio()) for s, _, q_restart in probes
    ])
    events = []
    for ev, dsig, (i, _, composite, *_), verdicts in zip(
        tl.events, sigmas, event_rows, table.events
    ):
        before, after = slabs[i], slabs[i + 1]
        events.append(EventRecord(
            i, ev.t, ev.x, ev.kind, ev.a, ev.b, ev.c, dsig,
            before.Q, after.Q, before.TV, after.TV, composite, verdicts,
        ))
    restart_records = [
        RestartCheck(s, t_probe, slabs[s].Q, q_restart, equal)
        for (s, t_probe, q_restart), equal in zip(probes, table.restarts)
    ]
    return PotentialSeries(
        K, tv0, slabs, events, restart_records, table.flags,
        table.hard_failures, engine.max_weight,
    )

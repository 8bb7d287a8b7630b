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
fronts make pairs meet, so Q is a sweep over those events' pairs, kept
slab by slab: slope ids come from the hull pieces' integer keys, each
outgoing front's atoms are re-keyed once per pending meeting event, and a
slab settles only the meeting events whose counts changed (see
`_SlabPotential`).  The cubic speed-spread (Bianchini) sum is kept event by event
in integer Fenwick trees over the front speed rank, O(k log F) per event of
k fronts; the same walk counts each slab's live atoms, whose mass is its
total variation TV.  Adding K * TV(initial) * TV(current) yields the
combined functionals (`upsilon`); the variant with the Q term doubled is
the one whose event drops dominate the full speed change.

All classifications look only forward in time: they depend on front
membership in the current slab and on the event list from the slab onward,
never on how the profile got there.  The restart checks in `verify_run`
exercise exactly that property.
"""

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, groupby
from math import gcd, lcm

from .envelope import GridFlux, curvature_constant, envelope
from .errors import ConsistencyError, InputError
from .tracker import SAME_SIGN, InteractionEvent, Timeline, evolve, merge_steps, profile_at
from .tracing import (
    WaveSystem, advance_tracing, build_initial_waves, first_common_event, meeting_cells,
)


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


class _MeetingSums:
    """The active candidate pairs of one meeting event, counted per term."""

    def __init__(self, d: Fraction, K: Fraction, eps: Fraction):
        self.d = d  # the mass at the meeting
        self.k_d = K * d  # a gap above it is a weight above K
        self.q_per_gap = eps * eps / d  # a pair's share of Q per unit of gap
        self.slope_id = {}  # atom -> slope id of its cell, via its current front
        self.atoms = []  # the atoms of slope_id, increasing
        self.later = {}  # atom -> its active partners with larger ids
        self.earlier = {}  # atom -> its active partners with smaller ids
        self.terms = {}  # term -> (gap, whether its weight exceeds K), or None unless gap > 0
        self.counts = {}  # positive-gap term -> active pairs
        self.delta = {}  # term -> change of its pair count not yet settled
        self.offending = set()  # active terms whose weight exceeds K
        self.gap_sum = Fraction(0)  # over the terms: settled count times gap


class _SlabPotential:
    """Per-slab Q as a sweep over the run's meeting events.

    A same-sign pair weighs pi/d at its first future meeting, and two atoms
    on one front stay together until an event they both survive, so a pair
    can only meet at a *meeting event*: one whose survivors come from two or
    more incoming fronts.  The candidates are the pairs (a, b), a < b, in
    two different survivor groups (incoming fronts) of a meeting event e.
    Such a pair weighs pi/d at e on exactly the slabs T < s <= e, where T is
    the later of its last common event before e and the last cancellation of
    an opposite-sign atom between a and b (from then on the two share a sign
    block).  Two atoms that met and meet again were split in between, so the
    common events are looked up (`first_common_event`) only for pairs that
    both survived a split event (two or more outgoing fronts) since they
    joined one block; the listing walks the events in order and keeps each
    atom's last split event as it goes.  Every other same-block pair shares
    a front or never meets, and weighs 0; every pair across two blocks
    weighs K, which Q counts as K times an integer pair count.

    The engine holds a cursor slab.  Crossing event s drops event s's pairs,
    re-keys the atoms that event moves onto a new front (the meeting slope
    of an atom is read through its current front), and activates the
    candidates with T = s.  Per meeting event it keeps integer pair counts
    per (slope id, slope id) term and the sum of count times positive gap.

    Slope ids come from the envelopes' pieces: `_cell_slopes` gives each
    piece an integer key, the reduced (rise, run) of the piece on the
    integer samples, and the engine interns the keys of each (front, meeting
    event) table once, so the sweep hashes no `Fraction`.  Each meeting
    event keeps its active atoms in id order.  The live atoms in the id
    range of a front's atoms are that front's, so crossing an event finds
    each outgoing front's atoms at each pending meeting event by two
    bisections, and no past meeting is visited.  That run of atoms is
    re-keyed at once: its cells are monotone, so each piece of the front's
    table covers a stretch of it, and its pairs' counts move in one batch
    per (old id, new id), counted by partner id.  A request settles only the
    meeting events whose counts changed since the last one, computes each
    term's gap and its test against K once per meeting event, keeps Q's
    same-block part as one running exact sum, and tracks the meeting events
    that hold a weight above K.

    The first request lists the run's candidates and puts the cursor on
    slab 0; a request for an earlier slab puts it back there (`_start`
    resets the cursor, the pending counts and the running sum): Q is one
    sweep forward in time.  A slab holding a weight above K raises and
    leaves the engine usable for the next slab.
    """

    def __init__(self, ws: WaveSystem, K: Fraction):
        self.ws = ws
        self.flux = ws.timeline.flux
        self.K = K
        self._pieces = {}  # (fid, event index) -> (piece breakpoints, piece slope ids)
        self._id_of = {}  # slope key -> slope id
        self._slopes = []  # slope id -> slope
        self.max_weight = Fraction(0)
        self._starting = None  # slab T + 1 -> {meeting event: its candidates (a, b)}
        self._slab = None  # the cursor
        self._fid = []  # atom -> its front in the cursor slab
        self._sums = {}  # meeting event at or after the cursor -> _MeetingSums
        self._changed = set()  # meeting events with count changes not yet settled
        self._offending = set()  # meeting events holding a weight above K
        self._k_eps_sq = K * ws.epsilon * ws.epsilon  # a cross-block pair's share of Q
        self._total = Fraction(0)  # Q's same-block part: settled gap_sum * q_per_gap

    def _pieces_of(self, fid, e):
        """Breakpoints and slope ids of the pieces of the envelope on the
        cells front ``fid`` carries into event e."""
        table = self._pieces.get((fid, e))
        if table is None:
            bounds, keys, slopes = _cell_slopes(self.flux, *meeting_cells(self.ws, fid, e))
            ids = []
            for key, slope in zip(keys, slopes):
                i = self._id_of.get(key)
                if i is None:
                    i = self._id_of[key] = len(self._slopes)
                    self._slopes.append(slope)
                ids.append(i)
            table = self._pieces[fid, e] = bounds, ids
        return table

    def _start(self):
        """Put the cursor on slab 0, listing the run's candidates by the slab
        they start on first when they are not listed yet."""
        ws = self.ws
        if self._starting is None:
            self._starting = self._list_candidates()
        self._slab = 0
        self._fid = [None] * ws.atom_count
        for fid, atoms in ws.runs(0):
            for a in atoms:
                self._fid[a] = fid
        self._sums = {}
        self._changed = set()
        self._offending = set()
        self._total = Fraction(0)
        for e, pairs in self._starting.get(0, {}).items():
            self._activate(e, pairs)

    def _list_candidates(self):
        """slab T + 1 -> {meeting event e: its candidates (a, b) with that T}."""
        ws = self.ws
        starting = {}
        # atom -> the last split event (two or more outgoing fronts) it
        # survived before the event the walk is at, or -1
        last_split = [-1] * ws.atom_count
        for e, ev in enumerate(ws.timeline.events):
            if not ev.outgoing:
                continue
            # the survivors (the outgoing atoms, in id order) come from one
            # incoming front when the front holding the first holds the last
            first = ws.atoms_of[ev.outgoing[0].fid][0]
            last = ws.atoms_of[ev.outgoing[-1].fid][-1]
            if next(
                ws.atoms_of[fr.fid][-1] for fr in ev.incoming if ws.atoms_of[fr.fid][-1] >= first
            ) < last:
                groups = [
                    kept for kept in (
                        [a for a in ws.atoms_of[fr.fid] if ws.canc_event[a] != e]
                        for fr in ev.incoming
                    ) if kept
                ]
                by_slab = {}
                for t, a, b in self._meeting_pairs(e, groups, last_split):
                    by_slab.setdefault(t + 1, []).append((a, b))
                for slab, pairs in by_slab.items():
                    starting.setdefault(slab, {})[e] = pairs
            if len(ev.outgoing) > 1:
                for fr in ev.outgoing:
                    for a in ws.atoms_of[fr.fid]:
                        last_split[a] = e
        return starting

    def _meeting_pairs(self, e, groups, last_split):
        """Yield (T, a, b) for each pair of atoms a < b in two of the
        survivor groups of meeting event e (each group a list of atom ids);
        ``last_split[x]`` is the last split event atom x survived before e,
        or -1."""
        ws = self.ws
        canc, sign = ws.canc_event, ws.sign
        never = len(ws.timeline.events)
        survivor_sign = sign[groups[0][0]]

        def separates_until(x):
            # the last slab on which atom x splits the survivors' sign block:
            # -1 for a survivor-sign atom
            if sign[x] == survivor_sign:
                return -1
            return never if canc[x] is None else canc[x]

        for i, left in enumerate(groups):
            # suffix[k]: the latest separates_until over the last k ids of
            # left's span, prefix[k] over the first k ids of right's
            suffix = list(accumulate(
                map(separates_until, range(left[-1], left[0] - 1, -1)), max, initial=-1
            ))
            for right in groups[i + 1:]:
                between = max(map(separates_until, range(left[-1] + 1, right[0])), default=-1)
                prefix = list(accumulate(
                    map(separates_until, range(right[0], right[-1] + 1)), max, initial=-1
                ))
                for a in left:
                    t_a = max(suffix[left[-1] - a], between)
                    if t_a >= e:
                        continue  # a shares a block with no atom of right before e
                    split_a = last_split[a]
                    for b in right:
                        t = prefix[b - right[0]]
                        if t >= e:
                            break  # nor with b, or any later atom of right
                        if t < t_a:
                            t = t_a
                        # two atoms that met before e were split since, so
                        # both survived a split after their last meeting
                        if t < split_a and t < last_split[b]:
                            met = first_common_event(ws, a, b, t + 1)
                            while met != e:
                                t = met
                                met = first_common_event(ws, a, b, t + 1)
                        yield t, a, b

    def _activate(self, e, pairs):
        """Count the pairs (a, b) of meeting event e from the cursor slab on."""
        sums = self._sums.get(e)
        if sums is None:
            ev = self.ws.timeline.events[e]
            sums = self._sums[e] = _MeetingSums(abs(ev.c - ev.a), self.K, self.ws.epsilon)
        ids, later, earlier, delta = sums.slope_id, sums.later, sums.earlier, sums.delta
        fid, cell = self._fid, self.ws.cell
        for x in set(chain.from_iterable(pairs)).difference(ids):
            bounds, piece_ids = self._pieces_of(fid[x], e)
            ids[x] = piece_ids[bisect_right(bounds, cell[x]) - 1]
            later[x], earlier[x] = [], []
        for a, b in pairs:
            later[a].append(b)
            earlier[b].append(a)
        lows, highs = zip(*pairs)
        terms = zip(map(ids.__getitem__, lows), map(ids.__getitem__, highs))
        for term, count in Counter(terms).items():
            delta[term] = delta.get(term, 0) + count
        sums.atoms = sorted(ids)
        self._changed.add(e)

    def _cross_event(self):
        """Move the cursor from slab s to slab s + 1, across event s."""
        s = self._slab
        ws = self.ws
        done = self._sums.pop(s, None)
        if done is not None:
            self._total -= done.gap_sum * done.q_per_gap
            self._changed.discard(s)
            self._offending.discard(s)
        for fr in ws.timeline.events[s].outgoing:
            atoms = ws.atoms_of[fr.fid]
            for a in atoms:
                self._fid[a] = fr.fid
            for e, sums in self._sums.items():
                # the live atoms in the id range of the front's atoms are its
                # atoms, and every atom with pairs at e is live until e
                lo = bisect_left(sums.atoms, atoms[0])
                hi = bisect_right(sums.atoms, atoms[-1], lo)
                if lo < hi:
                    self._rekey(e, sums, fr.fid, sums.atoms[lo:hi])
        self._slab = s + 1
        for e, pairs in self._starting.get(s + 1, {}).items():
            self._activate(e, pairs)

    def _rekey(self, e, sums, fid, run):
        """Give the atoms of ``run``, front ``fid``'s atoms with pairs at
        meeting event e, their slope ids through that front, and move their
        pairs' counts to the new terms, one batch per (old id, new id)."""
        bounds, piece_ids = self._pieces_of(fid, e)
        # the run's cells are monotone in id order: each piece's atoms are
        # a stretch of the run, found by bisection in the sorted cells
        cells = list(map(self.ws.cell.__getitem__, run))
        falling = cells[0] > cells[-1]
        if falling:
            cells.reverse()
        new_ids = []
        for end, i in zip(bounds[1:], piece_ids):
            new_ids += [i] * (bisect_left(cells, end) - len(new_ids))
        if falling:
            new_ids.reverse()
        ids = sums.slope_id
        olds = list(map(ids.__getitem__, run))
        if olds == new_ids:
            return
        moves, start = {}, 0  # (old id, new id) -> the atoms that move
        for (old, new), same in groupby(zip(olds, new_ids)):
            stop = start + len(list(same))
            if old != new:
                moves.setdefault((old, new), []).extend(run[start:stop])
            start = stop
        delta = sums.delta
        for (old, new), atoms in moves.items():
            ids.update(dict.fromkeys(atoms, new))
            # a term leads with the slope id of the pair's smaller atom; the
            # partners are on other fronts, so their ids stay as they are
            for partners, leads in ((sums.later, True), (sums.earlier, False)):
                met = chain.from_iterable(map(partners.__getitem__, atoms))
                for id_b, count in Counter(map(ids.__getitem__, met)).items():
                    was, now = ((old, id_b), (new, id_b)) if leads else ((id_b, old), (id_b, new))
                    delta[was] = delta.get(was, 0) - count
                    delta[now] = delta.get(now, 0) + count
        self._changed.add(e)

    def _settle(self, e):
        """Fold meeting event e's pending count changes into its sums and
        the running total, and its largest changed active gap into
        ``max_weight``."""
        sums = self._sums[e]
        terms, counts = sums.terms, sums.counts
        top = change_sum = 0
        for term, change in sums.delta.items():
            if not change:
                continue
            if term not in terms:
                gap = self._slopes[term[0]] - self._slopes[term[1]]
                terms[term] = (gap, gap > sums.k_d) if gap > 0 else None
            if terms[term] is None:
                continue
            gap, above = terms[term]
            count = counts.get(term, 0) + change
            if count:
                counts[term] = count
                if gap > top:
                    top = gap
            else:
                del counts[term]
            change_sum += change * gap
            if above:
                if count:
                    sums.offending.add(term)
                else:
                    sums.offending.discard(term)
        sums.delta.clear()
        if change_sum:
            sums.gap_sum += change_sum
            self._total += change_sum * sums.q_per_gap
        if sums.offending:
            self._offending.add(e)
        else:
            self._offending.discard(e)
        if top > self.max_weight * sums.d:
            self.max_weight = top / sums.d

    def q_of_slab(self, s: int) -> Fraction:
        """eps^2 times the sum of the pair weights over the slab's atom pairs.

        Runs split into sign blocks (maximal stretches of one sign).  Every
        atom pair across two blocks weighs K, so that part is K times an
        integer pair count.  The pairs inside one block come from the sweep
        state at slab s: the running sum over the meeting events of their
        gap sums over d, once the events whose counts changed are settled.
        """
        if self._slab is None or s < self._slab:
            self._start()
        while self._slab < s:
            self._cross_event()

        ws = self.ws
        atoms_of, atom_sign = ws.atoms_of, ws.sign
        n = squares = size = 0  # over the closed blocks: atoms, squared sizes; the open one's size
        sign = None
        for fr in ws.timeline.slabs[s]:
            atoms = atoms_of[fr.fid]
            if atom_sign[atoms[0]] != sign:
                sign = atom_sign[atoms[0]]
                n, squares, size = n + size, squares + size * size, 0
            size += len(atoms)
        n += size
        cross_pairs = (n * n - squares - size * size) // 2
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
        (run of a, run of b, a, b)."""
        run_of = {fid: i for i, (fid, _) in enumerate(self.ws.runs(s))}
        fid = self._fid
        *_, a, b = min(
            (run_of[fid[a]], run_of[fid[b]], a, b)
            for sums in map(self._sums.get, self._offending)
            for a, partners in sums.later.items()
            for b in partners
            if (sums.slope_id[a], sums.slope_id[b]) in sums.offending
        )
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

    def __init__(self, size: int):
        self._tree = [0] * (size + 1)

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

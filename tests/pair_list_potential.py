"""Q's same-block part as the sweep over listed candidate pairs: the oracle
for `fronttrack.potential._SlabPotential`, used only by the tests.

This is the engine `_SlabPotential` ran before it counted each meeting
event's pairs as products of per-group slope histograms.  It lists every
candidate pair (a, b) of every meeting event with the slab it starts on,
keeps each active pair in two partner lists, and recounts a moved atom's
partners per (old slope id, new slope id) through a `Counter`.  Its answers
(every slab's Q, `max_weight` and the weight-above-K message) are the ones
the product engine must give, and `_list_candidates` is the pair listing
that `survival_list_candidates` restates on per-atom survival lists.
"""

from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, groupby

from fronttrack.errors import ConsistencyError
from fronttrack.potential import _cell_slopes
from fronttrack.tracing import WaveSystem, first_common_event

from wave_oracles import meeting_cells


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


class PairListSlabPotential:
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
            bounds, keys = _cell_slopes(self.flux, *meeting_cells(self.ws, fid, e))
            ids = []
            for key in keys:
                i = self._id_of.get(key)
                if i is None:
                    i = self._id_of[key] = len(self._slopes)
                    self._slopes.append(self.flux.key_slope(key))
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

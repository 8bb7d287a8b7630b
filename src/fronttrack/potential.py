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
slab by slab.  The cubic speed-spread (Bianchini) sum is kept event by event
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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import lcm

from .envelope import GridFlux, curvature_constant, envelope
from .errors import ConsistencyError, InputError
from .tracker import SAME_SIGN, InteractionEvent, Timeline, evolve, merge_steps, profile_at
from .tracing import (
    WaveSystem, advance_tracing, build_initial_waves, first_common_event, meeting_cells,
)


# -- speed change ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _cell_slopes(flux: GridFlux, lo: int, hi: int, sign: int):
    """Envelope slope on each state cell k in [lo, hi) for the given sign."""
    env = envelope(flux, lo, hi, sign)
    out = {}
    for k0, k1, s in zip(env.indices, env.indices[1:], env.slopes):
        for k in range(k0, k1):
            out[k] = s
    return out


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

    def __init__(self, d: Fraction, k_d: Fraction):
        self.d = d  # the mass at the meeting
        self.k_d = k_d  # K * d: a gap above it is a weight above K
        self.slope_id = {}  # atom -> slope id of its cell, via its current front
        self.partners = {}  # atom -> its active partners
        self.counts = {}  # positive-gap term (slope id, slope id) -> active pairs
        self.delta = {}  # term -> change of its pair count not yet summed
        self.offending = set()  # active terms whose weight exceeds K
        self.gap_sum = Fraction(0)  # over the terms: count times gap


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
    joined one block.  Every other same-block pair shares a front or never
    meets, and weighs 0; every pair across two blocks weighs K, which Q
    counts as K times an integer pair count.

    The engine holds a cursor slab.  Crossing event s drops event s's pairs,
    re-keys the atoms that event moves onto a new front (the meeting slope
    of an atom is read through its current front), and activates the
    candidates with T = s.  Per meeting event it keeps integer pair counts
    per (slope id, slope id) term and the running sum of count times
    positive gap, so exact arithmetic runs once per changed term.  The first
    request lists the run's candidates and puts the cursor on slab 0; a
    request for an earlier slab puts it back there: Q is one sweep forward
    in time.  Each atom's meeting events are indexed when the cursor first
    moves, so an engine asked only for slab 0 (a restart probe) never
    builds that index.  A slab holding a weight above K raises and leaves
    the engine usable for the next slab.
    """

    def __init__(self, ws: WaveSystem, K: Fraction):
        self.ws = ws
        self.flux = ws.timeline.flux
        self.K = K
        self._slope_ids = {}  # (fid, event index) -> {cell: slope id}
        self._id_of = {}  # slope -> slope id
        self._slopes = []  # slope id -> slope
        self._gaps = {}  # term -> its gap if positive, else None
        self.max_weight = Fraction(0)
        self._starting = None  # slab T + 1 -> {meeting event: its candidates (a, b)}
        self._meetings_of = None  # atom -> the meeting events it has candidates at
        self._slab = None  # the cursor
        self._fid = []  # atom -> its front in the cursor slab
        self._sums = {}  # meeting event at or after the cursor -> _MeetingSums

    def _slope_ids_for(self, fid, e):
        """Slope id of each cell front ``fid`` carries into event e."""
        key = (fid, e)
        if key not in self._slope_ids:
            ids = {}
            for k, slope in _cell_slopes(self.flux, *meeting_cells(self.ws, fid, e)).items():
                if slope not in self._id_of:
                    self._id_of[slope] = len(self._slopes)
                    self._slopes.append(slope)
                ids[k] = self._id_of[slope]
            self._slope_ids[key] = ids
        return self._slope_ids[key]

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
        for e, pairs in self._starting.get(0, {}).items():
            self._activate(e, pairs)

    def _list_candidates(self):
        """slab T + 1 -> {meeting event e: its candidates (a, b) with that T}."""
        ws = self.ws
        starting = {}
        for e, ev in enumerate(ws.timeline.events):
            if not ev.outgoing:
                continue
            # the survivors (the outgoing atoms, in id order) come from one
            # incoming front when the front holding the first holds the last
            first = ws.atoms_of[ev.outgoing[0].fid][0]
            last = ws.atoms_of[ev.outgoing[-1].fid][-1]
            if next(
                ws.atoms_of[fr.fid][-1] for fr in ev.incoming if ws.atoms_of[fr.fid][-1] >= first
            ) >= last:
                continue
            groups = [
                kept for kept in (
                    [a for a in ws.atoms_of[fr.fid] if ws.canc_event[a] != e]
                    for fr in ev.incoming
                ) if kept
            ]
            for t, a, b in self._meeting_pairs(e, groups):
                starting.setdefault(t + 1, {}).setdefault(e, []).append((a, b))
        return starting

    def _meeting_pairs(self, e, groups):
        """Yield (T, a, b) for each pair of atoms a < b in two of the
        survivor groups of meeting event e (each group a list of atom ids)."""
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

        # two atoms that met before e were split since: the last split event
        # (two or more outgoing fronts) each survived before e
        last_split = {}
        for group in groups:
            for x in group:
                events = ws.events_of[x]
                k = bisect_left(events, e) - 1
                while k >= 0 and len(ws.timeline.events[events[k]].outgoing) < 2:
                    k -= 1
                last_split[x] = events[k] if k >= 0 else -1

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
                    for b in right:
                        t = prefix[b - right[0]]
                        if t < t_a:
                            t = t_a
                        if t >= e:
                            continue  # a and b never share a block before e
                        if t < last_split[a] and t < last_split[b]:
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
            d = abs(ev.c - ev.a)
            sums = self._sums[e] = _MeetingSums(d, self.K * d)
        ids, partners, delta = sums.slope_id, sums.partners, sums.delta
        fid, cell = self._fid, self.ws.cell
        for a, b in pairs:
            id_a = ids.get(a)
            if id_a is None:
                id_a = ids[a] = self._slope_ids_for(fid[a], e)[cell[a]]
                partners[a] = [b]
            else:
                partners[a].append(b)
            id_b = ids.get(b)
            if id_b is None:
                id_b = ids[b] = self._slope_ids_for(fid[b], e)[cell[b]]
                partners[b] = [a]
            else:
                partners[b].append(a)
            delta[id_a, id_b] = delta.get((id_a, id_b), 0) + 1

    def _cross_event(self):
        """Move the cursor from slab s to slab s + 1, across event s."""
        s = self._slab
        ws = self.ws
        if self._meetings_of is None:
            # the atoms' meeting events, read only once the cursor moves
            self._meetings_of = {}
            for by_event in self._starting.values():
                for e, pairs in by_event.items():
                    for pair in pairs:
                        for x in pair:
                            self._meetings_of.setdefault(x, set()).add(e)
        self._sums.pop(s, None)
        for fr in ws.timeline.events[s].outgoing:
            for a in ws.atoms_of[fr.fid]:
                self._fid[a] = fr.fid
                for e in self._meetings_of.get(a, ()):
                    sums = self._sums.get(e)
                    if sums is None or a not in sums.slope_id:
                        continue
                    ids = sums.slope_id
                    old, new = ids[a], self._slope_ids_for(fr.fid, e)[ws.cell[a]]
                    if new == old:
                        continue
                    ids[a] = new
                    delta = sums.delta
                    for b in sums.partners[a]:
                        if a < b:
                            was, now = (old, ids[b]), (new, ids[b])
                        else:
                            was, now = (ids[b], old), (ids[b], new)
                        delta[was] = delta.get(was, 0) - 1
                        delta[now] = delta.get(now, 0) + 1
        self._slab = s + 1
        for e, pairs in self._starting.get(s + 1, {}).items():
            self._activate(e, pairs)

    def _gap(self, term):
        if term not in self._gaps:
            gap = self._slopes[term[0]] - self._slopes[term[1]]
            self._gaps[term] = gap if gap > 0 else None
        return self._gaps[term]

    def _settle(self, sums):
        """Fold a meeting event's pending count changes into its sums and
        its largest active gap into ``max_weight``."""
        top = 0
        for term, change in sums.delta.items():
            gap = self._gap(term)
            if not change or gap is None:
                continue
            count = sums.counts.get(term, 0) + change
            if count:
                sums.counts[term] = count
                if gap > top:
                    top = gap
            else:
                del sums.counts[term]
            sums.gap_sum += change * gap
            if gap > sums.k_d:
                if count:
                    sums.offending.add(term)
                else:
                    sums.offending.discard(term)
        sums.delta.clear()
        if top > self.max_weight * sums.d:
            self.max_weight = top / sums.d

    def q_of_slab(self, s: int) -> Fraction:
        """eps^2 times the sum of the pair weights over the slab's atom pairs.

        Runs split into sign blocks (maximal stretches of one sign).  Every
        atom pair across two blocks weighs K, so that part is K times an
        integer pair count.  The pairs inside one block come from the sweep
        state at slab s: per meeting event, its running gap sum divided by
        its d.
        """
        if self._slab is None or s < self._slab:
            self._start()
        while self._slab < s:
            self._cross_event()

        ws = self.ws
        runs = ws.runs(s)
        block_sizes, sign = [], None
        for _, atoms in runs:
            if ws.sign[atoms[0]] != sign:
                sign = ws.sign[atoms[0]]
                block_sizes.append(0)
            block_sizes[-1] += len(atoms)
        n = sum(block_sizes)
        cross_pairs = (n * n - sum(m * m for m in block_sizes)) // 2
        if cross_pairs and self.K > self.max_weight:
            self.max_weight = self.K

        for sums in self._sums.values():
            self._settle(sums)
        if any(sums.offending for sums in self._sums.values()):
            self._raise_first_weight_above_k(s, runs)

        total = self.K * cross_pairs
        for sums in self._sums.values():
            total += sums.gap_sum / sums.d
        return total * ws.epsilon * ws.epsilon

    def _raise_first_weight_above_k(self, s, runs):
        """Name the slab's first offending pair in run order: the least
        (run of a, run of b, a, b)."""
        run_of = {fid: i for i, (fid, _) in enumerate(runs)}
        fid = self._fid
        *_, a, b = min(
            (run_of[fid[a]], run_of[fid[b]], a, b)
            for sums in self._sums.values() if sums.offending
            for a, partners in sums.partners.items()
            for b in partners
            if a < b and (sums.slope_id[a], sums.slope_id[b]) in sums.offending
        )
        raise ConsistencyError(f"weight above K for atoms ({a}, {b}) in slab {s}")


def upsilon(q_value, tv_now, tv0, K):
    """The combined potentials: K*TV0*TV(t) plus Q, and plus 2Q."""
    base = K * tv0 * tv_now
    return base + q_value, base + 2 * q_value


def initial_bound_flags(upsilon0, tv0, K) -> dict:
    """Upsilon(0) <= K*TV0^2 (constant 1) and <= 2*K*TV0^2 (constant 2)."""
    bound = K * tv0 * tv0
    return {
        "upsilon0_le_k_tv0_sq": upsilon0 <= bound,
        "upsilon0_le_2k_tv0_sq": upsilon0 <= 2 * bound,
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


def verdict_table(K, tv0, slabs, events, restarts) -> VerdictTable:
    """Every inequality the run is checked against, from its exact values.

    ``slabs`` holds (Q, TV, upsilon_paper, upsilon_strict) per slab, in order;
    ``events`` holds (index, kind, composite, a, b, c, delta_sigma) per event,
    event i separating slabs i and i+1; ``restarts`` holds (slab, Q, Q_restart)
    per restart probe.  `verify_run` and `report.verify_report` both call this,
    so a run and its stored report are judged by the same table.

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
        # the per-kind drop bounds are statements about one state triple; they
        # are attached only to binary events (composite events carry a summed
        # speed change and are covered by the combined-potential verdicts)
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

    slabs = []
    for s, (bianchini, tv) in enumerate(_bianchini_of_slab(ws)):
        q_val = engine.q_of_slab(s)
        slabs.append(
            SlabRecord(s, *tl.slab_bounds(s), q_val, tv, *upsilon(q_val, tv, tv0, K),
                       bianchini)
        )
    rows = [(r.Q, r.TV, r.upsilon_paper, r.upsilon_strict) for r in slabs]
    event_rows = [
        (i, ev.kind, len(ev.incoming) > 2, ev.a, ev.b, ev.c, delta_sigma(ev, flux))
        for i, ev in enumerate(tl.events)
    ]

    probes = []
    for s, t_probe in _restart_probe_times(tl, restart_checks):
        _, ws2 = run_pipeline(profile_at(tl, t_probe), flux)
        probes.append((s, t_probe, _SlabPotential(ws2, K).q_of_slab(0)))

    table = verdict_table(
        K, tv0, rows, event_rows, [(s, rows[s][0], q_restart) for s, _, q_restart in probes]
    )
    events = []
    for ev, (i, _, composite, *_, dsig), verdicts in zip(tl.events, event_rows, table.events):
        (q_minus, tv_minus, _, _), (q_plus, tv_plus, _, _) = rows[i], rows[i + 1]
        events.append(EventRecord(
            i, ev.t, ev.x, ev.kind, ev.a, ev.b, ev.c, dsig,
            q_minus, q_plus, tv_minus, tv_plus, composite, verdicts,
        ))
    restart_records = [
        RestartCheck(s, t_probe, rows[s][0], q_restart, equal)
        for (s, t_probe, q_restart), equal in zip(probes, table.restarts)
    ]
    return PotentialSeries(
        K, tv0, slabs, events, restart_records, table.flags,
        table.hard_failures, engine.max_weight,
    )

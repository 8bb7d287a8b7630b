"""Reference checkers over a traced run, used only by the tests.

These are per-pair and per-point restatements of what the package computes in
bulk: the weight of one wave pair (its classification, meeting intervals,
``pi`` and ``d``), the interaction query and position of single waves, the
jump-state identity at one point, the per-slab cell table, and the structural
checks built on them (meeting-interval implication, weight stability across
cancellations, hull contact).  The wave-coordinate queries (`atom_of`,
`state_of`, `sigma`, `waves_at`, ...) read the package's traced `WaveSystem`
but restate every lookup from its runs and cancellation events.
`oracle_q_of_slab` sums the per-pair weights and `oracle_bianchini_of_slab`
the per-run-pair speed gaps, so tests compare them with the package's
`_SlabPotential.q_of_slab` and with the per-slab series of
`_bianchini_of_slab`, which it keeps event by event;
`pair_walk_q_of_slab` is the walk over every same-block atom pair that Q's
meeting-event sweep replaced, `sorted_bianchini_of_slab` the per-slab
sort that the Bianchini series replaced, and `fraction_bianchini_of_slab`
that series as it ran on `Fraction` speeds, before it ranked and weighed
the fronts by their speeds' integers.  `survived_events` is the per-atom
survival list that tracing kept beside the fronts' atoms, its transpose;
`list_merge_first_common_event`, `bisect_last_split` and
`survival_list_candidates` are the lookups and the candidate listing that
read it, and `meeting_cells` the per-atom lookup of the cells a front
carries into a meeting event that Q read before it placed each meeting's
survivors on a line of positions.
`cell_dict_trace` is the assignment of atoms to fronts through per-fan
state-cell dictionaries that tracing's walk in state order replaced, and
`fraction_trace` that walk as it ran on the fronts' `Fraction` states, before
it read the grid indices each front carries, and `fraction_validate_tracing`
the event-local validator as it ran on `Fraction` masses and spans, before it
counted them in grid coordinates.
`quadratic_potential` and `bianchini_cubic` read those two at a time rather
than a slab index.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from fronttrack.envelope import GridFlux, curvature_constant, envelope
from fronttrack.errors import ConsistencyError, InputError
from fronttrack.potential import _bianchini_of_slab, _Fenwick, _SlabPotential
from fronttrack.rationals import grid_index
from fronttrack.tracker import CANCELLATION, Profile, Timeline, merge_steps, profile_at
from fronttrack.tracing import WaveSystem, first_common_event

from oracles import (
    _tv, fraction_cell_slopes, front_kinematics, profile_value_at, slab_index, value_at,
)

MIXED_SIGN = "mixed_sign"
SAME_POSITION = "same_position"
NEVER_INTERACT = "never_interact"
GENERIC = "generic"

SIGN_NAMES = {1: "+", -1: "-"}


# -- wave coordinates and front membership -------------------------------------------


@dataclass(frozen=True)
class WaveInterval:
    """Sign-constant, betweenness-closed wave set at a fixed time."""

    atoms: tuple  # atom ids, in w order
    w_intervals: tuple  # maximal real intervals ((lo, hi], ...)
    sign: int
    state_lo: Fraction
    state_hi: Fraction

    @property
    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.w_intervals), Fraction(0))

    @property
    def is_empty(self) -> bool:
        return not self.atoms


def atom_w_lo(ws: WaveSystem, a: int) -> Fraction:
    return a * ws.epsilon


def atom_w_hi(ws: WaveSystem, a: int) -> Fraction:
    return (a + 1) * ws.epsilon


def x0(ws: WaveSystem, profile: Profile) -> list:
    """Initial position of every atom: the point of its initial jump in the
    profile the layer was built from, whose jumps hold the atoms in id
    order, each as many as its size over epsilon."""
    out = []
    for (x, v), u in zip(profile.jumps, profile.values()):
        out += [x] * int(abs(v - u) / ws.epsilon)
    return out


def atom_of(ws: WaveSystem, w) -> int:
    """Atom containing the wave coordinate w in (0, TV]."""
    w = Fraction(w)
    tv = ws.atom_count * ws.epsilon
    if not 0 < w <= tv:
        raise InputError(f"wave coordinate {w} outside (0, {tv}]")
    q = w / ws.epsilon
    a = q.numerator // q.denominator  # floor
    if q.denominator == 1:
        a -= 1
    return a


def state_of(ws: WaveSystem, w) -> Fraction:
    """The state map: constant_state plus the signed integral of the sign."""
    a = atom_of(ws, w)
    lo = ws.cell[a] * ws.epsilon
    offset = Fraction(w) - atom_w_lo(ws, a)
    return (lo + offset) if ws.sign[a] > 0 else (lo + ws.epsilon - offset)


def t_canc(ws: WaveSystem, a: int):
    """Cancellation time of atom a, None if it lives forever."""
    ws._require_traced()
    e = ws.canc_event[a]
    return None if e is None else ws.timeline.events[e].t


def live_atoms(ws: WaveSystem, s: int) -> list:
    """Atoms not canceled before slab s, in id order."""
    return [a for a, e in enumerate(ws.canc_event) if e is None or e >= s]


def survivors(ws: WaveSystem, e: int) -> list:
    """Atoms that sit at and survive event e, in id order: the atoms of its
    outgoing fronts."""
    return sorted(a for fr in ws.timeline.events[e].outgoing for a in ws.atoms_of[fr.fid])


def survived_events(ws: WaveSystem) -> list:
    """atom -> the events it sits at and survives, increasing: the transpose
    of the fronts' atoms over each event's outgoing fronts."""
    events_of = [[] for _ in range(ws.atom_count)]
    for e, ev in enumerate(ws.timeline.events):
        for fr in ev.outgoing:
            for a in ws.atoms_of[fr.fid]:
                events_of[a].append(e)
    return events_of


def casualties(ws: WaveSystem, e: int) -> list:
    """Atoms canceled at event e, in id order."""
    return [a for a, c in enumerate(ws.canc_event) if c == e]


def fid_of(ws: WaveSystem, a: int, s: int) -> int:
    """The front of slab s whose run holds atom a."""
    for fid, atoms in ws.runs(s):
        if a in atoms:
            return fid
    raise InputError(f"atom {a} is not live in slab {s}")


def front_of(ws: WaveSystem, a: int, s: int):
    return ws.timeline.fronts_by_id[fid_of(ws, a, s)]


def interval_of(ws: WaveSystem, atoms) -> WaveInterval:
    """Package an atom list as a WaveInterval, checking sign constancy."""
    if not atoms:
        return WaveInterval((), (), 0, Fraction(0), Fraction(0))
    sign = ws.sign[atoms[0]]
    if any(ws.sign[a] != sign for a in atoms):
        raise ConsistencyError("wave interval mixes signs")
    intervals = []
    start = prev = atoms[0]
    for a in atoms[1:]:
        if a != prev + 1:
            intervals.append((atom_w_lo(ws, start), atom_w_hi(ws, prev)))
            start = a
        prev = a
    intervals.append((atom_w_lo(ws, start), atom_w_hi(ws, prev)))
    ks = [ws.cell[a] for a in atoms]
    return WaveInterval(
        tuple(atoms),
        tuple(intervals),
        sign,
        min(ks) * ws.epsilon,
        (max(ks) + 1) * ws.epsilon,
    )


def sigma(ws: WaveSystem, t, w) -> Fraction:
    """Forward speed of the wave at time t (the outgoing speed at event instants)."""
    ws._require_traced()
    t = Fraction(t)
    a = atom_of(ws, w)
    tc = t_canc(ws, a)
    if tc is not None and tc <= t:
        raise InputError(f"wave {w} was canceled at t={tc}")
    s = slab_index(ws.timeline, t, "pre")
    t_hi = ws.timeline.slab_bounds(s)[1]
    if t_hi is not None and t == t_hi and a in survivors(ws, s):
        return front_of(ws, a, s + 1).speed
    return front_of(ws, a, s).speed


def waves_at(ws: WaveSystem, t, x) -> WaveInterval:
    """W(t, x): all live waves positioned at x, as a WaveInterval."""
    ws._require_traced()
    t, x = Fraction(t), Fraction(x)
    s = slab_index(ws.timeline, t, "pre")
    found = []
    for fid, atoms in ws.runs(s):
        if ws.timeline.fronts_by_id[fid].position_at(t) == x:
            for a in atoms:
                tc = t_canc(ws, a)
                if tc is None or tc > t:
                    found.append(a)
    return interval_of(ws, found)


def meeting_interval(ws: WaveSystem, s: int, fid: int, e: int) -> WaveInterval:
    """The waves of slab-s front ``fid`` that survive event e, which must
    have contiguous states."""
    atoms = [a for a in survivors(ws, e) if fid_of(ws, a, s) == fid]
    interval = interval_of(ws, sorted(atoms))
    ks = sorted(ws.cell[a] for a in atoms)
    if ks != list(range(ks[0], ks[0] + len(ks))):
        raise ConsistencyError("meeting interval has non-contiguous states")
    return interval


# -- pair weights ------------------------------------------------------------------


@dataclass(frozen=True)
class PairWeightRecord:
    atom_lo: int
    atom_hi: int
    classification: str
    q: Fraction
    pi: Fraction
    d: Fraction
    j_left: object = None  # WaveInterval for generic pairs
    j_right: object = None
    meeting: object = None  # (t, x) of the first joint event


@dataclass(frozen=True)
class WaveCell:
    """A maximal run of consecutive live atoms sharing sign and (per-slab) front."""

    w_lo: Fraction
    w_hi: Fraction
    sign: int
    state_lo: Fraction  # closed lower edge of the state range
    state_hi: Fraction
    atoms: tuple


def _atom_id(ws: WaveSystem, c) -> int:
    if isinstance(c, int):
        if not 0 <= c < ws.atom_count:
            raise InputError(f"atom index {c} out of range")
        return c
    if isinstance(c, WaveCell):
        if len(c.atoms) != 1:
            raise InputError("pair weights are defined per atom; split the cell")
        return c.atoms[0]
    return atom_of(ws, c)


def _entropic_slope(ws, flux, interval, atom):
    lo = grid_index(interval.state_lo, flux.epsilon)
    hi = grid_index(interval.state_hi, flux.epsilon)
    return fraction_cell_slopes(flux, lo, hi, interval.sign)[ws.cell[atom]]


def pair_weight(ws: WaveSystem, t_bar, c, c_prime, K, flux: GridFlux) -> PairWeightRecord:
    """Classify one wave pair at time t_bar and compute its weight."""
    ws._require_traced()
    K = Fraction(K)
    a, b = _atom_id(ws, c), _atom_id(ws, c_prime)
    if a == b:
        raise InputError("need two distinct waves")
    if a > b:
        a, b = b, a
    t_bar = Fraction(t_bar)
    s = slab_index(ws.timeline, t_bar, "pre")
    for atom in (a, b):
        if atom not in live_atoms(ws, s):
            raise InputError("wave not live at the query time")
    return _pair_weight_in_slab(ws, s, a, b, K, flux)


def _pair_weight_in_slab(ws, s, a, b, K, flux):
    sign = ws.sign[a]
    live = live_atoms(ws, s)
    i_a = bisect_left(live, a)
    i_b = bisect_left(live, b)
    if any(ws.sign[live[i]] != sign for i in range(i_a, i_b + 1)):
        return PairWeightRecord(a, b, MIXED_SIGN, K, Fraction(0), Fraction(0))
    fid_a, fid_b = fid_of(ws, a, s), fid_of(ws, b, s)
    if fid_a == fid_b:
        return PairWeightRecord(a, b, SAME_POSITION, Fraction(0), Fraction(0), Fraction(0))
    e = first_common_event(ws, a, b, after_slab=s)
    if e is None:
        return PairWeightRecord(a, b, NEVER_INTERACT, Fraction(0), Fraction(0), Fraction(0))
    ev = ws.timeline.events[e]
    d = abs(ev.c - ev.a)
    j_left = meeting_interval(ws, s, fid_a, e)
    j_right = meeting_interval(ws, s, fid_b, e)
    pi = _entropic_slope(ws, flux, j_left, a) - _entropic_slope(ws, flux, j_right, b)
    if pi < 0:
        pi = Fraction(0)
    q = pi / d
    if not 0 <= q <= K:
        raise ConsistencyError(f"weight {q} outside [0, {K}] for atoms ({a}, {b})")
    return PairWeightRecord(a, b, GENERIC, q, pi, d, j_left, j_right, (ev.t, ev.x))


def oracle_q_of_slab(ws: WaveSystem, s: int, K, flux: GridFlux):
    """Q of slab s as eps^2 times the sum of the per-pair weights, with the
    records of every live pair."""
    live = live_atoms(ws, s)
    records = [
        _pair_weight_in_slab(ws, s, a, b, K, flux)
        for i, a in enumerate(live)
        for b in live[i + 1:]
    ]
    return sum((r.q for r in records), Fraction(0)) * ws.epsilon * ws.epsilon, records


def oracle_bianchini_of_slab(ws: WaveSystem, s: int) -> Fraction:
    """The Bianchini sum of slab s as the double loop over its run pairs."""
    runs = ws.runs(s)
    eps = ws.epsilon
    total = Fraction(0)
    for i, (fid_i, atoms_i) in enumerate(runs):
        speed_i = ws.timeline.fronts_by_id[fid_i].speed
        for fid_j, atoms_j in runs[i + 1:]:
            speed_j = ws.timeline.fronts_by_id[fid_j].speed
            total += abs(speed_i - speed_j) * (len(atoms_i) * eps) * (len(atoms_j) * eps)
    return total


def sorted_bianchini_of_slab(ws: WaveSystem, s: int) -> Fraction:
    """The Bianchini sum of slab s from its runs alone, sorted by speed: a run
    of n atoms at speed v adds n * (v * N - S) over all slower runs, where N
    counts their atoms and S sums their atoms' speeds."""
    fronts = ws.timeline.fronts_by_id
    runs = sorted((fronts[fid].speed, len(atoms)) for fid, atoms in ws.runs(s))
    total = Fraction(0)
    below_count, below_speed = 0, Fraction(0)
    for v, n in runs:
        total += n * (v * below_count - below_speed)
        below_count += n
        below_speed += n * v
    return total * ws.epsilon * ws.epsilon


def fraction_bianchini_of_slab(ws: WaveSystem) -> list:
    """`_bianchini_of_slab` as it ran on `Fraction` speeds, before it ranked
    and weighed the fronts by their speeds' integers: the (Bianchini sum,
    TV) of every slab, kept event by event in Fenwick trees over the rank
    of the sorted distinct `Fraction` speeds, with the moments n * v scaled
    by the lcm of their denominators."""
    tl = ws.timeline
    born = tl.fronts_by_id.values()
    rank = {v: r for r, v in enumerate(sorted({fr.speed for fr in born}))}
    moments = {fr.fid: len(ws.atoms_of[fr.fid]) * fr.speed for fr in born}
    scale = lcm(*(m.denominator for m in moments.values()))
    weight = {
        fr.fid: (rank[fr.speed], len(ws.atoms_of[fr.fid]), int(moments[fr.fid] * scale))
        for fr in born
    }
    counts, sums = _Fenwick(len(rank)), _Fenwick(len(rank))
    n_live = s_live = total = 0

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
    out = [(Fraction(total, scale) * eps * eps, n_live * eps)]
    for ev in tl.events:
        for fr in ev.incoming:
            move(fr.fid, -1)
        for fr in ev.outgoing:
            move(fr.fid, 1)
        out.append((Fraction(total, scale) * eps * eps, n_live * eps))
    return out


def bianchini_mismatches(ws: WaveSystem) -> list:
    """The slabs on which the package's series `_bianchini_of_slab` differs
    from `sorted_bianchini_of_slab`, from `oracle_bianchini_of_slab` or, in
    its Bianchini sum or its TV, from `fraction_bianchini_of_slab` (every
    slab when a series has the wrong length)."""
    series = _bianchini_of_slab(ws)
    walked = fraction_bianchini_of_slab(ws)
    slabs = range(len(ws.timeline.slabs))
    if not len(series) == len(walked) == len(slabs):
        return list(slabs)
    return [
        s for s in slabs
        if series[s] != walked[s] or not (
            series[s][0] == sorted_bianchini_of_slab(ws, s) == oracle_bianchini_of_slab(ws, s)
        )
    ]


def pair_walk_q_of_slab(ws: WaveSystem, s: int, K):
    """Q of slab s and the largest pair weight on it, by the walk over every
    same-block atom pair that `_SlabPotential`'s meeting-event sweep
    replaced: each pair's first common event from slab s is looked up, the
    meeting pairs are counted per (event, slope, slope) term, and each term
    adds count times its positive slope gap over d.  Pairs across two sign
    blocks weigh K.  Raises the package's error on the first term, in walk
    order (run of a, run of b, a, b), whose weight exceeds K."""
    flux, events = ws.timeline.flux, ws.timeline.events
    runs = ws.runs(s)
    block_of, block_sizes, sign = [], [], None
    for _, atoms in runs:
        if ws.sign[atoms[0]] != sign:
            sign = ws.sign[atoms[0]]
            block_sizes.append(0)
        block_of.append(len(block_sizes) - 1)
        block_sizes[-1] += len(atoms)
    n = sum(block_sizes)
    cross_pairs = (n * n - sum(m * m for m in block_sizes)) // 2
    top = K if cross_pairs else Fraction(0)

    slopes = {}  # (fid, event index) -> {cell: meeting slope}

    def slope(fid, e, atom):
        if (fid, e) not in slopes:
            slopes[fid, e] = fraction_cell_slopes(flux, *meeting_cells(ws, fid, e))
        return slopes[fid, e][ws.cell[atom]]

    terms = {}  # (event index, slope of a, slope of b) -> [pair count, first pair]
    for i, (fid_i, atoms_i) in enumerate(runs):
        for j in range(i + 1, len(runs)):
            if block_of[j] != block_of[i]:
                break
            fid_j, atoms_j = runs[j]
            for a in atoms_i:
                for b in atoms_j:
                    e = first_common_event(ws, a, b, s)
                    if e is None:
                        continue
                    key = (e, slope(fid_i, e, a), slope(fid_j, e, b))
                    if key in terms:
                        terms[key][0] += 1
                    else:
                        terms[key] = [1, (a, b)]

    total = K * cross_pairs
    for (e, slope_a, slope_b), (count, (a, b)) in terms.items():
        gap = slope_a - slope_b
        if gap <= 0:
            continue
        d = abs(events[e].c - events[e].a)
        if gap > K * d:
            raise ConsistencyError(f"weight above K for atoms ({a}, {b}) in slab {s}")
        total += count * gap / d
        top = max(top, gap / d)
    return total * ws.epsilon * ws.epsilon, top


def oracle_first_pair_above_k(ws: WaveSystem, s: int, K):
    """The first same-block atom pair of slab s, in the order
    `pair_walk_q_of_slab` walks them, whose weight exceeds K, or None: the
    pair walk again, one pair at a time."""
    runs = ws.runs(s)
    signs = [ws.sign[atoms[0]] for _, atoms in runs]
    for i, (fid_i, atoms_i) in enumerate(runs):
        for j in range(i + 1, len(runs)):
            if signs[j] != signs[i]:
                break
            fid_j, atoms_j = runs[j]
            for a in atoms_i:
                for b in atoms_j:
                    e = first_common_event(ws, a, b, s)
                    if e is None:
                        continue
                    ev = ws.timeline.events[e]
                    gap = _meeting_slope(ws, fid_i, e, a) - _meeting_slope(ws, fid_j, e, b)
                    if gap > K * abs(ev.c - ev.a):
                        return a, b
    return None


def meeting_cells(ws, fid: int, e: int):
    """Grid cells [lo, hi) and sign of the waves front ``fid`` carries into
    event e, for a front that lives on a slab at or before e: its atoms that
    sit at and survive that event.

    Those are the atoms of e's outgoing fronts in the id range of ``fid``'s
    atoms, found by bisection: they live on every slab up to e, and on a
    slab ``fid`` lives on, the live atoms in that range are its own.  They
    must share a sign, and their cells must be contiguous.  (The package
    reads the same cells off the positions of e's survivors,
    `potential._Meeting.cells`.)"""
    first, last = ws.atoms_of[fid][0], ws.atoms_of[fid][-1]
    atoms = []
    for fr in ws.timeline.events[e].outgoing:
        out = ws.atoms_of[fr.fid]
        atoms += out[bisect_left(out, first):bisect_right(out, last)]
    signs = set(map(ws.sign.__getitem__, atoms))
    if len(signs) > 1:
        raise ConsistencyError("wave interval mixes signs")
    ks = sorted(map(ws.cell.__getitem__, atoms))
    if ks != list(range(ks[0], ks[0] + len(ks))):
        raise ConsistencyError("meeting interval has non-contiguous states")
    return ks[0], ks[-1] + 1, signs.pop()


def _meeting_slope(ws, fid, e, atom):
    return fraction_cell_slopes(ws.timeline.flux, *meeting_cells(ws, fid, e))[ws.cell[atom]]


def list_merge_first_common_event(events_of, a: int, b: int, after_slab: int = 0):
    """`first_common_event` as it merged the atoms' survival lists
    (``events_of``, from `survived_events`): the earliest event at or after
    ``after_slab`` on both lists, or None."""
    ea, eb = events_of[a], events_of[b]
    i, j = bisect_left(ea, after_slab), bisect_left(eb, after_slab)
    while i < len(ea) and j < len(eb):
        if ea[i] == eb[j]:
            return ea[i]
        if ea[i] < eb[j]:
            i += 1
        else:
            j += 1
    return None


def bisect_last_split(ws: WaveSystem, events_of, x: int, e: int) -> int:
    """The last split event (two or more outgoing fronts) atom x survived
    before event e, or -1, as `_SlabPotential` found it: bisection in x's
    survival list and a walk back over it."""
    events = events_of[x]
    k = bisect_left(events, e) - 1
    while k >= 0 and len(ws.timeline.events[events[k]].outgoing) < 2:
        k -= 1
    return events[k] if k >= 0 else -1


def survival_list_candidates(ws: WaveSystem):
    """`_SlabPotential._list_candidates` as it ran on per-atom survival
    lists, in its order: each candidate's last splits by `bisect_last_split`
    and its last common event before the meeting by
    `list_merge_first_common_event`, over a plain loop on the pairs."""
    events_of = survived_events(ws)
    canc, sign = ws.canc_event, ws.sign
    never = len(ws.timeline.events)
    starting = {}
    for e, ev in enumerate(ws.timeline.events):
        groups = [
            kept for kept in (
                [a for a in ws.atoms_of[fr.fid] if canc[a] != e] for fr in ev.incoming
            ) if kept
        ]
        if len(groups) < 2:
            continue
        survivor_sign = sign[groups[0][0]]

        def separates_until(x):
            if sign[x] == survivor_sign:
                return -1
            return never if canc[x] is None else canc[x]

        split = {x: bisect_last_split(ws, events_of, x, e) for group in groups for x in group}
        by_slab = {}
        for i, left in enumerate(groups):
            for right in groups[i + 1:]:
                for a in left:
                    # the latest separation strictly between a and b
                    t, x = max(map(separates_until, range(a + 1, right[0])), default=-1), right[0]
                    for b in right:
                        t, x = max(t, *map(separates_until, range(x, b + 1))), b + 1
                        if t >= e:
                            break
                        last = t
                        if last < split[a] and last < split[b]:
                            met = list_merge_first_common_event(events_of, a, b, last + 1)
                            while met != e:
                                last = met
                                met = list_merge_first_common_event(events_of, a, b, last + 1)
                        by_slab.setdefault(last + 1, []).append((a, b))
        for slab, pairs in by_slab.items():
            starting.setdefault(slab, {})[e] = pairs
    return starting


def oracle_validate_tracing(ws: WaveSystem) -> None:
    """`validate_tracing` with every slab checked in full: each slab's live
    atoms are filtered from the previous slab's by `canc_event`, and its runs
    must concatenate to them."""
    ws._require_traced()
    tl, eps = ws.timeline, ws.epsilon
    checked = set()
    live = list(range(ws.atom_count))
    for s in range(len(tl.slabs)):
        if s:
            live = [a for a in live if ws.canc_event[a] != s - 1]
        if len(live) * eps != _tv(tl.slabs[s]):
            raise ConsistencyError("wave mass does not match front variation")
        runs = ws.runs(s)
        covered = [a for _, atoms in runs for a in atoms]
        if covered != live:
            raise ConsistencyError(f"slab {s}: live atoms not partitioned by fronts")
        for fid, atoms in runs:
            if fid in checked:
                continue
            checked.add(fid)
            fr = tl.fronts_by_id[fid]
            signs = {ws.sign[a] for a in atoms}
            if signs != {fr.sign}:
                raise ConsistencyError(f"front {fid}: sign mismatch")
            ks = sorted(ws.cell[a] for a in atoms)
            if ks != list(range(ks[0], ks[0] + len(ks))):
                raise ConsistencyError(f"front {fid}: states not contiguous")
            _, strength, u_lo, u_hi = front_kinematics(fr)
            if ks[0] * eps != u_lo or (ks[-1] + 1) * eps != u_hi:
                raise ConsistencyError(f"front {fid}: state span does not match its waves")
            if len(atoms) * eps != strength:
                raise ConsistencyError(f"front {fid}: mass mismatch")

    # per event, the atoms it cancels
    n = len(tl.events)
    canceled = [[] for _ in range(n)]
    for a, e in enumerate(ws.canc_event):
        if e is not None:
            if not 0 <= e < n:
                raise ConsistencyError(f"atom {a} names unknown event {e}")
            canceled[e].append(a)
    for e_idx, ev in enumerate(tl.events):
        lost = len(canceled[e_idx]) * eps
        if lost != ev.canceled_mass:
            raise ConsistencyError(
                f"event {e_idx}: canceled wave mass {lost} != TV drop {ev.canceled_mass}"
            )
        outgoing = sorted(a for fr in ev.outgoing for a in ws.atoms_of[fr.fid])
        if len(outgoing) * eps != abs(ev.c - ev.a):
            raise ConsistencyError(f"event {e_idx}: survivor mass mismatch")
        incoming = sorted(a for fr in ev.incoming for a in ws.atoms_of[fr.fid])
        if sorted(outgoing + canceled[e_idx]) != incoming:
            raise ConsistencyError(
                f"event {e_idx}: survivors and casualties are not the atoms of its "
                "incoming fronts"
            )


def fraction_validate_tracing(ws: WaveSystem) -> None:
    """`validate_tracing` as it ran on `Fraction` spans and masses: each
    front's cells times epsilon against its lower and upper state and its
    strength (`front_kinematics`),
    and each event's wave masses against its `canceled_mass` and `|c - a|`.

    Precondition: `validate_timeline` has accepted the timeline, as in
    `run_simulation`, so slab s+1 is slab s with event s's incoming block
    replaced by its outgoing fronts.  Slab 0 is checked in full: its runs
    concatenate to every atom in id order, with the slab's mass.  Each event
    is then checked locally: its incoming atoms, in order and without those
    it cancels, are its outgoing atoms in order, and every atom it cancels is
    in the block (its survivors and casualties are its incoming atoms).  By
    induction every slab's runs concatenate to the atoms live there, in id
    order.  Each front's waves are checked once, in slab 0 or at the event
    that makes it: their signs, and their cells, in id order, against the
    cells the front crosses from its left state to its right one.
    """
    ws._require_traced()
    tl, eps = ws.timeline, ws.epsilon

    def check_fronts(fronts):
        for fr in fronts:
            fid, atoms = fr.fid, ws.atoms_of[fr.fid]
            signs = {ws.sign[a] for a in atoms}
            if signs != {fr.sign}:
                raise ConsistencyError(f"front {fid}: sign mismatch")
            ks = sorted(ws.cell[a] for a in atoms)
            if ks != list(range(ks[0], ks[0] + len(ks))):
                raise ConsistencyError(f"front {fid}: states not contiguous")
            _, strength, u_lo, u_hi = front_kinematics(fr)
            if ks[0] * eps != u_lo or (ks[-1] + 1) * eps != u_hi:
                raise ConsistencyError(f"front {fid}: state span does not match its waves")
            if len(atoms) * eps != strength:
                raise ConsistencyError(f"front {fid}: mass mismatch")
            # the cells the front crosses, from its left state to its right one
            k0, k1 = grid_index(fr.left, eps), grid_index(fr.right, eps)
            step = 1 if k1 > k0 else -1
            if [ws.cell[a] for a in atoms] != [min(k, k + step) for k in range(k0, k1, step)]:
                raise ConsistencyError(f"front {fid}: its waves do not cross its states in order")

    if [a for _, atoms in ws.runs(0) for a in atoms] != list(range(ws.atom_count)):
        raise ConsistencyError("slab 0: live atoms not partitioned by fronts")
    check_fronts(tl.slabs[0])

    # per event, the atoms it cancels
    n = len(tl.events)
    canceled = [[] for _ in range(n)]
    for a, e in enumerate(ws.canc_event):
        if e is not None:
            if not 0 <= e < n:
                raise ConsistencyError(f"atom {a} names unknown event {e}")
            canceled[e].append(a)
    for e_idx, ev in enumerate(tl.events):
        incoming = [a for fr in ev.incoming for a in ws.atoms_of[fr.fid]]
        kept = [a for a in incoming if ws.canc_event[a] != e_idx]
        outgoing = [a for fr in ev.outgoing for a in ws.atoms_of[fr.fid]]
        if kept != outgoing:
            raise ConsistencyError(
                f"slab {e_idx + 1}: live atoms not partitioned by fronts"
            )
        check_fronts(ev.outgoing)
        lost = len(canceled[e_idx]) * eps
        if lost != ev.canceled_mass:
            raise ConsistencyError(
                f"event {e_idx}: canceled wave mass {lost} != TV drop {ev.canceled_mass}"
            )
        if len(outgoing) * eps != abs(ev.c - ev.a):
            raise ConsistencyError(f"event {e_idx}: survivor mass mismatch")
        if sorted(outgoing + canceled[e_idx]) != incoming:
            raise ConsistencyError(
                f"event {e_idx}: survivors and casualties are not the atoms of its "
                "incoming fronts"
            )


def _fan_cells(fronts, eps):
    """The fid of the fan front that spans each state cell."""
    cell_to_fid = {}
    for fr in fronts:
        _, _, u_lo, u_hi = front_kinematics(fr)
        for k in range(grid_index(u_lo, eps), grid_index(u_hi, eps)):
            if k in cell_to_fid:
                raise ConsistencyError("outgoing fronts overlap in state")
            cell_to_fid[k] = fr.fid
    return cell_to_fid


def _assign_fan(atoms_of, cell, atoms, fronts, eps):
    """Give each front of a fan the atoms whose state cells it spans."""
    cell_to_fid = _fan_cells(fronts, eps)
    carried = {fr.fid: [] for fr in fronts}
    seen = set()
    for a in atoms:
        k = cell[a]
        if k not in cell_to_fid:
            raise ConsistencyError(f"no outgoing front covers state cell {k}")
        if k in seen:
            raise ConsistencyError(f"two surviving waves carry state cell {k}")
        seen.add(k)
        carried[cell_to_fid[k]].append(a)
    if len(seen) != len(cell_to_fid):
        raise ConsistencyError("outgoing front states not fully covered by waves")
    for fid, members in carried.items():
        atoms_of[fid] = tuple(members)


def cell_dict_trace(profile: Profile, epsilon, tl: Timeline):
    """(sign, cell, atoms_of, events_of, canc_event) of ``profile``'s atoms on
    ``tl``, the way `build_initial_waves` and `advance_tracing` made them
    before the chain walk: the atoms counted from the profile's total
    variation, slab 0's fronts grouped into fans by birth point, and each
    fan's atoms matched to its fronts through a dict from state cell to front
    and a set of the cells seen, which does not check their order."""
    eps = Fraction(epsilon)
    count = profile.total_variation() / eps
    if count.denominator != 1:
        raise InputError("profile variation is not a multiple of epsilon")
    sign, cell = [], []
    for u, v in zip(profile.values(), profile.values()[1:]):
        lo, hi = grid_index(min(u, v), eps), grid_index(max(u, v), eps)
        ks = range(lo, hi) if v > u else range(hi - 1, lo - 1, -1)
        sign += [1 if v > u else -1] * len(ks)
        cell += ks
    if len(cell) != count:
        raise ConsistencyError("atom construction lost mass")

    atoms_of = {}
    events_of, canc_event = [[] for _ in cell], [None] * len(cell)
    fans = {}
    for fr in tl.slabs[0]:
        fans.setdefault(fr.birth_x, []).append(fr)
    start = 0
    for fan in fans.values():
        width = len(_fan_cells(fan, eps))
        _assign_fan(atoms_of, cell, range(start, start + width), fan, eps)
        start += width
    for e_idx, ev in enumerate(tl.events):
        groups = [atoms_of[fr.fid] for fr in ev.incoming]
        kept, casualties = list(groups[0]), []
        for i, p, q, r in merge_steps(ev.chain_states):
            if (r > q) == (q > p):
                kept.extend(groups[i])
                continue
            lo, hi = grid_index(min(p, r), eps), grid_index(max(p, r), eps)
            pool, kept = [*kept, *groups[i]], []
            for a in pool:
                (kept if lo <= cell[a] < hi else casualties).append(a)
        for a in casualties:
            canc_event[a] = e_idx
        for a in kept:
            events_of[a].append(e_idx)
        _assign_fan(atoms_of, cell, kept, ev.outgoing, eps)
    return sign, cell, atoms_of, events_of, canc_event


def _take_atoms_by_state(atoms_of, cell, fronts, atoms, eps):
    """`tracing._take_atoms` on the fronts' `Fraction` states: each front's
    cells from `grid_index` of its left and right states."""
    start = 0
    if fronts:
        state, k0 = fronts[0].left, grid_index(fronts[0].left, eps)
    for fr in fronts:
        if fr.left != state:
            raise ConsistencyError(f"front {fr.fid}: its left state is not its neighbour's right")
        k1 = grid_index(fr.right, eps)
        cells = range(k0, k1) if k1 > k0 else range(k0 - 1, k1 - 1, -1)
        carried = atoms[start:start + len(cells)]
        if [cell[a] for a in carried] != [*cells]:
            raise ConsistencyError(f"front {fr.fid}: its waves do not cross its states in order")
        atoms_of[fr.fid] = tuple(carried)
        start, state, k0 = start + len(cells), fr.right, k1
    if start != len(atoms):
        raise ConsistencyError(f"waves left over after the fronts: {len(atoms) - start}")


def fraction_trace(ws: WaveSystem):
    """(atoms_of, events_of, canc_event) of ``ws``'s atoms on its timeline,
    the way `advance_tracing` made them on the fronts' `Fraction` states:
    the survival walk merges the chain's states and finds each cancelling
    step's cells with `grid_index` of its `Fraction` ends."""
    ws._require_traced()
    tl, eps, cell = ws.timeline, ws.epsilon, ws.cell
    atoms_of = {}
    events_of, canc_event = [[] for _ in cell], [None] * len(cell)
    _take_atoms_by_state(atoms_of, cell, tl.slabs[0], range(len(cell)), eps)
    for e_idx, ev in enumerate(tl.events):
        groups = [atoms_of[fr.fid] for fr in ev.incoming]
        survivors, casualties = list(groups[0]), []
        for i, p, q, r in merge_steps(ev.chain_states):
            if (r > q) == (q > p):
                survivors.extend(groups[i])
                continue
            lo, hi = grid_index(min(p, r), eps), grid_index(max(p, r), eps)
            kept = []
            for a in [*survivors, *groups[i]]:
                (kept if lo <= cell[a] < hi else casualties).append(a)
            survivors = kept
        for a in casualties:
            canc_event[a] = e_idx
        for a in survivors:
            events_of[a].append(e_idx)
        _take_atoms_by_state(atoms_of, cell, ev.outgoing, survivors, eps)
    return atoms_of, events_of, canc_event


# -- potentials at a time ------------------------------------------------------------


def quadratic_potential(ws: WaveSystem, t_bar, side="post") -> Fraction:
    """Q at time t_bar (the constant value of the surrounding open slab).

    ``side`` picks the one-sided limit at event instants (see `slab_index`).
    """
    ws._require_traced()
    s = slab_index(ws.timeline, Fraction(t_bar), side)
    return _SlabPotential(ws, curvature_constant(ws.timeline.flux)).q_of_slab(s)


def bianchini_cubic(ws: WaveSystem, t_bar, side="post") -> Fraction:
    """Cubic speed-spread diagnostic: sum over pairs of |speed gap| dw dw'."""
    ws._require_traced()
    s = slab_index(ws.timeline, Fraction(t_bar), side)
    return _bianchini_of_slab(ws)[s][0]


# -- structural checks ---------------------------------------------------------------


def maximal_noncontact_interval(flux: GridFlux, a, b, d_j) -> Fraction:
    """First grid point at or beyond b where the hull of the flux on [a, d_j]
    touches the flux samples; d_j itself if the hull leaves the samples
    strictly above everywhere before it."""
    a, b, d_j = Fraction(a), Fraction(b), Fraction(d_j)
    if not a < b <= d_j:
        raise InputError("need a < b <= d_j")
    k_a, k_hi = flux.index_of(a), flux.index_of(d_j)
    hull = envelope(flux, k_a, k_hi, 1)
    k_b = grid_index(b, flux.epsilon)
    for k in range(k_b, k_hi + 1):
        u = k * flux.epsilon
        if value_at(flux, hull, u) == flux.value_at_index(flux.index_of(u)):
            return u
    raise ConsistencyError("hull does not touch its own right endpoint")


def cancellation_weight_stability(tl: Timeline, ws: WaveSystem, flux: GridFlux,
                                  K=None) -> list:
    """Across each cancellation: cross pairs (one wave outside the surviving
    jump, one inside) keep their weight when their classification persists,
    and pairs fully inside come out with zero weight.  Returns violations."""
    if K is None:
        K = curvature_constant(flux)
    bad = []
    for e, ev in enumerate(tl.events):
        if ev.kind != CANCELLATION:
            continue
        s_pre, s_post = e, e + 1
        kept = set(survivors(ws, e))
        live_post = live_atoms(ws, s_post)
        for i, a in enumerate(live_post):
            for b in live_post[i + 1:]:
                a_in, b_in = a in kept, b in kept
                if not (a_in or b_in):
                    continue
                post = _pair_weight_in_slab(ws, s_post, a, b, K, flux)
                if a_in and b_in:
                    if post.q != 0:
                        bad.append((e, a, b, "inside pair kept weight"))
                    continue
                pre = _pair_weight_in_slab(ws, s_pre, a, b, K, flux)
                if pre.classification == post.classification and pre.q != post.q:
                    bad.append((e, a, b, "cross pair weight changed"))
    return bad


def fundamental_property_violations(ws: WaveSystem, flux: GridFlux, K=None) -> list:
    """For wave triples w <= w' <= w'': equal right meeting intervals for
    (w, w') and (w, w'') force equal left meeting intervals.  Exhaustive
    over live atom triples of every slab; returns violations."""
    if K is None:
        K = curvature_constant(ws.timeline.flux)
    bad = []
    for s in range(len(ws.timeline.slabs)):
        live = live_atoms(ws, s)
        # precompute the meeting intervals of every generic pair once
        j_sets = {}
        for i, a in enumerate(live):
            for b in live[i + 1:]:
                rec = _pair_weight_in_slab(ws, s, a, b, K, flux)
                if rec.classification == GENERIC:
                    j_sets[(a, b)] = (rec.j_left.atoms, rec.j_right.atoms)
        for i, a in enumerate(live):
            for j in range(i + 1, len(live)):
                ab = j_sets.get((a, live[j]))
                if ab is None:
                    continue
                for k in range(j + 1, len(live)):
                    ac = j_sets.get((a, live[k]))
                    if ac is None:
                        continue
                    if ab[1] == ac[1] and ab[0] != ac[0]:
                        bad.append((s, a, live[j], live[k]))
    return bad


# -- single-wave queries ---------------------------------------------------------------


@dataclass(frozen=True)
class InteractionAnswer:
    status: str  # "same_position" | "meets" | "never"
    t: object = None
    x: object = None


def position_of(ws: WaveSystem, t: Fraction, w: Fraction) -> Fraction:
    """X(t, w): the carrying front's position."""
    ws._require_traced()
    t = Fraction(t)
    a = atom_of(ws, w)
    tc = t_canc(ws, a)
    if tc is not None and tc <= t:
        raise InputError(f"wave {w} was canceled at t={tc}")
    s = slab_index(ws.timeline, t, "pre")
    return front_of(ws, a, s).position_at(t)


def interaction_query(ws: WaveSystem, t_bar, w, w_prime) -> InteractionAnswer:
    """Will the two waves share a position after t_bar, and where first?"""
    ws._require_traced()
    t_bar = Fraction(t_bar)
    a, b = atom_of(ws, w), atom_of(ws, w_prime)
    for atom in (a, b):
        tc = t_canc(ws, atom)
        if tc is not None and tc <= t_bar:
            raise InputError("wave not live at the query time")
    s = slab_index(ws.timeline, t_bar, "pre")
    pa = front_of(ws, a, s).position_at(t_bar)
    pb = front_of(ws, b, s).position_at(t_bar)
    if pa == pb:
        return InteractionAnswer("same_position", t_bar, pa)
    e = first_common_event(ws, a, b, after_slab=ws.timeline.slab_index_at(t_bar))
    if e is None:
        return InteractionAnswer("never")
    ev = ws.timeline.events[e]
    return InteractionAnswer("meets", ev.t, ev.x)


def state_consistency_holds(tl: Timeline, ws: WaveSystem, t, x) -> bool:
    """Closure/measure form of the jump-state identity at one point:
    the wave states at (t, x) fill the one-sided profile jump there."""
    t, x = Fraction(t), Fraction(x)
    interval = waves_at(ws, t, x)
    post = profile_at(tl, t)
    u_minus = _left_limit(post, x)
    u_plus = profile_value_at(post, x)
    if u_minus == u_plus:
        return interval.is_empty
    lo, hi = min(u_minus, u_plus), max(u_minus, u_plus)
    return (
        interval.state_lo == lo
        and interval.state_hi == hi
        and interval.measure == hi - lo
    )


def _left_limit(profile: Profile, x: Fraction) -> Fraction:
    v = profile.constant_state
    for xj, vj in profile.jumps:
        if xj < x:
            v = vj
        else:
            break
    return v


# -- per-slab cell table ---------------------------------------------------------------


def cells(ws: WaveSystem, s: int):
    """The slab's live waves as maximal WaveCells (atoms merge when they
    are really contiguous, share the front, and chain states)."""
    out = []
    for fid, atoms in ws.runs(s):
        start = 0
        for i in range(1, len(atoms) + 1):
            contiguous = (
                i < len(atoms)
                and atoms[i] == atoms[i - 1] + 1
                and ws.cell[atoms[i]] == ws.cell[atoms[i - 1]] + ws.sign[atoms[i]]
            )
            if not contiguous:
                chunk = atoms[start:i]
                ks = [ws.cell[a] for a in chunk]
                out.append(
                    WaveCell(
                        w_lo=atom_w_lo(ws, chunk[0]),
                        w_hi=atom_w_hi(ws, chunk[-1]),
                        sign=ws.sign[chunk[0]],
                        state_lo=min(ks) * ws.epsilon,
                        state_hi=(max(ks) + 1) * ws.epsilon,
                        atoms=tuple(chunk),
                    )
                )
                start = i
    return out


def debug_dump(ws: WaveSystem) -> dict:
    """Per-slab cell table used by golden tests."""
    ws._require_traced()
    tl = ws.timeline
    slabs = []
    for s in range(len(tl.slabs)):
        t_lo, t_hi = tl.slab_bounds(s)
        rows = []
        for cell in cells(ws, s):
            fid = fid_of(ws, cell.atoms[0], s)
            fr = tl.fronts_by_id[fid]
            rows.append(
                {
                    "range": [str(cell.w_lo), str(cell.w_hi)],
                    "sign": SIGN_NAMES[cell.sign],
                    "state_range": [str(cell.state_lo), str(cell.state_hi)],
                    "front": fid,
                    "x_at_slab_start": str(fr.position_at(t_lo)),
                    "speed": str(fr.speed),
                }
            )
        slabs.append(
            {
                "t_lo": str(t_lo),
                "t_hi": None if t_hi is None else str(t_hi),
                "cells": rows,
            }
        )
    return {"epsilon": str(ws.epsilon), "atoms": ws.atom_count, "slabs": slabs}

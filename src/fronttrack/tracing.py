"""Wave bookkeeping on top of a completed Timeline.

The initial total variation TV is split into A = TV/epsilon *atoms*: half-open
wave intervals (i*eps, (i+1)*eps], each with a fixed sign and a fixed state
cell on the grid (states never change; only positions and front membership
do).  Atoms are the finest unit the construction ever needs, because every
envelope breakpoint and every survival cutoff lies on the state grid, so no
event ever splits an atom.

`advance_tracing` walks the events once and records, per atom, the carrying
front in every slab, the events the atom sat at and survived, and the
cancellation event if any.  Those participation lists answer every
"will these two waves meet again, and who will be there" query exactly,
which is all the interaction potential needs.
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, InputError
from .rationals import grid_index
from .tracker import Profile, Timeline

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


class WaveSystem:
    """Atom-level tracing state; built by build_initial_waves + advance_tracing."""

    def __init__(self, epsilon: Fraction, profile: Profile):
        self.epsilon = epsilon
        self.profile = profile
        tv = profile.total_variation()
        count = tv / epsilon
        if count.denominator != 1:
            raise InputError("profile variation is not a multiple of epsilon")
        self.atom_count = count.numerator
        self.total_variation = tv

        self.sign = []
        self.cell = []  # state cell lower grid index; states span [k*eps, (k+1)*eps]
        self.jump_of = []  # index of the initial jump the atom belongs to
        self.x0 = []  # initial position (the jump point)
        prev_v = profile.constant_state
        for j, (x, v) in enumerate(profile.jumps):
            sign = 1 if v > prev_v else -1
            lo_idx = grid_index(min(prev_v, v), epsilon)
            hi_idx = grid_index(max(prev_v, v), epsilon)
            cells = range(lo_idx, hi_idx) if sign > 0 else range(hi_idx - 1, lo_idx - 1, -1)
            for k in cells:
                self.sign.append(sign)
                self.cell.append(k)
                self.jump_of.append(j)
                self.x0.append(x)
            prev_v = v
        if len(self.sign) != self.atom_count:
            raise ConsistencyError("atom construction lost mass")

        # populated by advance_tracing
        self.timeline = None
        self.fid_by_slab = []  # per slab: list of fid per atom (-1 = dead)
        self.events_of = [[] for _ in range(self.atom_count)]
        self.canc_event = [None] * self.atom_count
        self.survivors_by_event = []  # ordered atom ids per event
        self.survivor_sets = []
        self.casualties_by_event = []
        self._live_cache = {}
        self._runs_cache = {}

    # -- fixed wave geometry -------------------------------------------------

    def atom_w_lo(self, a: int) -> Fraction:
        return a * self.epsilon

    def atom_w_hi(self, a: int) -> Fraction:
        return (a + 1) * self.epsilon

    def atom_of(self, w: Fraction) -> int:
        """Atom containing the wave coordinate w in (0, TV]."""
        w = Fraction(w)
        if not 0 < w <= self.total_variation:
            raise InputError(f"wave coordinate {w} outside (0, {self.total_variation}]")
        q = w / self.epsilon
        a = q.numerator // q.denominator  # floor
        if q.denominator == 1:
            a -= 1
        return a

    def state_of(self, w: Fraction) -> Fraction:
        """The state map: constant_state plus the signed integral of the sign."""
        a = self.atom_of(w)
        lo = self.cell[a] * self.epsilon
        offset = Fraction(w) - self.atom_w_lo(a)
        return (lo + offset) if self.sign[a] > 0 else (lo + self.epsilon - offset)

    # -- per-slab structure ----------------------------------------------------

    def _require_traced(self):
        if self.timeline is None:
            raise InputError("wave system has no trajectory data; run advance_tracing")

    def t_canc(self, a: int):
        self._require_traced()
        e = self.canc_event[a]
        return None if e is None else self.timeline.events[e].t

    def alive_in_slab(self, a: int, s: int) -> bool:
        e = self.canc_event[a]
        return e is None or e >= s

    def live_atoms(self, s: int):
        self._require_traced()
        if s not in self._live_cache:
            self._live_cache[s] = [
                a for a in range(self.atom_count) if self.alive_in_slab(a, s)
            ]
        return self._live_cache[s]

    def fid_of(self, a: int, s: int) -> int:
        return self.fid_by_slab[s][a]

    def front_of(self, a: int, s: int):
        return self.timeline.fronts_by_id[self.fid_by_slab[s][a]]

    def runs(self, s: int):
        """Maximal consecutive same-front runs of the live atoms of slab s."""
        self._require_traced()
        if s not in self._runs_cache:
            runs = []
            cur_fid, cur = None, []
            for a in self.live_atoms(s):
                fid = self.fid_by_slab[s][a]
                if fid == cur_fid:
                    cur.append(a)
                else:
                    if cur:
                        runs.append((cur_fid, cur))
                    cur_fid, cur = fid, [a]
            if cur:
                runs.append((cur_fid, cur))
            self._runs_cache[s] = runs
        return self._runs_cache[s]

    def atoms_of_front(self, s: int, fid: int):
        return [a for f, atoms in self.runs(s) if f == fid for a in atoms]

    def interval_of(self, atoms) -> WaveInterval:
        """Package an atom list as a WaveInterval, checking sign constancy."""
        if not atoms:
            return WaveInterval((), (), 0, Fraction(0), Fraction(0))
        sign = self.sign[atoms[0]]
        if any(self.sign[a] != sign for a in atoms):
            raise ConsistencyError("wave interval mixes signs")
        intervals = []
        start = prev = atoms[0]
        for a in atoms[1:]:
            if a != prev + 1:
                intervals.append((self.atom_w_lo(start), self.atom_w_hi(prev)))
                start = a
            prev = a
        intervals.append((self.atom_w_lo(start), self.atom_w_hi(prev)))
        ks = [self.cell[a] for a in atoms]
        return WaveInterval(
            tuple(atoms),
            tuple(intervals),
            sign,
            min(ks) * self.epsilon,
            (max(ks) + 1) * self.epsilon,
        )


def build_initial_waves(profile: Profile, epsilon) -> WaveSystem:
    """The time-zero wave layer: atoms with signs, states and jump positions."""
    return WaveSystem(Fraction(epsilon), profile)


def _assign_fan(ws, atoms, fronts, out, eps):
    """Assign each atom to the front whose state range contains its cell."""
    cell_to_fid = {}
    for fr in fronts:
        lo = grid_index(fr.u_lo, eps)
        hi = grid_index(fr.u_hi, eps)
        for k in range(lo, hi):
            if k in cell_to_fid:
                raise ConsistencyError("outgoing fronts overlap in state")
            cell_to_fid[k] = fr.fid
    seen = set()
    for a in atoms:
        k = ws.cell[a]
        if k not in cell_to_fid:
            raise ConsistencyError(f"no outgoing front covers state cell {k}")
        if k in seen:
            raise ConsistencyError(f"two surviving waves carry state cell {k}")
        seen.add(k)
        out[a] = cell_to_fid[k]
    if len(seen) != len(cell_to_fid):
        raise ConsistencyError("outgoing front states not fully covered by waves")


def advance_tracing(ws: WaveSystem, tl: Timeline) -> WaveSystem:
    """Populate per-slab front membership, survivals and cancellations."""
    if ws.timeline is not None:
        raise InputError("wave system already traced")
    eps = ws.epsilon
    ws.timeline = tl

    # slab 0: distribute each initial jump's atoms over its Riemann fan
    fid0 = [-1] * ws.atom_count
    by_jump = {}
    for a in range(ws.atom_count):
        by_jump.setdefault(ws.jump_of[a], []).append(a)
    fans = {}
    for fr in tl.slabs[0].fronts:
        fans.setdefault((fr.birth_x), []).append(fr)
    for j, (x, _) in enumerate(tl.initial_profile.jumps):
        _assign_fan(ws, by_jump.get(j, []), fans.get(x, []), fid0, eps)
    ws.fid_by_slab.append(fid0)

    atoms_of_fid = {}
    for a, fid in enumerate(fid0):
        atoms_of_fid.setdefault(fid, []).append(a)

    for e_idx, ev in enumerate(tl.events):
        groups = [list(atoms_of_fid.get(fr.fid, [])) for fr in ev.incoming]
        states = ev.chain_states
        if (states[0], states[-1]) != (ev.a, ev.c):
            raise ConsistencyError("merged jump does not match the event record")

        # survival is decided by state membership in the running merged jump,
        # which stays sign-pure at every step; once it cancels out (p == q)
        # the next front's atoms all lie in [p, r) and survive
        survivors = groups[0]
        casualties = []
        for i, p, q, r in ev.merge_steps():
            if (r > q) == (q > p):
                survivors.extend(groups[i])
                continue
            lo = grid_index(min(p, r), eps)
            hi = grid_index(max(p, r), eps)
            kept = []
            for a in survivors + groups[i]:
                if lo <= ws.cell[a] < hi:
                    kept.append(a)
                else:
                    casualties.append(a)
            survivors = kept

        for a in casualties:
            ws.canc_event[a] = e_idx
        for a in survivors:
            ws.events_of[a].append(e_idx)
        ws.survivors_by_event.append(survivors)
        ws.survivor_sets.append(frozenset(survivors))
        ws.casualties_by_event.append(casualties)

        nxt = list(ws.fid_by_slab[-1])
        for fr in ev.incoming:
            atoms_of_fid.pop(fr.fid, None)
        for a in casualties:
            nxt[a] = -1
        _assign_fan(ws, survivors, ev.outgoing, nxt, eps)
        for fr in ev.outgoing:
            atoms_of_fid[fr.fid] = [a for a in survivors if nxt[a] == fr.fid]
        ws.fid_by_slab.append(nxt)
    return ws


# -- queries -------------------------------------------------------------------


def sigma(ws: WaveSystem, t: Fraction, w: Fraction) -> Fraction:
    """Forward speed of the wave at time t (the outgoing speed at event instants)."""
    ws._require_traced()
    t = Fraction(t)
    a = ws.atom_of(w)
    tc = ws.t_canc(a)
    if tc is not None and tc <= t:
        raise InputError(f"wave {w} was canceled at t={tc}")
    s = ws.timeline.slab_index_at(t, side="pre")
    slab = ws.timeline.slabs[s]
    if slab.t_hi is not None and t == slab.t_hi and a in ws.survivor_sets[s]:
        return ws.front_of(a, s + 1).speed
    return ws.front_of(a, s).speed


def waves_at(ws: WaveSystem, t: Fraction, x: Fraction) -> WaveInterval:
    """W(t, x): all live waves positioned at x, as a WaveInterval."""
    ws._require_traced()
    t, x = Fraction(t), Fraction(x)
    s = ws.timeline.slab_index_at(t, side="pre")
    found = []
    for fid, atoms in ws.runs(s):
        if ws.timeline.fronts_by_id[fid].position_at(t) == x:
            for a in atoms:
                tc = ws.t_canc(a)
                if tc is None or tc > t:
                    found.append(a)
    return ws.interval_of(found)


def first_common_event(ws, a: int, b: int, after_slab: int = 0):
    """Earliest event at or after ``after_slab`` that both atoms sit at and
    survive (event e separates slabs e and e+1)."""
    ea, eb = ws.events_of[a], ws.events_of[b]
    i, j = bisect_left(ea, after_slab), bisect_left(eb, after_slab)
    while i < len(ea) and j < len(eb):
        if ea[i] == eb[j]:
            return ea[i]
        if ea[i] < eb[j]:
            i += 1
        else:
            j += 1
    return None


# -- validation ----------------------------------------------------------------


def validate_tracing(tl: Timeline, ws: WaveSystem) -> None:
    """Exact structural checks tying waves to fronts; raises on failure."""
    eps = ws.epsilon
    for s, slab in enumerate(tl.slabs):
        runs = ws.runs(s)
        run_fids = [fid for fid, _ in runs]
        slab_fids = [fr.fid for fr in slab.fronts]
        if run_fids != slab_fids:
            raise ConsistencyError(
                f"slab {s}: wave runs {run_fids} do not match fronts {slab_fids}"
            )
        covered = [a for _, atoms in runs for a in atoms]
        if covered != ws.live_atoms(s):
            raise ConsistencyError(f"slab {s}: live atoms not partitioned by fronts")
        for fid, atoms in runs:
            fr = tl.fronts_by_id[fid]
            signs = {ws.sign[a] for a in atoms}
            if signs != {fr.sign}:
                raise ConsistencyError(f"slab {s}: sign mismatch on front {fid}")
            ks = sorted(ws.cell[a] for a in atoms)
            if ks != list(range(ks[0], ks[0] + len(ks))):
                raise ConsistencyError(f"slab {s}: front {fid} states not contiguous")
            if ks[0] * eps != fr.u_lo or (ks[-1] + 1) * eps != fr.u_hi:
                raise ConsistencyError(
                    f"slab {s}: front {fid} state span does not match its waves"
                )
            if len(atoms) * eps != fr.strength:
                raise ConsistencyError(f"slab {s}: front {fid} mass mismatch")

    for e_idx, ev in enumerate(tl.events):
        lost = len(ws.casualties_by_event[e_idx]) * eps
        if lost != ev.canceled_mass:
            raise ConsistencyError(
                f"event {e_idx}: canceled wave mass {lost} != TV drop {ev.canceled_mass}"
            )
        kept = len(ws.survivors_by_event[e_idx]) * eps
        if kept != abs(ev.c - ev.a):
            raise ConsistencyError(f"event {e_idx}: survivor mass mismatch")

"""Wave bookkeeping on top of a completed Timeline.

The initial total variation TV is split into A = TV/epsilon *atoms*: half-open
wave intervals (i*eps, (i+1)*eps], each with a fixed sign and a fixed state
cell on the grid (states never change; only positions and front membership
do).  Atoms are the finest unit the construction ever needs, because every
envelope breakpoint and every survival cutoff lies on the state grid, so no
event ever splits an atom.

`advance_tracing` walks the events once and records the atoms each front
carries (fixed from the front's birth to the event that ends it), the events
each atom sat at and survived, and the cancellation event if any.  Those
participation lists answer every "will these two waves meet again, and who
will be there" query exactly, which is all the interaction potential needs.
They are the only survival record, and only this module reads them: the
potential asks `first_common_event` and `meeting_cells`, and
`validate_tracing` checks the same lists against the timeline, slab 0 in
full and then event by event.

Atoms keep their order (the wave tracing of Bressan, ch. 7): along a chain of
fronts, left to right, the atoms in id order cross the state cells in the
order the chain traverses them, from its left state to its right one.  So
slab 0's fronts, one chain over every initial jump, take the atoms in id
order, and each event's outgoing fan takes its survivors the same way, each
front one atom per state cell it spans; one list comparison per front checks
that those atoms' cells are the front's cells in traversal order
(`_take_atoms`).  An atom's initial jump is not stored.

The walk reads states only as the grid indices each front carries from its
birth (`Front.k_left`, `Front.k_right`): the cells a front crosses are an
integer range, and an event's survival walk runs on its chain of indices
(`InteractionEvent.chain_indices`), the one the speed change reads.
`validate_tracing` does not read them; it derives its own from the fronts'
states (`grid_coordinate`), once per front, and counts spans and masses in
cells.
"""

from bisect import bisect_left
from fractions import Fraction

from .errors import ConsistencyError, InputError
from .rationals import grid_coordinate, grid_index
from .tracker import Profile, Timeline, merge_steps


class WaveSystem:
    """Atom-level tracing state; built by build_initial_waves + advance_tracing."""

    def __init__(self, epsilon: Fraction, profile: Profile):
        self.epsilon = epsilon
        self.sign = []
        self.cell = []  # state cell lower grid index; states span [k*eps, (k+1)*eps]
        # an off-grid state raises InputError; with no jumps there is no state
        # to place, the constant one included
        ks = [grid_index(u, epsilon) for u in profile.values()] if profile.jumps else []
        for k0, k1 in zip(ks, ks[1:]):
            cells = _cells(k0, k1)
            self.sign += [1 if k1 > k0 else -1] * len(cells)
            self.cell += cells
        self.atom_count = len(self.cell)

        # populated by advance_tracing
        self.timeline = None
        self.atoms_of = {}  # fid -> atom ids the front carries, increasing
        self.events_of = [[] for _ in range(self.atom_count)]
        self.canc_event = [None] * self.atom_count

    def _require_traced(self):
        if self.timeline is None:
            raise InputError("wave system has no trajectory data; run advance_tracing")

    def runs(self, s: int):
        """(fid, atoms) of each front of slab s, left to right."""
        self._require_traced()
        return [(fr.fid, self.atoms_of[fr.fid]) for fr in self.timeline.slabs[s]]


def build_initial_waves(profile: Profile, epsilon) -> WaveSystem:
    """The time-zero wave layer: atoms with signs and states, jump by jump."""
    return WaveSystem(Fraction(epsilon), profile)


def _cells(k0: int, k1: int) -> range:
    """The state cells a jump from grid index k0 to k1 crosses, in traversal
    order (cell k spans [k*eps, (k+1)*eps])."""
    return range(k0, k1) if k1 > k0 else range(k0 - 1, k1 - 1, -1)


def _take_atoms(ws, fronts, atoms):
    """Give each of ``fronts``, a chain left to right, the next of ``atoms``
    in id order, one per state cell it spans: their cells must be the
    front's cells from its left state to its right one (the grid indices it
    carries), and no atom may be left over."""
    cell = ws.cell
    start = 0
    if fronts:
        k0 = fronts[0].k_left
    for fr in fronts:
        if fr.k_left != k0:
            raise ConsistencyError(f"front {fr.fid}: its left state is not its neighbour's right")
        k1 = fr.k_right
        cells = _cells(k0, k1)
        carried = atoms[start:start + len(cells)]
        if [cell[a] for a in carried] != [*cells]:
            raise ConsistencyError(f"front {fr.fid}: its waves do not cross its states in order")
        ws.atoms_of[fr.fid] = tuple(carried)
        start, k0 = start + len(cells), k1
    if start != len(atoms):
        raise ConsistencyError(f"waves left over after the fronts: {len(atoms) - start}")


def advance_tracing(ws: WaveSystem, tl: Timeline) -> WaveSystem:
    """Record each front's atoms at its birth, and survivals and cancellations."""
    if ws.timeline is not None:
        raise InputError("wave system already traced")
    ws.timeline = tl
    _take_atoms(ws, tl.slabs[0], range(ws.atom_count))

    for e_idx, ev in enumerate(tl.events):
        groups = [ws.atoms_of[fr.fid] for fr in ev.incoming]
        # survival is decided by state membership in the running merged jump,
        # which stays sign-pure at every step; once it cancels out (p == q)
        # the next front's atoms all lie in [p, r) and survive.  The walk
        # runs on the event's chain of grid indices, as `delta_sigma` does.
        survivors = list(groups[0])
        casualties = []
        for i, p, q, r in merge_steps(ev.chain_indices):
            if (r > q) == (q > p):
                survivors.extend(groups[i])
                continue
            lo, hi = (p, r) if p < r else (r, p)
            kept = []
            for a in [*survivors, *groups[i]]:
                if lo <= ws.cell[a] < hi:
                    kept.append(a)
                else:
                    casualties.append(a)
            survivors = kept

        for a in casualties:
            ws.canc_event[a] = e_idx
        for a in survivors:
            ws.events_of[a].append(e_idx)
        _take_atoms(ws, ev.outgoing, survivors)
    return ws


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


def meeting_cells(ws, fid: int, e: int):
    """Grid cells [lo, hi) and sign of the waves front ``fid`` carries into
    event e: its atoms that sit at and survive that event."""
    atoms = [a for a in ws.atoms_of[fid] if e in ws.events_of[a]]
    sign = ws.sign[atoms[0]]
    if any(ws.sign[a] != sign for a in atoms):
        raise ConsistencyError("wave interval mixes signs")
    ks = sorted(ws.cell[a] for a in atoms)
    if ks != list(range(ks[0], ks[0] + len(ks))):
        raise ConsistencyError("meeting interval has non-contiguous states")
    return ks[0], ks[-1] + 1, sign


# -- validation ----------------------------------------------------------------


def validate_tracing(ws: WaveSystem) -> None:
    """Exact structural checks tying waves to their timeline's fronts; raises
    on failure.

    Precondition: `validate_timeline` has accepted the timeline, as in
    `run_simulation`, so slab s+1 is slab s with event s's incoming block
    replaced by its outgoing fronts.  Slab 0 is checked in full: its runs
    concatenate to every atom in id order, so with each front's mass checked
    the waves' mass is the slab's total variation.  Each event
    is then checked locally: its incoming atoms, in order and without those
    it cancels, are its outgoing atoms in order, and every atom it cancels is
    in the block (its survivors and casualties are its incoming atoms).  By
    induction every slab's runs concatenate to the atoms live there, in id
    order.  Each front's waves are checked once, in slab 0 or at the event
    that makes it: their signs, and their cells, in id order, against the
    cells the front crosses from its left state to its right one.

    The checks run on integers: each front's states become grid coordinates
    (`grid_coordinate`) once, when it is checked, and every span and mass is
    a count of cells.  The carried indices are not read.
    """
    ws._require_traced()
    tl, eps = ws.timeline, ws.epsilon
    coords = {}  # fid -> (k_left, k_right) of each checked front

    def check_fronts(fronts):
        for fr in fronts:
            fid, atoms = fr.fid, ws.atoms_of[fr.fid]
            signs = {ws.sign[a] for a in atoms}
            if signs != {fr.sign}:
                raise ConsistencyError(f"front {fid}: sign mismatch")
            ks = sorted(ws.cell[a] for a in atoms)
            if ks != list(range(ks[0], ks[0] + len(ks))):
                raise ConsistencyError(f"front {fid}: states not contiguous")
            k0, k1 = grid_coordinate(fr.left, eps), grid_coordinate(fr.right, eps)
            lo, hi = (k0, k1) if k0 < k1 else (k1, k0)
            if ks[0] != lo or ks[-1] + 1 != hi:
                raise ConsistencyError(f"front {fid}: state span does not match its waves")
            if len(atoms) != hi - lo:
                raise ConsistencyError(f"front {fid}: mass mismatch")
            # the cells the front crosses, from its left state to its right one
            step = 1 if k1 > k0 else -1
            if [ws.cell[a] for a in atoms] != [min(k, k + step) for k in range(k0, k1, step)]:
                raise ConsistencyError(f"front {fid}: its waves do not cross its states in order")
            coords[fid] = k0, k1

    if [a for _, atoms in ws.runs(0) for a in atoms] != list(range(ws.atom_count)):
        raise ConsistencyError("slab 0: live atoms not partitioned by fronts")
    check_fronts(tl.slabs[0])

    # per event, the atoms that sit at and survive it, and those it cancels
    n = len(tl.events)
    survived, canceled = [[] for _ in range(n)], [[] for _ in range(n)]
    for a in range(ws.atom_count):
        events = ws.events_of[a]
        if any(e >= f for e, f in zip(events, events[1:])):
            raise ConsistencyError(f"atom {a}: survived events not increasing")
        marks = [(survived, e) for e in events]
        if ws.canc_event[a] is not None:
            marks.append((canceled, ws.canc_event[a]))
        for lists, e in marks:
            if not 0 <= e < n:
                raise ConsistencyError(f"atom {a} names unknown event {e}")
            lists[e].append(a)
    for e_idx, ev in enumerate(tl.events):
        incoming = [a for fr in ev.incoming for a in ws.atoms_of[fr.fid]]
        kept = [a for a in incoming if ws.canc_event[a] != e_idx]
        outgoing = [a for fr in ev.outgoing for a in ws.atoms_of[fr.fid]]
        if kept != outgoing:
            raise ConsistencyError(
                f"slab {e_idx + 1}: live atoms not partitioned by fronts"
            )
        check_fronts(ev.outgoing)
        in_ks = [coords[fr.fid] for fr in ev.incoming]
        merged = abs(in_ks[-1][1] - in_ks[0][0])  # |c - a| in atoms
        if len(canceled[e_idx]) != sum(abs(k1 - k0) for k0, k1 in in_ks) - merged:
            lost = len(canceled[e_idx]) * eps
            raise ConsistencyError(
                f"event {e_idx}: canceled wave mass {lost} != TV drop {ev.canceled_mass}"
            )
        if len(survived[e_idx]) != merged:
            raise ConsistencyError(f"event {e_idx}: survivor mass mismatch")
        if survived[e_idx] != outgoing:
            raise ConsistencyError(
                f"event {e_idx}: survivors are not the atoms of its outgoing fronts"
            )
        if sorted(survived[e_idx] + canceled[e_idx]) != incoming:
            raise ConsistencyError(
                f"event {e_idx}: survivors and casualties are not the atoms of its "
                "incoming fronts"
            )

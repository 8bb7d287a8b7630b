"""Interaction accounting: speed changes, pair weights, and the potentials.

The speed change of an interaction is an envelope-slope integral over the
states involved; with grid-aligned states it is an exact finite sum over
state cells.  Each ordered pair of waves (w < w') carries a weight q:

* K (the flux curvature constant) when the live waves between them mix signs,
* 0 when they share a position or will never share one,
* pi/d otherwise, where d is the mass of the waves present at the pair's
  first future meeting and pi is the positive part of the gap between the
  entropic speeds the meeting assigns to w and w'.

Q(t) integrates q over ordered pairs; it is constant between events, drops
at events, and its drop at a same-sign interaction dominates half the speed
change there.  Everything is evaluated per slab at atom granularity, where
all quantities are piecewise constant, so the double integral is an exact
finite sum.  Adding K * TV(initial) * TV(current) yields the combined
functionals (`upsilon`); the variant with the Q term doubled is the one
whose event drops dominate the full speed change.

All classifications look only forward in time: they depend on front
membership in the current slab and on the event list from the slab onward,
never on how the profile got there.  The restart checks in `verify_run`
exercise exactly that property.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .envelope import GridFlux, curvature_constant, envelope
from .errors import ConsistencyError, InputError
from .rationals import grid_index
from .tracker import SAME_SIGN, InteractionEvent, Timeline, evolve, profile_at
from .tracing import (
    WaveSystem, advance_tracing, build_initial_waves, first_common_event, meeting_cells,
)


# -- speed change ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _cell_slopes(flux: GridFlux, lo: int, hi: int, sign: int):
    """Envelope slope on each state cell k in [lo, hi) for the given sign."""
    env = envelope(flux, lo * flux.epsilon, hi * flux.epsilon, sign)
    out = {}
    for x0, x1, s in env.pieces():
        for k in range(grid_index(x0, flux.epsilon), grid_index(x1, flux.epsilon)):
            out[k] = s
    return out


def _slope_gap_integral(flux, span_a, span_b, over, sign):
    """Integral over ``over`` of |envelope-slope(span_a) - envelope-slope(span_b)|."""
    sa = _cell_slopes(flux, *span_a, sign)
    sb = _cell_slopes(flux, *span_b, sign)
    total = Fraction(0)
    for k in range(*over):
        total += abs(sa[k] - sb[k])
    return total * flux.epsilon


def _span(u, v, flux):
    """Grid index range (lo, hi) of the states between u and v."""
    return tuple(sorted((grid_index(u, flux.epsilon), grid_index(v, flux.epsilon))))


def _same_sign_triple(a, b, c, flux) -> Fraction:
    """Each part's envelope slopes against the whole jump's, over the part."""
    if not (a < b < c or a > b > c):
        raise InputError("same-sign speed change needs a monotone state triple")
    whole, sign = _span(a, c, flux), 1 if c > a else -1
    return sum(
        _slope_gap_integral(flux, part, whole, part, sign)
        for part in (_span(a, b, flux), _span(b, c, flux))
    )


def _cancellation_triple(a, b, c, flux) -> Fraction:
    if a == c:
        return Fraction(0)
    survivor = _span(a, c, flux)
    bigger = _span(a, b, flux) if abs(b - a) > abs(b - c) else _span(b, c, flux)
    return _slope_gap_integral(flux, survivor, bigger, survivor, 1 if c > a else -1)


def delta_sigma(event: InteractionEvent, flux: GridFlux) -> Fraction:
    """Total speed change of an event; composite events sum their merge steps."""
    total = Fraction(0)
    for _, p, q, r in event.merge_steps():
        if p == q:
            continue
        if (r > q) == (q > p):
            total += _same_sign_triple(p, q, r, flux)
        else:
            total += _cancellation_triple(p, q, r, flux)
    return total


# -- pair weights and Q ------------------------------------------------------------


class _SlabPotential:
    """Per-slab Q evaluation with memoized meeting slopes and event masses."""

    def __init__(self, ws: WaveSystem, K: Fraction):
        self.ws = ws
        self.flux = ws.timeline.flux
        self.K = K
        self._slope_ids = {}  # (fid, event index) -> {cell: slope id}
        self._id_of = {}  # slope -> slope id
        self._slopes = []  # slope id -> slope
        self._d_memo = {}  # event index -> (d, K*d)
        self.max_weight = Fraction(0)

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

    def _event_d(self, e: int):
        """(d, K*d) of event e, where d = |c - a| is the mass at the meeting."""
        if e not in self._d_memo:
            ev = self.ws.timeline.events[e]
            d = abs(ev.c - ev.a)
            self._d_memo[e] = (d, self.K * d)
        return self._d_memo[e]

    def q_of_slab(self, s: int) -> Fraction:
        """eps^2 times the sum of the pair weights over the slab's atom pairs.

        Runs split into sign blocks (maximal stretches of one sign).  Every
        atom pair across two blocks weighs K, so that part is K times an
        integer pair count.  Pairs inside one block are counted, per meeting
        event, by the slope ids of the two atoms there; each distinct
        (event, slope, slope) term then adds count times its positive slope
        gap, and each event's sum is divided by its d once.
        """
        ws = self.ws
        cell = ws.cell
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
        if cross_pairs and self.K > self.max_weight:
            self.max_weight = self.K

        counts = {}  # (event index, slope id of a) -> {slope id of b: pair count}
        first_pair = {}  # (event index, slope id, slope id) -> its first atom pair
        for i, (fid_i, atoms_i) in enumerate(runs):
            for j in range(i + 1, len(runs)):
                if block_of[j] != block_of[i]:
                    break
                fid_j, atoms_j = runs[j]
                for a in atoms_i:
                    current = None
                    for b in atoms_j:
                        e = first_common_event(ws, a, b, s)
                        if e is None:
                            continue
                        if e != current:
                            current = e
                            id_a = self._slope_ids_for(fid_i, e)[cell[a]]
                            ids_b = self._slope_ids_for(fid_j, e)
                            row = counts.setdefault((e, id_a), {})
                        id_b = ids_b[cell[b]]
                        if id_b in row:
                            row[id_b] += 1
                        else:
                            row[id_b] = 1
                            first_pair[e, id_a, id_b] = a, b

        gaps = {}  # event index -> [sum, max] of the positive slope gaps
        slopes = self._slopes
        # terms in the order they first appear: a term's weight depends only
        # on the term, so the first offending term holds the first offending pair
        for (e, id_a, id_b), (a, b) in first_pair.items():
            gap = slopes[id_a] - slopes[id_b]
            if gap <= 0:
                continue
            if gap > self._event_d(e)[1]:
                raise ConsistencyError(f"weight above K for atoms ({a}, {b}) in slab {s}")
            count = counts[e, id_a][id_b]
            acc = gaps.get(e)
            if acc is None:
                gaps[e] = [count * gap, gap]
            else:
                acc[0] += count * gap
                if gap > acc[1]:
                    acc[1] = gap
        total = self.K * cross_pairs
        for e, (gap_sum, top) in gaps.items():
            d = self._event_d(e)[0]
            total += gap_sum / d
            if top > self.max_weight * d:
                self.max_weight = top / d
        return total * ws.epsilon * ws.epsilon


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


def _bianchini_of_slab(ws: WaveSystem, s: int) -> Fraction:
    """Sum over run pairs of |speed gap| times both run masses.  With the runs
    sorted by speed, a run of n atoms at speed v adds n * (v * N - S) over all
    slower runs, where N counts their atoms and S sums their atoms' speeds."""
    fronts = ws.timeline.fronts_by_id
    runs = sorted((fronts[fid].speed, len(atoms)) for fid, atoms in ws.runs(s))
    total = Fraction(0)
    below_count, below_speed = 0, Fraction(0)
    for v, n in runs:
        total += n * (v * below_count - below_speed)
        below_count += n
        below_speed += n * v
    return total * ws.epsilon * ws.epsilon


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
    n, step = len(tl.slabs), max(count - 1, 1)
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
    for s in range(len(tl.slabs)):
        q_val = engine.q_of_slab(s)
        tv = tl.slab_tvs[s]
        slabs.append(
            SlabRecord(s, *tl.slab_bounds(s), q_val, tv, *upsilon(q_val, tv, tv0, K),
                       _bianchini_of_slab(ws, s))
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

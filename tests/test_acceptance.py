"""Acceptance checklist, one test per item (see README: Acceptance suite).

Every inequality is checked with exact rational arithmetic; there are no
numeric tolerances anywhere in this module.  Items 1b and 7 are ledgers: where
a bound holds only in a weaker form, they assert the exact size of the gap and
that the stored flags report it truthfully.  Item 1b accounts for the
constant-1 initial bound, whose excess is exactly Q(0), and checks the
constant-3/2 form the definitions support; item 7 does the same for the
single-Q drop bound.
"""

import json
from fractions import Fraction as F
from pathlib import Path

from fronttrack.envelope import envelope, sample_flux
from fronttrack.harness import l1_distance, parse_run_config, run_simulation
from fronttrack.potential import delta_sigma, run_pipeline
from fronttrack.tracker import profile_at, validate_timeline
from fronttrack.tracing import validate_tracing

from oracles import (
    WORKED_EVENT_TIMES,
    WORKED_FLUX,
    WORKED_K,
    WORKED_PROFILE,
    delta_sigma_closed_form,
    hull_oracle_values,
    value_at,
)
from suite_builder import SUITE_SIZE, binary_only_run
from wave_oracles import (
    cancellation_weight_stability,
    fundamental_property_violations,
    oracle_bianchini_of_slab,
    oracle_q_of_slab,
    pair_weight,
    state_consistency_holds,
)

BURGERS = {"polynomial": ["0", "0", "1/2"]}
NONCONVEX_TABLE = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "nonconvex_splitting.json").read_text()
)["flux"]


def _announce(item, name):
    print(f"ACCEPTANCE {item} ({name}): PASS")


# -- 1. exact inequality suite ------------------------------------------------------


def test_acceptance_1_inequality_suite(suite):
    runs = suite["runs"]
    assert len(runs) >= 50
    for r in runs:
        series = r.series
        K, tv0 = series.K, series.tv0
        # Q <= K*TV^2 on every slab, and every pair weight sits in [0, K];
        # the stored Q and Bianchini sums (from q_of_slab, _bianchini_of_slab)
        # equal the per-pair oracles, and max_weight is the largest pair weight
        top = F(0)
        for s, rec in enumerate(series.slabs):
            assert rec.Q <= K * rec.TV * rec.TV
            q, records = oracle_q_of_slab(r.waves, s, K, r.timeline.flux)
            assert rec.Q == q
            assert rec.bianchini == oracle_bianchini_of_slab(r.waves, s)
            top = max([top, *(p.q for p in records)])
        assert series.max_weight == top
        assert F(0) <= series.max_weight <= K
        # the doubled-Q initial bound (the provable constant)
        assert series.slabs[0].upsilon_paper <= 2 * K * tv0 * tv0
        for ev in series.events:
            assert ev.verdicts["q_monotone"]
            assert ev.verdicts["upsilon_strict_monotone"]
            assert ev.verdicts["upsilon_paper_monotone"]
            assert ev.verdicts["delta_sigma_le_upsilon_strict_drop"]
            if ev.kind == "same_sign":
                assert ev.verdicts["half_delta_sigma_le_q_drop"]
                assert ev.delta_sigma / 2 <= ev.Q_minus - ev.Q_plus
            else:
                assert ev.verdicts["cancellation_curvature_bound"]
                assert ev.delta_sigma <= K * abs(ev.c - ev.a) * abs(ev.c - ev.b)
                assert ev.verdicts["cancellation_tv_bound"]
        assert series.all_pass, series.hard_failures
    assert suite["elapsed"] < 60, f"suite took {suite['elapsed']:.1f}s"
    print(f"suite: {len(runs)} runs in {suite['elapsed']:.1f}s")
    _announce("1", "exact inequality suite")


def test_acceptance_1b_initial_bound_constant_one(suite):
    """Ledger of the constant-1 initial bound.

    Upsilon(0) = K*TV0*TV(0) + Q(0) = K*TV0^2 + Q(0) by definition, so
    Upsilon(0) <= K*TV0^2 holds exactly when Q(0) = 0, and the excess over
    K*TV0^2 is Q(0) itself.  On every run: TV(0) = TV0, the excess equals Q(0)
    exactly, and the stored flag ``upsilon0_le_k_tv0_sq`` says whether Q(0) = 0.
    Some run must have Q(0) > 0, so the gap is exercised.

    The bound the definitions do support: Q(0) is eps^2 times the sum of q over
    unordered pairs of the N = TV0/eps live atoms, with every q in [0, K], so
    Q(0) <= K*(TV0^2 - eps*TV0)/2 and Upsilon(0) <= (3/2)*K*TV0^2, which is
    stricter than the constant-2 form asserted in item 1.
    """
    runs = suite["runs"]
    gap_runs = 0
    worst_ratio = F(0)
    for r in runs:
        series = r.series
        K, tv0, eps = series.K, series.tv0, r.waves.epsilon
        slab0 = series.slabs[0]
        assert slab0.TV == tv0
        assert slab0.upsilon_paper == K * tv0 * tv0 + slab0.Q
        assert series.flags["upsilon0_le_k_tv0_sq"] == (slab0.Q == 0)
        assert slab0.Q <= K * (tv0 * tv0 - eps * tv0) / 2
        if slab0.Q > 0:
            gap_runs += 1
            worst_ratio = max(worst_ratio, slab0.upsilon_paper / (K * tv0 * tv0))
    assert gap_runs > 0, "no run has Q(0) > 0; the constant-1 gap is not exercised"
    print(
        f"constant-1 fails on {gap_runs}/{len(runs)} runs, excess = Q(0) exactly; "
        f"largest Upsilon(0)/(K*TV0^2) = {float(worst_ratio):.3f} < 3/2"
    )
    _announce("1b", "constant-1 initial bound ledger")


# -- 2. forward-in-time restart -----------------------------------------------------


def test_acceptance_2_forward_restart(suite):
    runs = suite["runs"]
    total = 0
    for r in runs:
        checks = r.series.restart_checks
        bounds = [r.timeline.slab_bounds(s) for s in range(len(r.timeline.slabs))]
        expected = min(3, sum(1 for t_lo, t_hi in bounds if t_hi is None or t_hi > t_lo))
        assert len(checks) >= expected
        for rc in checks:
            assert rc.equal, (
                f"restart at slab {rc.slab}: {rc.Q_restart} != {rc.Q}"
            )
        total += len(checks)
    assert total >= 150
    print(f"restart checks: {total} exact reproductions")
    _announce("2", "forward-in-time restart")


# -- 3. worked non-convex example ----------------------------------------------------


def test_acceptance_3_worked_example():
    tl, ws = run_pipeline(WORKED_PROFILE, WORKED_FLUX)
    validate_timeline(tl)
    validate_tracing(ws)
    assert [ev.t for ev in tl.events] == WORKED_EVENT_TIMES

    Fv = WORKED_FLUX.value_at_index
    chord = lambda i, j: (Fv(j) - Fv(i)) / (j - i)

    # pair riding the split piece vs the first upstream front
    rec = pair_weight(ws, F(0), 3, 4, WORKED_K, WORKED_FLUX)
    assert rec.d == F(4) - F(2)
    assert rec.pi == max(chord(2, 3) - chord(3, 4), 0)
    # split piece vs the farthest front: the meeting pools three fronts
    rec = pair_weight(ws, F(0), 3, 5, WORKED_K, WORKED_FLUX)
    assert rec.d == F(5) - F(2)
    assert rec.pi == max(chord(2, 3) - chord(4, 5), 0)
    # the two upstream fronts against each other
    rec = pair_weight(ws, F(0), 4, 5, WORKED_K, WORKED_FLUX)
    assert rec.d == F(5) - F(2)
    assert rec.pi == max(chord(3, 4) - chord(4, 5), 0)
    # waves that never meet again carry no weight
    for a in (1, 2):
        for b in (4, 5):
            assert pair_weight(ws, F(0), a, b, WORKED_K, WORKED_FLUX).q == F(0)
    _announce("3", "worked non-convex example")


# -- 4. closed-form cross-check ------------------------------------------------------


def test_acceptance_4_closed_form(suite):
    runs = list(suite["runs"])
    events = [
        (ev, r.timeline.flux)
        for r in runs
        for ev in r.timeline.events
        if ev.kind == "same_sign" and len(ev.incoming) == 2
    ]
    extra = SUITE_SIZE
    while len(events) < 100:
        r = binary_only_run(extra)
        events.extend(
            (ev, r.timeline.flux)
            for ev in r.timeline.events
            if ev.kind == "same_sign" and len(ev.incoming) == 2
        )
        extra += 1
    for ev, flux in events:
        assert delta_sigma(ev, flux) == delta_sigma_closed_form(ev)
    print(f"closed-form equality on {len(events)} binary same-sign events")
    _announce("4", "speed-change closed form")


# -- 5. two-shock golden run ---------------------------------------------------------


def test_acceptance_5_two_shock_golden():
    cfg = parse_run_config(
        {
            "flux": BURGERS,
            "epsilon": "1",
            "window": [-2, 2],
            "datum": {"constant": "1", "jumps": [["0", "0"], ["1", "-1"]]},
            "options": {"restart_check_points": 2},
        }
    )
    result = run_simulation(cfg)
    series = result.series
    assert series.slabs[0].Q == F(1, 2)
    (ev,) = series.events
    assert (ev.t, ev.x) == (F(1), F(1, 2))
    assert ev.delta_sigma == F(1)
    assert ev.Q_minus - ev.Q_plus == F(1, 2)
    assert ev.delta_sigma / 2 == ev.Q_minus - ev.Q_plus  # equality, exactly
    assert series.all_pass
    _announce("5", "two-shock golden run")


# -- 6. structural invariants --------------------------------------------------------


def _exhaustive_hull_check(flux):
    """Both envelopes on every grid subinterval against the chord oracle: the
    concave one is minus the convex hull of the negated samples."""
    for sign in (1, -1):
        pts = [(flux.grid_u(k), sign * flux.value_at_index(k))
               for k in range(flux.k_min, flux.k_max + 1)]
        for i in range(len(pts) - 1):
            for j in range(i + 1, len(pts)):
                env = envelope(flux, pts[i][0], pts[j][0], sign)
                expected = hull_oracle_values(pts[i:j + 1])
                for (x, _), want in zip(pts[i:j + 1], expected):
                    assert value_at(flux, env, x) == sign * want


def test_acceptance_6_structural_invariants(suite):
    runs = suite["runs"]

    # hull-oracle equivalence, exhaustive over all grid subintervals
    fixed = [
        sample_flux(BURGERS, "1", (-2, 2)),
        sample_flux({"polynomial": ["0", "0", "0", "1"]}, "1/4", (-4, 4)),
        WORKED_FLUX,
        # the table flux of configs/nonconvex_splitting.json (D = 2)
        sample_flux(NONCONVEX_TABLE, "1", (0, 5)),
    ]
    per_tier = {}
    for r in runs:
        n_points = r.timeline.flux.k_max - r.timeline.flux.k_min + 1
        if n_points <= 50 and len(per_tier.setdefault(n_points, [])) < 2:
            per_tier[n_points].append(r.timeline.flux)
    checked = fixed + [f for group in per_tier.values() for f in group]
    for flux in checked:
        _exhaustive_hull_check(flux)
    print(f"hull oracle: {len(checked)} fluxes, all grid subintervals")

    # conservation, TV monotonicity, no-crossing, admissibility, front/wave
    # consistency: re-run the validators over the whole family
    for r in runs:
        validate_timeline(r.timeline)
        validate_tracing(r.waves)

    # jump-state consistency through the independent profile-reconstruction
    # route, at every event point and at mid-slab jump positions
    points = 0
    for r in runs:
        tl, ws = r.timeline, r.waves
        for ev in tl.events:
            assert state_consistency_holds(tl, ws, ev.t, ev.x)
            points += 1
        for s, fronts in enumerate(tl.slabs[: 8]):
            t_lo, t_hi = tl.slab_bounds(s)
            t = t_lo + 1 if t_hi is None else (t_lo + t_hi) / 2
            if t_hi is not None and t_hi == t_lo:
                continue
            for fr in fronts:
                assert state_consistency_holds(tl, ws, t, fr.position_at(t))
                points += 1
    print(f"state consistency: {points} (t, x) probes")

    # meeting-interval implication, exhaustive on smaller runs
    small = [r for r in runs if r.waves.atom_count <= 40]
    assert small
    for r in small:
        assert fundamental_property_violations(r.waves, r.timeline.flux, K=r.series.K) == []
    print(f"meeting-interval implication: {len(small)} runs, all atom triples")

    # weight stability across cancellations (cross pairs keep q, inside pairs
    # drop to zero)
    for r in small:
        assert cancellation_weight_stability(
            r.timeline, r.waves, r.timeline.flux, K=r.series.K
        ) == []
    _announce("6", "structural invariants")


# -- 7. factor-two ledger ------------------------------------------------------------


def test_acceptance_7_factor_two_ledger(suite):
    runs = suite["runs"]
    single_q_failures = 0
    strict_checked = 0
    for r in runs:
        flagged = set(r.series.flags["upsilon_paper_drop_failures"])
        for ev in r.series.events:
            assert ev.verdicts["delta_sigma_le_upsilon_paper_drop"] == (ev.index not in flagged)
            assert ev.verdicts["delta_sigma_le_upsilon_strict_drop"]
            strict_checked += 1
        single_q_failures += len(flagged)
    assert single_q_failures > 0, "expected recorded counterexamples"
    print(
        f"single-Q drop bound: {single_q_failures} recorded counterexamples; "
        f"doubled-Q bound holds on all {strict_checked} events"
    )
    _announce("7", "factor-two ledger")


# -- 8. refinement convergence ---------------------------------------------------------


def test_acceptance_8_refinement_convergence():
    profiles = {}
    for den in (4, 8, 16, 32):
        cfg = parse_run_config(
            {
                "flux": BURGERS,
                "epsilon": f"1/{den}",
                "window": [-den, den],
                "datum": {"constant": "-1", "jumps": [["0", "1"], ["1", "-1"]]},
            }
        )
        result = run_simulation(cfg)
        assert result.series.all_pass
        profiles[den] = profile_at(result.timeline, F(1))
    distances = [
        l1_distance(profiles[a], profiles[b]) for a, b in ((4, 8), (8, 16), (16, 32))
    ]
    print("refinement distances:", [str(d) for d in distances])
    for coarse, fine in zip(distances, distances[1:]):
        assert coarse >= F(3, 2) * fine
    _announce("8", "refinement convergence")

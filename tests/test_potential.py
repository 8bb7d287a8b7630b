from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fronttrack import harness
from fronttrack.envelope import GridFlux, curvature_constant, sample_flux
from fronttrack.errors import ConsistencyError, InputError
from fronttrack.potential import (
    _SlabPotential,
    _cancellation_triple,
    _same_sign_triple,
    _slope_gap_integral,
    delta_sigma,
    run_pipeline,
    upsilon,
    verify_run,
)
from fronttrack.tracker import Profile, evolve, profile_at
from fronttrack.tracing import (
    advance_tracing, build_initial_waves, first_common_event, validate_tracing,
)

from oracles import (
    BURGERS_WIDE,
    SIMULTANEOUS,
    TABLE,
    TRIPLE_POINT,
    WORKED_EVENT_TIMES,
    WORKED_FLUX,
    WORKED_K,
    WORKED_PROFILE,
    WORKED_Q_BY_SLAB,
    _tv,
    delta_sigma_closed_form,
    fraction_delta_sigma,
    oracle_cancellation_speed_change,
    oracle_same_sign_speed_change,
    slab_midpoints,
    slope_gap_integral_by_cells,
)
from suite_builder import ladder_config, suite_config
from wave_oracles import (
    GENERIC,
    MIXED_SIGN,
    NEVER_INTERACT,
    SAME_POSITION,
    bianchini_cubic,
    bianchini_mismatches,
    cancellation_weight_stability,
    casualties,
    fid_of,
    fundamental_property_violations,
    maximal_noncontact_interval,
    oracle_first_pair_above_k,
    oracle_q_of_slab,
    pair_walk_q_of_slab,
    pair_weight,
    quadratic_potential,
    survivors,
)

BURGERS = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (-2, 2))
TWO_SHOCK = Profile(F(1), ((F(0), F(0)), (F(1), F(-1))))


def traced(profile, flux):
    tl = evolve(profile, flux)
    ws = advance_tracing(build_initial_waves(profile, flux.epsilon), tl)
    validate_tracing(ws)
    return tl, ws


# -- speed change --------------------------------------------------------------


def test_two_shock_speed_change_is_one():
    tl, ws = traced(TWO_SHOCK, BURGERS)
    ev = tl.events[0]
    assert ev.kind == "same_sign"
    assert delta_sigma(ev, BURGERS) == F(1)
    assert delta_sigma_closed_form(ev) == F(1)
    assert oracle_same_sign_speed_change(F(1), F(0), F(-1), BURGERS) == F(1)


def test_speed_change_zero_for_affine_flux():
    affine = sample_flux({"polynomial": ["0", "2"]}, "1", (-3, 3))
    assert _same_sign_triple(0, 1, 2, affine) == F(0)
    assert _cancellation_triple(0, 2, 1, affine) == F(0)


def test_cancellation_speed_change_convex_flux_vanishes():
    # both envelopes coincide with the flux on the surviving interval
    assert _cancellation_triple(0, 2, 1, BURGERS) == F(0)


def test_cancellation_speed_change_full():
    assert _cancellation_triple(0, 2, 0, BURGERS) == F(0)


def test_cancellation_speed_change_cubic_quarter_grid():
    cubic = sample_flux({"polynomial": ["0", "0", "0", "1"]}, "1/4", (-4, 4))
    # triple: left jump up to 1/2, right jump back down to 1/4
    got = _cancellation_triple(-4, 2, 1, cubic)
    assert got == F(5, 64)
    assert got == oracle_cancellation_speed_change(F(-1), F(1, 2), F(1, 4), cubic)


def test_delta_sigma_matches_the_fraction_chain():
    # every event of the worked run, of the 1/64 ladder rung, and of three
    # acceptance-family configs whose salt makes a three-front cancellation
    # (the acceptance suite reseeds those runs away); the last one's second
    # merge step changes speeds, the other two's do not
    runs = [harness.run_simulation(harness.parse_run_config(cfg)).timeline
            for cfg in (ladder_config("1/64"), suite_config(7), suite_config(27),
                        suite_config(59, salt=2))]
    composite = [(e, ev.kind) for tl in runs for e, ev in enumerate(tl.events)
                 if len(ev.incoming) > 2]
    assert composite == [(2, "cancellation"), (7, "cancellation"), (3, "cancellation")]
    for tl in [evolve(WORKED_PROFILE, WORKED_FLUX), *runs]:
        for ev in tl.events:
            assert delta_sigma(ev, tl.flux) == fraction_delta_sigma(ev, tl.flux)


def test_speed_change_wrong_kind_rejected():
    tl, ws = traced(WORKED_PROFILE, WORKED_FLUX)
    ev = tl.events[0]
    assert ev.kind == "cancellation" and len(ev.incoming) == 2
    with pytest.raises(InputError):
        delta_sigma_closed_form(ev)


def _reflect_flux(flux):
    vals = tuple(-v for v in reversed(flux.values))
    return GridFlux(flux.epsilon, -flux.k_max, -flux.k_min, vals)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_speed_change_reflection_invariance(data):
    """Negating states and flux values together swaps the two envelope kinds
    and must leave every speed change unchanged."""
    vals = data.draw(
        st.lists(st.tuples(st.integers(-8, 8), st.integers(1, 3)), min_size=4,
                 max_size=8)
    )
    f = GridFlux(F(1, 2), 0, len(vals) - 1, tuple(F(n, d) for n, d in vals))
    g = _reflect_flux(f)
    ks = sorted(data.draw(st.sets(st.integers(0, len(vals) - 1), min_size=3, max_size=3)))
    a, b, c = data.draw(st.sampled_from([
        (ks[0], ks[1], ks[2]),   # same-sign increasing
        (ks[2], ks[1], ks[0]),   # same-sign decreasing
        (ks[0], ks[2], ks[1]),   # cancellation, left jump larger
        (ks[2], ks[0], ks[1]),   # cancellation, mirrored
    ]))
    if (c > b) == (b > a):
        assert _same_sign_triple(a, b, c, f) == _same_sign_triple(-a, -b, -c, g)
    else:
        assert _cancellation_triple(a, b, c, f) == _cancellation_triple(-a, -b, -c, g)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_speed_change_matches_oracle(data):
    vals = data.draw(
        st.lists(st.tuples(st.integers(-8, 8), st.integers(1, 3)), min_size=4,
                 max_size=8)
    )
    f = GridFlux(F(1, 2), 0, len(vals) - 1, tuple(F(n, d) for n, d in vals))
    ks = sorted(data.draw(st.sets(st.integers(0, len(vals) - 1), min_size=3, max_size=3)))
    u = [f.grid_u(k) for k in ks]
    a, b, c = ks
    assert _same_sign_triple(a, b, c, f) == oracle_same_sign_speed_change(*u, f)
    a, c2, b2 = ks
    assert _cancellation_triple(a, b2, c2, f) == oracle_cancellation_speed_change(
        u[0], u[2], u[1], f
    )


# the fluxes of acceptance item 6's exhaustive hull check (the table flux of
# configs/nonconvex_splitting.json is the worked flux) and the acceptance
# family's at grid 1/4
SPEED_CHANGE_FLUXES = [
    BURGERS,
    sample_flux({"polynomial": ["0", "0", "0", "1"]}, "1/4", (-4, 4)),
    WORKED_FLUX,
    *(
        sample_flux(cfg["flux"], cfg["epsilon"], cfg["window"])
        for cfg in map(suite_config, range(60)) if cfg["epsilon"] == "1/4"
    ),
]


def test_slope_gap_walk_matches_the_per_cell_sum():
    # every part span inside every whole span, both envelopes, and the two
    # spans in either order (the part's breakpoints include the whole's
    # inside the part, not the other way round)
    checked = 0
    for f in SPEED_CHANGE_FLUXES:
        spans = [(lo, hi) for lo in range(f.k_min, f.k_max) for hi in range(lo + 1, f.k_max + 1)]
        for sign in (1, -1):
            for whole in spans:
                for part in spans:
                    if whole[0] <= part[0] and part[1] <= whole[1]:
                        want = slope_gap_integral_by_cells(f, part, whole, part, sign)
                        assert _slope_gap_integral(f, part, whole, part, sign) == want
                        assert _slope_gap_integral(f, whole, part, part, sign) == want
                        checked += 1
    assert len(SPEED_CHANGE_FLUXES) == 27 and checked == 16_710


# -- pair weights ---------------------------------------------------------------


def test_two_shock_pair_weight():
    tl, ws = traced(TWO_SHOCK, BURGERS)
    K = curvature_constant(BURGERS)
    rec = pair_weight(ws, F(0), 0, 1, K, BURGERS)
    assert rec.classification == GENERIC
    assert (rec.pi, rec.d, rec.q) == (F(1), F(2), F(1, 2))
    assert rec.meeting == (F(1), F(1, 2))
    assert rec.j_left.atoms == (0,) and rec.j_right.atoms == (1,)


def test_mixed_sign_pair_gets_curvature_weight():
    wide = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (-4, 4))
    p = Profile(F(0), ((F(0), F(1)), (F(5), F(0))))
    tl, ws = traced(p, wide)
    K = curvature_constant(wide)
    rec = pair_weight(ws, F(0), 0, 1, K, wide)
    assert rec.classification == MIXED_SIGN and rec.q == K == F(1)


def test_receding_pair_with_future_meeting_has_zero_weight():
    flux = sample_flux({"table": {"0": "0", "1": "0", "2": "-2", "3": "1"}}, "1", (0, 3))
    p = Profile(F(3), ((F(0), F(2)), (F(1), F(1)), (F(2), F(0))))
    tl, ws = traced(p, flux)
    assert [ev.t for ev in tl.events] == [F(1, 5), F(3)]
    K = curvature_constant(flux)
    # middle and right shocks recede, but the left one later pushes them together
    rec = pair_weight(ws, F(0), 1, 2, K, flux)
    assert rec.classification == GENERIC
    assert rec.meeting == (F(3), F(2))
    assert rec.pi == F(0) and rec.q == F(0)
    # the approaching pair behind carries a positive weight
    rec2 = pair_weight(ws, F(0), 0, 1, K, flux)
    assert rec2.q == F(5, 2) <= K


def test_same_front_pair_weight_zero():
    tl, ws = traced(TWO_SHOCK, BURGERS)
    K = curvature_constant(BURGERS)
    rec = pair_weight(ws, F(2), 0, 1, K, BURGERS)
    assert rec.classification == SAME_POSITION and rec.q == F(0)


def test_never_interacting_pair_weight_zero():
    p = Profile(F(-1), ((F(0), F(1)),))
    tl, ws = traced(p, BURGERS)
    K = curvature_constant(BURGERS)
    rec = pair_weight(ws, F(1), 0, 1, K, BURGERS)
    assert rec.classification == NEVER_INTERACT and rec.q == F(0)


# -- Q, upsilon, bianchini ---------------------------------------------------------


def test_two_shock_quadratic_potential():
    tl, ws = traced(TWO_SHOCK, BURGERS)
    assert quadratic_potential(ws, F(0)) == F(1, 2)
    assert quadratic_potential(ws, F(1, 2)) == F(1, 2)
    assert quadratic_potential(ws, F(1), side="pre") == F(1, 2)
    assert quadratic_potential(ws, F(1), side="post") == F(0)
    assert quadratic_potential(ws, F(5)) == F(0)
    value, records = oracle_q_of_slab(ws, 0, curvature_constant(BURGERS), BURGERS)
    assert value == F(1, 2) and len(records) == 1


def test_single_front_potential_zero():
    p = Profile(F(1), ((F(0), F(-1)),))
    tl, ws = traced(p, BURGERS)
    assert quadratic_potential(ws, F(0)) == F(0)


def test_two_shock_upsilon_values():
    tl, ws = traced(TWO_SHOCK, BURGERS)
    K = curvature_constant(BURGERS)
    tv0 = TWO_SHOCK.total_variation()
    u_paper, u_strict = upsilon(quadratic_potential(ws, F(0)), tv0, tv0, K)
    assert (u_paper, u_strict) == (F(9, 2), F(5))
    u_paper, u_strict = upsilon(quadratic_potential(ws, F(2)), tv0, tv0, K)
    assert (u_paper, u_strict) == (F(4), F(4))
    assert upsilon(F(0), F(0), F(0), K) == (F(0), F(0))


def test_two_shock_bianchini():
    tl, ws = traced(TWO_SHOCK, BURGERS)
    assert bianchini_cubic(ws, F(0)) == F(1)
    assert bianchini_cubic(ws, F(2)) == F(0)


def test_bianchini_matches_oracles_on_the_ladder_rung_and_its_restarts():
    # the series is kept event by event; every slab must equal the per-slab
    # sort and the run-pair double loop, on the run and on every restart
    r = harness.run_simulation(harness.parse_run_config(ladder_config("1/64")))
    tl = r.timeline
    assert bianchini_mismatches(r.waves) == []
    for t in slab_midpoints(tl):
        _, ws = run_pipeline(profile_at(tl, t), tl.flux)
        assert bianchini_mismatches(ws) == []


def test_bianchini_matches_oracles_on_the_schedule_cases():
    # a full cancellation (no outgoing front), two simultaneous events (a
    # zero-length slab) and a block of three fronts cancelled between two
    # neighbours that then meet
    cases = [
        (TRIPLE_POINT, TABLE),
        (SIMULTANEOUS, BURGERS_WIDE),
        (Profile(F(-2), ((F(0), F(3)), (F(1), F(-1)), (F(5), F(1)), (F(7), F(-1)))), TABLE),
        (Profile(F(2), ((F(0), F(0)), (F(4), F(3)), (F(5), F(-1)), (F(8), F(1)),
                        (F(10), F(-2)))), TABLE),
    ]
    empty_outgoing = zero_length = 0
    for profile, flux in cases:
        tl, ws = traced(profile, flux)
        assert bianchini_mismatches(ws) == []
        empty_outgoing += sum(not ev.outgoing for ev in tl.events)
        zero_length += sum(a.t == b.t for a, b in zip(tl.events, tl.events[1:]))
    assert empty_outgoing >= 2 and zero_length >= 2


def test_bianchini_with_equal_front_speeds():
    # fronts 0 and 1 of slab 0 both move at speed 1/2; event 0 removes front 1
    # and leaves front 0 at the same speed rank
    tl, ws = traced(Profile(F(1), ((F(0), F(0)), (F(1), F(1)), (F(3), F(-1)))), BURGERS_WIDE)
    assert [fr.speed for fr in tl.slabs[0]] == [F(1, 2), F(1, 2), F(0)]
    assert [fr.fid for fr in tl.events[0].incoming] == [1, 2]
    assert bianchini_mismatches(ws) == []
    # each speed-1/2 front against the two atoms of the speed-0 shock
    assert bianchini_cubic(ws, F(0)) == 2 * (F(1, 2) * 2)


def test_single_front_bianchini_zero():
    p = Profile(F(1), ((F(0), F(-1)),))
    tl, ws = traced(p, BURGERS)
    assert bianchini_cubic(ws, F(0)) == F(0)


# -- hull contact scan ---------------------------------------------------------------


def test_noncontact_interval_convex_flux():
    # hull touches every grid point: the first contact at or past b is b itself
    assert maximal_noncontact_interval(BURGERS, F(-1), F(0), F(1)) == F(0)


def test_noncontact_interval_single_chord():
    cubic = sample_flux({"polynomial": ["0", "0", "0", "1"]}, "1/4", (-4, 4))
    # hull of [-1, 1/4] is one chord: no contact before the right endpoint
    assert maximal_noncontact_interval(cubic, F(-1), F(0), F(1, 4)) == F(1, 4)


def test_noncontact_interval_interior_contact():
    cubic = sample_flux({"polynomial": ["0", "0", "0", "1"]}, "1/4", (-4, 4))
    # hull of [-1, 1] touches the samples at the tangency point 1/2
    assert maximal_noncontact_interval(cubic, F(-1), F(0), F(1)) == F(1, 2)


def test_noncontact_interval_affine_flux():
    affine = sample_flux({"polynomial": ["1", "3"]}, "1", (-3, 3))
    # the hull rides the samples everywhere, so b itself is the first contact
    assert maximal_noncontact_interval(affine, F(0), F(1), F(3)) == F(1)


def test_pair_weight_accepts_curvature_dataclass():
    tl, ws = traced(TWO_SHOCK, BURGERS)
    rec = pair_weight(ws, F(0), 0, 1, curvature_constant(BURGERS), BURGERS)
    assert rec.q == F(1, 2)


def test_noncontact_interval_rejects_bad_order():
    with pytest.raises(InputError):
        maximal_noncontact_interval(BURGERS, F(0), F(0), F(1))


# -- the worked non-convex example ---------------------------------------------------


def test_worked_example_timeline_and_split():
    tl, ws = traced(WORKED_PROFILE, WORKED_FLUX)
    assert [ev.t for ev in tl.events] == WORKED_EVENT_TIMES
    assert [ev.kind for ev in tl.events] == ["cancellation", "same_sign", "same_sign"]
    assert curvature_constant(WORKED_FLUX) == WORKED_K
    # the cancellation kills the negative wave and the lowest positive one,
    # and splits the survivors into chords over [1,2] and [2,3]
    assert sorted(casualties(ws, 0)) == [0, 1]
    assert survivors(ws, 0) == [2, 3]
    assert fid_of(ws, 2, 1) != fid_of(ws, 3, 1)


def test_worked_example_weight_identities():
    tl, ws = traced(WORKED_PROFILE, WORKED_FLUX)
    Fv = WORKED_FLUX.value_at_index
    s23 = Fv(3) - Fv(2)
    s34 = Fv(4) - Fv(3)
    s45 = Fv(5) - Fv(4)

    rec = pair_weight(ws, F(0), 3, 4, WORKED_K, WORKED_FLUX)
    assert rec.meeting == (F(14, 5), F(34, 5))
    assert rec.d == F(2)
    assert rec.pi == max(s23 - s34, 0) == F(1)
    assert rec.q == F(1, 2)

    rec = pair_weight(ws, F(0), 3, 5, WORKED_K, WORKED_FLUX)
    assert rec.meeting == (F(22, 5), F(46, 5))
    assert rec.d == F(3)
    assert rec.pi == max(s23 - s45, 0) == F(3, 2)
    assert rec.q == F(1, 2)

    rec = pair_weight(ws, F(0), 4, 5, WORKED_K, WORKED_FLUX)
    assert rec.d == F(3)
    assert rec.pi == max(s34 - s45, 0) == F(1, 2)
    assert rec.q == F(1, 6)


def test_worked_example_never_and_mixed_pairs():
    tl, ws = traced(WORKED_PROFILE, WORKED_FLUX)
    # waves at or below the split point never rejoin the others
    for a in (1, 2):
        for b in (4, 5):
            rec = pair_weight(ws, F(0), a, b, WORKED_K, WORKED_FLUX)
            assert rec.classification == NEVER_INTERACT and rec.q == F(0)
    # the negative wave pairs as mixed with every positive one
    for b in range(1, 6):
        rec = pair_weight(ws, F(0), 0, b, WORKED_K, WORKED_FLUX)
        assert rec.classification == MIXED_SIGN and rec.q == WORKED_K


def test_worked_example_potential_series():
    tl, ws = traced(WORKED_PROFILE, WORKED_FLUX)
    for s, expected in enumerate(WORKED_Q_BY_SLAB):
        t_probe = tl.slab_bounds(s)[0]
        assert quadratic_potential(ws, t_probe, side="post") == expected
        assert oracle_q_of_slab(ws, s, WORKED_K, WORKED_FLUX)[0] == expected


def test_worked_example_verify_run():
    tl, ws = traced(WORKED_PROFILE, WORKED_FLUX)
    series = verify_run(ws, restart_checks=3)
    assert series.all_pass, series.hard_failures
    assert [rec.Q for rec in series.slabs] == WORKED_Q_BY_SLAB
    assert [rec.TV for rec in series.slabs] == [F(6), F(4), F(4), F(4)]
    # both same-sign merges drop Q by exactly half the speed change
    e1, e2 = series.events[1], series.events[2]
    assert e1.delta_sigma == F(1) and e1.Q_minus - e1.Q_plus == F(1, 2)
    assert e2.delta_sigma == F(4, 3) and e2.Q_minus - e2.Q_plus == F(2, 3)
    # the single-Q drop bound fails there, as recorded
    assert series.flags["upsilon_paper_drop_failures"] == [1, 2]
    assert not series.flags["upsilon0_le_k_tv0_sq"]
    assert series.flags["upsilon0_le_2k_tv0_sq"]
    assert all(rc.equal for rc in series.restart_checks)
    assert series.max_weight <= WORKED_K


def test_series_tv_is_the_sum_of_front_strengths_on_every_slab():
    # each slab's TV is counted from its live waves, beside the Bianchini sum;
    # on the ladder rung and on the suite's three composite cancellations (two
    # of them full) it must be the oracle's sum of the slab's front strengths
    composite = 0
    for cfg in (ladder_config("1/64"), suite_config(7), suite_config(27),
                suite_config(59, salt=2)):
        r = harness.run_simulation(harness.parse_run_config(cfg))
        tl = r.timeline
        assert [rec.TV for rec in r.series.slabs] == [_tv(fronts) for fronts in tl.slabs]
        composite += sum(len(ev.incoming) > 2 for ev in tl.events)
    assert composite >= 3


def test_worked_example_cancellation_weight_stability():
    tl, ws = traced(WORKED_PROFILE, WORKED_FLUX)
    assert cancellation_weight_stability(tl, ws, WORKED_FLUX) == []


def test_worked_example_fundamental_property():
    tl, ws = traced(WORKED_PROFILE, WORKED_FLUX)
    assert fundamental_property_violations(ws, WORKED_FLUX) == []


# -- golden run end to end -------------------------------------------------------


def test_two_shock_verify_run():
    tl, ws = traced(TWO_SHOCK, BURGERS)
    series = verify_run(ws, restart_checks=2)
    assert series.all_pass, series.hard_failures
    (ev,) = series.events
    assert ev.delta_sigma == F(1)
    assert (ev.Q_minus, ev.Q_plus) == (F(1, 2), F(0))
    assert ev.verdicts["half_delta_sigma_le_q_drop"]
    assert ev.delta_sigma / 2 == ev.Q_minus - ev.Q_plus  # equality, exactly
    assert not ev.verdicts["delta_sigma_le_upsilon_paper_drop"]  # drop 1/2 cannot dominate 1
    assert ev.verdicts["delta_sigma_le_upsilon_strict_drop"]
    assert not series.flags["upsilon0_le_k_tv0_sq"]  # 9/2 > 4
    assert all(rc.equal for rc in series.restart_checks)


def test_restart_reproduces_potential_from_any_slab():
    tl, ws = traced(WORKED_PROFILE, WORKED_FLUX)
    from fronttrack.tracker import profile_at
    from fronttrack.potential import _SlabPotential

    for s in range(len(tl.slabs)):
        t_lo, t_hi = tl.slab_bounds(s)
        t_probe = t_lo + 1 if t_hi is None else (t_lo + t_hi) / 2
        if s == 0:
            t_probe = t_hi / 2
        tl2, ws2 = run_pipeline(profile_at(tl, t_probe), WORKED_FLUX)
        engine = _SlabPotential(ws2, WORKED_K)
        assert engine.q_of_slab(0) == WORKED_Q_BY_SLAB[s]



def test_weight_above_k_names_the_first_offending_pair():
    # pair weights on slab 0, in run order: (0,1) 1/2, (0,2) 1/2, (0,3) 3/4,
    # (1,3) 3/8, (2,3) 3/8; atoms 1 and 2 share a front
    p = Profile(F(2), ((F(0), F(1)), (F(1), F(-1)), (F(3), F(-2))))
    tl, ws = traced(p, BURGERS)
    assert ws.runs(0) == [(0, (0,)), (1, (1, 2)), (2, (3,))]
    for K, pair in [(F(0), "(0, 1)"), (F(1, 2), "(0, 3)")]:
        with pytest.raises(ConsistencyError) as info:
            _SlabPotential(ws, K).q_of_slab(0)
        assert str(info.value) == f"weight above K for atoms {pair} in slab 0"


def test_weight_above_k_names_the_oracle_pair_on_the_suite(suite):
    # at K = 0 every positive gap offends, at half the run's largest weight
    # only some do; Q names the first offending pair in walk order
    named = {"zero": 0, "half": 0}
    clean = 0
    for r in suite["runs"]:
        for which, K in [("zero", F(0)), ("half", r.series.max_weight / 2)]:
            engine = _SlabPotential(r.waves, K)
            for s in range(len(r.timeline.slabs)):
                pair = oracle_first_pair_above_k(r.waves, s, K)
                if pair is None:
                    engine.q_of_slab(s)
                    clean += 1
                    continue
                with pytest.raises(ConsistencyError) as info:
                    engine.q_of_slab(s)
                assert str(info.value) == f"weight above K for atoms {pair} in slab {s}"
                named[which] += 1
    assert named["zero"] > 100 and named["half"] > 0 and clean > 100


def test_q_matches_the_pair_walk_on_the_ladder_rungs():
    # the meeting-event sweep against the all-pairs walk it replaced: every
    # slab and max_weight of the 1/128 rung (251 atoms), and slab 0 of a
    # fresh engine on every restart profile of the 1/64 rung
    r = harness.run_simulation(harness.parse_run_config(ladder_config("1/128")))
    assert r.waves.atom_count == 251
    top = F(0)
    for s, rec in enumerate(r.series.slabs):
        q, slab_top = pair_walk_q_of_slab(r.waves, s, r.series.K)
        assert rec.Q == q
        top = max(top, slab_top)
    assert r.series.max_weight == top

    r = harness.run_simulation(harness.parse_run_config(ladder_config("1/64")))
    tl, K = r.timeline, r.series.K
    for t in slab_midpoints(tl):
        _, ws = run_pipeline(profile_at(tl, t), tl.flux)
        assert _SlabPotential(ws, K).q_of_slab(0) == pair_walk_q_of_slab(ws, 0, K)[0]


def _remeets(r):
    # atom 0 joins atoms 1-14 at event 11, the cancellation at event 16 puts
    # it on a front of its own, and it meets atoms 1-11 again at event 18:
    # there the last common event, not the sign block, decides from which
    # slab a pair counts
    ws = r.waves
    return (first_common_event(ws, 0, 1) == 11 and fid_of(ws, 0, 17) != fid_of(ws, 1, 17)
            and first_common_event(ws, 0, 1, 17) == 18)


def _three_survivor_groups(r):
    # three Burgers shocks meet at one point and all survive: no run of the
    # acceptance suite or of the ladder has an event with three survivor groups
    (ev,) = r.timeline.events
    return len(ev.incoming) == 3 and ev.canceled_mass == 0


THREE_SHOCKS = {
    "flux": {"polynomial": ["0", "0", "1/2"]},
    "epsilon": "1",
    "window": [-12, 12],
    "datum": {"constant": "6", "jumps": [["-5", "4"], ["-3", "2"], ["-1", "0"]]},
}


@pytest.mark.parametrize("config, shape", [
    (suite_config(58, salt=1), _remeets),
    (THREE_SHOCKS, _three_survivor_groups),
], ids=["remeeting", "three_shocks"])
def test_q_matches_oracle_on_the_pinned_meetings(config, shape):
    r = harness.run_simulation(harness.parse_run_config(config))
    assert shape(r)
    top = F(0)
    for s, rec in enumerate(r.series.slabs):
        q, records = oracle_q_of_slab(r.waves, s, r.series.K, r.timeline.flux)
        assert rec.Q == q
        top = max([top, *(p.q for p in records)])
    assert r.series.max_weight == top
    engine = _SlabPotential(r.waves, F(0))
    for s in range(len(r.timeline.slabs)):
        pair = oracle_first_pair_above_k(r.waves, s, F(0))
        if pair is None:
            engine.q_of_slab(s)
            continue
        with pytest.raises(ConsistencyError) as info:
            engine.q_of_slab(s)
        assert str(info.value) == f"weight above K for atoms {pair} in slab {s}"


def test_q_in_descending_slab_order_starts_over_from_slab_0():
    # every request below the cursor sweeps forward from slab 0 again, on
    # one engine: the values and the largest weight are those of the run
    r = harness.run_simulation(harness.parse_run_config(ladder_config("1/64")))
    engine = _SlabPotential(r.waves, r.series.K)
    slabs = range(len(r.timeline.slabs) - 1, -1, -1)
    assert [engine.q_of_slab(s) for s in slabs] == [r.series.slabs[s].Q for s in slabs]
    assert engine.max_weight == r.series.max_weight


def test_q_matches_oracle_on_the_ladder_rung():
    # the seed-3 random config of the benchmark's ladder, at eps 1/64 (124
    # atoms); the 1/128 rung takes about a minute under the oracle
    r = harness.run_simulation(harness.parse_run_config(ladder_config("1/64")))
    assert r.waves.atom_count == 124
    top = F(0)
    for s, rec in enumerate(r.series.slabs):
        q, records = oracle_q_of_slab(r.waves, s, r.series.K, r.timeline.flux)
        assert rec.Q == q
        top = max([top, *(p.q for p in records)])
    assert r.series.max_weight == top

from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fronttrack.envelope import sample_flux
from fronttrack.errors import ConsistencyError, InputError, TrackerError
from fronttrack.tracker import (
    CANCELLATION,
    SAME_SIGN,
    Collision,
    Profile,
    discretize_initial,
    evolve,
    initial_fronts,
    next_collision,
    profile_at,
    resolve_event,
    validate_timeline,
)
from fronttrack.riemann import Front

from oracles import WORKED_FLUX, WORKED_PROFILE

BURGERS = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (-2, 2))
BURGERS_WIDE = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (-4, 4))

TWO_SHOCK = Profile(F(1), ((F(0), F(0)), (F(1), F(-1))))


# -- profiles and discretization ----------------------------------------------


def test_profile_validation():
    with pytest.raises(InputError):
        Profile(F(0), ((F(0), F(1)), (F(0), F(2))))
    with pytest.raises(InputError):
        Profile(F(0), ((F(0), F(0)),))


def test_profile_tv_and_values():
    assert TWO_SHOCK.total_variation() == F(2)
    assert TWO_SHOCK.value_at(F(-1)) == F(1)
    assert TWO_SHOCK.value_at(F(0)) == F(0)
    assert TWO_SHOCK.value_at(F(5)) == F(-1)
    assert TWO_SHOCK.right_constant == F(-1)


def test_discretize_grid_aligned_is_identity():
    out = discretize_initial((F(1), [(F(0), F(0)), (F(1), F(-1))]), F(1))
    assert out == TWO_SHOCK


def test_discretize_unit_box():
    out = discretize_initial((0, [(0, 1), (1, 0)]), 1)
    assert out == Profile(F(0), ((F(0), F(1)), (F(1), F(0))))
    assert out.total_variation() == F(2)


def test_discretize_offgrid_value():
    out = discretize_initial((0, [(0, F(3, 5)), (1, 0)]), F(1, 2))
    assert out == Profile(F(0), ((F(0), F(1, 2)), (F(1), F(0))))
    assert out.total_variation() == F(1) <= F(6, 5)


def test_discretize_never_increases_tv():
    # pointwise nearest rounding would double this datum's variation
    raw = (0, [(0, F(2, 5)), (1, F(3, 5)), (2, 0)])
    out = discretize_initial(raw, 1)
    raw_tv = F(2, 5) + F(1, 5) + F(3, 5)
    assert out.total_variation() <= raw_tv
    assert out == Profile(F(0), ())


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.fractions(min_value=-2, max_value=2), min_size=1, max_size=8),
    st.sampled_from([F(1), F(1, 2), F(1, 4), F(1, 8)]),
    st.fractions(min_value=-2, max_value=2),
)
def test_discretize_tv_bound_property(values, eps, constant):
    raw_jumps = [(F(i), v) for i, v in enumerate(values)]
    out = discretize_initial((constant, raw_jumps), eps)
    raw_vals = [constant] + values
    raw_tv = sum(abs(b - a) for a, b in zip(raw_vals, raw_vals[1:]))
    assert out.total_variation() <= raw_tv
    for v in out.values():
        assert (v / eps).denominator == 1


# -- initial fronts ------------------------------------------------------------


def test_initial_fronts_single_shock():
    p = Profile(F(1), ((F(0), F(-1)),))
    fronts = initial_fronts(p, BURGERS)
    assert [(fr.left, fr.right, fr.speed) for fr in fronts] == [(F(1), F(-1), F(0))]


def test_initial_fronts_empty_profile():
    assert initial_fronts(Profile(F(0), ()), BURGERS) == []


def test_initial_fronts_two_jumps():
    p = Profile(F(1), ((F(0), F(0)), (F(1), F(-1))))
    fronts = initial_fronts(p, BURGERS)
    assert [fr.speed for fr in fronts] == [F(1, 2), F(-1, 2)]
    assert [fr.birth_x for fr in fronts] == [F(0), F(1)]


# -- collision detection -------------------------------------------------------


def _front(left, right, speed, x, t=0, fid=-1):
    return Front(F(left), F(right), F(speed), F(t), F(x), fid)


def test_next_collision_two_approaching():
    fronts = [_front(1, 0, F(1, 2), 0), _front(0, -1, F(-1, 2), 1)]
    hit = next_collision(fronts, F(0))
    assert hit == Collision(F(1), F(1, 2), 0, 1)


def test_next_collision_parallel_none():
    fronts = [_front(1, 0, F(1, 2), 0), _front(0, -1, F(1, 2), 1)]
    assert next_collision(fronts, F(0)) is None


def test_next_collision_earliest_pair_only():
    # A meets B at t=1 (x=1); B-C pair would meet at t=2 (x=2)
    fronts = [
        _front(2, 1, 1, 0),
        _front(1, 0, 0, 1),
        _front(0, -1, F(-1, 2), 4),
    ]
    hit = next_collision(fronts, F(0))
    assert (hit.t, hit.x, hit.first, hit.last) == (F(1), F(1), 0, 1)


def test_next_collision_spreading_fan_ignored():
    fronts = [_front(-1, 0, F(-1, 2), 0), _front(0, 1, F(1, 2), 0)]
    assert next_collision(fronts, F(0)) is None


# -- event resolution ----------------------------------------------------------


def test_resolve_same_sign_merge():
    incoming = [_front(1, 0, F(1, 2), 0), _front(0, -1, F(-1, 2), 1)]
    ev = resolve_event(incoming, F(1), F(1, 2), BURGERS)
    assert ev.kind == SAME_SIGN
    assert (ev.a, ev.b, ev.c) == (F(1), F(0), F(-1))
    assert [(fr.left, fr.right, fr.speed) for fr in ev.outgoing] == [
        (F(1), F(-1), F(0))
    ]


def test_resolve_cancellation_kind():
    incoming = [_front(0, 1, F(1, 2), 0), _front(1, -1, 0, 1)]
    # make them actually meet: speeds 1/2 and 0 from x=0 and x=1 meet at t=2, x=1
    ev = resolve_event(incoming, F(2), F(1), BURGERS)
    assert ev.kind == CANCELLATION
    assert (ev.a, ev.b, ev.c) == (F(0), F(1), F(-1))
    assert ev.canceled_mass == F(2)


def test_resolve_full_cancellation():
    flux = sample_flux(
        {"table": {"-2": "-1", "-1": "-1/2", "0": "0", "1": "1", "2": "2", "3": "3"}},
        "1",
        (-2, 3),
    )
    incoming = [
        _front(0, 2, 1, 0),
        _front(2, -1, F(5, 6), 1),
        _front(-1, 0, F(1, 2), 3),
    ]
    ev = resolve_event(incoming, F(6), F(6), flux)
    assert ev.kind == CANCELLATION
    assert ev.outgoing == ()
    assert (ev.a, ev.c) == (F(0), F(0))
    assert ev.b == F(2)  # the extremal intermediate state
    assert ev.canceled_mass == F(6)


def test_resolve_rejects_nonchaining():
    incoming = [_front(1, 0, F(1, 2), 0), _front(1, -1, 0, 1)]
    with pytest.raises(ConsistencyError):
        resolve_event(incoming, F(2), F(1), BURGERS)


# -- evolution -----------------------------------------------------------------


def test_two_shock_golden_timeline():
    tl = evolve(TWO_SHOCK, BURGERS)
    assert len(tl.events) == 1
    ev = tl.events[0]
    assert (ev.t, ev.x) == (F(1), F(1, 2))
    assert ev.kind == SAME_SIGN
    validate_timeline(tl)


def test_single_shock_no_events():
    tl = evolve(Profile(F(1), ((F(0), F(-1)),)), BURGERS)
    assert tl.events == ()
    assert len(tl.slabs) == 1
    validate_timeline(tl)


def test_staircase_cascade():
    p = Profile(F(2), ((F(0), F(1)), (F(1), F(0)), (F(3), F(-1)), (F(6), F(-2))))
    tl = evolve(p, BURGERS_WIDE)
    assert [ev.t for ev in tl.events] == [F(1), F(5, 3), F(7, 3)]
    assert all(ev.kind == SAME_SIGN for ev in tl.events)
    assert tl.slab_tv(0) == tl.slab_tv(len(tl.slabs) - 1) == F(4)
    validate_timeline(tl)


def test_triple_point_full_cancellation():
    flux = sample_flux(
        {"table": {"-2": "-1", "-1": "-1/2", "0": "0", "1": "1", "2": "2", "3": "3"}},
        "1",
        (-2, 3),
    )
    p = Profile(F(0), ((F(0), F(2)), (F(1), F(-1)), (F(3), F(0))))
    tl = evolve(p, flux)
    assert len(tl.events) == 1
    ev = tl.events[0]
    assert (ev.t, ev.x) == (F(6), F(6))
    assert len(ev.incoming) == 3 and ev.outgoing == ()
    assert tl.slab_tv(1) == F(0)
    validate_timeline(tl)


def test_event_cap_diagnostic():
    with pytest.raises(TrackerError) as exc_info:
        evolve(TWO_SHOCK, BURGERS, max_events=0)
    partial = exc_info.value.partial_timeline
    assert partial is not None and partial.events == ()
    # its one slab still holds the two converging shocks
    with pytest.raises(ConsistencyError, match="fronts still converge"):
        validate_timeline(partial)


def test_evolve_window_too_small():
    tight = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (0, 1))
    with pytest.raises(InputError):
        evolve(TWO_SHOCK, tight)


# -- profile reconstruction ----------------------------------------------------


def test_profile_at_time_zero():
    tl = evolve(TWO_SHOCK, BURGERS)
    assert profile_at(tl, F(0)) == TWO_SHOCK


def test_profile_at_mid_slab_transport():
    tl = evolve(TWO_SHOCK, BURGERS)
    p = profile_at(tl, F(1, 2))
    assert p.jumps == ((F(1, 4), F(0)), (F(3, 4), F(-1)))


def test_profile_at_post_merge():
    tl = evolve(TWO_SHOCK, BURGERS)
    # the merged shock was born at (1, 1/2) with zero speed
    assert profile_at(tl, F(2)).jumps == ((F(1, 2), F(-1)),)
    assert profile_at(tl, F(1)).jumps == ((F(1, 2), F(-1)),)


def test_profile_at_event_sides():
    tl = evolve(TWO_SHOCK, BURGERS)
    pre = profile_at(tl, F(1), side="pre")
    post = profile_at(tl, F(1), side="post")
    # both one-sided limits collapse to the same single jump at the event point
    assert pre.jumps == ((F(1, 2), F(-1)),)
    assert post.jumps == ((F(1, 2), F(-1)),)
    assert pre == post


def test_profile_at_pre_keeps_incoming_fronts_before_event():
    tl = evolve(TWO_SHOCK, BURGERS)
    pre = profile_at(tl, F(3, 4), side="pre")
    assert len(pre.jumps) == 2


def test_profile_at_negative_time():
    tl = evolve(TWO_SHOCK, BURGERS)
    with pytest.raises(InputError):
        profile_at(tl, F(-1))


def test_restarted_evolution_matches():
    tl = evolve(TWO_SHOCK, BURGERS)
    mid = profile_at(tl, F(1, 2))
    tl2 = evolve(mid, BURGERS)
    assert len(tl2.events) == 1
    assert (tl2.events[0].t, tl2.events[0].x) == (F(1, 2), F(1, 2))


def test_simultaneous_distinct_position_events():
    # two independent merging pairs, built to collide at the same instant,
    # plus a spreading fan between them that stays out of the way until later
    wide = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (-4, 4))
    p = Profile(
        F(1),
        (
            (F(0), F(0)),
            (F(1), F(-1)),
            (F(5), F(3)),
            (F(10), F(2)),
            (F(11), F(1)),
        ),
    )
    tl = evolve(p, wide)
    first, second = tl.events[0], tl.events[1]
    assert first.t == second.t == F(1)
    assert first.x == F(1, 2) < second.x == F(25, 2)
    assert first.kind == SAME_SIGN and second.kind == SAME_SIGN
    # the slab between the two simultaneous events is empty but well-formed
    assert tl.slabs[1].t_lo == tl.slabs[1].t_hi == F(1)
    validate_timeline(tl)


def test_simultaneous_events_potential_bookkeeping():
    wide = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (-4, 4))
    p = Profile(
        F(1),
        (
            (F(0), F(0)),
            (F(1), F(-1)),
            (F(5), F(3)),
            (F(10), F(2)),
            (F(11), F(1)),
        ),
    )
    from fronttrack.potential import verify_run
    from fronttrack.tracing import advance_tracing, build_initial_waves, validate_tracing

    ws = advance_tracing(build_initial_waves(p, F(1)), evolve(p, wide))
    validate_tracing(ws)
    series = verify_run(ws, restart_checks=3)
    assert series.all_pass, series.hard_failures
    # each simultaneous merge still drops Q by exactly half its speed change
    for ev in series.events[:2]:
        assert ev.t == F(1)
        assert ev.delta_sigma / 2 == ev.Q_minus - ev.Q_plus


def _forge_slab(tl, s, fronts):
    slabs = list(tl.slabs)
    slabs[s] = replace(slabs[s], fronts=tuple(fronts))
    return replace(tl, slabs=tuple(slabs))


def test_validate_timeline_rejects_forged_inadmissible_fronts():
    tl = evolve(WORKED_PROFILE, WORKED_FLUX)
    validate_timeline(tl)
    # a front first seen in slab 2 (born at event 1), forged to a wrong speed
    late = list(tl.slabs[2].fronts)
    assert late[1].fid == tl.events[1].outgoing[0].fid
    late[1] = replace(late[1], speed=late[1].speed + 1)
    # slab 1's two chords over [1,2] and [2,3] merged into one front over the
    # convex [1,3] (two envelope pieces), carrying the fid of a slab-0 front
    # that passed the check
    f4, f5, *rest = tl.slabs[1].fronts
    reused = tl.slabs[0].fronts[1].fid
    merged = replace(f4, right=f5.right, speed=F(3, 2), fid=reused)
    for forged in (_forge_slab(tl, 2, late), _forge_slab(tl, 1, [merged, *rest])):
        with pytest.raises(ConsistencyError, match="live front is not admissible"):
            validate_timeline(forged)

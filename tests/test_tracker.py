from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from heapq import heappop
from math import floor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fronttrack import harness
from fronttrack.envelope import sample_flux
from fronttrack.errors import ConsistencyError, InputError, TrackerError
from fronttrack.tracker import (
    CANCELLATION,
    SAME_SIGN,
    Collision,
    InteractionEvent,
    Profile,
    _schedule,
    discretize_initial,
    evolve,
    initial_fronts,
    profile_at,
    resolve_event,
    validate_timeline,
)
from fronttrack.riemann import Front, solve_riemann

from oracles import (
    BURGERS_WIDE,
    SIMULTANEOUS,
    TABLE,
    TRIPLE_POINT,
    WORKED_FLUX,
    WORKED_PROFILE,
    event_kind_and_b,
    fraction_profile_at,
    fraction_validate_timeline,
    front_kinematics,
    front_position,
    meeting_time,
    oracle_evolve,
    oracle_next_collision,
    oracle_validate_timeline,
    profile_value_at,
    slab_midpoints,
    state_forgeries,
)
from suite_builder import ladder_config, suite_config

BURGERS = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (-2, 2))

TWO_SHOCK = Profile(F(1), ((F(0), F(0)), (F(1), F(-1))))


def _profile(constant, *jumps):
    return Profile(F(constant), tuple((F(x), F(v)) for x, v in jumps))


# -- profiles and discretization ----------------------------------------------


def test_profile_validation():
    with pytest.raises(InputError):
        Profile(F(0), ((F(0), F(1)), (F(0), F(2))))
    with pytest.raises(InputError):
        Profile(F(0), ((F(0), F(0)),))


def test_profile_tv_and_values():
    assert TWO_SHOCK.total_variation() == F(2)
    assert profile_value_at(TWO_SHOCK, F(-1)) == F(1)
    assert profile_value_at(TWO_SHOCK, F(0)) == F(0)
    assert profile_value_at(TWO_SHOCK, F(5)) == F(-1)
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


@pytest.mark.parametrize("constant, eps, base", [
    (F(1, 2), F(1), F(0)),
    (F(-1, 2), F(1), F(0)),
    (F(3, 2), F(1), F(2)),
    (F(-3, 2), F(1), F(-2)),
    (F(1, 4), F(1, 2), F(0)),
])
def test_discretize_rounds_a_tie_constant_to_the_even_multiple(constant, eps, base):
    assert discretize_initial((constant, []), eps) == Profile(base, ())
    # later values move with the base: a jump by eps stays a jump by eps
    out = discretize_initial((constant, [(0, constant + eps)]), eps)
    assert out == Profile(base, ((F(0), base + eps),))


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
    hit = oracle_next_collision(fronts, F(0))
    assert hit == Collision(F(1), F(1, 2), 0, 1)


def test_next_collision_parallel_none():
    fronts = [_front(1, 0, F(1, 2), 0), _front(0, -1, F(1, 2), 1)]
    assert oracle_next_collision(fronts, F(0)) is None


def test_next_collision_earliest_pair_only():
    # A meets B at t=1 (x=1); B-C pair would meet at t=2 (x=2)
    fronts = [
        _front(2, 1, 1, 0),
        _front(1, 0, 0, 1),
        _front(0, -1, F(-1, 2), 4),
    ]
    hit = oracle_next_collision(fronts, F(0))
    assert (hit.t, hit.x, hit.first, hit.last) == (F(1), F(1), 0, 1)


def test_next_collision_spreading_fan_ignored():
    fronts = [_front(-1, 0, F(-1, 2), 0), _front(0, 1, F(1, 2), 0)]
    assert oracle_next_collision(fronts, F(0)) is None


@pytest.mark.parametrize("left, right", [
    # converging: the left front, at speed 1 from x = 0, passed x = 1/2 at t = 1/2
    (_front(1, 0, 1, 0), _front(0, -1, 0, F(1, 2))),
    # parallel, the wrong way round from the start
    (_front(1, 0, 0, 1), _front(0, -1, 0, 0)),
    # diverging, still crossed at t = 1
    (_front(1, 0, -1, 3), _front(0, -1, 0, 0)),
])
def test_schedule_rejects_neighbours_out_of_order(left, right):
    heap = []
    with pytest.raises(ConsistencyError, match="front ordering lost"):
        _schedule(heap, left, right, F(1))
    assert heap == []


# rationals of both signs with small and large denominators, and times from 0
rationals = st.builds(F, st.integers(-60, 60), st.sampled_from([1, 2, 3, 7, 12, 10**9 + 7]))
times = st.one_of(st.just(F(0)), st.builds(F, st.integers(0, 60), st.sampled_from([1, 4, 9, 10**6])))
tiny = st.builds(F, st.sampled_from([-1, 1]), st.builds(pow, st.just(10), st.integers(6, 40)))


@st.composite
def fronts(draw):
    left = draw(rationals)
    right = draw(rationals.filter(lambda v: v != left))
    return Front(left, right, draw(rationals), draw(times), draw(rationals), draw(st.integers(0, 9)))


@settings(max_examples=400, deadline=None)
@given(left=fronts(), right=fronts(), ds=st.one_of(st.just(F(0)), rationals), t=times)
@example(  # converging from t = 0, negative intercepts and speeds
    left=_front(1, 0, -1, -5), right=_front(0, -1, F(-3, 2), -4), ds=F(1, 2), t=F(0))
@example(  # parallel
    left=_front(1, 0, 2, -1), right=_front(0, -1, 0, 1), ds=F(0), t=F(3))
@example(  # diverging
    left=_front(1, 0, -1, -1), right=_front(0, -1, 0, 1), ds=F(-1, 3), t=F(0))
@example(  # converging, and ordered at t by 1e-30 only
    left=_front(1, 0, 1, 0), right=_front(0, -1, 0, 1 + F(1, 10**30)), ds=F(1), t=F(1))
def test_schedule_matches_the_meeting_time_oracle(left, right, ds, t):
    # the speed gap ds = v_left - v_right is drawn, so that parallel (0),
    # diverging (< 0) and converging (> 0) pairs all come up
    _assert_schedule_matches_oracle(left, replace(right, speed=left.speed - ds), t)


def _assert_schedule_matches_oracle(left, right, t):
    """`_schedule`'s heap entry for the pair at time t is the oracle's
    meeting (t, x), or none, or the same ordering error."""
    heap = []
    try:
        t_meet = meeting_time(left, right, t)
    except ConsistencyError:
        with pytest.raises(ConsistencyError, match="front ordering lost"):
            _schedule(heap, left, right, t)
        assert heap == []
        return
    _schedule(heap, left, right, t)
    if t_meet is None:
        assert heap == []
    else:
        x = front_position(left, t_meet)
        assert front_position(right, t_meet) == x
        assert heap == [(floor(t_meet * 2**64), t_meet, x, left.fid, right.fid)]


@settings(max_examples=400, deadline=None)
@given(fr=fronts(), t=times, miss=st.one_of(st.just(F(0)), tiny, rationals))
def test_passes_through_matches_the_position_oracle(fr, t, miss):
    x = front_position(fr, t) + miss
    assert fr.passes_through(t, x) is (front_position(fr, t) == x) is (miss == 0)


# large numerators and denominators (up to about 2^100), of both signs
big_rationals = st.builds(
    F, st.integers(-(2**100), 2**100),
    st.one_of(st.integers(1, 2**100), st.sampled_from([2**61 - 1, 10**30 + 57])),
)
big_times = st.builds(F, st.integers(0, 2**80), st.integers(1, 2**80))


@st.composite
def big_fronts(draw):
    left = draw(big_rationals)
    right = draw(big_rationals.filter(lambda v: v != left))
    return Front(left, right, draw(big_rationals), draw(big_times), draw(big_rationals),
                 draw(st.integers(0, 9)))


@settings(max_examples=400, deadline=None)
@given(fr=st.one_of(fronts(), big_fronts()),
       t=st.one_of(st.just(0), times, big_times),
       other=st.one_of(fronts(), big_fronts()), ds=st.one_of(rationals, big_rationals))
@example(  # int t = 0, negative intercept and speed
    fr=_front(1, 0, -7, F(-5, 3)), t=0, other=_front(0, -1, 0, 1), ds=F(1))
@example(  # born at t = 3 with a large denominator, looked at before its birth
    fr=Front(F(1), F(0), F(-2, 2**61 - 1), F(3), F(-1, 10**30 + 57)), t=F(1, 2**40),
    other=_front(0, -1, 0, 1), ds=F(-1, 7))
def test_position_at_matches_the_position_oracle(fr, t, other, ds):
    x = fr.position_at(t)
    assert type(x) is F and x == front_position(fr, t)
    # a right neighbour, ds slower and |ds| to the right at time t
    right = replace(other, speed=fr.speed - ds, birth_time=F(t), birth_x=x + abs(ds))
    assert right.position_at(t) == x + abs(ds)
    _assert_schedule_matches_oracle(fr, right, F(t))


# meeting times that share the heap key floor(t * 2^64) with each other
# (offsets of 2^-80 and 2^-90) and times whose keys differ (2^-64 and 1)
key_ties = st.builds(F, st.integers(0, 2**70), st.integers(1, 2**70))
tie_offsets = st.sampled_from([F(0), F(1, 2**90), F(1, 2**80), F(3, 2**80), F(1, 2**64), F(1)])


@settings(max_examples=300, deadline=None)
@given(bases=st.lists(key_ties, min_size=1, max_size=3),
       meetings=st.lists(st.tuples(st.integers(0, 2), tie_offsets, st.integers(-3, 3),
                                   st.integers(0, 5)), min_size=2, max_size=12))
@example(  # equal keys: the earlier meeting pops first, at a larger x and fid
    bases=[F(1, 3)], meetings=[(0, F(1, 2**80), 0, 0), (0, F(0), 5, 7)])
def test_heap_pops_meetings_in_exact_order_when_keys_tie(bases, meetings):
    heap, expected = [], []
    for i, offset, x, fid in meetings:
        t = bases[i % len(bases)] + offset
        # a front at speed 1 and one at rest, ordered at t = 0, meet at (t, x)
        left, right = _front(1, 0, 1, x - t, fid=fid), _front(0, -1, 0, x, fid=fid + 1)
        _schedule(heap, left, right, F(0))
        expected.append((t, F(x), fid, fid + 1))
    popped = [heappop(heap) for _ in meetings]
    assert [entry[1:] for entry in popped] == sorted(expected)
    assert all(key == floor(t * 2**64) for key, t, *_ in popped)


# -- event resolution ----------------------------------------------------------


def _born(flux, left, right, speed, x, t=0, fid=-1):
    """The single front `solve_riemann` births for the jump (left, right) at
    (t, x), carrying its states' grid indices; it must equal the front
    `_front` builds from the same fields."""
    (fr,) = solve_riemann(flux.index_of(F(left)), flux.index_of(F(right)), flux, F(t), F(x), fid)
    assert fr == _front(left, right, speed, x, t, fid)
    return fr


def test_resolve_rejects_fronts_made_by_hand():
    # equal to the solver's fronts, but without the grid indices they carry
    incoming = [_front(1, 0, F(1, 2), 0), _front(0, -1, F(-1, 2), 1)]
    assert incoming == [_born(BURGERS, 1, 0, F(1, 2), 0), _born(BURGERS, 0, -1, F(-1, 2), 1)]
    with pytest.raises(TypeError):
        resolve_event(incoming, F(1), F(1, 2), BURGERS)


def test_resolve_same_sign_merge():
    incoming = [_born(BURGERS, 1, 0, F(1, 2), 0), _born(BURGERS, 0, -1, F(-1, 2), 1)]
    ev = resolve_event(incoming, F(1), F(1, 2), BURGERS)
    assert ev.kind == SAME_SIGN
    assert (ev.a, ev.b, ev.c) == (F(1), F(0), F(-1))
    assert [(fr.left, fr.right, fr.speed) for fr in ev.outgoing] == [
        (F(1), F(-1), F(0))
    ]


def test_resolve_cancellation_kind():
    incoming = [_born(BURGERS, 0, 1, F(1, 2), 0), _born(BURGERS, 1, -1, 0, 1)]
    # make them actually meet: speeds 1/2 and 0 from x=0 and x=1 meet at t=2, x=1
    ev = resolve_event(incoming, F(2), F(1), BURGERS)
    assert ev.kind == CANCELLATION
    assert (ev.a, ev.b, ev.c) == (F(0), F(1), F(-1))
    assert ev.canceled_mass == F(2)


def test_resolve_full_cancellation():
    incoming = [
        _born(TABLE, 0, 2, 1, 0),
        _born(TABLE, 2, -1, F(5, 6), 1),
        _born(TABLE, -1, 0, F(1, 2), 3),
    ]
    ev = resolve_event(incoming, F(6), F(6), TABLE)
    assert ev.kind == CANCELLATION
    assert ev.outgoing == ()
    assert (ev.a, ev.c) == (F(0), F(0))
    assert ev.b == F(2)  # the extremal intermediate state
    assert ev.canceled_mass == F(6)


def test_event_derived_fields_cannot_be_set():
    # an event's kind and merged states are read off its incoming fronts,
    # so no edit can make them disagree
    ev = evolve(TWO_SHOCK, BURGERS).events[0]
    for name, value in [("kind", CANCELLATION), ("a", ev.a + 1), ("b", ev.b + 1),
                        ("c", ev.c + 1)]:
        with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
            replace(ev, **{name: value})
    with pytest.raises(TypeError):
        InteractionEvent(ev.t, ev.x, ev.incoming, ev.outgoing, kind=SAME_SIGN)
    flipped = tuple(replace(fr, left=fr.right, right=fr.left) for fr in ev.incoming[::-1])
    moved = replace(ev, incoming=flipped)
    assert (moved.a, moved.b, moved.c) == (ev.c, ev.b, ev.a)


def test_resolve_rejects_nonchaining():
    incoming = [_born(BURGERS, 1, 0, F(1, 2), 0), _born(BURGERS, 1, -1, 0, 1)]
    with pytest.raises(ConsistencyError, match="colliding front states do not chain"):
        resolve_event(incoming, F(2), F(1), BURGERS)


def test_resolve_rejects_fronts_that_miss_the_event_point():
    # the pair meets at (1, 1/2); the triple at (1, 3/2), unless its middle
    # front is moved off the point
    wide = BURGERS_WIDE
    pair = [_born(wide, 1, 0, F(1, 2), 0), _born(wide, 0, -1, F(-1, 2), 1)]
    triple = [_born(wide, 2, 1, F(3, 2), 0), _born(wide, 1, 0, F(1, 2), 1),
              _born(wide, 0, -1, F(-1, 2), 2)]
    assert resolve_event(triple, F(1), F(3, 2), wide).outgoing
    off = [triple[0], _born(wide, 1, 0, F(1, 2), F(11, 10)), triple[2]]
    for block, t, x in [(pair, F(1), F(1)), (pair, F(2), F(1, 2)),
                        (off, F(1), F(3, 2))]:
        with pytest.raises(ConsistencyError,
                           match="colliding fronts do not meet at the event point"):
            resolve_event(block, t, x, BURGERS_WIDE)


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
    assert tl.slab_tvs[0] == tl.slab_tvs[-1] == F(4)
    validate_timeline(tl)


def test_triple_point_full_cancellation():
    tl = evolve(TRIPLE_POINT, TABLE)
    assert len(tl.events) == 1
    ev = tl.events[0]
    assert (ev.t, ev.x) == (F(6), F(6))
    assert len(ev.incoming) == 3 and ev.outgoing == ()
    assert tl.slab_tvs[1] == F(0)
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


def test_the_flux_window_is_checked_on_the_profiles_grid_coordinates():
    tight = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (0, 1))
    # a profile with jumps that leaves the window, one that leaves it only at
    # an off-grid value, and profiles without jumps whose constant leaves it
    for profile in (TWO_SHOCK, _profile(F(1, 2), (0, 3)), _profile(5), _profile(-1),
                    _profile(F(3, 2))):
        for run in (evolve, initial_fronts):
            with pytest.raises(InputError, match="flux window does not cover the profile's"):
                run(profile, tight)
    # inside the window an off-grid value is grid_index's error where there
    # are jumps, and a constant without jumps is not placed on the grid
    with pytest.raises(InputError, match="value 1/2 is not a multiple of the grid size 1"):
        evolve(_profile(F(1, 2), (0, 1)), tight)
    assert evolve(_profile(F(1, 2)), tight).slabs == ((),)


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


def test_profile_at_rejects_a_forged_slab():
    tl = evolve(TWO_SHOCK, BURGERS)
    first, second = tl.slabs[0]
    # the first front dropped: the second starts from 0, not the constant 1
    with pytest.raises(ConsistencyError, match="front states lost their chaining"):
        profile_at(_forge_slab(tl, 0, [second]), F(1, 2))
    # the second front born at x = -1, left of the first
    crossed = _forge_slab(tl, 0, [first, replace(second, birth_x=F(-1))])
    with pytest.raises(ConsistencyError, match="fronts crossed inside a slab"):
        profile_at(crossed, F(0))


def test_profile_at_matches_the_fraction_chain():
    # at every slab midpoint and every event time, on both sides, on runs
    # with merges, full cancellations, same-time events at distinct points
    # and three-front meetings
    runs = [harness.run_simulation(harness.parse_run_config(cfg)).timeline
            for cfg in (ladder_config("1/64"), suite_config(7), suite_config(27))]
    for tl in [evolve(TWO_SHOCK, BURGERS), evolve(WORKED_PROFILE, WORKED_FLUX),
               evolve(TRIPLE_POINT, TABLE), evolve(SIMULTANEOUS, BURGERS_WIDE), *runs]:
        for t in [*slab_midpoints(tl), *(ev.t for ev in tl.events)]:
            for side in ("pre", "post"):
                assert profile_at(tl, t, side) == fraction_profile_at(tl, t, side), (t, side)


def test_restarted_evolution_matches():
    tl = evolve(TWO_SHOCK, BURGERS)
    mid = profile_at(tl, F(1, 2))
    tl2 = evolve(mid, BURGERS)
    assert len(tl2.events) == 1
    assert (tl2.events[0].t, tl2.events[0].x) == (F(1, 2), F(1, 2))


def test_simultaneous_distinct_position_events():
    # two independent merging pairs, built to collide at the same instant,
    # plus a spreading fan between them that stays out of the way until later
    tl = evolve(SIMULTANEOUS, BURGERS_WIDE)
    first, second = tl.events[0], tl.events[1]
    assert first.t == second.t == F(1)
    assert first.x == F(1, 2) < second.x == F(25, 2)
    assert first.kind == SAME_SIGN and second.kind == SAME_SIGN
    # the slab between the two simultaneous events is empty but well-formed
    assert tl.slab_bounds(1) == (F(1), F(1))
    validate_timeline(tl)


def test_simultaneous_events_potential_bookkeeping():
    from fronttrack.potential import verify_run
    from fronttrack.tracing import advance_tracing, build_initial_waves, validate_tracing

    ws = advance_tracing(
        build_initial_waves(SIMULTANEOUS, F(1)), evolve(SIMULTANEOUS, BURGERS_WIDE)
    )
    validate_tracing(ws)
    series = verify_run(ws, restart_checks=3)
    assert series.all_pass, series.hard_failures
    # each simultaneous merge still drops Q by exactly half its speed change
    for ev in series.events[:2]:
        assert ev.t == F(1)
        assert ev.delta_sigma / 2 == ev.Q_minus - ev.Q_plus


def _forge_slab(tl, s, fronts):
    slabs = list(tl.slabs)
    slabs[s] = tuple(fronts)
    return replace(tl, slabs=tuple(slabs))


def test_validate_timeline_rejects_forged_inadmissible_fronts():
    tl = evolve(WORKED_PROFILE, WORKED_FLUX)
    validate_timeline(tl)
    # a front first seen in slab 2 (born at event 1), forged to a wrong speed
    late = list(tl.slabs[2])
    assert late[1].fid == tl.events[1].outgoing[0].fid
    late[1] = replace(late[1], speed=late[1].speed + 1)
    # slab 1's two chords over [1,2] and [2,3] merged into one front over the
    # convex [1,3] (two envelope pieces), carrying the fid of a slab-0 front
    # that passed the check
    f4, f5, *rest = tl.slabs[1]
    reused = tl.slabs[0][1].fid
    merged = replace(f4, right=f5.right, speed=F(3, 2), fid=reused)
    for forged in (_forge_slab(tl, 2, late), _forge_slab(tl, 1, [merged, *rest])):
        with pytest.raises(ConsistencyError, match="live front is not admissible"):
            validate_timeline(forged)


# -- the event-local tracker against the full-scan oracles ---------------------


def _assert_matches_oracle(profile, flux, max_events=None):
    """`evolve` gives the oracle's events, slabs, fronts and per-slab TV (the
    oracle sums each slab's front strengths), or the same partial timeline,
    and each event's derived kind and states follow their definitions."""
    try:
        ref = oracle_evolve(profile, flux, max_events)
    except TrackerError as exc:
        with pytest.raises(TrackerError) as info:
            evolve(profile, flux, max_events)
        assert str(info.value) == str(exc)
        tl, ref = info.value.partial_timeline, exc.partial_timeline
    else:
        tl = evolve(profile, flux, max_events)
    assert tl.events == ref.events
    assert tl.slabs == ref.slabs
    assert tl.fronts_by_id == ref.fronts_by_id
    assert tl.slab_tvs == ref.slab_tvs
    for ev in tl.events:
        assert (ev.kind, ev.b) == event_kind_and_b(ev.incoming)
        assert (ev.a, ev.c) == (ev.incoming[0].left, ev.incoming[-1].right)
    return tl


def _neighbours(tl, e):
    """The fronts beside event e's incoming block in slab e (None at an end)."""
    before, ev = tl.slabs[e], tl.events[e]
    i = before.index(ev.incoming[0])
    j = i + len(ev.incoming)
    return (before[i - 1] if i else None), (before[j] if j < len(before) else None)


def test_evolve_matches_oracle_on_the_suite(suite):
    for r in suite["runs"]:
        tl = r.timeline
        _assert_matches_oracle(tl.initial_profile, tl.flux)


def test_evolve_matches_oracle_on_the_ladder_rung_and_its_restarts():
    r = harness.run_simulation(harness.parse_run_config(ladder_config("1/64")))
    tl = _assert_matches_oracle(r.timeline.initial_profile, r.timeline.flux)
    assert len(tl.events) == 55
    for t in slab_midpoints(tl):
        _assert_matches_oracle(profile_at(tl, t), tl.flux)


def test_evolve_matches_oracle_on_the_worked_and_triple_point_runs():
    _assert_matches_oracle(WORKED_PROFILE, WORKED_FLUX)
    _assert_matches_oracle(TRIPLE_POINT, TABLE)


@pytest.mark.parametrize("end, profile", [
    ("left", _profile(-1, (1, 0), (3, -3), (4, 1), (6, -3), (10, 0))),
    ("middle", _profile(-4, (3, 0), (4, -2), (5, -1), (7, -3), (9, 3))),
    ("right", _profile(2, (7, -4), (8, -3), (9, 0), (10, -2), (11, -1))),
])
def test_full_cancellation_leaves_no_live_stale_entry(end, profile):
    # the cancelled block converged with a surviving neighbour, so the heap
    # still holds that pair's meeting, which must not fire
    tl = _assert_matches_oracle(profile, BURGERS_WIDE)
    validate_timeline(tl)
    e = next(i for i, ev in enumerate(tl.events) if not ev.outgoing)
    ev, (left, right) = tl.events[e], _neighbours(tl, e)
    assert {"left": left is None and right is not None,
            "middle": left is not None and right is not None,
            "right": left is not None and right is None}[end]
    assert ((left is not None and left.speed > ev.incoming[0].speed)
            or (right is not None and ev.incoming[-1].speed > right.speed))


def test_full_cancellation_schedules_the_pair_it_leaves():
    # event 1 cancels three fronts; their two neighbours converge and meet
    tl = _assert_matches_oracle(_profile(2, (0, 0), (4, 3), (5, -1), (8, 1), (10, -2)), TABLE)
    assert len(tl.events[1].incoming) == 3 and tl.events[1].outgoing == ()
    assert tl.events[2].incoming == _neighbours(tl, 1)


def test_same_time_events_at_distinct_positions_match_oracle():
    for profile, flux in [
        (SIMULTANEOUS, BURGERS_WIDE),
        (_profile(-2, (0, 3), (1, -1), (5, 1), (7, -1)), TABLE),
    ]:
        tl = _assert_matches_oracle(profile, flux)
        assert any(ev.t == nxt.t and ev.x < nxt.x
                   for ev, nxt in zip(tl.events, tl.events[1:]))


def test_three_front_meeting_matches_oracle():
    tl = _assert_matches_oracle(_profile(-2, (0, 2), (2, 1), (3, -1), (4, 0), (5, 2)), TABLE)
    ev = tl.events[0]
    assert len(ev.incoming) == 3 and None not in _neighbours(tl, 0)


def test_fan_born_beside_a_converging_neighbour():
    # event 0 splits into a two-front fan whose right front converges with
    # the x=4 front; they meet at event 1
    tl = _assert_matches_oracle(WORKED_PROFILE, WORKED_FLUX)
    fan = tl.events[0].outgoing
    assert len(fan) == 2
    _, right = _neighbours(tl, 0)
    assert fan[-1].speed > right.speed
    assert tl.events[1].incoming == (fan[-1], right)


@pytest.mark.parametrize("cap", [0, 1, 2])
def test_event_cap_partial_timeline_matches_oracle(cap):
    tl = _assert_matches_oracle(WORKED_PROFILE, WORKED_FLUX, max_events=cap)
    assert len(tl.events) == cap


def _assert_kinematics_match_oracle(tl):
    """Every front's derived fields, and its position at t = 0, at its birth
    and at every event time of the run, as restated from its states and
    birth point."""
    times = [F(0)] + [ev.t for ev in tl.events]
    for fr in tl.fronts_by_id.values():
        assert fr.sign == front_kinematics(fr)[0]
        assert F(*fr.line[:2]) == front_position(fr, F(0))
        for t in [fr.birth_time, *times]:
            assert fr.position_at(t) == front_position(fr, t)


def test_front_kinematics_match_oracle_on_the_ladder_rung_and_its_restarts():
    r = harness.run_simulation(harness.parse_run_config(ladder_config("1/64")))
    tl = r.timeline
    _assert_kinematics_match_oracle(tl)
    for t in slab_midpoints(tl):
        _assert_kinematics_match_oracle(evolve(profile_at(tl, t), tl.flux))
    # a front born at an event, off the t = 0 line
    fr = tl.events[-1].outgoing[0]
    assert fr.birth_time > 0 and F(*fr.line[:2]) != fr.birth_x
    for name in ("sign", "line"):
        with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
            replace(fr, **{name: getattr(fr, name)})
    eps = tl.flux.epsilon
    for edit in [{"birth_x": fr.birth_x + F(1, 3)}, {"birth_time": fr.birth_time + 1},
                 {"speed": fr.speed - F(1, 5)}, {"left": fr.right, "right": fr.left},
                 {"right": fr.right + 3 * eps * fr.sign}]:
        moved = replace(fr, **edit)
        assert moved.sign == front_kinematics(moved)[0]
        for t in (F(0), moved.birth_time, fr.birth_time + 2):
            assert moved.position_at(t) == front_position(moved, t)
    moved = replace(fr, birth_x=fr.birth_x + F(1, 3))
    assert F(*moved.line[:2]) == F(*fr.line[:2]) + F(1, 3)


# -- validate_timeline against the full-scan oracle ------------------------------


def _forgeries(tl):
    """(what, timeline) for single edits of one front in one slab, of the
    fronts' order in one slab, and of one event's point."""
    for s, slab in enumerate(tl.slabs):
        fronts = list(slab)
        for j, fr in enumerate(fronts):
            edits = {
                "speed": replace(fr, speed=fr.speed + F(1, 3)),
                "birth_x": replace(fr, birth_x=fr.birth_x + F(1, 5)),
                "birth_time": replace(fr, birth_time=fr.birth_time + F(1, 7)),
            }
            for field in ("left", "right"):
                other = fr.right if field == "left" else fr.left
                for step in (-1, 1):
                    value = getattr(fr, field) + step * tl.flux.epsilon
                    if value != other:
                        edits[f"{field} {step:+}"] = replace(fr, **{field: value})
            for what, forged in edits.items():
                yield f"slab {s} front {j} {what}", _forge_slab(
                    tl, s, fronts[:j] + [forged] + fronts[j + 1:])
            yield f"slab {s} drop {j}", _forge_slab(tl, s, fronts[:j] + fronts[j + 1:])
            yield f"slab {s} duplicate {j}", _forge_slab(
                tl, s, fronts[:j + 1] + fronts[j:])
            if j + 1 < len(fronts):
                swapped = fronts[:j] + [fronts[j + 1], fronts[j]] + fronts[j + 2:]
                yield f"slab {s} swap {j}", _forge_slab(tl, s, swapped)
    for e, ev in enumerate(tl.events):
        for field in ("t", "x"):
            events = list(tl.events)
            events[e] = replace(ev, **{field: getattr(ev, field) + F(1, 11)})
            yield f"event {e} {field}", replace(tl, events=tuple(events))


def _rejects(validate, tl):
    try:
        validate(tl)
    except ConsistencyError:
        return True
    return False


def test_validate_timeline_rejects_what_the_oracle_rejects(suite):
    # the oracle reads an event's time (the slab bounds) but never its x, so
    # it accepts the x edits; the event-local checks reject them all
    runs = [r.timeline for r in suite["runs"][:3]]
    by_oracle = 0
    for tl in [evolve(WORKED_PROFILE, WORKED_FLUX), *runs]:
        validate_timeline(tl)
        for what, forged in _forgeries(tl):
            by_oracle += _rejects(oracle_validate_timeline, forged)
            assert _rejects(validate_timeline, forged), what
    assert by_oracle > 400


def _substitute(tl, swaps):
    """``tl`` with each front in ``swaps`` replaced in every slab and event."""
    def sub(fronts):
        return tuple(swaps.get(fr, fr) for fr in fronts)
    slabs = tuple(sub(fronts) for fronts in tl.slabs)
    events = tuple(replace(ev, incoming=sub(ev.incoming), outgoing=sub(ev.outgoing))
                   for ev in tl.events)
    return replace(tl, slabs=slabs, events=events)


def test_validate_timeline_checks_each_event_point():
    # event 0's fan moved along x in every slab, with and without the
    # event's own point
    tl = evolve(WORKED_PROFILE, WORKED_FLUX)
    ev = tl.events[0]
    moved = _substitute(tl, {fr: replace(fr, birth_x=fr.birth_x + 1) for fr in ev.outgoing})
    events = (replace(moved.events[0], x=ev.x + 1), *moved.events[1:])
    for forged in (moved, replace(moved, events=events)):
        assert _rejects(oracle_validate_timeline, forged)
        with pytest.raises(ConsistencyError, match="event 0: its fronts do not meet"):
            validate_timeline(forged)


def test_validate_timeline_checks_neighbours_at_each_event():
    # the first front, moved 6 to the right in every slab and event (the
    # last front moved 6 to the left keeps the moment), reaches x = 5/2 at
    # event 0, past the point 3/2 where its neighbours meet
    tl = evolve(_profile(3, (-6, 2), (0, 1), (1, 0), (20, -1)), BURGERS_WIDE)
    validate_timeline(tl)
    first, *_, last = tl.slabs[0]
    assert (tl.events[0].t, tl.events[0].x) == (F(1), F(3, 2))
    forged = _substitute(tl, {first: replace(first, birth_x=first.birth_x + 6),
                              last: replace(last, birth_x=last.birth_x - 6)})
    for validate in (oracle_validate_timeline, validate_timeline):
        with pytest.raises(ConsistencyError, match="fronts crossed inside a slab"):
            validate(forged)


def test_validate_timeline_checks_the_slab_tv_owner():
    tl = evolve(WORKED_PROFILE, WORKED_FLUX)
    for s in range(len(tl.slabs)):
        tvs = list(tl.slab_tvs)
        tvs[s] += 1
        with pytest.raises(ConsistencyError, match="slab total variation"):
            validate_timeline(replace(tl, slab_tvs=tuple(tvs)))


# -- validate_timeline against the Fraction validator ----------------------------


def _verdict(validate, subject):
    """None when ``validate`` accepts ``subject``, else the type and message
    of the exception it raises."""
    try:
        validate(subject)
    except Exception as exc:  # the type is part of the verdict
        return type(exc), str(exc)
    return None


def test_validate_timeline_matches_the_fraction_validator(suite):
    # the same verdict, exception type and message on the worked run, the
    # first three suite runs and the 1/64 ladder rung as run, on every
    # single-front, order and event-point edit (on the rung: those of slab 0,
    # of the last slab and of the events), and on every front with a state
    # moved off the grid or outside the flux window
    rung = harness.run_simulation(harness.parse_run_config(ladder_config("1/64"))).timeline
    runs = [evolve(WORKED_PROFILE, WORKED_FLUX), *(r.timeline for r in suite["runs"][:3])]
    kept = ("slab 0 ", f"slab {len(rung.slabs) - 1} ", "event ")
    verdicts = Counter()
    for tl in [*runs, rung]:
        assert _verdict(validate_timeline, tl) is None
        edits = _forgeries(tl)
        if tl is rung:
            edits = (edit for edit in edits if edit[0].startswith(kept))
        for what, forged in [*edits, *state_forgeries(tl)]:
            expected = _verdict(fraction_validate_timeline, forged)
            assert _verdict(validate_timeline, forged) == expected, what
            verdicts[expected and expected[0]] += 1
    # off-grid states that chain reach the admissibility check's grid index
    assert verdicts[ConsistencyError] > 2000 and verdicts[InputError] > 100

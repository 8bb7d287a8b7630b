"""Envelope algebra: examples against an independent hull oracle, plus properties."""

from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fronttrack.envelope import (
    GridFlux,
    curvature_constant,
    envelope,
    sample_flux,
)
from fronttrack.errors import DomainError, InputError
from fronttrack.rationals import grid_index

from oracles import hull_oracle_values, ordinates, piece_slopes, rh_speed, slope_at, value_at

BURGERS = {"polynomial": ["0", "0", "1/2"]}
CUBIC = {"polynomial": ["0", "0", "0", "1"]}


def envelope_matches_oracle(flux, ka, kb):
    """Both envelopes on [ka, kb] against the chord oracle: the concave one is
    minus the convex hull of the negated samples."""
    for sign in (1, -1):
        pts = [(flux.grid_u(k), sign * flux.value_at_index(k)) for k in range(ka, kb + 1)]
        expected = hull_oracle_values(pts)
        env = envelope(flux, flux.grid_u(ka), flux.grid_u(kb), sign)
        for (x, _), want in zip(pts, expected):
            assert value_at(flux, env, x) == sign * want
        # hull vertices must be sample points where envelope touches the samples
        sample = dict(pts)
        for bp, val in zip(env.breakpoints, ordinates(flux, env)):
            assert sample[bp] == sign * val


# -- sampling ----------------------------------------------------------------


def test_sample_burgers_unit_grid():
    f = sample_flux(BURGERS, "1", (-2, 2))
    assert f.values == (F(2), F(1, 2), F(0), F(1, 2), F(2))


def test_sample_cubic_half_grid():
    f = sample_flux(CUBIC, "1/2", (-2, 2))
    assert f.values == (F(-1), F(-1, 8), F(0), F(1, 8), F(1))


def test_sample_table_echoes():
    f = sample_flux({"table": {"-1": "3/7", "0": "0", "1": "2/5"}}, "1", (-1, 1))
    assert f.values == (F(3, 7), F(0), F(2, 5))


def test_sample_table_missing_point():
    with pytest.raises(InputError):
        sample_flux({"table": {"0": "0", "1": "1"}}, "1", (-1, 1))


def test_sample_degenerate_range():
    with pytest.raises(InputError):
        sample_flux(BURGERS, "1", (2, 2))
    with pytest.raises(InputError):
        sample_flux(BURGERS, "0", (-1, 1))


# -- envelopes ---------------------------------------------------------------


def test_convex_envelope_of_convex_flux_is_identity():
    f = sample_flux(BURGERS, "1", (-2, 2))
    env = envelope(f, F(-1), F(1), 1)
    assert env.breakpoints == (F(-1), F(0), F(1))
    assert ordinates(f, env) == (F(1, 2), F(0), F(1, 2))


def test_convex_envelope_collinear_cubic_points():
    f = sample_flux(CUBIC, "1", (-1, 1))
    env = envelope(f, F(-1), F(1), 1)
    assert env.breakpoints == (F(-1), F(1))
    assert piece_slopes(env) == [F(1)]


def test_convex_envelope_cubic_quarter_grid():
    f = sample_flux(CUBIC, "1/4", (-4, 4))
    env = envelope(f, F(-1), F(1), 1)
    # chord from (-1,-1) to the tangency point (1/2, 1/8), then the samples
    assert env.breakpoints == (F(-1), F(1, 2), F(3, 4), F(1))
    assert piece_slopes(env) == [F(3, 4), F(19, 16), F(37, 16)]
    envelope_matches_oracle(f, -4, 4)


def test_concave_envelope_burgers_single_chord():
    f = sample_flux(BURGERS, "1", (-2, 2))
    env = envelope(f, F(-1), F(1), -1)
    assert env.breakpoints == (F(-1), F(1))
    assert ordinates(f, env) == (F(1, 2), F(1, 2))
    assert piece_slopes(env) == [F(0)]


def test_concave_envelope_of_concave_input_is_identity():
    f = sample_flux({"polynomial": ["0", "0", "-1"]}, "1", (-2, 2))
    env = envelope(f, F(-2), F(2), -1)
    assert env.breakpoints == (F(-2), F(-1), F(0), F(1), F(2))


def test_envelope_on_two_point_interval_is_chord():
    f = sample_flux(CUBIC, "1", (-2, 2))
    for sign in (1, -1):
        env = envelope(f, F(1), F(2), sign)
        assert env.breakpoints == (F(1), F(2))
        assert piece_slopes(env) == [F(7)]


def test_envelope_errors():
    f = sample_flux(BURGERS, "1", (-2, 2))
    with pytest.raises(InputError):
        envelope(f, F(1), F(1), 1)
    with pytest.raises(DomainError):
        envelope(f, F(-3), F(1), 1)
    with pytest.raises(InputError):
        envelope(f, F(1, 3), F(1), 1)  # off-grid endpoint


# -- slopes ------------------------------------------------------------------


def test_slope_at_interior_of_chord():
    f = sample_flux(CUBIC, "1", (-1, 1))
    env = envelope(f, F(-1), F(1), 1)
    assert slope_at(env, F(0), "left") == F(1)
    assert slope_at(env, F(0), "right") == F(1)


def test_slope_at_cubic_quarter_grid():
    f = sample_flux(CUBIC, "1/4", (-4, 4))
    env = envelope(f, F(-1), F(1), 1)
    assert slope_at(env, F(1, 4), "right") == F(3, 4)


def test_slope_at_breakpoint_one_sided():
    f = sample_flux(CUBIC, "1/4", (-4, 4))
    env = envelope(f, F(-1), F(1), 1)
    assert slope_at(env, F(1, 2), "left") == F(3, 4)
    assert slope_at(env, F(1, 2), "right") == F(19, 16)


def test_slope_at_domain_edges():
    f = sample_flux(BURGERS, "1", (-2, 2))
    env = envelope(f, F(-1), F(1), 1)
    assert slope_at(env, F(-1), "right") == F(-1, 2)
    with pytest.raises(DomainError):
        slope_at(env, F(-1), "left")
    with pytest.raises(DomainError):
        slope_at(env, F(2), "right")


# -- rh speed ----------------------------------------------------------------


def test_rh_speed_examples():
    f = sample_flux(BURGERS, "1", (-2, 2))
    assert rh_speed(f, F(0), F(1)) == F(1, 2)
    assert rh_speed(f, F(-1), F(1)) == F(0)
    g = sample_flux(CUBIC, "1", (-2, 2))
    assert rh_speed(g, F(-1), F(0)) == F(1)
    with pytest.raises(InputError):
        rh_speed(f, F(1), F(1))


# -- curvature ---------------------------------------------------------------


def test_curvature_burgers():
    f = sample_flux(BURGERS, "1", (-2, 2))
    assert curvature_constant(f) == F(1)


def test_curvature_affine_flux():
    f = sample_flux({"polynomial": ["1", "2/3"]}, "1", (-3, 3))
    assert curvature_constant(f) == F(0)


def test_curvature_cubic_windows():
    narrow = sample_flux(CUBIC, "1", (-1, 1))
    assert curvature_constant(narrow) == F(0)
    wide = sample_flux(CUBIC, "1", (-2, 2))
    assert curvature_constant(wide) == F(6)


def test_curvature_needs_three_points():
    f = sample_flux(BURGERS, "1", (0, 1))
    with pytest.raises(InputError):
        curvature_constant(f)


def test_fluxes_sampled_apart_compare_and_hash_equal():
    f, g = (sample_flux(CUBIC, "1/4", (-4, 4)) for _ in range(2))
    table = {"table": {str(k): str(v) for k, v in zip(range(-4, 5), f.values)}}
    h = sample_flux(table, "1/4", (-4, 4))
    for other in (g, h):
        assert other is not f and other == f and hash(other) == hash(f)


def test_a_flux_off_by_one_over_d_in_one_sample_is_not_equal():
    f = sample_flux(CUBIC, "1/4", (-4, 4))
    d = lcm(*(v.denominator for v in f.values))
    assert d == 64
    for i in range(len(f.values)):
        for step in (F(1, d), F(-1, d)):
            values = f.values[:i] + (f.values[i] + step,) + f.values[i + 1:]
            assert GridFlux(f.epsilon, f.k_min, f.k_max, values) != f
    # the same samples on another grid or window
    assert GridFlux(F(1, 2), f.k_min, f.k_max, f.values) != f
    assert GridFlux(f.epsilon, f.k_min + 1, f.k_max + 1, f.values) != f
    assert f != f.values


def test_grid_index_on_and_off_the_grid():
    eps = F(3, 8)
    for k in (-9, -1, 0, 1, 8):
        assert grid_index(k * eps, eps) == k
    assert grid_index(3, eps) == 8  # an int state
    for u in (F(1, 8), F(-1, 8), F(3, 4) + F(1, 16), F(-7, 3), F(1, 3)):
        with pytest.raises(InputError, match=f"^value {u} is not a multiple of the grid size 3/8$"):
            grid_index(u, eps)
    f = sample_flux(BURGERS, "3/8", (-2, 2))
    assert [f.index_of(k * eps) for k in (-2, 0, 2)] == [-2, 0, 2]
    for a, b, sign in ((F(-9, 8), F(0), 1), (F(0), F(9, 8), -1), (F(-9, 8), F(9, 8), 1)):
        with pytest.raises(DomainError, match="outside the flux window"):
            envelope(f, a, b, sign)
    with pytest.raises(InputError, match="not a multiple of the grid size"):
        envelope(f, F(1, 8), F(3, 8), 1)


# -- property tests ----------------------------------------------------------

small_flux = st.builds(
    lambda eps_den, vals: GridFlux(
        F(1, eps_den), 0, len(vals) - 1, tuple(F(n, d) for n, d in vals)
    ),
    st.sampled_from([1, 2, 4]),
    st.lists(
        st.tuples(st.integers(-12, 12), st.integers(1, 4)), min_size=3, max_size=9
    ),
)


@settings(max_examples=120, deadline=None)
@given(small_flux, st.data())
def test_envelope_equals_hull_oracle(f, data):
    ka = data.draw(st.integers(f.k_min, f.k_max - 1))
    kb = data.draw(st.integers(ka + 1, f.k_max))
    envelope_matches_oracle(f, ka, kb)


@settings(max_examples=100, deadline=None)
@given(small_flux)
def test_envelope_minorant_and_endpoint_equality(f):
    a, b = f.grid_u(f.k_min), f.grid_u(f.k_max)
    env = envelope(f, a, b, 1)
    for k in range(f.k_min, f.k_max + 1):
        assert value_at(f, env, f.grid_u(k)) <= f.value_at_index(k)
    assert value_at(f, env, a) == f.value_at_index(f.k_min)
    assert value_at(f, env, b) == f.value_at_index(f.k_max)


@settings(max_examples=100, deadline=None)
@given(small_flux)
def test_envelope_idempotent(f):
    a, b = f.grid_u(f.k_min), f.grid_u(f.k_max)
    env = envelope(f, a, b, 1)
    # resample the envelope on the same grid and take the envelope again
    resampled = GridFlux(
        f.epsilon,
        f.k_min,
        f.k_max,
        tuple(value_at(f, env, f.grid_u(k)) for k in range(f.k_min, f.k_max + 1)),
    )
    again = envelope(resampled, a, b, 1)
    assert again == env


@settings(max_examples=100, deadline=None)
@given(small_flux)
def test_concave_convex_duality(f):
    a, b = f.grid_u(f.k_min), f.grid_u(f.k_max)
    neg = GridFlux(f.epsilon, f.k_min, f.k_max, tuple(-v for v in f.values))
    conc = envelope(f, a, b, -1)
    conv_of_neg = envelope(neg, a, b, 1)
    assert conc.breakpoints == conv_of_neg.breakpoints
    assert ordinates(f, conc) == tuple(-y for y in ordinates(neg, conv_of_neg))


@settings(max_examples=100, deadline=None)
@given(small_flux)
def test_envelope_slope_monotonicity(f):
    a, b = f.grid_u(f.k_min), f.grid_u(f.k_max)
    conv_slopes = piece_slopes(envelope(f, a, b, 1))
    assert all(s < t for s, t in zip(conv_slopes, conv_slopes[1:]))
    conc_slopes = piece_slopes(envelope(f, a, b, -1))
    assert all(s > t for s, t in zip(conc_slopes, conc_slopes[1:]))


@settings(max_examples=100, deadline=None)
@given(small_flux, st.data())
def test_rh_speed_between_extreme_envelope_slopes(f, data):
    ka = data.draw(st.integers(f.k_min, f.k_max - 1))
    kb = data.draw(st.integers(ka + 1, f.k_max))
    a, b = f.grid_u(ka), f.grid_u(kb)
    slopes = piece_slopes(envelope(f, a, b, 1))
    speed = rh_speed(f, a, b)
    assert min(slopes) <= speed <= max(slopes)


@settings(max_examples=100, deadline=None)
@given(small_flux, st.data())
def test_envelope_slope_gap_bounded_by_curvature(f, data):
    if f.k_max - f.k_min < 2:
        return
    K = curvature_constant(f)
    assert K >= 0
    ka = data.draw(st.integers(f.k_min, f.k_max - 1))
    kb = data.draw(st.integers(ka + 1, f.k_max))
    env = envelope(f, f.grid_u(ka), f.grid_u(kb), 1)
    ku = data.draw(st.integers(ka, kb - 1))
    kv = data.draw(st.integers(ku, kb - 1))
    mid_u = f.grid_u(ku) + f.epsilon / 2
    mid_v = f.grid_u(kv) + f.epsilon / 2
    su = slope_at(env, mid_u)
    sv = slope_at(env, mid_v)
    assert abs(sv - su) <= K * (mid_v - mid_u)

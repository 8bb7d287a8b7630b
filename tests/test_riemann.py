import json
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fronttrack import harness, riemann, tracker
from fronttrack.envelope import (
    GridFlux,
    PiecewiseLinearFn,
    _concave_by_index,
    _convex_by_index,
    envelope,
    sample_flux,
)
from fronttrack.errors import ConsistencyError, InputError
from fronttrack.riemann import Front, is_admissible, solve_riemann

from suite_builder import ladder_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BURGERS = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (-2, 2))
CARRIED = ("k_left", "k_right")  # a front's grid indices, set only by the solver


def test_burgers_shock():
    fronts = solve_riemann(1, -1, BURGERS)
    assert len(fronts) == 1
    (fr,) = fronts
    assert (fr.left, fr.right, fr.speed) == (F(1), F(-1), F(0))


def test_burgers_discretized_rarefaction():
    fronts = solve_riemann(-1, 1, BURGERS)
    assert [(fr.left, fr.right, fr.speed) for fr in fronts] == [
        (F(-1), F(0), F(-1, 2)),
        (F(0), F(1), F(1, 2)),
    ]


def test_null_jump():
    assert solve_riemann(0, 0, BURGERS) == []


def test_decreasing_jump_nonconvex_flux():
    cubic = sample_flux({"polynomial": ["0", "0", "0", "1"]}, "1/2", (-2, 2))
    fronts = solve_riemann(2, -2, cubic)  # the states 1 and -1
    assert [(fr.left, fr.right, fr.speed) for fr in fronts] == [
        (F(1), F(-1, 2), F(3, 4)),
        (F(-1, 2), F(-1), F(7, 4)),
    ]


def test_front_rejects_null_jump():
    with pytest.raises(InputError, match="a front must carry a nonzero jump"):
        Front(F(1), F(1), F(0), F(0), F(0))


def _crafted_envelope(monkeypatch, breakpoints, slopes):
    """Make `solve_riemann` read these pieces, between grid points of
    `BURGERS`, in place of the flux's envelope."""
    indices = tuple(BURGERS.index_of(u) for u in breakpoints)
    env = PiecewiseLinearFn(indices, breakpoints, slopes)
    monkeypatch.setattr(riemann, "envelope", lambda *args: env)


@pytest.mark.parametrize("u_left, u_right", [(F(-1), F(1)), (F(1), F(-1))])
def test_solve_riemann_rejects_a_fan_whose_speeds_do_not_increase(
    monkeypatch, u_left, u_right
):
    _crafted_envelope(monkeypatch, (F(-1), F(0), F(1)), (F(1, 2), F(1, 2)))
    with pytest.raises(ConsistencyError, match="Riemann fan speeds must strictly increase"):
        solve_riemann(BURGERS.index_of(u_left), BURGERS.index_of(u_right), BURGERS)


@pytest.mark.parametrize("u_left, u_right", [(F(-1), F(1)), (F(1), F(-1))])
def test_solve_riemann_rejects_a_fan_that_misses_the_data(monkeypatch, u_left, u_right):
    # the pieces span [-1, 0] only: the fan stops short of one end state
    _crafted_envelope(monkeypatch, (F(-1), F(0)), (F(1, 2),))
    with pytest.raises(ConsistencyError, match="Riemann fan states do not chain to the data"):
        solve_riemann(BURGERS.index_of(u_left), BURGERS.index_of(u_right), BURGERS)


def test_only_the_solver_sets_a_fronts_grid_indices():
    (fr,) = solve_riemann(1, -1, BURGERS, F(0), F(0), 3)
    assert (fr.k_left, fr.k_right) == (1, -1)
    for name in CARRIED:
        with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
            replace(fr, **{name: 0})
        with pytest.raises(TypeError):
            Front(F(1), F(-1), F(0), F(0), F(0), **{name: 1})
    # a front made by hand or by `replace` carries None, which the solver,
    # the first integer use on the hot path, rejects
    for made in (Front(F(1), F(-1), F(0), F(0), F(0), 3), replace(fr, birth_x=F(1))):
        assert (made.k_left, made.k_right) == (None, None)
        assert (made.left, made.right, made.speed) == (fr.left, fr.right, fr.speed)
        with pytest.raises(TypeError):
            solve_riemann(made.k_left, made.k_right, BURGERS)


def test_solver_and_envelope_reject_an_index_that_is_not_an_int():
    # an integral Fraction hashes like its int, so a warm hull cache would
    # hand it the int call's hull: both entry points reject it, and a bool,
    # on every call, cold or warm, without touching the caches.  The flux is
    # one no other test samples, so its hulls start cold
    f = sample_flux({"polynomial": ["0", "0", "1/2", "1/977"]}, "1", (-2, 2))

    def counts():
        return [cache.cache_info()[:2] for cache in (_convex_by_index, _concave_by_index)]

    def assert_rejected():
        before = counts()
        for k_left, k_right in [(F(1), F(-1)), (1, F(-1)), (F(-1), 1), (True, -1), (F(1), F(1))]:
            with pytest.raises(TypeError, match="grid indices must be ints"):
                solve_riemann(k_left, k_right, f)
            lo, hi = sorted([k_left, k_right])
            for sign in (1, -1):
                with pytest.raises(TypeError, match="grid indices must be ints"):
                    envelope(f, lo, hi, sign)
        assert counts() == before

    assert_rejected()
    (fr,) = solve_riemann(1, -1, f)
    assert_rejected()
    assert solve_riemann(1, -1, f) == [fr]


def test_is_admissible_examples():
    assert is_admissible(Front(F(1), F(-1), F(0), F(0), F(0)), BURGERS, 1, -1)
    # an increasing unit-spread jump is a two-piece fan, not one front
    assert not is_admissible(Front(F(-1), F(1), F(0), F(0), F(0)), BURGERS, -1, 1)
    assert is_admissible(Front(F(0), F(1), F(1, 2), F(0), F(0)), BURGERS, 0, 1)


def _centered_flux(eps_den, vals):
    half = len(vals) // 2
    return GridFlux(
        F(1, eps_den), -half, len(vals) - 1 - half, tuple(F(n, d) for n, d in vals)
    )


small_flux = st.builds(
    _centered_flux,
    st.sampled_from([1, 2, 4]),
    st.lists(
        st.tuples(st.integers(-10, 10), st.integers(1, 4)), min_size=3, max_size=9
    ),
)


@settings(max_examples=150, deadline=None)
@given(small_flux, st.data())
def test_fan_conservation_ordering_and_resolve(f, data):
    ka = data.draw(st.integers(f.k_min, f.k_max))
    kb = data.draw(st.integers(f.k_min, f.k_max).filter(lambda k: k != ka))
    uL, uR = f.grid_u(ka), f.grid_u(kb)
    fronts = solve_riemann(ka, kb, f)

    # Rankine-Hugoniot summed across the fan
    total = sum(fr.speed * (fr.right - fr.left) for fr in fronts)
    assert total == f.value_at_index(kb) - f.value_at_index(ka)

    # chained monotone states, strictly increasing speeds
    assert fronts[0].left == uL and fronts[-1].right == uR
    for a, b in zip(fronts, fronts[1:]):
        assert a.right == b.left
        assert a.speed < b.speed
    direction = 1 if uR > uL else -1
    for fr in fronts:
        assert fr.sign == direction

    # every output front carries its states' grid indices, is admissible
    # and re-solves to itself
    for fr in fronts:
        assert (fr.k_left, fr.k_right) == (f.index_of(fr.left), f.index_of(fr.right))
        assert is_admissible(fr, f, f.index_of(fr.left), f.index_of(fr.right))
        again = solve_riemann(f.index_of(fr.left), f.index_of(fr.right), f)
        assert [(g.left, g.right, g.speed) for g in again] == [
            (fr.left, fr.right, fr.speed)
        ]


# -- fan templates against the fronts they stand for ---------------------------


def _record_solves(monkeypatch):
    """Record (arguments, fronts) of every `solve_riemann` call that front
    tracking makes from now on."""
    calls = []

    def recording(k_left, k_right, flux, t0, x0, fid_start):
        fronts = solve_riemann(k_left, k_right, flux, t0, x0, fid_start)
        calls.append(((k_left, k_right, flux, t0, x0, fid_start), fronts))
        return fronts

    monkeypatch.setattr(tracker, "solve_riemann", recording)
    return calls


def _assert_born_as_constructed(calls):
    """Each front equals, field for field (`vars`, so the derived fields that
    `Front.__eq__` skips too), the front constructed from its piece, except
    for the grid indices of its states, which only `solve_riemann` sets: they
    must be the indices `GridFlux.index_of` gives its states."""
    for (k_left, k_right, flux, t0, x0, fid_start), fronts in calls:
        assert fronts[0].left == flux.grid_u(k_left) and fronts[-1].right == flux.grid_u(k_right)
        assert fronts[0].k_left == k_left and fronts[-1].k_right == k_right
        for fid, fr in enumerate(fronts, fid_start):
            built = Front(fr.left, fr.right, fr.speed, t0, x0, fid)
            assert type(fr) is Front
            assert ({k: v for k, v in vars(fr).items() if k not in CARRIED}
                    == {k: v for k, v in vars(built).items() if k not in CARRIED})
            assert (fr.k_left, fr.k_right) == (flux.index_of(fr.left), flux.index_of(fr.right))
            assert (built.k_left, built.k_right) == (None, None)


def test_fans_match_constructed_fronts_on_the_ladder_rung_and_its_restarts(monkeypatch):
    calls = _record_solves(monkeypatch)
    r = harness.run_simulation(harness.parse_run_config(ladder_config("1/64", probes=56)))
    assert len(r.timeline.slabs) == 56
    _assert_born_as_constructed(calls)
    # the rung's own fans, and the probes' re-solved ones
    assert len(calls) > 56 * len(r.timeline.initial_profile.jumps)
    assert any(t0 > 0 for (_, _, _, t0, _, _), _ in calls)


def test_fans_match_constructed_fronts_on_the_nonconvex_config(monkeypatch):
    calls = _record_solves(monkeypatch)
    config = json.loads((CONFIGS / "nonconvex_splitting.json").read_text())
    harness.run_simulation(harness.parse_run_config(config))
    _assert_born_as_constructed(calls)
    # the concave flux splits increasing jumps into fans of two fronts
    assert any(len(fronts) > 1 for _, fronts in calls)
    assert any(k_right < k_left for (k_left, k_right, *_), _ in calls)


def test_a_hulls_fan_template_is_built_once(monkeypatch):
    # a flux no other test samples, so that its hulls start without templates
    flux = sample_flux({"polynomial": ["0", "1/7", "0", "-5/11"]}, "1/3", (-6, 6))
    fan, builds = riemann._fan, []

    def counting(hull, rising, k_left, k_right):
        builds.append(rising)
        return fan(hull, rising, k_left, k_right)

    monkeypatch.setattr(riemann, "_fan", counting)
    for k_left, k_right in [(-6, 6), (6, -6)]:  # the states -2 and 2
        first = solve_riemann(k_left, k_right, flux, F(0), F(1), 0)
        again = solve_riemann(k_left, k_right, flux, F(1, 2), F(-3), 5)
        hull = riemann.envelope(flux, min(k_left, k_right), max(k_left, k_right),
                                1 if k_right > k_left else -1)
        assert builds == [k_right > k_left] and hull.fans[k_right > k_left] is not None
        assert len(first) > 1
        _assert_born_as_constructed([((k_left, k_right, flux, F(0), F(1), 0), first),
                                     ((k_left, k_right, flux, F(1, 2), F(-3), 5), again)])
        builds.clear()

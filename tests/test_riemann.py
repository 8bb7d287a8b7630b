import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fronttrack import harness, riemann, tracker
from fronttrack.envelope import GridFlux, PiecewiseLinearFn, sample_flux
from fronttrack.errors import ConsistencyError, InputError
from fronttrack.riemann import Front, is_admissible, solve_riemann

from suite_builder import ladder_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BURGERS = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (-2, 2))


def test_burgers_shock():
    fronts = solve_riemann(F(1), F(-1), BURGERS)
    assert len(fronts) == 1
    (fr,) = fronts
    assert (fr.left, fr.right, fr.speed) == (F(1), F(-1), F(0))


def test_burgers_discretized_rarefaction():
    fronts = solve_riemann(F(-1), F(1), BURGERS)
    assert [(fr.left, fr.right, fr.speed) for fr in fronts] == [
        (F(-1), F(0), F(-1, 2)),
        (F(0), F(1), F(1, 2)),
    ]


def test_null_jump():
    assert solve_riemann(F(0), F(0), BURGERS) == []


def test_decreasing_jump_nonconvex_flux():
    cubic = sample_flux({"polynomial": ["0", "0", "0", "1"]}, "1/2", (-2, 2))
    fronts = solve_riemann(F(1), F(-1), cubic)
    assert [(fr.left, fr.right, fr.speed) for fr in fronts] == [
        (F(1), F(-1, 2), F(3, 4)),
        (F(-1, 2), F(-1), F(7, 4)),
    ]


def test_front_rejects_null_jump():
    with pytest.raises(InputError, match="a front must carry a nonzero jump"):
        Front(F(1), F(1), F(0), F(0), F(0))


def _crafted_envelope(monkeypatch, breakpoints, slopes):
    """Make `solve_riemann` read these pieces in place of the flux's envelope."""
    env = PiecewiseLinearFn(
        tuple(range(len(breakpoints))), breakpoints, (F(0),) * len(breakpoints), slopes
    )
    monkeypatch.setattr(riemann, "envelope", lambda *args: env)


@pytest.mark.parametrize("u_left, u_right", [(F(-1), F(1)), (F(1), F(-1))])
def test_solve_riemann_rejects_a_fan_whose_speeds_do_not_increase(
    monkeypatch, u_left, u_right
):
    _crafted_envelope(monkeypatch, (F(-1), F(0), F(1)), (F(1, 2), F(1, 2)))
    with pytest.raises(ConsistencyError, match="Riemann fan speeds must strictly increase"):
        solve_riemann(u_left, u_right, BURGERS)


@pytest.mark.parametrize("u_left, u_right", [(F(-1), F(1)), (F(1), F(-1))])
def test_solve_riemann_rejects_a_fan_that_misses_the_data(monkeypatch, u_left, u_right):
    # the pieces span [-1, 0] only: the fan stops short of one end state
    _crafted_envelope(monkeypatch, (F(-1), F(0)), (F(1, 2),))
    with pytest.raises(ConsistencyError, match="Riemann fan states do not chain to the data"):
        solve_riemann(u_left, u_right, BURGERS)


def test_is_admissible_examples():
    assert is_admissible(Front(F(1), F(-1), F(0), F(0), F(0)), BURGERS)
    # an increasing unit-spread jump is a two-piece fan, not one front
    assert not is_admissible(Front(F(-1), F(1), F(0), F(0), F(0)), BURGERS)
    assert is_admissible(Front(F(0), F(1), F(1, 2), F(0), F(0)), BURGERS)


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
    fronts = solve_riemann(uL, uR, f)

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

    # every output front is admissible and re-solves to itself
    for fr in fronts:
        assert is_admissible(fr, f)
        again = solve_riemann(fr.left, fr.right, f)
        assert [(g.left, g.right, g.speed) for g in again] == [
            (fr.left, fr.right, fr.speed)
        ]


# -- fan templates against the fronts they stand for ---------------------------


def _record_solves(monkeypatch):
    """Record (arguments, fronts) of every `solve_riemann` call that front
    tracking makes from now on."""
    calls = []

    def recording(u_left, u_right, flux, t0, x0, fid_start):
        fronts = solve_riemann(u_left, u_right, flux, t0, x0, fid_start)
        calls.append(((u_left, u_right, t0, x0, fid_start), fronts))
        return fronts

    monkeypatch.setattr(tracker, "solve_riemann", recording)
    return calls


def _assert_born_as_constructed(calls):
    """Each front equals, field for field (`vars`, so the derived fields that
    `Front.__eq__` skips too), the front constructed from its piece."""
    for (u_left, u_right, t0, x0, fid_start), fronts in calls:
        assert fronts[0].left == u_left and fronts[-1].right == u_right
        for fid, fr in enumerate(fronts, fid_start):
            built = Front(fr.left, fr.right, fr.speed, t0, x0, fid)
            assert type(fr) is Front and vars(fr) == vars(built)


def test_fans_match_constructed_fronts_on_the_ladder_rung_and_its_restarts(monkeypatch):
    calls = _record_solves(monkeypatch)
    r = harness.run_simulation(harness.parse_run_config(ladder_config("1/64", probes=56)))
    assert len(r.timeline.slabs) == 56
    _assert_born_as_constructed(calls)
    # the rung's own fans, and the probes' re-solved ones
    assert len(calls) > 56 * len(r.timeline.initial_profile.jumps)
    assert any(t0 > 0 for (_, _, t0, _, _), _ in calls)


def test_fans_match_constructed_fronts_on_the_nonconvex_config(monkeypatch):
    calls = _record_solves(monkeypatch)
    config = json.loads((CONFIGS / "nonconvex_splitting.json").read_text())
    harness.run_simulation(harness.parse_run_config(config))
    _assert_born_as_constructed(calls)
    # the concave flux splits increasing jumps into fans of two fronts
    assert any(len(fronts) > 1 for _, fronts in calls)
    assert any(u_right < u_left for (u_left, u_right, *_), _ in calls)


def test_a_hulls_fan_template_is_built_once(monkeypatch):
    # a flux no other test samples, so that its hulls start without templates
    flux = sample_flux({"polynomial": ["0", "1/7", "0", "-5/11"]}, "1/3", (-6, 6))
    fan, builds = riemann._fan, []

    def counting(hull, rising, u_left, u_right):
        builds.append(rising)
        return fan(hull, rising, u_left, u_right)

    monkeypatch.setattr(riemann, "_fan", counting)
    for u_left, u_right in [(F(-2), F(2)), (F(2), F(-2))]:
        first = solve_riemann(u_left, u_right, flux, F(0), F(1), 0)
        again = solve_riemann(u_left, u_right, flux, F(1, 2), F(-3), 5)
        hull = riemann.envelope(flux, min(u_left, u_right), max(u_left, u_right),
                                1 if u_right > u_left else -1)
        assert builds == [u_right > u_left] and hull.fans[u_right > u_left] is not None
        assert len(first) > 1
        _assert_born_as_constructed([((u_left, u_right, F(0), F(1), 0), first),
                                     ((u_left, u_right, F(1, 2), F(-3), 5), again)])
        builds.clear()

import copy
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from fronttrack import harness, potential
from fronttrack.envelope import sample_flux
from fronttrack.errors import ConsistencyError, InputError
from fronttrack.tracker import Profile, evolve
from fronttrack.tracing import (
    advance_tracing,
    build_initial_waves,
    first_common_event,
    validate_tracing,
)

from oracles import TABLE, TRIPLE_POINT, WORKED_FLUX, WORKED_PROFILE
from suite_builder import ladder_config
from wave_oracles import (
    atom_of,
    bianchini_mismatches,
    casualties,
    cell_dict_trace,
    debug_dump,
    front_of,
    interaction_query,
    live_atoms,
    oracle_validate_tracing,
    position_of,
    sigma,
    state_consistency_holds,
    state_of,
    survivors,
    t_canc,
    waves_at,
    x0,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BURGERS = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (-2, 2))
TWO_SHOCK = Profile(F(1), ((F(0), F(0)), (F(1), F(-1))))


def traced(profile, flux, epsilon):
    tl = evolve(profile, flux)
    ws = advance_tracing(build_initial_waves(profile, epsilon), tl)
    validate_tracing(ws)
    return tl, ws


# -- initial layer ---------------------------------------------------------------


def test_single_positive_jump_layer():
    p = Profile(F(0), ((F(0), F(1)),))
    ws = build_initial_waves(p, F(1))
    assert ws.atom_count == 1
    assert ws.sign == [1]
    assert state_of(ws, F(1)) == F(1)
    assert state_of(ws, F(1, 3)) == F(1, 3)
    assert x0(ws, p) == [F(0)]


def test_up_down_layer_reversed_states():
    p = Profile(F(0), ((F(0), F(1)), (F(1), F(-1))))
    ws = build_initial_waves(p, F(1))
    assert ws.atom_count == 3
    assert ws.sign == [1, -1, -1]
    # the negative waves map (1, 3] onto [-1, 1) reversed affinely
    assert state_of(ws, F(3, 2)) == F(1, 2)
    assert state_of(ws, F(3)) == F(-1)
    assert x0(ws, p) == [F(0), F(1), F(1)]


def test_layer_rejects_offgrid_variation():
    p = Profile(F(0), ((F(0), F(1, 3)),))
    with pytest.raises(InputError):
        build_initial_waves(p, F(1, 2))


def test_layer_without_jumps_is_empty():
    # no state is placed, not even an off-grid constant one
    for constant in (F(0), F(1, 3)):
        ws = build_initial_waves(Profile(constant, ()), F(1, 2))
        assert (ws.atom_count, ws.sign, ws.cell) == (0, [], [])


def test_wave_coordinate_lookup():
    p = Profile(F(0), ((F(0), F(1)),))
    ws = build_initial_waves(p, F(1, 2))
    assert atom_of(ws, F(1, 2)) == 0
    assert atom_of(ws, F(3, 4)) == 1
    with pytest.raises(InputError):
        atom_of(ws, F(0))
    with pytest.raises(InputError):
        atom_of(ws, F(3, 2))


# -- golden two-shock run ---------------------------------------------------------


def test_two_shock_tracing():
    tl, ws = traced(TWO_SHOCK, BURGERS, F(1))
    assert ws.atom_count == 2 and ws.sign == [-1, -1]
    # before the merge the waves ride their own shocks
    assert position_of(ws, F(1, 2), F(1, 2)) == F(1, 4)
    assert sigma(ws, F(1, 2), F(1, 2)) == F(1, 2)
    assert sigma(ws, F(1, 2), F(3, 2)) == F(-1, 2)
    # after it they share the standing merged shock
    for w in (F(1, 2), F(3, 2)):
        assert position_of(ws, F(2), w) == F(1, 2)
        assert sigma(ws, F(2), w) == F(0)
    # no cancellations: every wave lives forever
    assert ws.canc_event == [None, None]
    # at the event instant the survivors pool at the point with outgoing speed
    assert sigma(ws, F(1), F(1, 2)) == F(0)


def test_two_shock_waves_at():
    tl, ws = traced(TWO_SHOCK, BURGERS, F(1))
    assert waves_at(ws, F(1, 2), F(10)).is_empty
    left = waves_at(ws, F(1, 2), F(1, 4))
    assert left.atoms == (0,) and left.sign == -1
    both = waves_at(ws, F(2), F(1, 2))
    assert both.atoms == (0, 1)
    assert (both.state_lo, both.state_hi) == (F(-1), F(1))
    at_event = waves_at(ws, F(1), F(1, 2))
    assert at_event.atoms == (0, 1)


def test_two_shock_interaction_query():
    tl, ws = traced(TWO_SHOCK, BURGERS, F(1))
    ans = interaction_query(ws, F(0), F(1, 2), F(3, 2))
    assert (ans.status, ans.t, ans.x) == ("meets", F(1), F(1, 2))
    same_cell = interaction_query(ws, F(0), F(1, 4), F(3, 4))
    assert same_cell.status == "same_position"
    after = interaction_query(ws, F(2), F(1, 2), F(3, 2))
    assert after.status == "same_position"


def test_diverging_fronts_never_interact():
    p = Profile(F(-1), ((F(0), F(1)),))
    tl, ws = traced(p, BURGERS, F(1))
    # at t=0 the fan's waves still share the birth point
    assert interaction_query(ws, F(0), F(1, 2), F(3, 2)).status == "same_position"
    ans = interaction_query(ws, F(1), F(1, 2), F(3, 2))
    assert ans.status == "never"


def test_state_consistency_samples():
    tl, ws = traced(TWO_SHOCK, BURGERS, F(1))
    for t, x in [(F(0), F(0)), (F(0), F(1)), (F(1, 2), F(1, 4)), (F(1), F(1, 2)),
                 (F(3), F(1, 2)), (F(1, 2), F(7))]:
        assert state_consistency_holds(tl, ws, t, x)


# -- cancellation and splitting ---------------------------------------------------


def test_shock_eats_rarefaction_cancellation():
    wide = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (-4, 4))
    p = Profile(F(0), ((F(0), F(2)), (F(1), F(0))))
    tl, ws = traced(p, wide, F(1))
    # fan fronts at speeds 1/2 and 3/2; the rear shock (2,0) moves at 1 and is
    # caught by the fan's upper front at t=2
    assert len(tl.events) >= 1
    ev = tl.events[0]
    assert ev.kind == "cancellation"
    assert (ev.t, ev.x) == (F(2), F(3))
    # the upper fan wave (state cell [1,2]) and the shock wave with the same
    # state range both die; the shock wave with cell [0,1] survives
    canceled = casualties(ws, 0)
    assert len(canceled) == 2
    for a in canceled:
        assert ws.cell[a] == 1
        assert t_canc(ws, a) == F(2)
    kept = survivors(ws, 0)
    assert all(ws.cell[a] == 0 for a in kept)
    validate_tracing(ws)


def test_validate_tracing_rejects_forged_wave_systems():
    wide = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (-4, 4))
    p = Profile(F(0), ((F(0), F(2)), (F(1), F(0))))
    forgeries = [
        ({0: (0, 1), 1: ()}, "front 0: state span"),  # atom 1 moved to front 0
        ({3: (2, 3)}, "slab 1: live atoms"),  # canceled atom 2 left on front 3
        ({2: (3, 2)}, "slab 0: live atoms"),  # front 2's atoms out of id order
    ]
    for forged, message in forgeries:
        tl, ws = traced(p, wide, F(1))
        # the fan's fronts 0 and 1 and the shock 2; event 0 cancels atoms 1, 2
        assert ws.runs(0) == [(0, (0,)), (1, (1,)), (2, (2, 3))]
        assert ws.runs(1) == [(0, (0,)), (3, (3,))]
        ws.atoms_of.update(forged)
        with pytest.raises(ConsistencyError, match=message):
            validate_tracing(ws)
        # the event-by-event Bianchini series still equals its per-slab oracles
        assert bianchini_mismatches(ws) == []
    tl, ws = traced(p, wide, F(1))
    ws.events_of[3].remove(0)  # atom 3 no longer survives event 0
    with pytest.raises(ConsistencyError, match="event 0: survivor mass mismatch"):
        validate_tracing(ws)
    assert bianchini_mismatches(ws) == []
    # the right number of survivors, but the wrong atoms: atom 0 claims to
    # survive event 0 in place of atom 2, which changes Q(slab 0) from 22 to 83/4
    four = Profile(F(0), ((F(0), F(2)), (F(1), F(0)), (F(3), F(-2)), (F(5), F(0))))
    tl, ws = traced(four, wide, F(1))
    ws.events_of[2].remove(0)
    ws.events_of[0].insert(0, 0)
    with pytest.raises(ConsistencyError, match="event 0: survivors are not the atoms"):
        validate_tracing(ws)
    assert bianchini_mismatches(ws) == []
    # the right atoms, out of order: first common events bisect these lists,
    # and Q(slab 0) would read 43/2
    tl, ws = traced(four, wide, F(1))
    ws.events_of[3].reverse()
    with pytest.raises(ConsistencyError, match="atom 3: survived events not increasing"):
        validate_tracing(ws)
    assert bianchini_mismatches(ws) == []


def test_advance_tracing_rejects_cells_out_of_order():
    # the shock (2, 0) crosses cell 1, then cell 0; with its two atoms' cells
    # swapped, the cell-dict assignment accepted the layer (and so did
    # validate_tracing) and let atom 2 survive event 0 in place of atom 3
    wide = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (-4, 4))
    p = Profile(F(0), ((F(0), F(2)), (F(1), F(0))))
    tl = evolve(p, wide)
    ws = build_initial_waves(p, F(1))
    assert ws.cell == [0, 1, 1, 0]
    ws.cell[2], ws.cell[3] = ws.cell[3], ws.cell[2]
    with pytest.raises(ConsistencyError, match="front 2: its waves do not cross its states"):
        advance_tracing(ws, tl)


def test_advance_tracing_rejects_fronts_that_do_not_chain():
    wide = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (-4, 4))
    p = Profile(F(0), ((F(0), F(2)), (F(1), F(0))))
    tl = evolve(p, wide)
    # the fan's fronts 0 -> 1 -> 2 and the shock 2 -> 0: drop the fan's upper
    # front, so the shock's left state is no longer its neighbour's right
    fronts = tl.slabs[0]
    forged = copy.copy(tl)
    forged.slabs = (fronts[:1] + fronts[2:], *tl.slabs[1:])
    with pytest.raises(ConsistencyError, match="front 2: its left state is not"):
        advance_tracing(build_initial_waves(p, F(1)), forged)
    # every front in place, but an atom too many for them
    with pytest.raises(ConsistencyError, match="waves left over after the fronts: 1"):
        advance_tracing(build_initial_waves(Profile(F(0), ((F(0), F(2)), (F(1), F(-1)))),
                                            F(1)), tl)


def _assert_matches_cell_dict_oracle(ws):
    tl = ws.timeline
    assert cell_dict_trace(tl.initial_profile, ws.epsilon, tl) == (
        ws.sign, ws.cell, ws.atoms_of, ws.events_of, ws.canc_event)


def _record_tracing(monkeypatch):
    """Every wave system that a run, its restart probes included, traces
    from now on."""
    systems = []

    def recording(ws, tl):
        systems.append(advance_tracing(ws, tl))
        return ws

    monkeypatch.setattr(harness, "advance_tracing", recording)
    monkeypatch.setattr(potential, "advance_tracing", recording)
    return systems


def test_atoms_match_the_cell_dict_oracle_on_the_ladder_rung_and_its_restarts(monkeypatch):
    systems = _record_tracing(monkeypatch)
    harness.run_simulation(harness.parse_run_config(ladder_config("1/64", probes=56)))
    assert len(systems) == 1 + 56
    for ws in systems:
        _assert_matches_cell_dict_oracle(ws)
    assert any(len(ev.outgoing) > 1 for ws in systems for ev in ws.timeline.events)


def test_atoms_match_the_cell_dict_oracle_on_the_run_configs(monkeypatch):
    systems = _record_tracing(monkeypatch)
    runs = 0
    for path in sorted(CONFIGS.glob("*.json")):
        config = json.loads(path.read_text())
        if "epsilons" not in config:
            harness.run_simulation(harness.parse_run_config(config))
            runs += 1
    assert runs == 2 and len(systems) > runs
    for ws in systems:
        _assert_matches_cell_dict_oracle(ws)


def _forged(ws, name, changes):
    """A copy of ``ws`` whose record ``name`` holds each value of ``changes``
    at its key."""
    out = copy.copy(ws)
    record = copy.copy(getattr(ws, name))
    for key, value in changes.items():
        record[key] = value
    setattr(out, name, record)
    return out


def _wave_forgeries(ws):
    """(what, wave system) for single edits of one front's atoms, of one
    atom's survived events and of one atom's cancellation event, and for an
    atom moved between two neighbouring fronts; an edit that changes
    nothing is skipped."""
    n = len(ws.timeline.events)
    previous = None
    for fid, atoms in ws.atoms_of.items():
        edits = {"drop first": atoms[1:], "drop last": atoms[:-1],
                 "reverse": atoms[::-1], "add next": atoms + (atoms[-1] + 1,)}
        if previous is not None:
            edits["previous front's"] = previous
            edits["take previous"] = previous[-1:] + atoms
        previous = atoms
        for what, value in edits.items():
            if value != atoms:
                yield f"front {fid} {what}", _forged(ws, "atoms_of", {fid: value})
    neighbours = {(fr.fid, gr.fid) for fronts in ws.timeline.slabs
                  for fr, gr in zip(fronts, fronts[1:])}
    for left, right in sorted(neighbours):
        l_atoms, r_atoms = ws.atoms_of[left], ws.atoms_of[right]
        yield f"front {right}'s first atom moved to {left}", _forged(
            ws, "atoms_of", {left: l_atoms + r_atoms[:1], right: r_atoms[1:]})
        yield f"front {left}'s last atom moved to {right}", _forged(
            ws, "atoms_of", {left: l_atoms[:-1], right: l_atoms[-1:] + r_atoms})
    for a, events in enumerate(ws.events_of):
        edits = {"reverse": events[::-1], "drop first": events[1:],
                 "drop last": events[:-1], "shift": [e + 1 for e in events]}
        for e in sorted({0, n - 1, ws.canc_event[a] or 0} - set(events)):
            edits[f"add {e}"] = sorted(events + [e])
        for what, value in edits.items():
            if value != events:
                yield f"atom {a} events {what}", _forged(ws, "events_of", {a: value})
        c = ws.canc_event[a]
        for value in {None, 0, n - 1, n, -1, *(() if c is None else (c - 1, c + 1))} - {c}:
            yield f"atom {a} cancelled at {value}", _forged(ws, "canc_event", {a: value})


def _rejects(validate, ws):
    try:
        validate(ws)
    except ConsistencyError:
        return True
    return False


def test_validate_tracing_rejects_what_the_oracle_rejects(suite):
    # the full per-slab rebuild of the live atoms rejects every one of these
    # edits of the runs and the survival record, and so must the event-local
    # checks.  The systems include the runs with a fan of two or more fronts
    # born at an event (event 0 of the worked example splits): when both
    # fronts live to the end, only the per-front checks tie an atom to the
    # right one
    wide = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (-4, 4))
    four = Profile(F(0), ((F(0), F(2)), (F(1), F(0)), (F(3), F(-2)), (F(5), F(0))))
    runs = suite["runs"]
    split = [r for r in runs if any(len(ev.outgoing) > 1 for ev in r.timeline.events)]
    systems = [traced(four, wide, F(1))[1], traced(WORKED_PROFILE, WORKED_FLUX, F(1))[1],
               *(r.waves for r in runs[:4] + split)]
    forged = rejected = 0
    for ws in systems:
        for what, bad in _wave_forgeries(ws):
            forged += 1
            rejected += _rejects(oracle_validate_tracing, bad)
            assert _rejects(validate_tracing, bad), what
    assert rejected == forged > 400


def test_triple_point_full_cancellation_tracing():
    tl, ws = traced(TRIPLE_POINT, TABLE, F(1))
    assert ws.atom_count == 6
    assert all(e == 0 for e in ws.canc_event)
    assert survivors(ws, 0) == []
    for w in (F(1), F(3), F(6)):
        with pytest.raises(InputError):
            sigma(ws, F(6), w)
        assert sigma(ws, F(5), w) is not None


def test_first_common_event_respects_cancellation():
    flux = sample_flux(
        {"table": {"-2": "-1", "-1": "-1/2", "0": "0", "1": "1", "2": "2", "3": "3"}},
        "1",
        (-2, 3),
    )
    p = Profile(F(0), ((F(0), F(2)), (F(1), F(-1)), (F(3), F(0))))
    tl, ws = traced(p, flux, F(1))
    # nobody survives the triple point, so no pair ever "meets"
    for a in range(ws.atom_count):
        for b in range(a + 1, ws.atom_count):
            assert first_common_event(ws, a, b) is None


def test_debug_dump_golden_shape():
    tl, ws = traced(TWO_SHOCK, BURGERS, F(1))
    dump = debug_dump(ws)
    assert dump["atoms"] == 2
    assert len(dump["slabs"]) == 2
    first = dump["slabs"][0]
    assert first["t_lo"] == "0" and first["t_hi"] == "1"
    assert first["cells"] == [
        {
            "range": ["0", "1"],
            "sign": "-",
            "state_range": ["0", "1"],
            "front": 0,
            "x_at_slab_start": "0",
            "speed": "1/2",
        },
        {
            "range": ["1", "2"],
            "sign": "-",
            "state_range": ["-1", "0"],
            "front": 1,
            "x_at_slab_start": "1",
            "speed": "-1/2",
        },
    ]
    last = dump["slabs"][1]
    assert last["t_hi"] is None
    assert len(last["cells"]) == 1
    assert last["cells"][0]["range"] == ["0", "2"]
    assert last["cells"][0]["state_range"] == ["-1", "1"]


def test_monotone_positions_across_slabs():
    wide = sample_flux({"polynomial": ["0", "0", "1/2"]}, "1", (-4, 4))
    p = Profile(F(0), ((F(0), F(2)), (F(1), F(0)), (F(3), F(-2)), (F(5), F(0))))
    tl, ws = traced(p, wide, F(1))
    for s in range(len(tl.slabs)):
        t_lo, t_hi = tl.slab_bounds(s)
        t_probe = t_lo if t_hi is None else (t_lo + t_hi) / 2
        live = live_atoms(ws, s)
        xs = [front_of(ws, a, s).position_at(t_probe) for a in live]
        assert xs == sorted(xs)

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fronttrack import cli, harness, potential
from fronttrack.cli import main
from fronttrack.envelope import _concave_by_index, _convex_by_index, sample_flux
from fronttrack.errors import ConsistencyError, InputError
from fronttrack.harness import (
    l1_distance,
    load_json,
    parse_run_config,
    parse_sweep_config,
    random_datum_spec,
    random_flux_spec,
    run_simulation,
    sweep,
)
from fronttrack.rationals import format_rational, parse_rational
from fronttrack.report import (
    EVENTS_COLUMNS,
    POTENTIAL_COLUMNS,
    _rational_reader,
    build_report,
    events_csv,
    potential_csv,
    report_bytes,
    verify_report,
)
from fronttrack.tracker import Profile

from oracles import fraction_l1_distance, fraction_verdict_table, l1_profile_distance_oracle

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN_CONFIG = {
    "flux": {"polynomial": ["0", "0", "1/2"]},
    "epsilon": "1",
    "window": [-2, 2],
    "datum": {"constant": "1", "jumps": [["0", "0"], ["1", "-1"]]},
    "seed": 0,
    "options": {"restart_check_points": 2},
}


@pytest.fixture
def golden_result():
    return run_simulation(parse_run_config(GOLDEN_CONFIG))


# -- config parsing ---------------------------------------------------------------


def test_parse_config_roundtrip():
    cfg = parse_run_config(GOLDEN_CONFIG)
    assert cfg.epsilon == F(1)
    assert cfg.window == (-2, 2)
    assert cfg.datum == (F(1), [(F(0), F(0)), (F(1), F(-1))])
    assert cfg.restart_check_points == 2


def test_parse_config_samples_datum():
    cfg = parse_run_config(
        {
            "flux": {"polynomial": ["0", "0", "1/2"]},
            "epsilon": "1/2",
            "datum": {"samples": {"0": "0.6", "1": "0"}, "round": "nearest"},
        }
    )
    assert cfg.datum == (F(0), [(F(0), F(3, 5)), (F(1), F(0))])


def test_parse_config_rejects_bad_epsilon():
    bad = dict(GOLDEN_CONFIG, epsilon="0")
    with pytest.raises(InputError):
        parse_run_config(bad)


def _with_options(**options):
    return dict(GOLDEN_CONFIG, options=dict(GOLDEN_CONFIG["options"], **options))


# Burgers' flux F(u) = u^2/2 as a table over GOLDEN_CONFIG's window
BURGERS_TABLE = {"-2": "2", "-1": "1/2", "0": "0", "1": "1/2", "2": "2"}

# each raised a ValueError or TypeError, or was accepted silently, before the
# fields were validated; the flux spec is read when the run samples it
MALFORMED_CONFIGS = [
    dict(GOLDEN_CONFIG, window=["a", 3]),
    dict(GOLDEN_CONFIG, window=5),
    dict(GOLDEN_CONFIG, window=[0, True]),
    dict(GOLDEN_CONFIG, seed="x"),
    dict(GOLDEN_CONFIG, seed=True),
    dict(GOLDEN_CONFIG, datum={"constant": "1", "jumps": [["0"]]}),
    dict(GOLDEN_CONFIG, datum={"samples": ["0", "1"]}),
    dict(GOLDEN_CONFIG, flux={"table": {"a": "1"}}),
    dict(GOLDEN_CONFIG, flux={"table": {"0": [1], "1": "1"}}),
    # a second spelling of index 1, and index 10 spelt with an underscore
    dict(GOLDEN_CONFIG, flux={"table": dict(BURGERS_TABLE, **{"01": "5"})}),
    dict(GOLDEN_CONFIG, flux={"table": dict(BURGERS_TABLE, **{"1_0": "2"})}),
    dict(GOLDEN_CONFIG, flux={"polynomial": "012"}),
    _with_options(max_events="5"),
    _with_options(max_events=-1),
    _with_options(restart_check_points=-3),
    _with_options(restart_check_points=2.5),
    _with_options(emit_svg="yes"),
    dict(GOLDEN_CONFIG, flux=["0", "0", "1/2"]),
    # JSON Infinity (and 1e400, which reads as the same float): OverflowError
    dict(GOLDEN_CONFIG, epsilon=float("inf")),
]

# files json cannot read: bytes that are not UTF-8, and an array nested past
# the decoder's recursion limit (a UnicodeDecodeError and a RecursionError)
UNREADABLE_JSON = [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000]

GOLDEN_SWEEP = {
    "base": {"flux": {"polynomial": ["0", "0", "1/2"]}, "window": [-4, 4]},
    "epsilons": ["1", "1/2"],
    "datum": {"constant": "1", "jumps": [["0", "0"], ["1", "-1"]]},
    "probe_times": ["2"],
}


def _random_sweep(family):
    return dict({k: v for k, v in GOLDEN_SWEEP.items() if k != "datum"}, random=family)


# the right tail 1/3 discretizes to 0 at epsilon 1/2 and to 1/4 at 1/4
DIFFERENT_TAILS = {
    "base": {"flux": {"polynomial": ["0", "0", "1/2"]}},
    "epsilons": ["1/2", "1/4"],
    "datum": {"constant": "0", "jumps": [["0", "1/3"]]},
}

# each ended in a traceback, or (probe_times) probed t = 1 and t = 2, or (a
# negative probe time, members with different tails or a malformed base)
# ran every member before failing, before the sweep fields were validated
MALFORMED_SWEEPS = [
    dict(GOLDEN_SWEEP, epsilons=5),
    dict(GOLDEN_SWEEP, base=5),
    dict(GOLDEN_SWEEP, probe_times="12"),
    dict(GOLDEN_SWEEP, probe_times=["-1"]),
    _random_sweep(5),
    _random_sweep({"seed": "x"}),
    _random_sweep({"jumps": "5"}),
    _random_sweep({"max_tv": "-1"}),
    _random_sweep({"max_tv": "x"}),
    DIFFERENT_TAILS,
    dict(GOLDEN_SWEEP, base={"flux": {"polynomial": ["0", "0", "1/2"]}, "window": [4, -4]}),
]


def test_parse_config_rejects_missing_fields():
    with pytest.raises(InputError):
        parse_run_config({"epsilon": "1"})
    for bad in MALFORMED_CONFIGS:
        with pytest.raises(InputError):
            run_simulation(parse_run_config(bad))


def test_auto_window_covers_datum():
    cfg = parse_run_config(
        {
            "flux": {"polynomial": ["0", "0", "1/2"]},
            "epsilon": "1",
            "datum": {"constant": "1", "jumps": [["0", "-1"]]},
        }
    )
    result = run_simulation(cfg)
    assert result.timeline.flux.k_min <= -1 and result.timeline.flux.k_max >= 1


# -- run + report ------------------------------------------------------------------


def test_golden_run_report(golden_result):
    report = build_report(golden_result)
    assert report["event_count"] == 1
    assert report["K"] == "1" and report["TV0"] == "2"
    assert report["all_pass"] is True
    (ev,) = report["events"]
    assert (ev["t"], ev["x"]) == ("1", "1/2")
    assert (ev["Q_minus"], ev["Q_plus"]) == ("1/2", "0")
    assert ev["delta_sigma"] == "1"
    assert report["slabs"][0]["upsilon_paper"] == "9/2"
    assert report["slabs"][0]["upsilon_strict"] == "5"
    assert report["slabs"][1]["t_hi"] is None
    assert all(rc["equal"] for rc in report["restart_checks"])


def test_report_bytes_deterministic(golden_result):
    a = report_bytes(build_report(golden_result))
    again = run_simulation(parse_run_config(json.loads(json.dumps(GOLDEN_CONFIG))))
    b = report_bytes(build_report(again))
    assert a == b


def test_csv_schemas(golden_result):
    report = build_report(golden_result)
    ev_csv = events_csv(report)
    assert ev_csv.splitlines()[0] == ",".join(EVENTS_COLUMNS)
    assert ev_csv.splitlines()[1].startswith("1,1/2,same_sign,1,0,-1,1,1/2,0,2,2")
    pot_csv = potential_csv(report)
    assert pot_csv.splitlines()[0] == ",".join(POTENTIAL_COLUMNS)
    assert pot_csv.splitlines()[1] == "0,1,1/2,2,9/2,5,1"
    assert pot_csv.splitlines()[2] == "1,inf,0,2,4,4,0"


def test_csv_decimal_columns(golden_result):
    report = build_report(golden_result)
    lines = potential_csv(report, decimal=True).splitlines()
    assert lines[0].endswith("bianchini_float")
    assert ",0.5," in lines[1]


def test_cli_decimal_writes_values_beyond_float_range_as_inf(tmp_path):
    # a coefficient of 1e400 makes K, Q and the speed change exceed float
    # range: their float twins read inf, after exact columns as without
    # --decimal
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(GOLDEN_CONFIG, flux={"polynomial": ["0", "0", "1e400"]})))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "exact")]) == 0
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "decimal"), "--decimal"]) == 0
    for name in ("events.csv", "potential.csv"):
        exact = (tmp_path / "exact" / name).read_text().splitlines()
        decimal = (tmp_path / "decimal" / name).read_text().splitlines()
        width = len(exact[0].split(","))
        assert [line.split(",")[:width] for line in decimal] == [line.split(",") for line in exact]
        assert "inf" in decimal[1].split(",")[width:]
    report = json.loads((tmp_path / "decimal" / "report.json").read_text())
    assert len(report["slabs"][0]["Q"]) > 400
    report["slabs"][0]["Q"] = "-" + report["slabs"][0]["Q"]
    header, first = potential_csv(report, decimal=True).splitlines()[:2]
    row = dict(zip(header.split(","), first.split(",")))
    assert row["Q_float"] == "-inf" and row["TV_float"] == "2.0"


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no int-to-str digit limit in this interpreter",
)
def test_values_beyond_the_digit_limit_are_input_errors(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    for value in (f"1e{limit}", f"-1e{limit}", f"1e-{limit}"):
        with pytest.raises(InputError, match="more digits than this interpreter's limit"):
            parse_rational(value)
    # run, and sweep in process and with forked workers: exit 2 with one
    # line, and nothing written
    huge = {"polynomial": ["0", "0", f"1e{limit + 700}"]}
    cases = [
        ("run", dict(GOLDEN_CONFIG, flux=huge), []),
        ("sweep", dict(GOLDEN_SWEEP, base=dict(GOLDEN_SWEEP["base"], flux=huge)), ["--jobs", "1"]),
        ("sweep", dict(GOLDEN_SWEEP, base=dict(GOLDEN_SWEEP["base"], flux=huge)), ["--jobs", "2"]),
    ]
    cfg_path, out = tmp_path / "config.json", tmp_path / "out"
    for command, cfg, flags in cases:
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main([command, str(cfg_path), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, err
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no int-to-str digit limit in this interpreter",
)
def test_derived_values_beyond_the_digit_limit_are_input_errors(tmp_path, capsys):
    # a flux coefficient within the limit whose run derives values past it
    # (K, Q, ...): run, and sweep in process and with forked workers, exit 2
    # with one line worded as parse_rational's, and write nothing
    limit = sys.get_int_max_str_digits()
    flux = {"polynomial": ["0", "0", f"1e{limit - 1}"]}
    sweep_cfg = dict(GOLDEN_SWEEP, base=dict(GOLDEN_SWEEP["base"], flux=flux))
    cases = [
        ("run", dict(GOLDEN_CONFIG, flux=flux), []),
        ("sweep", sweep_cfg, ["--jobs", "1"]),
        ("sweep", sweep_cfg, ["--jobs", "2"]),
    ]
    cfg_path, out = tmp_path / "config.json", tmp_path / "out"
    for command, cfg, flags in cases:
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main([command, str(cfg_path), "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == (
            f"input error: derived value has more digits than this interpreter's limit of "
            f"{limit}\n"
        )
        assert not out.exists() or not any(out.iterdir())


def test_an_unreadable_rational_is_echoed_cut_short(tmp_path, capsys):
    # the rejected value's text is cut to its first 20 characters, as the
    # digit-limit message cuts it; a string of digits past that limit is
    # one such value, a JSON array another
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    values = ["x" * 5000, list(range(3000)), *(["1" * (limit + 1)] if limit else [])]
    cfg_path = tmp_path / "config.json"
    for value in values:
        cfg_path.write_text(json.dumps(dict(GOLDEN_CONFIG, epsilon=value)))
        capsys.readouterr()
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"input error: config field 'epsilon': not a rational value: {str(value)[:20]!r}\n"
        )


def test_a_malformed_rational_names_its_config_field():
    # every config field read as a rational, in a run config or a sweep's
    run, sweep, datum = GOLDEN_CONFIG, GOLDEN_SWEEP, GOLDEN_CONFIG["datum"]
    family = {k: v for k, v in sweep.items() if k != "datum"}
    cases = [
        (parse_run_config, dict(run, epsilon="x"), "epsilon"),
        (parse_run_config, dict(run, datum=dict(datum, constant="x")), "datum.constant"),
        (parse_run_config, dict(run, datum=dict(datum, jumps=[["0", "0"], ["1", "x"]])),
         "datum.jumps[1]"),
        (parse_run_config, dict(run, datum={"samples": {"0": "x"}}), "datum.samples"),
        (parse_run_config, dict(run, datum={"samples": {"x": "0"}}), "datum.samples"),
        (parse_run_config, dict(run, flux={"polynomial": ["0", "x"]}), "flux.polynomial[1]"),
        (parse_run_config, dict(run, options={"analytic_curvature_bound": "x"}),
         "options.analytic_curvature_bound"),
        (parse_sweep_config, dict(sweep, epsilons=["1", "x"]), "epsilons[1]"),
        (parse_sweep_config, dict(sweep, probe_times=["x"]), "probe_times[0]"),
        (parse_sweep_config, dict(family, random={"max_tv": "x"}), "random.max_tv"),
    ]
    for parse, cfg, name in cases:
        with pytest.raises(InputError) as info:
            parse(cfg)
        assert str(info.value) == f"config field '{name}': not a rational value: 'x'"


def _verify_edited(report, edit):
    copy = json.loads(report_bytes(report))
    edit(copy)
    return verify_report(copy)


def test_verify_report_recheck(golden_result):
    nonconvex = run_simulation(
        parse_run_config(load_json(str(CONFIGS / "nonconvex_splitting.json")))
    )
    # each summary field, the single-Q drop flag and a TV column are re-derived
    edits = [
        (lambda r: r.update(all_pass=False), "all_pass: stored value does not re-check"),
        (lambda r: r.update(hard_failures=["slab_q_bound"]),
         "hard_failures: stored value does not re-check"),
        (lambda r: r.update(event_count=r["event_count"] + 1),
         "event_count: stored value does not re-check"),
        (lambda r: r["flags"].update(upsilon_paper_drop_failures=[]),
         "flags: stored upsilon_paper_drop_failures does not re-check"),
        (lambda r: r["events"][0].update(TV_minus="1000"),
         "event0: TV columns disagree with slab table"),
        # a flag the verdict table does not compute fails, as a verdict does
        (lambda r: r["flags"].update(extra=5), "flags: stored extra does not re-check"),
        (lambda r: r.update(epsilon="7"), "epsilon: stored value does not match run_config"),
        # the fields a report fixes on its own: the event times against the
        # slab bounds, the atom count against TV0 and the largest weight
        # against K
        (lambda r: r["events"][0].update(t="999"),
         "event0: t differs from the bounds of slabs 0 and 1"),
        (lambda r: r["slabs"][1].update(t_lo="999"),
         "event0: t differs from the bounds of slabs 0 and 1"),
        (lambda r: r["slabs"][0].update(t_lo="1/2"), "slab0: t_lo is not 0"),
        (lambda r: r.update(atom_count=7), "atom_count: atom_count * epsilon differs from TV0"),
        (lambda r: r.update(max_weight="12345"), "max_weight: exceeds K"),
    ]
    for result in (golden_result, nonconvex):
        report = build_report(result)
        assert verify_report(report) == []
        tampered = json.loads(report_bytes(report))
        tampered["slabs"][0]["Q"] = "100"
        assert verify_report(tampered)
        assert report["flags"]["upsilon_paper_drop_failures"]
        for edit, line in edits:
            assert _verify_edited(report, edit) == [line]
        last = report["event_count"]
        assert _verify_edited(report, lambda r: r["slabs"][-1].update(t_hi="999")) == [
            f"slab{last}: t_hi is not null"
        ]
        with pytest.raises(InputError, match=re.escape(
            f"'slabs[{last}].t_hi': not a rational value: 'x'"
        )):
            _verify_edited(report, lambda r: r["slabs"][-1].update(t_hi="x"))
        # the two epsilons are compared as values, whatever their spelling,
        # and so are a time and the slab bounds it should equal
        assert _verify_edited(report, lambda r: r["run_config"].update(epsilon="3/3")) == []
        assert _verify_edited(report, lambda r: r["slabs"][0].update(t_lo="0/5")) == []
        t0 = F(report["events"][0]["t"])
        assert _verify_edited(report, lambda r: r["events"][0].update(
            t=f"{2 * t0.numerator}/{2 * t0.denominator}")) == []
        assert _verify_edited(report, lambda r: r["run_config"].update(epsilon=1)) == []
        # a verdict or a drop-failure index of the wrong JSON type is an
        # input error, although Python has 1 == True
        mistyped = [
            (lambda r: r["events"][0]["verdicts"].update(q_monotone=1),
             "'events[0].verdicts.q_monotone' must be a JSON boolean"),
            (lambda r: r["flags"].update(upsilon_paper_drop_failures=[
                bool(i) for i in r["flags"]["upsilon_paper_drop_failures"]
            ]), "'flags.upsilon_paper_drop_failures[0]' must be a JSON integer"),
            (lambda r: r.pop("run_config"), "'run_config' is missing"),
            (lambda r: r.update(run_config=[]), "'run_config' must be a JSON object"),
            (lambda r: r["run_config"].pop("epsilon"), "'run_config.epsilon' is missing"),
            (lambda r: r["run_config"].update(epsilon="x"),
             "'run_config.epsilon': not a rational value: 'x'"),
            (lambda r: r.update(epsilon="1/0"), "'epsilon': not a rational value: '1/0'"),
            (lambda r: r["events"][0].update(t="not a time"),
             "'events[0].t': not a rational value: 'not a time'"),
            (lambda r: r["slabs"][0].update(t_hi=None), "'slabs[0].t_hi' must be a JSON string"),
            (lambda r: r.update(atom_count="7"), "'atom_count' must be a JSON integer"),
            (lambda r: r.update(max_weight="1/0"), "'max_weight': not a rational value: '1/0'"),
        ]
        for edit, message in mistyped:
            with pytest.raises(InputError, match=re.escape(message)):
                _verify_edited(report, edit)


def test_verify_report_recheck_initial_bound_flags(golden_result):
    report = build_report(golden_result)
    # Q(0) = 1/2 > 0: the constant-1 bound fails, the constant-2 bound holds
    assert report["flags"]["upsilon0_le_k_tv0_sq"] is False
    assert report["flags"]["upsilon0_le_2k_tv0_sq"] is True
    swapped = json.loads(report_bytes(report))
    swapped["flags"]["upsilon0_le_k_tv0_sq"] = True
    swapped["flags"]["upsilon0_le_2k_tv0_sq"] = False
    assert verify_report(swapped) == [
        "flags: stored upsilon0_le_k_tv0_sq does not re-check",
        "flags: stored upsilon0_le_2k_tv0_sq does not re-check",
    ]
    # a slab 0 past 2*K*TV0^2 is a hard failure even when its flag agrees
    broken = json.loads(report_bytes(report))
    K, tv0 = F(report["K"]), F(report["TV0"])
    slab0 = broken["slabs"][0]
    q0, tv = F(slab0["Q"]), 3 * tv0
    slab0["TV"] = str(tv)
    slab0["upsilon_paper"] = str(K * tv0 * tv + q0)
    slab0["upsilon_strict"] = str(K * tv0 * tv + 2 * q0)
    broken["flags"]["upsilon0_le_2k_tv0_sq"] = False
    # the larger slab-0 Upsilon also flips the event's single-Q drop verdict
    # and its flag, and the slab-0 TV no longer matches TV0 or the event's
    # TV column
    assert verify_report(broken) == [
        "slab0: TV differs from TV0",
        "flags: stored upsilon_paper_drop_failures does not re-check",
        "event0: TV columns disagree with slab table",
        "event0: stored verdict delta_sigma_le_upsilon_paper_drop does not re-check",
        "upsilon0_le_2k_tv0_sq fails",
        "all_pass: stored value does not re-check",
        "hard_failures: stored value does not re-check",
    ]


def _read_both(text):
    """The verify reader's outcome for ``text`` and parse_rational's: a
    (numerator, denominator) pair, or the InputError text."""
    try:
        got = _rational_reader()({"v": text}, "v")
    except InputError as exc:
        got = str(exc)
    try:
        value = parse_rational(text)
        want = value.numerator, value.denominator
    except InputError as exc:
        want = f"report field 'v': {exc}"
    return got, want


def _report_strings(doc):
    """Every string in the JSON ``doc`` outside its run_config."""
    if isinstance(doc, dict):
        return [v for k, item in doc.items() if k != "run_config" for v in _report_strings(item)]
    if isinstance(doc, list):
        return [v for item in doc for v in _report_strings(item)]
    return [doc] if isinstance(doc, str) else []


def _int_digit_limit():
    """The interpreter's int-string digit limit, or 0 where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_verify_reader_matches_parse_rational(golden_report, monkeypatch):
    nonconvex = build_report(
        run_simulation(parse_run_config(load_json(str(CONFIGS / "nonconvex_splitting.json"))))
    )
    stored = set(_report_strings(golden_report)) | set(_report_strings(nonconvex))
    long = "1" * ((_int_digit_limit() or 4300) + 1)
    spellings = [
        "2/4", "0/1", "-0", "+1/2", " 1/2", "1/ 2", "0.5", "1e3", "1_0",
        "\u0663/\u0664", "1/0", "", "/", "-", long, f"-{long}/3", f"1/{long}",
    ]
    for text in [*sorted(stored), *spellings]:
        got, want = _read_both(text)
        assert got == want, text
    if _int_digit_limit():
        with pytest.raises(ValueError):
            int(long)
    # the stored rationals are canonical and read without parse_rational
    expected = {v: _read_both(v)[1] for v in stored}
    canonical = {v: pair for v, pair in expected.items() if isinstance(pair, tuple)}
    assert len(canonical) > 20 and all(format_rational(F(v)) == v for v in canonical)
    monkeypatch.setattr("fronttrack.report.parse_rational", None)
    read = _rational_reader()
    assert {v: read({"v": v}, "v") for v in canonical} == canonical


@st.composite
def rational_spellings(draw):
    """A spelling of a random fraction: canonical, unreduced, signed,
    padded, decimal or with leading zeros, or a short random string."""
    value = draw(st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4))
    n, d, m = value.numerator, value.denominator, draw(st.integers(2, 40))
    return draw(st.sampled_from([
        str(value), f"{n * m}/{d * m}", f"{n}/{d}", f"+{value}", f" {value}", f"{value}\n",
        f"0{value}", f"-{value}", f"{n}/0", f"{n}/{d:03}", f"{n}.0", repr(float(value)),
        draw(st.text(alphabet="0123456789-+/ ._e\u0663", max_size=8)),
    ]))


@settings(max_examples=300, deadline=None)
@given(rational_spellings())
def test_verify_reader_matches_parse_rational_on_random_spellings(text):
    got, want = _read_both(text)
    assert got == want


def _fraction_table(K, tv0, slabs, events, restarts):
    """`fraction_verdict_table` on the pair table's arguments."""
    return fraction_verdict_table(
        F(*K), F(*tv0),
        [tuple(F(*x) for x in row) for row in slabs],
        [(*row[:3], *(F(*x) for x in row[3:])) for row in events],
        [(s, F(*q), F(*q_restart)) for s, q, q_restart in restarts],
    )


def _verify_outcome(report):
    try:
        return verify_report(report)
    except InputError as exc:
        return str(exc)


def test_verify_with_the_fraction_table_patched_in_gives_the_same_failures(
    golden_report, monkeypatch
):
    """Each rational field of the golden report, set to each value below:
    the same failures, or the same input error, with the pair table and
    with the Fraction table in its place."""
    def value_at(path):
        doc = golden_report
        for key in path:
            doc = doc[key]
        return doc

    paths = [
        path for path in _field_paths(golden_report, stop=("run_config",))
        if isinstance(value_at(path), str) and isinstance(_read_both(value_at(path))[1], tuple)
    ]
    assert len(paths) > 20
    edits = [(path, value) for path in paths
             for value in ("0", "-1", "100", "1/3", "-7/2", "2/4", "1/0", "x")]
    pairs = [_verify_outcome(_with_field(golden_report, *edit)) for edit in edits]
    monkeypatch.setattr("fronttrack.report.verdict_table", _fraction_table)
    fractions = [_verify_outcome(_with_field(golden_report, *edit)) for edit in edits]
    for edit, got, want in zip(edits, pairs, fractions):
        assert got == want, edit
    # the edits reach failing verdicts, not only input errors
    assert sum(isinstance(out, list) and len(out) > 1 for out in pairs) > 20


def test_a_huge_probe_count_takes_one_probe_per_slab():
    config = load_json(CONFIGS / "two_shock_burgers.json")

    def probes(count):
        cfg = parse_run_config(dict(config, options={"restart_check_points": count}))
        return build_report(run_simulation(cfg))["restart_checks"]

    slabs = len(run_simulation(parse_run_config(config)).timeline.slabs)
    assert probes(10**12) == probes(slabs)


def test_runs_in_one_process_share_no_hulls():
    # each run samples its own flux, so the second run builds every hull the
    # first built, while the first run's restart probes read the hulls of
    # the flux object they share with it
    config = parse_run_config(load_json(CONFIGS / "nonconvex_splitting.json"))
    assert config.restart_check_points > 0
    caches = (_convex_by_index, _concave_by_index)

    def counts():
        return [sum(cache.cache_info()[i] for cache in caches) for i in (0, 1)]

    def counted(run, hits):
        def probe(*args):
            before = counts()[0]
            out = run(*args)
            hits.append(counts()[0] - before)
            return out
        return probe

    misses, probe_hits, reports = [], [], []
    for _ in range(2):
        before = counts()[1]
        probe_hits.append([])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(potential, "run_pipeline", counted(potential.run_pipeline, probe_hits[-1]))
            result = run_simulation(config)
        misses.append(counts()[1] - before)
        reports.append(report_bytes(build_report(result)))
    assert misses[0] > 0 and misses[1] == misses[0]
    assert probe_hits[0] and sum(probe_hits[0]) > 0
    assert reports[1] == reports[0]


def test_empty_datum_run():
    cfg = parse_run_config(
        {
            "flux": {"polynomial": ["0", "0", "1/2"]},
            "epsilon": "1",
            "datum": {"constant": "0", "jumps": []},
        }
    )
    result = run_simulation(cfg)
    assert result.timeline.events == ()
    assert result.series.all_pass
    report = build_report(result)
    assert report["event_count"] == 0 and len(report["slabs"]) == 1


# -- CLI ---------------------------------------------------------------------------


def test_cli_run_golden(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(GOLDEN_CONFIG))
    out_dir = tmp_path / "out"
    code = main(["run", str(cfg_path), "--out", str(out_dir), "--svg"])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["event_count"] == 1
    assert (out_dir / "events.csv").exists()
    assert (out_dir / "potential.csv").exists()
    fronts_svg = (out_dir / "fronts.svg").read_text()
    # two incoming segments end at the event, one outgoing starts there
    assert fronts_svg.count('data-t1="1" data-x1="1/2"') == 2
    assert fronts_svg.count('data-t0="1" data-x0="1/2"') == 1
    assert 'data-kind="same_sign"' in fronts_svg
    assert (out_dir / "potential.svg").exists()
    # the given flags are recorded in the report's run_config
    assert report["run_config"]["options"] == {"restart_check_points": 2, "emit_svg": True}
    out_dir = tmp_path / "out-flags"
    flags = ["--restart-checks", "0", "--decimal"]
    assert main(["run", str(cfg_path), "--out", str(out_dir), *flags]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["restart_checks"] == []
    assert report["run_config"]["options"] == {"restart_check_points": 0, "decimal": True}
    assert "Q_float" in (out_dir / "potential.csv").read_text()
    # the event cap is part of the config: exit 2, one line, no artifact
    capsys.readouterr()
    cfg_path.write_text(json.dumps(_with_options(max_events=0)))
    out_dir = tmp_path / "out-capped"
    assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == "input error: event cap 0 exceeded at t=1\n"
    assert not out_dir.exists()


def test_cli_out_that_cannot_be_made_after_the_run(tmp_path, capsys, monkeypatch):
    # the directory is made once the run has something to write; a refusal
    # then is an input error, one line, with nothing written
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(GOLDEN_CONFIG))
    out_dir = tmp_path / "new" / "out"

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli.Path, "mkdir", refuse)
    for command in ("run", "sweep"):
        if command == "sweep":
            cfg_path.write_text(json.dumps(GOLDEN_SWEEP))
        capsys.readouterr()
        assert main([command, str(cfg_path), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            f"input error: cannot use --out {out_dir}: [Errno 13] Permission denied\n"
        )
        assert not (tmp_path / "new").exists()


def test_cli_svg_bytes_stable(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(GOLDEN_CONFIG))
    main(["run", str(cfg_path), "--out", str(tmp_path / "a"), "--svg"])
    main(["run", str(cfg_path), "--out", str(tmp_path / "b"), "--svg"])
    assert (tmp_path / "a" / "fronts.svg").read_bytes() == (
        tmp_path / "b" / "fronts.svg"
    ).read_bytes()
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()


def test_cli_rejects_zero_epsilon(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(GOLDEN_CONFIG, epsilon="0")))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2


def test_cli_rejects_malformed_json(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        pytest.fail("a rejected invocation reached a run")

    monkeypatch.setattr(cli, "run_simulation", no_run)
    monkeypatch.setattr(cli, "sweep", no_run)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("{not json")
    assert main(["run", str(cfg_path)]) == 2
    # unreadable files and a 1e400 literal: exit 2 and one line
    infinite = json.dumps(GOLDEN_CONFIG).replace('"epsilon": "1"', '"epsilon": 1e400')
    assert "1e400" in infinite
    for raw in [*UNREADABLE_JSON, infinite.encode()]:
        cfg_path.write_bytes(raw)
        capsys.readouterr()
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, err
    # malformed fields: exit 2 and one line, never a traceback
    cases = [("run", bad, []) for bad in MALFORMED_CONFIGS]
    cases.append(("run", GOLDEN_CONFIG, ["--restart-checks", "-1"]))
    cases += [("sweep", bad, []) for bad in MALFORMED_SWEEPS]
    cases += [("sweep", GOLDEN_SWEEP, ["--jobs", jobs]) for jobs in ("0", "-3")]
    # without os.fork, parallel members cannot run
    monkeypatch.delattr(os, "fork")
    cases.append(("sweep", GOLDEN_SWEEP, ["--jobs", "2"]))
    # an --out naming a file, or a path below one
    cases += [
        (command, cfg, ["--out", str(out)])
        for command, cfg in (("run", GOLDEN_CONFIG), ("sweep", GOLDEN_SWEEP))
        for out in (cfg_path, cfg_path / "sub")
    ]
    for command, cfg, flags in cases:
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main([command, str(cfg_path), "--out", str(tmp_path / "out"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, err
        if flags[-1:] in ([str(cfg_path)], [str(cfg_path / "sub")]):
            assert err == (
                f"input error: cannot use --out {flags[-1]}: {cfg_path} is not a directory\n"
            )


def test_cli_verify_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(GOLDEN_CONFIG))
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
    assert main(["verify", str(out_dir / "report.json")]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    report["events"][0]["delta_sigma"] = "100"
    (out_dir / "bad.json").write_text(json.dumps(report))
    assert main(["verify", str(out_dir / "bad.json")]) == 1
    report = json.loads((out_dir / "report.json").read_text())
    report["flags"]["upsilon0_le_k_tv0_sq"] = True
    (out_dir / "flag.json").write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", str(out_dir / "flag.json")]) == 1
    assert capsys.readouterr().err == (
        "FAIL: flags: stored upsilon0_le_k_tv0_sq does not re-check\n"
    )
    # a malformed report is an input error with one line, not a traceback
    malformed = [
        lambda r: r["events"][0].pop("delta_sigma"),
        lambda r: r["events"][0].update(index=5),  # no slab 5
        lambda r: r["events"][0]["verdicts"].update(q_monotone=1),
    ]
    for edit in malformed:
        report = json.loads((out_dir / "report.json").read_text())
        edit(report)
        (out_dir / "malformed.json").write_text(json.dumps(report))
        assert main(["verify", str(out_dir / "malformed.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, err
    # a report that is not an object, or a list entry that is not, says so
    not_objects = [
        (lambda r: [], "report must be a JSON object"),
        (lambda r: 5, "report must be a JSON object"),
        (lambda r: None, "report must be a JSON object"),
        (lambda r: {**r, "slabs": [5]}, "report field 'slabs[0]' must be a JSON object"),
        (lambda r: {**r, "events": [r["events"][0], []]},
         "report field 'events[1]' must be a JSON object"),
        (lambda r: {**r, "restart_checks": ["x"]},
         "report field 'restart_checks[0]' must be a JSON object"),
        (lambda r: {**r, "flags": 5}, "report field 'flags' must be a JSON object"),
        (lambda r: {**r, "events": [{**r["events"][0], "verdicts": []}, *r["events"][1:]]},
         "report field 'events[0].verdicts' must be a JSON object"),
    ]
    for replace, message in not_objects:
        report = json.loads((out_dir / "report.json").read_text())
        (out_dir / "malformed.json").write_text(json.dumps(replace(report)))
        assert main(["verify", str(out_dir / "malformed.json")]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"
    for raw in UNREADABLE_JSON:
        (out_dir / "unreadable.json").write_bytes(raw)
        assert main(["verify", str(out_dir / "unreadable.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, err


_DELETE = object()


def _with_field(doc, path, value):
    """A copy of the JSON ``doc`` with the field at ``path`` (keys and list
    indices) set to ``value``, or deleted when ``value`` is ``_DELETE``."""
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    *parents, last = path
    obj = copy
    for key in parents:
        obj = obj[key]
    if value is _DELETE:
        del obj[last]
    else:
        obj[last] = value
    return copy


def _field_name(path):
    """``path`` as the reader names it: ``events[0].verdicts``."""
    return "".join(
        f"[{key}]" if isinstance(key, int) else f"{'.' if i else ''}{key}"
        for i, key in enumerate(path)
    )


def _field_paths(doc, path=(), stop=()):
    """``path`` and the path of every field below it, each list's first two
    items only; below a field named in ``stop`` nothing is listed."""
    yield path
    if isinstance(doc, dict) and not (path and path[-1] in stop):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc[:2])
    else:
        return
    for key, value in children:
        yield from _field_paths(value, (*path, key), stop)


@pytest.fixture
def golden_report(golden_result):
    return json.loads(report_bytes(build_report(golden_result)))


def _run_cli(tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    extra = ["--out", str(tmp_path / "out")] if command == "run" else []
    return main([command, str(path), *extra])


SAMPLES_CONFIG = dict(GOLDEN_CONFIG, datum={"constant": "1", "samples": {"0": "0", "1": "-1"}})


@pytest.mark.parametrize("kind, config, config_path, report_path", [
    ("integer", GOLDEN_CONFIG, ("seed",), ("slabs", 0, "index")),
    ("boolean", GOLDEN_CONFIG, ("options", "emit_svg"), ("events", 0, "composite")),
    ("string", SAMPLES_CONFIG, ("datum", "round"), ("events", 0, "kind")),
    ("array", GOLDEN_CONFIG, ("window",), ("restart_checks",)),
    ("object", GOLDEN_CONFIG, ("options",), ("events", 0, "verdicts")),
    (None, GOLDEN_CONFIG, ("flux",), ("flags", "upsilon0_le_k_tv0_sq")),
], ids=["integer", "boolean", "string", "array", "object", "missing"])
def test_json_field_errors_name_the_field_and_kind(
    tmp_path, capsys, golden_report, kind, config, config_path, report_path
):
    # a float is no kind a field is read as; the missing case deletes the field
    value = 2.5 if kind else _DELETE
    words = f"must be a JSON {kind}" if kind else "is missing"
    for command, doc, path in (("run", config, config_path),
                               ("verify", golden_report, report_path)):
        capsys.readouterr()
        assert _run_cli(tmp_path, command, _with_field(doc, path, value)) == 2
        doc_name = "config" if command == "run" else "report"
        assert capsys.readouterr().err == (
            f"input error: {doc_name} field '{_field_name(path)}' {words}\n"
        )


def test_flux_table_errors_say_key_or_value():
    with pytest.raises(InputError, match=re.escape(
        "flux table value at grid index 0: not a rational value: '[1]'"
    )):
        parse_run_config(dict(GOLDEN_CONFIG, flux={"table": {"0": [1], "1": "1"}}))
    with pytest.raises(InputError, match="^flux table keys must be grid indices: "):
        parse_run_config(dict(GOLDEN_CONFIG, flux={"table": {"a": "1"}}))
    for key in ("01", "1_0", "-0", "+1", " 1"):
        with pytest.raises(InputError, match=re.escape(
            f"flux table keys must be grid indices: {key!r} is not a plain decimal integer"
        )):
            parse_run_config(dict(GOLDEN_CONFIG, flux={"table": dict(BURGERS_TABLE, **{key: "1"})}))
    # negative keys are grid indices too
    table = sample_flux({"table": BURGERS_TABLE}, "1", (-2, 2))
    polynomial = sample_flux(GOLDEN_CONFIG["flux"], "1", (-2, 2))
    assert (table.epsilon, table.k_min, table.k_max, table.values) == (
        polynomial.epsilon, polynomial.k_min, polynomial.k_max, polynomial.values
    )


MUTANTS = [None, True, False, 0, -1, 2, 2.5, "x", "1/2", "", [], {}, [1, 2], {"a": 1}]


@pytest.mark.parametrize("command", ["run", "verify"])
def test_one_field_mutations_exit_cleanly(tmp_path, capsys, golden_report, command):
    """Every field of the golden config, or of its report outside
    ``run_config``, set to each value of every JSON kind: no traceback, exit
    2 with one ``input error:`` line, or exit 1 with only failure lines."""
    doc = GOLDEN_CONFIG if command == "run" else golden_report
    paths = list(_field_paths(doc, stop=("run_config",)))
    assert len(paths) == (21 if command == "run" else 74)
    for path in paths:
        for value in MUTANTS:
            capsys.readouterr()
            code = _run_cli(tmp_path, command, _with_field(doc, path, value))
            lines = capsys.readouterr().err.splitlines()
            case = (_field_name(path), value, code, lines)
            if code == 2:
                assert len(lines) == 1 and lines[0].startswith("input error: "), case
            elif code == 1:
                assert lines and all(
                    line.startswith(("FAIL: ", "verification FAILED")) for line in lines
                ), case
            else:
                assert code == 0 and lines == [], case


GOLDEN_SHA256 = {
    "nonconvex_splitting": {
        "events.csv": "8c5aa3128d3e025d95ee151107f7738354e9b32596066be7322498046244b7fe",
        "fronts.svg": "7aecae3b74603af82cb23e068c971b61ab2dc50b5181ec17bfe476e2fe88032a",
        "potential.csv": "7e8ef797df41b0fa33d1d4f5c6a6396ec512dee7690b03119fca9a9e6d1cd11f",
        "potential.svg": "fee3aff1fae9a065e7d6f2a9f948fc4b576c4c6eb877366a8502b887f6bbdf4d",
        "report.json": "bbc487a48d01ef78850e44ff353b71643ebfb1c56b40822acf99fc3addf38225",
    },
    "sweep_shock_rarefaction": {
        "sweep.csv": "1e300ff93a6613c5c119d3946bae48d26b87904fec025f74514258d331716d91",
        "sweep.json": "5cfe3215871ccbcbe01c534eb789883234a71e96ddce86786a067035d5790f06",
    },
    "two_shock_burgers": {
        "events.csv": "c0797070b64aab07d441e465a5f6692cf2f358b0cb875ab08ce2204cd96f9bde",
        "fronts.svg": "d9f8f688445cf7488e08f3bd0c939c5c3b1b26d30cf4a1cd5b4105f50e604119",
        "potential.csv": "cdb29df74717719f517ad7b15a7bfa02fd80bd3eb4851b43a7d8e1ddb332c31d",
        "potential.svg": "242acdb029ccf93605d148cb14c4903ede48ba300aa227d3ed7974fb657d33e7",
        "report.json": "621614abeb4b6fb72d07c7a48de4a09063e1dfb3dc991a972d43e57cd647c1d7",
    },
}


# the CSVs of `run --decimal`, whose float columns the files above lack
GOLDEN_DECIMAL_SHA256 = {
    "nonconvex_splitting": {
        "events.csv": "bcb6e8eed0411ee2ba3e2763f2384f355089acc616b1e97be993a675a380216d",
        "potential.csv": "2abc643d2fd56c61fccbc017f2437211af61853d9d51c13d248ebdc05486a0ab",
    },
    "two_shock_burgers": {
        "events.csv": "cbd35c460a65bab912a61ab5c43eb1ff41b4f28366476a22e926fe60220c3072",
        "potential.csv": "c49d13c38cdb14a788326ad53bc90054aac7d7afc3bf6a3b58caf928f143c4f7",
    },
}


def _sha256_of_files(out, names=None):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.iterdir() if names is None or p.name in names
    }


def test_configs_golden_bytes(tmp_path):
    """`run --svg` on every run config and `sweep` on the sweep config write
    exactly the pinned bytes, so refactors keep every artifact identical;
    `run --decimal` writes the pinned CSVs."""
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(GOLDEN_SHA256)
    for name, pinned in GOLDEN_SHA256.items():
        path = CONFIGS / f"{name}.json"
        out = tmp_path / name
        if "epsilons" in load_json(str(path)):
            args = ["sweep", str(path), "--out", str(out)]
        else:
            args = ["run", str(path), "--out", str(out), "--svg"]
        assert main(args) == 0
        assert _sha256_of_files(out) == pinned, name
    for name, pinned in GOLDEN_DECIMAL_SHA256.items():
        out = tmp_path / f"{name}-decimal"
        assert main(["run", str(CONFIGS / f"{name}.json"), "--out", str(out), "--decimal"]) == 0
        assert _sha256_of_files(out, pinned) == pinned, name


# -- sweeps ------------------------------------------------------------------------


def test_sweep_fixed_datum(tmp_path):
    sweep_cfg = parse_sweep_config(
        {
            "base": {"flux": {"polynomial": ["0", "0", "1/2"]}, "window": [-8, 8]},
            "epsilons": ["1", "1/2", "1/4"],
            "datum": {"constant": "1", "jumps": [["0", "0"], ["1", "-1"]]},
            "probe_times": ["2"],
        }
    )
    rows = sweep(sweep_cfg)
    assert [r["epsilon"] for r in rows] == ["1", "1/2", "1/4"]
    assert all(r["passed"] for r in rows)
    # a pure two-shock merge is grid-independent: identical profiles at t=2
    assert all(r["l1_to_finest"]["2"] == "0" for r in rows)


def test_sweep_requires_decreasing_epsilons():
    with pytest.raises(InputError):
        parse_sweep_config(
            {
                "epsilons": ["1/4", "1/2"],
                "datum": {"constant": "0", "jumps": []},
            }
        )
    for bad in MALFORMED_SWEEPS:
        with pytest.raises(InputError):
            parse_sweep_config(bad)


def test_sweep_members_with_different_tails():
    # the message names both epsilons; without probe times no L1 distance is
    # taken, and the members run
    with pytest.raises(InputError, match="epsilon 1/2 and 1/4 have different tails"):
        parse_sweep_config(DIFFERENT_TAILS)
    rows = sweep(parse_sweep_config(dict(DIFFERENT_TAILS, probe_times=[])))
    assert [r["epsilon"] for r in rows] == ["1/2", "1/4"]
    assert all(r["passed"] and r["l1_to_finest"] == {} for r in rows)


def test_sweep_random_family(tmp_path):
    sweep_cfg = parse_sweep_config(
        {
            "base": {"window": [-8, 8]},
            "epsilons": ["1/4", "1/8"],
            "random": {"seed": 7, "jumps": 5, "max_tv": "2"},
            "probe_times": ["1"],
        }
    )
    rows = sweep(sweep_cfg)
    assert len(rows) == 2 and all(r["passed"] for r in rows)
    again = sweep(sweep_cfg)
    assert rows == again  # deterministic for a fixed seed


def test_cli_sweep(tmp_path, capsys, monkeypatch):
    cfg = {
        "base": {"flux": {"polynomial": ["0", "0", "1/2"]}, "window": [-4, 4]},
        "epsilons": ["1", "1/2"],
        "datum": {"constant": "1", "jumps": [["0", "0"], ["1", "-1"]]},
        "probe_times": ["2"],
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert main(["sweep", str(cfg_path), "--out", str(out_dir)]) == 0
    rows = json.loads((out_dir / "sweep.json").read_text())
    assert len(rows) == 2
    assert (out_dir / "sweep.csv").read_text().startswith("epsilon,")

    # an event cap in a member is an input error: exit 2 and one line, from
    # a forked worker too
    capped_path = tmp_path / "capped.json"
    capped = dict(cfg, base=dict(cfg["base"], options={"max_events": 0}))
    capped_path.write_text(json.dumps(capped))
    for jobs in ("1", "2"):
        capsys.readouterr()
        args = ["sweep", str(capped_path), "--out", str(tmp_path / "capped"), "--jobs", jobs]
        assert main(args) == 2
        assert capsys.readouterr().err == "input error: event cap 0 exceeded at t=1\n"
        assert not (tmp_path / "capped").exists()

    # a member that fails a check: every row is written, then exit 1
    member = harness._sweep_member

    def failing_member(arg):
        row, profiles = member(arg)
        if row["epsilon"] == "1/2":
            row.update(passed=False, failures=["event0:q_monotone"])
        return row, profiles

    monkeypatch.setattr(harness, "_sweep_member", failing_member)
    out_dir = tmp_path / "out-failing"
    assert main(["sweep", str(cfg_path), "--out", str(out_dir)]) == 1
    rows = json.loads((out_dir / "sweep.json").read_text())
    assert [row["passed"] for row in rows] == [True, False]
    assert rows[1]["l1_to_finest"] == {"2": "0"}
    assert (out_dir / "sweep.csv").read_text().startswith("epsilon,")
    err = capsys.readouterr().err
    assert err == "verification FAILED: {'1/2': ['event0:q_monotone']}\n"


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_forks_no_more_workers_than_members(monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    two_members = parse_sweep_config(GOLDEN_SWEEP)
    rows = sweep(two_members)
    three_members = parse_sweep_config(dict(GOLDEN_SWEEP, epsilons=["1", "1/2", "1/4"]))
    rows3 = sweep(three_members)
    assert forks == []
    for sweep_cfg, expected in ((two_members, rows), (three_members, rows3)):
        for jobs in (2, 8):
            forks.clear()
            assert sweep(sweep_cfg, jobs=jobs) == expected
            assert len(forks) == min(jobs, len(sweep_cfg.epsilons))
            _assert_no_child_left()

    # a member that raises: the first failing member in config order raises,
    # as with jobs=1, and every worker is reaped first
    member = harness._sweep_member

    def raising_member(arg):
        if arg[0] != "1/4":
            raise InputError(f"member {arg[0]} failed")
        return member(arg)

    monkeypatch.setattr(harness, "_sweep_member", raising_member)
    for jobs in (1, 2, 3):
        with pytest.raises(InputError, match="^member 1 failed$"):
            sweep(three_members, jobs=jobs)
        _assert_no_child_left()


def test_sweep_worker_that_dies_is_reported_and_reaped(monkeypatch):
    member = harness._sweep_member

    def dying_member(arg):
        if arg[0] == "1/2":
            os._exit(3)
        return member(arg)

    monkeypatch.setattr(harness, "_sweep_member", dying_member)
    three_members = parse_sweep_config(dict(GOLDEN_SWEEP, epsilons=["1", "1/2", "1/4"]))
    for jobs in (2, 3):
        with pytest.raises(RuntimeError, match=r"^sweep worker \d+ exited with status 3 "):
            sweep(three_members, jobs=jobs)
        _assert_no_child_left()


def test_cli_internal_faults_exit_3(tmp_path, capsys, monkeypatch):
    """A dead sweep worker and a failed invariant each exit 3 with one
    ``internal error:`` line, not with a traceback and the status of a
    failed check."""
    member = harness._sweep_member

    def dying_member(arg):
        if arg[0] == "1/2":
            os._exit(3)
        return member(arg)

    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(dict(GOLDEN_SWEEP, epsilons=["1", "1/2", "1/4"])))
    monkeypatch.setattr(harness, "_sweep_member", dying_member)
    capsys.readouterr()
    assert main(["sweep", str(cfg_path), "--out", str(tmp_path / "sweep"), "--jobs", "2"]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(
        r"internal error: sweep worker \d+ exited with status 3 before sending its results",
        lines[0],
    )
    _assert_no_child_left()

    def broken_validator(tl):
        raise ConsistencyError("front ordering lost")

    monkeypatch.setattr(harness, "validate_timeline", broken_validator)
    assert _run_cli(tmp_path, "run", GOLDEN_CONFIG) == 3
    assert capsys.readouterr().err == "internal error: front ordering lost\n"


def test_sweep_deals_members_on_demand(tmp_path, monkeypatch):
    """At jobs=2 the finest of three members waits until the other two have
    finished.  Dealt on demand, the second worker runs both; a static deal
    gives the coarsest to the waiting worker, and the wait times out."""
    three_members = parse_sweep_config(dict(GOLDEN_SWEEP, epsilons=["1", "1/2", "1/4"]))
    expected = sweep(three_members)
    member = harness._sweep_member
    done = tmp_path / "done"
    done.mkdir()

    def waiting_member(arg):  # its row also carries the worker's pid
        if arg[0] == "1/4":
            deadline = time.monotonic() + 10
            while len(list(done.iterdir())) < 2:
                if time.monotonic() > deadline:
                    raise ConsistencyError("the other members did not finish within 10 s")
                time.sleep(0.005)
        row, profiles = member(arg)
        if arg[0] != "1/4":
            (done / arg[0].replace("/", "_")).touch()
        return dict(row, pid=os.getpid()), profiles

    monkeypatch.setattr(harness, "_sweep_member", waiting_member)
    rows = sweep(three_members, jobs=2)
    _assert_no_child_left()
    assert [{k: row[k] for k in expected[0]} for row in rows] == expected
    assert rows[0]["pid"] == rows[1]["pid"] != rows[2]["pid"]
    assert os.getpid() not in {row["pid"] for row in rows}


def test_forked_members_queue_more_than_a_pipe_holds(monkeypatch):
    """20,000 members queue 80,000 bytes, more than a pipe holds, so the
    parent's writes wait for the workers' reads."""
    import fcntl  # a host that forks is a POSIX one

    args = list(range(20_000))
    if hasattr(fcntl, "F_GETPIPE_SZ"):
        read_end, write_end = os.pipe()
        try:
            assert fcntl.fcntl(write_end, fcntl.F_GETPIPE_SZ) < harness._QUEUE_RECORD * len(args)
        finally:
            os.close(read_end)
            os.close(write_end)
    monkeypatch.setattr(harness, "_sweep_member", lambda arg: -arg)
    for jobs in (2, 3):
        assert harness._forked_members(args, jobs) == [-i for i in args]
        _assert_no_child_left()

    # every worker dies on its first member: the write into the full queue
    # fails with EPIPE, and every member fails with the first dead worker's error
    def dying_member(arg):
        os._exit(3)

    monkeypatch.setattr(harness, "_sweep_member", dying_member)
    with pytest.raises(ConsistencyError, match=r"^sweep worker \d+ exited with status 3 "):
        harness._forked_members(args, 2)
    _assert_no_child_left()


def test_cli_sweep_worker_that_dies_on_a_queued_member_exits_3(tmp_path):
    """At --jobs 2 the coarsest of three members waits in the queue, so the
    worker that dies on it has run a member before; the CLI, run with a time
    limit, exits 3 with the one-line message and leaves no worker behind."""
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(dict(GOLDEN_SWEEP, epsilons=["1", "1/2", "1/4"])))
    code = (
        "import os, sys\n"
        "from fronttrack import cli, harness\n"
        "member = harness._sweep_member\n"
        "def dying_member(arg):\n"
        "    if arg[0] == '1':\n"
        "        os._exit(3)\n"
        "    return member(arg)\n"
        "harness._sweep_member = dying_member\n"
        "status = cli.main(sys.argv[1:])\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    status = 99  # a worker is left\n"
        "except ChildProcessError:\n"
        "    pass\n"
        "sys.exit(status)\n"
    )
    src = Path(harness.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code, "sweep", str(cfg_path), "--out", str(tmp_path / "out"),
         "--jobs", "2"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3
    assert re.fullmatch(
        r"internal error: sweep worker \d+ exited with status 3 before sending its results\n",
        proc.stderr,
    )


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls on this platform"
)
def test_sweep_pins_each_worker_to_its_own_cpu(monkeypatch):
    three_members = parse_sweep_config(dict(GOLDEN_SWEEP, epsilons=["1", "1/2", "1/4"]))
    expected = sweep(three_members)
    parent_cpus = sorted(os.sched_getaffinity(0))
    member = harness._sweep_member

    def reporting_member(arg):  # its row also carries the worker's pid and CPUs
        row, profiles = member(arg)
        return dict(row, pid=os.getpid(), cpus=sorted(os.sched_getaffinity(0))), profiles

    monkeypatch.setattr(harness, "_sweep_member", reporting_member)
    for jobs in (2, 3):
        rows = sweep(three_members, jobs=jobs)
        assert [{k: row[k] for k in expected[0]} for row in rows] == expected
        assert sorted(os.sched_getaffinity(0)) == parent_cpus  # the parent stays unpinned
        _assert_no_child_left()
        by_worker = {}
        for row in rows:
            by_worker.setdefault(row["pid"], []).append(row["cpus"])
        assert len(by_worker) == jobs and os.getpid() not in by_worker
        worker_cpus = []
        for reports in by_worker.values():
            assert len(reports[0]) == 1 and reports[0][0] in parent_cpus
            assert all(cpus == reports[0] for cpus in reports)
            worker_cpus.append(reports[0][0])
        if len(parent_cpus) >= jobs:
            assert len(set(worker_cpus)) == jobs


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls on this platform"
)
def test_sweep_on_one_allowed_cpu_matches_jobs_1():
    three_members = parse_sweep_config(dict(GOLDEN_SWEEP, epsilons=["1", "1/2", "1/4"]))
    expected = sweep(three_members)
    parent_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(parent_cpus)})
    try:
        assert sweep(three_members, jobs=2) == expected
        assert os.sched_getaffinity(0) == {min(parent_cpus)}
    finally:
        os.sched_setaffinity(0, parent_cpus)
    _assert_no_child_left()


def test_sweep_workers_that_cannot_pin_run_unpinned(monkeypatch):
    three_members = parse_sweep_config(dict(GOLDEN_SWEEP, epsilons=["1", "1/2", "1/4"]))
    expected = sweep(three_members)

    def refused(pid, cpus):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refused, raising=False)
    assert sweep(three_members, jobs=2) == expected
    _assert_no_child_left()
    # no affinity calls at all, as on a platform without them
    for name in ("sched_getaffinity", "sched_setaffinity"):
        monkeypatch.delattr(os, name, raising=False)
    assert sweep(three_members, jobs=2) == expected
    _assert_no_child_left()


def test_cli_imports_no_process_pool():
    """A cold start of the CLI loads neither a process pool nor pickle:
    only a parallel sweep imports pickle, when it forks its workers."""
    src = Path(harness.__file__).resolve().parent.parent
    code = (
        "import sys, fronttrack.cli, fronttrack.harness; "
        "print([m for m in ('concurrent.futures', 'multiprocessing', 'pickle') "
        "if m in sys.modules])"
    )
    # -S: the site hooks of the environment are not the package's imports
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout == "[]\n"


# -- distance and generators --------------------------------------------------------


def test_l1_distance_matches_oracle():
    p = Profile(F(0), ((F(0), F(1)), (F(2), F(0))))
    q = Profile(F(0), ((F(1, 2), F(1)), (F(2), F(1, 2)), (F(3), F(0))))
    d = l1_distance(p, q)
    assert d == l1_profile_distance_oracle(p, q) == fraction_l1_distance(p, q)
    assert d == F(1, 2) + F(1, 2)


def test_l1_distance_at_shared_positions_with_non_integral_values():
    # both profiles jump at 1/2, 1, 3/2 and 5/2; at 1 both rise by 1, so the
    # gap does not change there
    p = Profile(F(1, 3), ((F(1, 2), F(-2, 5)), (F(1), F(3, 5)), (F(3, 2), F(7, 4)),
                          (F(5, 2), F(1, 3))))
    q = Profile(F(1, 3), ((F(1, 2), F(3, 2)), (F(1), F(5, 2)), (F(3, 2), F(7, 4)),
                          (F(2), F(-1, 6)), (F(5, 2), F(1, 3))))
    # a gap of 19/10 on [1/2, 3/2), none on [3/2, 2), 23/12 on [2, 5/2)
    expected = F(19, 10) + F(23, 12) / 2
    for a, b in ((p, q), (q, p)):
        assert l1_distance(a, b) == expected
        assert l1_profile_distance_oracle(a, b) == fraction_l1_distance(a, b) == expected
    assert l1_distance(p, p) == 0


def test_l1_distance_matches_oracle_on_the_sweep_members():
    # the seed-3 family of the benchmark's `sweep` workload, every pair of
    # members at each probe time
    sweep_cfg = parse_sweep_config({
        "epsilons": ["1/16", "1/32", "1/64", "1/96"],
        "random": {"seed": 3, "max_tv": "2", "jumps": 10},
        "probe_times": ["1", "4"],
    })
    members = [
        harness._sweep_member((str(eps), harness._member_config(sweep_cfg, eps),
                               sweep_cfg.probe_times))[1]
        for eps in sweep_cfg.epsilons
    ]
    for k in range(len(sweep_cfg.probe_times)):
        for a in members:
            for b in members:
                d = l1_distance(a[k], b[k])
                assert d == l1_profile_distance_oracle(a[k], b[k])
                assert d == fraction_l1_distance(a[k], b[k])
    assert l1_distance(members[0][0], members[-1][0]) > 0


def _profile_with_tails(constant, tail, steps):
    """A profile from ``constant`` through the (x gap, value) ``steps`` to
    ``tail``, skipping steps that do not change the value."""
    jumps, x, v = [], F(0), constant
    for gap, w in steps + [(F(1), tail)]:
        x += gap
        if w != v:
            jumps.append((x, w))
            v = w
    return Profile(constant, tuple(jumps))


# values with small denominators, integral ones among them; gaps with
# denominators up to 8, so the two profiles often share a breakpoint
_values = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_steps = st.lists(
    st.tuples(st.fractions(min_value=F(1, 8), max_value=3, max_denominator=8), _values),
    max_size=8,
)


@settings(max_examples=100, deadline=None)
@given(_values, _values, _steps, _steps)
def test_l1_distance_matches_oracle_on_profiles_with_equal_tails(constant, tail, ps, qs):
    p = _profile_with_tails(constant, tail, ps)
    q = _profile_with_tails(constant, tail, qs)
    d = l1_distance(p, q)
    assert d == l1_profile_distance_oracle(p, q) == fraction_l1_distance(p, q)
    assert d == l1_distance(q, p)


def test_l1_distance_rejects_tail_mismatch():
    p = Profile(F(0), ((F(0), F(1)),))
    q = Profile(F(0), ())
    with pytest.raises(InputError):
        l1_distance(p, q)


def test_random_generators_deterministic():
    import random

    a = random_flux_spec(random.Random(3))
    b = random_flux_spec(random.Random(3))
    assert a == b
    da = random_datum_spec(random.Random(3), F(2))
    db = random_datum_spec(random.Random(3), F(2))
    assert da == db
    raw_vals = [F(0)] + [F(v) for _, v in da["jumps"]]
    tv = sum(abs(y - x) for x, y in zip(raw_vals, raw_vals[1:]))
    assert tv <= 2

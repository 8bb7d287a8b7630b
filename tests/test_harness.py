import hashlib
import json
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from fronttrack import cli, harness
from fronttrack.cli import main
from fronttrack.errors import InputError
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
from fronttrack.report import (
    EVENTS_COLUMNS,
    POTENTIAL_COLUMNS,
    build_report,
    events_csv,
    potential_csv,
    report_bytes,
    verify_report,
)
from fronttrack.tracker import Profile

from oracles import l1_profile_distance_oracle

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


# each ended in a traceback, or (probe_times) probed t = 1 and t = 2, or (a
# negative probe time) ran every member before failing, before the sweep
# fields were validated
MALFORMED_SWEEPS = [
    dict(GOLDEN_SWEEP, epsilons=5),
    dict(GOLDEN_SWEEP, base=5),
    dict(GOLDEN_SWEEP, probe_times="12"),
    dict(GOLDEN_SWEEP, probe_times=["-1"]),
    _random_sweep(5),
    _random_sweep({"seed": "x"}),
    _random_sweep({"jumps": "5"}),
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
        # a verdict or a drop-failure index of the wrong JSON type is an
        # input error, although Python has 1 == True
        mistyped = [
            (lambda r: r["events"][0]["verdicts"].update(q_monotone=1),
             "events[0].verdicts.q_monotone"),
            (lambda r: r["flags"].update(upsilon_paper_drop_failures=[
                bool(i) for i in r["flags"]["upsilon_paper_drop_failures"]
            ]), "flags.upsilon_paper_drop_failures.0"),
        ]
        for edit, field in mistyped:
            with pytest.raises(InputError, match=f"'{re.escape(field)}' must be of type"):
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
    assert list(out_dir.iterdir()) == []


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
    for raw in UNREADABLE_JSON:
        (out_dir / "unreadable.json").write_bytes(raw)
        assert main(["verify", str(out_dir / "unreadable.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, err


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

    # an event cap in a member is an input error: exit 2 and one line
    capsys.readouterr()
    capped_path = tmp_path / "capped.json"
    capped = dict(cfg, base=dict(cfg["base"], options={"max_events": 0}))
    capped_path.write_text(json.dumps(capped))
    args = ["sweep", str(capped_path), "--out", str(tmp_path / "capped"), "--jobs", "1"]
    assert main(args) == 2
    assert capsys.readouterr().err == "input error: event cap 0 exceeded at t=1\n"

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


def test_sweep_forks_no_more_workers_than_members(monkeypatch):
    pools = []

    class RecordingExecutor:
        """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingExecutor)
    two_members = parse_sweep_config(GOLDEN_SWEEP)
    assert sweep(two_members, jobs=8) == sweep(two_members)
    assert pools == [2]


# -- distance and generators --------------------------------------------------------


def test_l1_distance_matches_oracle():
    p = Profile(F(0), ((F(0), F(1)), (F(2), F(0))))
    q = Profile(F(0), ((F(1, 2), F(1)), (F(2), F(1, 2)), (F(3), F(0))))
    d = l1_distance(p, q)
    assert d == l1_profile_distance_oracle(p, q)
    assert d == F(1, 2) + F(1, 2)


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

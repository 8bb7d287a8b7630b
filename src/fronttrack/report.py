"""Artifact emission and re-checking: report.json, events.csv, potential.csv.

All rationals are serialized as canonical "p/q" strings; the optional decimal
columns are a plotting convenience, never the primary record.  Reports are
byte-deterministic for a fixed config: keys are emitted in a fixed order and
every value is either a string, an int, a bool or a nested structure of the
same.
"""

import csv
import io
import json
from dataclasses import fields
from fractions import Fraction
from math import gcd

from .errors import InputError
from .harness import RunResult
from .potential import upsilon, verdict_table
from .rationals import format_rational, json_field, parse_rational

EVENTS_COLUMNS = [
    "t", "x", "kind", "a", "b", "c",
    "delta_sigma", "Q_minus", "Q_plus", "TV_minus", "TV_plus",
]
POTENTIAL_COLUMNS = [
    "t_lo", "t_hi", "Q", "TV", "upsilon_paper", "upsilon_strict", "bianchini",
]


def _json(value):
    """A Fraction as its "p/q" string, a dict with sorted keys, else as is."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return dict(sorted(value.items()))
    return value


def _rows(records) -> list:
    """One report row per record: its fields, in declaration order."""
    if not records:
        return []
    names = [f.name for f in fields(records[0])]
    return [{n: _json(getattr(rec, n)) for n in names} for rec in records]


def build_report(result: RunResult) -> dict:
    series, cfg = result.series, result.config
    return {
        "run_config": cfg.raw,
        "epsilon": _json(cfg.epsilon),
        "window": [result.timeline.flux.k_min, result.timeline.flux.k_max],
        "K": _json(series.K),
        "analytic_curvature_bound": _json(cfg.analytic_curvature_bound),
        "TV0": _json(series.tv0),
        "atom_count": result.waves.atom_count,
        "initial_front_count": len(result.timeline.slabs[0]),
        "event_count": len(series.events),
        "max_weight": _json(series.max_weight),
        "all_pass": series.all_pass,
        "hard_failures": series.hard_failures,
        "flags": dict(series.flags),
        "events": _rows(series.events),
        "slabs": _rows(series.slabs),
        "restart_checks": _rows(series.restart_checks),
    }


def report_bytes(report: dict) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=False) + "\n").encode("utf-8")


def _float_text(value) -> str:
    """The float twin of a stored rational: "inf" for an open end (None), and
    "inf" or "-inf" by its sign for a value beyond float range."""
    if value is None:
        return "inf"
    q = Fraction(value)
    try:
        return repr(float(q))
    except OverflowError:
        return "inf" if q > 0 else "-inf"


def _csv(rows, columns, decimal, exact_only) -> str:
    """The rows' ``columns`` as CSV; with ``decimal``, a float twin of every
    column not in ``exact_only`` follows.  An open end (None) reads "inf"."""
    floats = [c for c in columns if c not in exact_only] if decimal else []
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns + [c + "_float" for c in floats])
    for row in rows:
        writer.writerow(
            ["inf" if row[c] is None else row[c] for c in columns]
            + [_float_text(row[c]) for c in floats]
        )
    return out.getvalue()


def events_csv(report: dict, decimal: bool = False) -> str:
    return _csv(report["events"], EVENTS_COLUMNS, decimal, exact_only=("kind",))


def potential_csv(report: dict, decimal: bool = False) -> str:
    return _csv(report["slabs"], POTENTIAL_COLUMNS, decimal, exact_only=())


def _reduced_pair(text: str) -> tuple:
    """The stored rational ``text`` as its reduced (numerator, denominator).

    The canonical spelling `format_rational` writes ("0", or an ASCII
    integer without leading zeros, "-" allowed, optionally over a
    denominator of 2 or more without leading zeros that is coprime to it)
    is read with two `int` calls; every other string, and a numerator past
    the interpreter's int-string digit limit, goes through `parse_rational`,
    with its value and its error."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if (
        text.isascii() and digits.isdigit() and (digits[0] != "0" or num == text == "0")
        and (not slash or den.isdigit() and den[0] != "0" and den != "1")
    ):
        try:
            n, d = int(num), int(den) if slash else 1
        except ValueError:
            pass
        else:
            if gcd(n, d) == 1:
                return n, d
    value = parse_rational(text)
    return value.numerator, value.denominator


def _rational_reader():
    """``rational(obj, key, where)`` returns the stored rational ``obj[key]``,
    a JSON string, as its reduced (numerator, denominator) pair, so that two
    stored values are equal exactly when their pairs are; a missing,
    mistyped or unparsable field raises InputError.  Each distinct string is
    parsed once, because a report repeats most of its values (the event
    columns copy slab values)."""
    parsed = {}

    def rational(obj, key, where=""):
        value = json_field(obj, key, str, "report", where)
        pair = parsed.get(value)
        if pair is None:
            try:
                pair = parsed[value] = _reduced_pair(value)
            except InputError as exc:
                raise InputError(f"report field '{where}{key}': {exc}") from exc
        return pair

    return rational


def verify_report(report: dict) -> list:
    """Re-check a stored report against the verdict table recomputed from its
    stored rationals.

    Returns a list of failure descriptions; an empty list means every stored
    verdict, flag, identity and summary field re-checks and all hard checks
    hold.  A malformed report (a missing or mistyped field, or events that do
    not separate consecutive slabs) raises InputError.
    """
    if not isinstance(report, dict):
        raise InputError("report must be a JSON object")
    rational = _rational_reader()

    def entries(key):
        # the list field ``key``, whose every entry must be an object
        items = json_field(report, key, list, "report")
        for i in range(len(items)):
            json_field(items, i, dict, "report", key)
        return items

    K = rational(report, "K")
    tv0 = rational(report, "TV0")
    epsilon = rational(report, "epsilon")
    run_config = json_field(report, "run_config", dict, "report")
    run_epsilon = json_field(run_config, "epsilon", object, "report", "run_config.")
    try:
        run_epsilon = parse_rational(run_epsilon)
    except InputError as exc:
        raise InputError(f"report field 'run_config.epsilon': {exc}") from exc
    slabs = []
    for i, rec in enumerate(entries("slabs")):
        where = f"slabs[{i}]."
        if json_field(rec, "index", int, "report", where) != i:
            raise InputError(f"report field '{where}index' is not {i}")
        slabs.append(tuple(
            rational(rec, k, where) for k in ("Q", "TV", "upsilon_paper", "upsilon_strict")
        ))
    events = entries("events")
    if len(slabs) != len(events) + 1:
        raise InputError(f"report has {len(events)} events but {len(slabs)} slabs")
    event_rows, columns, stored_verdicts = [], [], []
    for i, ev in enumerate(events):
        where = f"events[{i}]."
        if json_field(ev, "index", int, "report", where) != i:
            raise InputError(f"report field '{where}index' is not {i}")
        event_rows.append((
            i, json_field(ev, "kind", str, "report", where),
            json_field(ev, "composite", bool, "report", where),
            *(rational(ev, k, where) for k in ("a", "b", "c", "delta_sigma")),
        ))
        columns.append(tuple(
            rational(ev, k, where) for k in ("Q_minus", "Q_plus", "TV_minus", "TV_plus")
        ))
        verdicts = json_field(ev, "verdicts", dict, "report", where)
        for name in verdicts:
            json_field(verdicts, name, bool, "report", where + "verdicts.")
        stored_verdicts.append(verdicts)
    restarts, stored_equal = [], []
    for i, rc in enumerate(entries("restart_checks")):
        where = f"restart_checks[{i}]."
        s = json_field(rc, "slab", int, "report", where)
        if not 0 <= s < len(slabs):
            raise InputError(f"report field '{where}slab' names no slab")
        restarts.append((s, rational(rc, "Q", where), rational(rc, "Q_restart", where)))
        stored_equal.append(json_field(rc, "equal", bool, "report", where))
    flags = json_field(report, "flags", dict, "report")
    table = verdict_table(K, tv0, slabs, event_rows, restarts)

    failures = []
    if epsilon != run_epsilon.as_integer_ratio():
        failures.append("epsilon: stored value does not match run_config")
    for i, (q, tv, up, us) in enumerate(slabs):
        (pn, pd), (sn, sd) = upsilon(q, tv, tv0, K)
        if up[0] * pd != pn * up[1]:
            failures.append(f"slab{i}: upsilon_paper inconsistent")
        if us[0] * sd != sn * us[1]:
            failures.append(f"slab{i}: upsilon_strict inconsistent")
    if slabs[0][1] != tv0:
        failures.append("slab0: TV differs from TV0")
    for name in dict.fromkeys([*table.flags, *flags]):
        value = table.flags.get(name)
        if value is not None:
            stored = json_field(flags, name, type(value), "report", "flags.")
            if isinstance(stored, list):  # event indices
                for j in range(len(stored)):
                    json_field(stored, j, int, "report", f"flags.{name}")
        if value is None or stored != value:
            failures.append(f"flags: stored {name} does not re-check")
    for i, (q_minus, q_plus, tv_minus, tv_plus) in enumerate(columns):
        if (q_minus, q_plus) != (slabs[i][0], slabs[i + 1][0]):
            failures.append(f"event{i}: Q columns disagree with slab table")
        if (tv_minus, tv_plus) != (slabs[i][1], slabs[i + 1][1]):
            failures.append(f"event{i}: TV columns disagree with slab table")
        stored = stored_verdicts[i]
        for name in dict.fromkeys([*table.events[i], *stored]):
            if stored.get(name) != table.events[i].get(name):
                failures.append(f"event{i}: stored verdict {name} does not re-check")
    for (s, q, _), equal, stored in zip(restarts, table.restarts, stored_equal):
        if q != slabs[s][0]:
            failures.append(f"restart@slab{s}: Q disagrees with slab table")
        if stored != equal:
            failures.append(f"restart@slab{s}: stored equal does not re-check")
    failures += [f"{name} fails" for name in table.hard_failures]
    summary = {
        "event_count": len(events),
        "all_pass": not table.hard_failures,
        "hard_failures": table.hard_failures,
    }
    for name, value in summary.items():
        if json_field(report, name, type(value), "report") != value:
            failures.append(f"{name}: stored value does not re-check")
    return failures

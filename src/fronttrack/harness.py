"""Run orchestration: configs, the full pipeline, and epsilon sweeps."""

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, lcm

from .envelope import parse_flux_spec, sample_flux
from .errors import ConsistencyError, InputError
from .potential import PotentialSeries, verify_run
from .rationals import json_field, parse_rational
from .tracker import (
    Profile,
    Timeline,
    discretize_initial,
    evolve,
    profile_at,
    validate_timeline,
)
from .tracing import WaveSystem, advance_tracing, build_initial_waves, validate_tracing


@dataclass
class RunConfig:
    flux_spec: dict
    epsilon: Fraction
    datum: tuple  # (constant, [(x, value), ...]) raw rationals
    window: tuple = None  # (k_min, k_max) or None for automatic
    emit_svg: bool = False
    restart_check_points: int = 0
    max_events: int = None
    analytic_curvature_bound: Fraction = None
    decimal: bool = False
    raw: dict = field(default_factory=dict)


def _parse_datum(datum: dict) -> tuple:
    constant = parse_rational(datum.get("constant", "0"))
    if "jumps" in datum:
        raw = json_field(datum, "jumps", list, "config", "datum.")
        jumps = []
        for i in range(len(raw)):
            pair = json_field(raw, i, list, "config", "datum.jumps")
            if len(pair) != 2:
                raise InputError("datum.jumps must be a list of [x, value] pairs")
            jumps.append((parse_rational(pair[0]), parse_rational(pair[1])))
    elif "samples" in datum:
        samples = json_field(datum, "samples", dict, "config", "datum.")
        if json_field(datum, "round", str, "config", "datum.", "nearest") != "nearest":
            raise InputError("datum.round: only 'nearest' is supported")
        jumps = sorted((parse_rational(x), parse_rational(v)) for x, v in samples.items())
    else:
        raise InputError("datum needs a 'jumps' list or a 'samples' table")
    xs = [x for x, _ in jumps]
    if sorted(set(xs)) != xs:
        raise InputError("datum positions must be distinct and increasing")
    return constant, jumps


def parse_run_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise InputError("config must be a JSON object")
    flux = json_field(data, "flux", dict, "config")
    epsilon = parse_rational(json_field(data, "epsilon", object, "config"))
    datum = json_field(data, "datum", dict, "config")
    if epsilon <= 0:
        raise InputError("config field 'epsilon' must be positive")
    parse_flux_spec(flux)  # a malformed flux fails here, before any run
    window = data.get("window")
    if window is not None:
        window = json_field(data, "window", list, "config")
        if len(window) != 2:
            raise InputError("config field 'window' must be a pair of integers")
        window = tuple(json_field(window, i, int, "config", "window") for i in (0, 1))
        if window[1] <= window[0]:
            raise InputError("config field 'window' must be an increasing pair")
    options = json_field(data, "options", dict, "config", default={})
    bound = options.get("analytic_curvature_bound")
    max_events = options.get("max_events")
    if max_events is not None:
        max_events = json_field(options, "max_events", int, "config", "options.")
        if max_events < 0:
            raise InputError("config field 'options.max_events' must be at least 0")
    restart_checks = json_field(options, "restart_check_points", int, "config", "options.", 0)
    if restart_checks < 0:
        raise InputError("config field 'options.restart_check_points' must be at least 0")
    json_field(data, "seed", int, "config", default=0)
    return RunConfig(
        flux_spec=flux,
        epsilon=epsilon,
        datum=_parse_datum(datum),
        window=window,
        emit_svg=json_field(options, "emit_svg", bool, "config", "options.", False),
        restart_check_points=restart_checks,
        max_events=max_events,
        analytic_curvature_bound=None if bound is None else parse_rational(bound),
        decimal=json_field(options, "decimal", bool, "config", "options.", False),
        raw=data,
    )


def _auto_window(profile: Profile, epsilon: Fraction) -> tuple:
    lo, hi = profile.value_span()
    k_lo, k_hi = floor(lo / epsilon), ceil(hi / epsilon)
    if k_hi - k_lo < 2:
        k_lo, k_hi = k_lo - 1, k_lo + 1 + (k_hi - k_lo)
    return k_lo, k_hi


@dataclass
class RunResult:
    config: RunConfig
    timeline: Timeline
    waves: WaveSystem
    series: PotentialSeries


def run_simulation(cfg: RunConfig) -> RunResult:
    """The full pipeline: sample, discretize, evolve, trace, verify."""
    profile = discretize_initial(cfg.datum, cfg.epsilon)
    window = cfg.window or _auto_window(profile, cfg.epsilon)
    flux = sample_flux(cfg.flux_spec, cfg.epsilon, window)
    tl = evolve(profile, flux, max_events=cfg.max_events)
    validate_timeline(tl)
    ws = advance_tracing(build_initial_waves(profile, cfg.epsilon), tl)
    validate_tracing(ws)
    series = verify_run(ws, restart_checks=cfg.restart_check_points)
    return RunResult(cfg, tl, ws, series)


# -- profile distance -----------------------------------------------------------


def _integer_jumps(p: Profile, den: int) -> list:
    """p's jumps as (position numerator, position denominator, value * den),
    all ints; ``den`` is a multiple of every value's denominator."""
    return [(y.numerator, y.denominator, w.numerator * (den // w.denominator))
            for y, w in p.jumps]


def l1_distance(p: Profile, q: Profile) -> Fraction:
    """Exact L1 distance between two profiles; requires matching tails.

    The gap |p - q| is constant between breakpoints and zero outside them,
    so its integral is, by parts, the sum over breakpoints y of y times the
    drop of the gap at y.  One merge walk over both jump lists, ordered by
    cross-multiplied positions, keeps the values scaled by the lcm ``den``
    of their denominators, so the gap is an int, and the sum as one integer
    numerator per denominator of y; one ``Fraction`` is built at the end."""
    if p.constant_state != q.constant_state or p.right_constant != q.right_constant:
        raise InputError("profiles with different tails are not L1-comparable")
    den = lcm(*{v.denominator for v in p.values() + q.values()})
    a, b = _integer_jumps(p, den), _integer_jumps(q, den)
    c = p.constant_state
    vp = vq = c.numerator * (den // c.denominator)
    gap = 0
    sums = {}  # y's denominator -> sum of y's numerator times the gap's drop
    i = j = 0
    while i < len(a) or j < len(b):
        if j == len(b) or (i < len(a) and a[i][0] * b[j][1] <= b[j][0] * a[i][1]):
            n, d, vp = a[i]
            i += 1
        else:
            n, d, vq = b[j]
            j += 1
        new = abs(vp - vq)
        if new != gap:
            sums[d] = sums.get(d, 0) + n * (gap - new)
            gap = new
    y_den = lcm(*sums)
    return Fraction(sum(s * (y_den // d) for d, s in sums.items()), y_den * den)


# -- random families --------------------------------------------------------------


def random_flux_spec(rng: random.Random) -> dict:
    """Polynomial flux with small rational coefficients, of degree 2 to 5."""
    degree = rng.randint(2, 5)
    coeffs = []
    for i in range(degree + 1):
        num = rng.randint(-3, 3)
        if i == degree:
            num = rng.choice([-3, -2, -1, 1, 2, 3])
        coeffs.append(Fraction(num, rng.choice([1, 2, 4])))
    return {"polynomial": [str(c) for c in coeffs]}


def random_datum_spec(rng: random.Random, max_tv: Fraction, n_jumps: int = None) -> dict:
    """A jump datum with values in [-1, 1] and projected variation <= max_tv."""
    n = n_jumps if n_jumps is not None else rng.randint(2, 10)
    positions = sorted(rng.sample(range(0, 16 * n + 16), n))
    heights = []
    value = Fraction(0)
    values = []
    for _ in range(n):
        h = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), 8)
        if not -1 <= value + h <= 1:
            h = -h
        value += h
        heights.append(h)
        values.append(value)
    raw_tv = sum(abs(h) for h in heights)
    if raw_tv > max_tv:
        scale = Fraction(max_tv) / raw_tv
        values = [v * scale for v in values]
    jumps = [[str(Fraction(x, 16)), str(v)] for x, v in zip(positions, values)]
    return {"constant": "0", "jumps": jumps}


# -- sweeps -----------------------------------------------------------------------


@dataclass
class SweepConfig:
    base: dict
    epsilons: list
    datum: dict = None
    random_family: dict = None
    probe_times: list = field(default_factory=lambda: [Fraction(1)])


def parse_sweep_config(data: dict) -> SweepConfig:
    if not isinstance(data, dict):
        raise InputError("sweep config must be a JSON object")
    epsilons = [
        parse_rational(e) for e in json_field(data, "epsilons", list, "config", default=[])
    ]
    if len(epsilons) < 2:
        raise InputError("sweep needs at least two epsilons")
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise InputError("sweep epsilons must strictly decrease")
    if any(e <= 0 for e in epsilons):
        raise InputError("sweep epsilons must be positive")
    probe_times = [
        parse_rational(t)
        for t in json_field(data, "probe_times", list, "config", default=["1"])
    ]
    if any(t < 0 for t in probe_times):
        raise InputError("sweep probe_times must be nonnegative")
    base = json_field(data, "base", dict, "config", default={})
    datum = data.get("datum")
    random_family = data.get("random")
    if (datum is None) == (random_family is None):
        raise InputError("sweep needs exactly one of 'datum' or 'random'")
    if random_family is not None:
        json_field(data, "random", dict, "config")
        json_field(random_family, "seed", int, "config", "random.", 0)
        if random_family.get("jumps") is not None:
            if json_field(random_family, "jumps", int, "config", "random.") < 0:
                raise InputError("config field 'random.jumps' must be at least 0")
        max_tv = parse_rational(random_family.get("max_tv", "2"))
        if max_tv < 0:
            raise InputError("config field 'random.max_tv' must be nonnegative")
        random_family = dict(random_family, max_tv=max_tv)
    sweep_cfg = SweepConfig(base, epsilons, datum, random_family, probe_times)
    # every member's config fails here, before any member runs; an L1
    # distance needs the member's discretized tails to be the finest's
    tails = {}
    for eps in epsilons:
        cfg = parse_run_config(_member_config(sweep_cfg, eps))
        if probe_times:
            profile = discretize_initial(cfg.datum, cfg.epsilon)
            tails[eps] = profile.constant_state, profile.right_constant
    finest = epsilons[-1]
    for eps, tail in tails.items():
        if tail != tails[finest]:
            raise InputError(f"sweep members at epsilon {eps} and {finest} have different "
                             "tails, so their L1 distance is undefined")
    return sweep_cfg


def _member_config(sweep: SweepConfig, epsilon: Fraction) -> dict:
    cfg = dict(sweep.base)
    cfg["epsilon"] = str(epsilon)
    if sweep.datum is not None:
        cfg["datum"] = sweep.datum
    else:
        fam = sweep.random_family
        rng = random.Random(fam.get("seed", 0))
        cfg.setdefault("flux", random_flux_spec(rng))
        cfg["datum"] = random_datum_spec(rng, fam["max_tv"], n_jumps=fam.get("jumps"))
    return cfg


def _sweep_member(arg):
    """One member's summary row and its profiles at the probe times."""
    epsilon_str, cfg_dict, probe_times = arg
    cfg = parse_run_config(cfg_dict)
    result = run_simulation(cfg)
    series = result.series
    slack = None
    for ev in series.events:
        up_minus = series.slabs[ev.index].upsilon_strict
        up_plus = series.slabs[ev.index + 1].upsilon_strict
        gap = (up_minus - up_plus) - ev.delta_sigma
        slack = gap if slack is None or gap > slack else slack
    row = {
        "epsilon": epsilon_str,
        "passed": series.all_pass,
        "failures": series.hard_failures,
        "K": str(series.K),
        "tv0": str(series.tv0),
        "Q0": str(series.slabs[0].Q),
        "upsilon0_paper": str(series.slabs[0].upsilon_paper),
        "upsilon0_strict": str(series.slabs[0].upsilon_strict),
        "events": len(series.events),
        "max_delta_sigma_slack": None if slack is None else str(slack),
    }
    return row, [profile_at(result.timeline, t) for t in probe_times]


def sweep(sweep_cfg: SweepConfig, jobs: int = 1) -> list:
    """Run every epsilon member; rows carry the headline numbers, the
    member's verdict (``passed``, ``failures``) and exact L1 distances to the
    finest member at the probe times."""
    probe_times = sweep_cfg.probe_times
    args = [
        (str(eps), _member_config(sweep_cfg, eps), probe_times)
        for eps in sweep_cfg.epsilons
    ]
    if jobs > 1:
        members = _forked_members(args, jobs)
    else:
        members = [_sweep_member(a) for a in args]
    finest = members[-1][1]
    for row, profiles in members:
        row["l1_to_finest"] = {
            str(t): str(l1_distance(p, q)) for t, p, q in zip(probe_times, profiles, finest)
        }
    return [row for row, _ in members]


_QUEUE_RECORD = 4  # bytes: a member's index in the queue, big-endian


def _forked_members(args: list, jobs: int) -> list:
    """``_sweep_member`` of every arg, in min(jobs, len(args)) workers made
    by ``os.fork`` (the package starts no thread, so forking is safe).

    Members are dealt on demand, finest first: worker ``w`` starts on the
    ``w``-th finest member, and the rest wait in one pipe, the queue, from
    which a worker reads one fixed-size record, a member's index, each time
    it finishes a member (a static deal left a worker idle while another
    still ran its second member).  The parent writes the queue after the
    forks, in chunks of at most ``select.PIPE_BUF`` bytes, so that no record
    is split; once every worker is dead, the write fails with EPIPE.

    Each worker catches each member's exception and, when the queue ends,
    sends back one pickled list of (index, ok, result or exception) records
    on its own pipe.  The parent reads and reaps every worker before it
    returns or raises, and raises for the first failing member in config
    order, as ``jobs=1`` does; a member with no record fails with the first
    dead worker's ``ConsistencyError``.

    Worker ``w`` pins itself to the ``w % len(cpus)``-th of the parent's
    allowed CPUs: left unpinned, the scheduler can keep every worker on one
    CPU, each then taking about twice its CPU time.  The parent is never
    pinned; where the affinity calls are missing or fail, a worker runs
    unpinned."""
    import pickle  # only this path pays for its imports
    import select

    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = []
    finest_first = list(reversed(range(len(args))))
    n = min(jobs, len(args))
    queue_read, queue_write = os.pipe()
    started = []  # (pid, read end)
    try:
        for w in range(n):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:  # the worker never returns into the caller's frames
                status = 1
                try:
                    os.close(read_end)
                    os.close(queue_write)  # else the queue never ends
                    if cpus:
                        try:
                            os.sched_setaffinity(0, {cpus[w % len(cpus)]})
                        except OSError:
                            pass
                    records = []
                    i = finest_first[w]
                    while True:
                        try:
                            records.append((i, True, _sweep_member(args[i])))
                        except Exception as exc:
                            records.append((i, False, exc))
                        record = os.read(queue_read, _QUEUE_RECORD)
                        if not record:
                            break
                        i = int.from_bytes(record, "big")
                    with open(write_end, "wb") as pipe:
                        pickle.dump(records, pipe)
                    status = 0
                except BaseException:  # the parent's error names only the status
                    import traceback
                    traceback.print_exc()
                finally:
                    os._exit(status)
            os.close(write_end)
            started.append((pid, read_end))
        os.close(queue_read)  # now only the workers read: EPIPE once all are dead
        queue_read = None
        queue = b"".join(i.to_bytes(_QUEUE_RECORD, "big") for i in finest_first[n:])
        chunk = select.PIPE_BUF // _QUEUE_RECORD * _QUEUE_RECORD
        try:
            for at in range(0, len(queue), chunk):
                os.write(queue_write, queue[at : at + chunk])
        except BrokenPipeError:
            pass  # the undealt members have no record
    finally:
        if queue_read is not None:
            os.close(queue_read)
        os.close(queue_write)
        # a worker writes its records once, after the queue has ended, so
        # reading one pipe to its end never holds up another worker's members
        reaped = []
        for pid, read_end in started:
            with open(read_end, "rb") as pipe:
                data = pipe.read()
            reaped.append((pid, os.waitpid(pid, 0)[1], data))
    outcomes = {}
    died = None
    for pid, status, data in reaped:
        code = os.waitstatus_to_exitcode(status)
        if code == 0:
            outcomes.update((i, (ok, value)) for i, ok, value in pickle.loads(data))
        elif died is None:
            how = f"exited with status {code}" if code > 0 else f"was killed by signal {-code}"
            died = ConsistencyError(f"sweep worker {pid} {how} before sending its results")
    members = []
    for i in range(len(args)):
        ok, value = outcomes.get(i, (False, died))
        if not ok:
            raise value
        members.append(value)
    return members


def load_json(path: str) -> dict:
    # bytes that are not UTF-8 fail to decode, and a deep enough nesting
    # exhausts the JSON decoder's recursion limit
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc

"""Run orchestration: configs, the full pipeline, and epsilon sweeps."""

import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import merge
from math import ceil, floor

from .envelope import parse_flux_spec, sample_flux
from .errors import InputError
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


def l1_distance(p: Profile, q: Profile) -> Fraction:
    """Exact L1 distance between two profiles; requires matching tails.

    One merge walk over both jump lists, ordered by position (p's jump
    first at a shared one): between consecutive breakpoints both profiles
    are constant, and values[0], values[1] hold their values there."""
    if p.constant_state != q.constant_state or p.right_constant != q.right_constant:
        raise InputError("profiles with different tails are not L1-comparable")
    values = [p.constant_state, q.constant_state]
    x = None  # the last breakpoint; both tails agree before the first
    total = Fraction(0)
    steps = merge(((y, 0, w) for y, w in p.jumps), ((y, 1, w) for y, w in q.jumps))
    for y, side, w in steps:
        if values[0] != values[1]:
            total += abs(values[0] - values[1]) * (y - x)
        values[side] = w
        x = y
    return total


# -- random families --------------------------------------------------------------


def random_flux_spec(rng: random.Random, max_degree: int = 5) -> dict:
    """Polynomial flux with small rational coefficients; degree >= 2."""
    degree = rng.randint(2, max_degree)
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
    return SweepConfig(base, epsilons, datum, random_family, probe_times)


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
        # a forked pool starts all its workers up front
        with ProcessPoolExecutor(max_workers=min(jobs, len(args))) as pool:
            members = list(pool.map(_sweep_member, args))
    else:
        members = [_sweep_member(a) for a in args]
    finest = members[-1][1]
    for row, profiles in members:
        row["l1_to_finest"] = {
            str(t): str(l1_distance(p, q)) for t, p, q in zip(probe_times, profiles, finest)
        }
    return [row for row, _ in members]


def load_json(path: str) -> dict:
    # bytes that are not UTF-8 fail to decode, and a deep enough nesting
    # exhausts the JSON decoder's recursion limit
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc

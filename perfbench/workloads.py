"""Config generation for the benchmark workloads.

Each workload is a fixed exact problem: the configs below are what the
issue-level recipes produce, and their outputs are pinned by digest in
``pins.json``.  The ``--seed`` of a run changes how the problem is handed to
the program, never its values:

* the order in which the pass runs its configs (this matters for the
  process-global caches, which see the fluxes in that order);
* the spelling of every config file: the key order of each JSON object, and
  each rational written in an unreduced form (``"1/64"`` as ``"3/192"``).

So every seed yields the same exact-value digests, the same sizes and the same
amount of work, while different seeds hand the program different bytes.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("ladder", "family", "restart", "sweep")

# the profiling config of the ROADMAP: seed 3, 10 jumps, TV <= 2
LADDER_SEED = 3
LADDER_JUMPS = 10
LADDER_MAX_TV = Fraction(2)
LADDER_EPSILONS = (Fraction(1, 64), Fraction(1, 128))
LADDER_PROBES = 3

RESTART_EPSILON = Fraction(1, 64)
RESTART_PROBES = 56  # one probe in every slab of the 1/64 rung

SWEEP_EPSILONS = ("1/16", "1/32", "1/64", "1/96")
SWEEP_PROBE_TIMES = ("1", "4")
SWEEP_JOBS = 2

# the acceptance-suite recipe (tests/suite_builder.suite_config at salt 0)
FAMILY_SIZE = 60
FAMILY_EPS_TIERS = (
    [Fraction(1, 4)] * 4 + [Fraction(1, 8)] * 3 + [Fraction(1, 16)] * 2 + [Fraction(1, 32)]
)
FAMILY_PROBES = 3

# the two run examples shipped in configs/, which write the SVG diagrams
EXAMPLE_CONFIGS = {
    "nonconvex_splitting": {
        "flux": {"table": {"0": "0", "1": "4", "2": "5", "3": "7", "4": "8", "5": "17/2"}},
        "epsilon": "1",
        "window": [0, 5],
        "datum": {"constant": "1", "jumps": [["0", "0"], ["1", "3"], ["4", "4"], ["7", "5"]]},
        "seed": 0,
        "options": {"emit_svg": True, "restart_check_points": 3},
    },
    "two_shock_burgers": {
        "flux": {"polynomial": ["0", "0", "1/2"]},
        "epsilon": "1",
        "window": [-2, 2],
        "datum": {"constant": "1", "jumps": [["0", "0"], ["1", "-1"]]},
        "seed": 0,
        "options": {"emit_svg": True, "restart_check_points": 2},
    },
}


@dataclass
class Job:
    """One CLI invocation of a pass: ``command`` is "run" or "sweep"."""

    cid: str
    command: str
    config: dict  # canonical spelling; its digest is pinned
    svg: bool = False
    text: str = None  # the seeded spelling written to the config file

    def args(self, config_path, out_dir):
        argv = [self.command, config_path, "--out", out_dir]
        if self.svg:
            argv.append("--svg")
        if self.command == "sweep":
            argv += ["--jobs", str(SWEEP_JOBS)]
        return argv


def _seed3_config(harness, eps, probes):
    rng = random.Random(LADDER_SEED)
    w = int(1 / eps)
    return {
        "flux": harness.random_flux_spec(rng),
        "epsilon": str(eps),
        "window": [-w, w],
        "datum": harness.random_datum_spec(rng, LADDER_MAX_TV, n_jumps=LADDER_JUMPS),
        "options": {"restart_check_points": probes},
    }


def _family_config(harness, i):
    rng = random.Random(10_000 + 97 * i)
    eps = FAMILY_EPS_TIERS[i % len(FAMILY_EPS_TIERS)]
    w = int(1 / eps)
    return {
        "flux": harness.random_flux_spec(rng),
        "epsilon": str(eps),
        "window": [-w, w],
        "datum": harness.random_datum_spec(rng, min(Fraction(4), 48 * eps)),
        "seed": i,
        "options": {"restart_check_points": FAMILY_PROBES},
    }


def _eps_id(eps):
    return "eps-" + str(eps).replace("/", "-")


def canonical_jobs(workload, harness):
    """The workload's jobs with canonically spelled configs, in fixed order."""
    if workload == "ladder":
        return [
            Job(f"ladder/{_eps_id(e)}", "run", _seed3_config(harness, e, LADDER_PROBES))
            for e in LADDER_EPSILONS
        ]
    if workload == "restart":
        return [
            Job(
                f"restart/{_eps_id(RESTART_EPSILON)}",
                "run",
                _seed3_config(harness, RESTART_EPSILON, RESTART_PROBES),
            )
        ]
    if workload == "family":
        jobs = [
            Job(f"family/{i:02d}", "run", _family_config(harness, i))
            for i in range(FAMILY_SIZE)
        ]
        jobs += [
            Job(f"family/{name}", "run", cfg, svg=True)
            for name, cfg in EXAMPLE_CONFIGS.items()
        ]
        return jobs
    if workload == "sweep":
        sweep_cfg = {
            "base": {"options": {"restart_check_points": LADDER_PROBES}},
            "epsilons": list(SWEEP_EPSILONS),
            "random": {
                "seed": LADDER_SEED,
                "max_tv": str(LADDER_MAX_TV),
                "jumps": LADDER_JUMPS,
            },
            "probe_times": list(SWEEP_PROBE_TIMES),
        }
        # the coarsest member as a plain run, so the pass writes a report
        # for the read path (sweep itself writes none)
        coarsest = Fraction(SWEEP_EPSILONS[0])
        member = _seed3_config(harness, coarsest, LADDER_PROBES)
        del member["window"]  # sweep members use the automatic window
        return [
            Job("sweep/family", "sweep", sweep_cfg),
            Job(f"sweep/{_eps_id(coarsest)}", "run", member),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# -- seeded spelling ---------------------------------------------------------------

_RATIONAL_KEYS = ("epsilon", "constant", "max_tv")
_RATIONAL_LIST_KEYS = ("polynomial", "epsilons", "probe_times")


def _spell(value, rng):
    q = Fraction(value)
    k = rng.randint(1, 4)
    return f"{q.numerator * k}/{q.denominator * k}"


def _respell(obj, rng):
    if isinstance(obj, dict):
        items = list(obj.items())
        rng.shuffle(items)
        out = {}
        for k, v in items:
            if k in _RATIONAL_KEYS and isinstance(v, str):
                out[k] = _spell(v, rng)
            elif k in _RATIONAL_LIST_KEYS:
                out[k] = [_spell(x, rng) for x in v]
            elif k == "jumps" and isinstance(v, list):
                out[k] = [[_spell(x, rng), _spell(u, rng)] for x, u in v]
            elif k == "table":
                out[k] = {i: _spell(u, rng) for i, u in v.items()}
            else:
                out[k] = _respell(v, rng)
        return out
    return obj


def seeded_jobs(workload, harness, seed):
    """The canonical jobs, reordered and respelled from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = canonical_jobs(workload, harness)
    # the sweep runs first: its forked workers would otherwise inherit caches
    # that the member run had warmed
    if workload != "sweep":
        rng.shuffle(jobs)
    for job in jobs:
        job.text = json.dumps(_respell(job.config, rng), indent=rng.choice([None, 1, 2]))
    return jobs

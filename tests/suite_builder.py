"""Deterministic randomized run family shared by the acceptance tests.

Sixty runs over polynomial fluxes of degree 2..5 with rational coefficients
(convex and non-convex), 2..10 initial jumps with values in [-1, 1], and
grids 1/4 down to 1/32.  Runs whose exact arithmetic happens to produce a
three-front coincidence are reseeded: the inequality suite is stated for
binary interactions, and composite events have their own dedicated tests.
"""

import random
from fractions import Fraction as F

from fronttrack.harness import (
    parse_run_config,
    random_datum_spec,
    random_flux_spec,
    run_simulation,
)

SUITE_SIZE = 60
EPS_TIERS = [F(1, 4)] * 4 + [F(1, 8)] * 3 + [F(1, 16)] * 2 + [F(1, 32)]
RESTART_PROBES = 3


def suite_config(i: int, salt: int = 0) -> dict:
    rng = random.Random(10_000 + 97 * i + 1_000_003 * salt)
    eps = EPS_TIERS[i % len(EPS_TIERS)]
    max_tv = min(F(4), 48 * eps)
    w = int(1 / eps)
    return {
        "flux": random_flux_spec(rng),
        "epsilon": str(eps),
        "window": [-w, w],
        "datum": random_datum_spec(rng, max_tv),
        "seed": i,
        "options": {"restart_check_points": RESTART_PROBES},
    }


def binary_only_run(i: int):
    """Run config i, reseeding until every event is a two-front interaction."""
    for salt in range(8):
        result = run_simulation(parse_run_config(suite_config(i, salt)))
        if all(len(ev.incoming) == 2 for ev in result.timeline.events):
            return result
    raise RuntimeError(f"could not realize a binary-only run for index {i}")


def build_suite(size: int = SUITE_SIZE):
    return [binary_only_run(i) for i in range(size)]


def ladder_config(eps: str, probes: int = 0) -> dict:
    """The seed-3 random config of the benchmark's `ladder` workload at grid
    ``eps`` (124 atoms at 1/64)."""
    rng = random.Random(3)
    w = int(1 / F(eps))
    return {
        "flux": random_flux_spec(rng),
        "epsilon": eps,
        "window": [-w, w],
        "datum": random_datum_spec(rng, F(2), n_jumps=10),
        "options": {"restart_check_points": probes},
    }

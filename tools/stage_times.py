"""CPU seconds per pipeline stage on the seed-3 rungs of the benchmark ladder.

    PYTHONPATH=src python tools/stage_times.py 256 512 1024

Each argument N is a rung: the benchmark's seed-3 random config at epsilon
1/N on the window [-N, N].  The stages run once, in pipeline order, on one
fresh flux, so each reads the kernel caches the stages before it filled.
The digest covers every slab's Q and the run's largest pair weight.
"""

import hashlib
import random
import sys
import time
from fractions import Fraction

from fronttrack.envelope import curvature_constant, sample_flux
from fronttrack.harness import (
    discretize_initial, parse_run_config, random_datum_spec, random_flux_spec,
)
from fronttrack.potential import _bianchini_of_slab, _SlabPotential, delta_sigma
from fronttrack.tracing import advance_tracing, build_initial_waves, validate_tracing
from fronttrack.tracker import evolve, validate_timeline


def rung(n):
    rng = random.Random(3)
    cfg = parse_run_config({
        "flux": random_flux_spec(rng), "epsilon": f"1/{n}", "window": [-n, n],
        "datum": random_datum_spec(rng, Fraction(2), n_jumps=10),
    })
    profile = discretize_initial(cfg.datum, cfg.epsilon)
    flux = sample_flux(cfg.flux_spec, cfg.epsilon, cfg.window)
    times = {}

    def timed(stage, fn, *args):
        t0 = time.process_time()
        result = fn(*args)
        times[stage] = time.process_time() - t0
        return result

    tl = timed("evolve", evolve, profile, flux)
    timed("validate_timeline", validate_timeline, tl)
    ws = timed("advance_tracing", advance_tracing, build_initial_waves(profile, cfg.epsilon), tl)
    timed("validate_tracing", validate_tracing, ws)
    timed("bianchini", _bianchini_of_slab, ws)
    engine = _SlabPotential(ws, curvature_constant(flux))
    qs = timed("Q", lambda: [engine.q_of_slab(s) for s in range(len(tl.slabs))])
    timed("delta_sigma", lambda: [delta_sigma(ev, flux) for ev in tl.events])
    digest = hashlib.sha256(repr((qs, engine.max_weight)).encode()).hexdigest()[:16]
    return ws.atom_count, len(tl.events), times, digest


def main(rungs):
    for i, n in enumerate(rungs):
        atoms, events, times, digest = rung(int(n))
        width = {s: max(len(s), 7) for s in times}
        if i == 0:
            print(f"{'eps':>7} {'atoms':>6} {'events':>6}",
                  *(f"{s:>{w}}" for s, w in width.items()), "digest")
        print(f"{'1/' + n:>7} {atoms:>6} {events:>6}",
              *(f"{times[s]:>{w}.4f}" for s, w in width.items()), digest)


if __name__ == "__main__":
    main(sys.argv[1:] or ["256"])

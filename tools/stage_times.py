"""CPU seconds per pipeline stage on the seed-3 rungs of the benchmark ladder.

    PYTHONPATH=src python tools/stage_times.py 256 512 1024

Each argument N is a rung: the benchmark's seed-3 random config at epsilon
1/N on the window [-N, N].  Each rung runs in its own interpreter, so one
rung's kernel caches do not inflate the next rung's figures; its stages run
once, in pipeline order, on one fresh flux, so each reads the caches the
stages before it filled.  The Q digest covers every slab's Q and the run's
largest pair weight, the potentials digest every slab's (Bianchini sum, TV)
and every event's speed change; the next two columns count the slope
tables (`_cell_slopes`) the rung read from the cache and built, and the
last is the peak resident set size of the rung's process.

The digests of the two finer rungs, which the tests do not run:

    eps     atoms  events  Q digest          potentials digest
    1/2048   4090    1754  d7aea30c9de3d95f  0609ad74edce7720
    1/4096   8188    3511  5a949351e11e7212  179aa7d00c9b79cc
"""

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import fronttrack
from fronttrack.envelope import curvature_constant, sample_flux
from fronttrack.harness import (
    discretize_initial, parse_run_config, random_datum_spec, random_flux_spec,
)
from fronttrack.potential import _bianchini_of_slab, _cell_slopes, _SlabPotential, delta_sigma
from fronttrack.tracing import advance_tracing, build_initial_waves, validate_tracing
from fronttrack.tracker import evolve, validate_timeline


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def rung(n):
    """(atoms, events, CPU seconds per stage, Q digest, potentials digest,
    (slope-table hits, misses)) of the 1/n rung, run in this process."""
    rng = random.Random(3)
    cfg = parse_run_config({
        "flux": random_flux_spec(rng), "epsilon": f"1/{n}", "window": [-n, n],
        "datum": random_datum_spec(rng, Fraction(2), n_jumps=10),
    })
    profile = discretize_initial(cfg.datum, cfg.epsilon)
    flux = sample_flux(cfg.flux_spec, cfg.epsilon, cfg.window)
    times = {}
    cache = _cell_slopes.cache_info()

    def timed(stage, fn, *args):
        t0 = time.process_time()
        result = fn(*args)
        times[stage] = time.process_time() - t0
        return result

    tl = timed("evolve", evolve, profile, flux)
    timed("validate_timeline", validate_timeline, tl)
    ws = timed("advance_tracing", advance_tracing, build_initial_waves(profile, cfg.epsilon), tl)
    timed("validate_tracing", validate_tracing, ws)
    series = timed("bianchini", _bianchini_of_slab, ws)
    engine = _SlabPotential(ws, curvature_constant(flux))
    qs = timed("Q", lambda: [engine.q_of_slab(s) for s in range(len(tl.slabs))])
    sigmas = timed("delta_sigma", lambda: [delta_sigma(ev, flux) for ev in tl.events])
    after = _cell_slopes.cache_info()
    slopes = after.hits - cache.hits, after.misses - cache.misses
    return (ws.atom_count, len(tl.events), times, _digest((qs, engine.max_weight)),
            _digest((series, sigmas)), slopes)


def _peak_rss_mb() -> float:
    """This process's peak resident set size (ru_maxrss, in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(rungs):
    # the rungs' interpreters import the package this one imported
    paths = [str(Path(fronttrack.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    for i, n in enumerate(rungs):
        # one interpreter per rung: it prints its row's values as JSON
        child = subprocess.run(
            [sys.executable, __file__, "--one", n], capture_output=True, text=True, check=True,
            env=env,
        )
        atoms, events, times, q_digest, pot_digest, (hits, misses), rss = json.loads(child.stdout)
        width = {s: max(len(s), 7) for s in times}
        if i == 0:
            print(f"{'eps':>7} {'atoms':>6} {'events':>6}",
                  *(f"{s:>{w}}" for s, w in width.items()),
                  f"{'Q digest':<16} {'potentials':<16} {'hits':>6} {'misses':>6} {'rss_mb':>7}")
        print(f"{'1/' + n:>7} {atoms:>6} {events:>6}",
              *(f"{times[s]:>{w}.4f}" for s, w in width.items()),
              f"{q_digest} {pot_digest} {hits:>6} {misses:>6} {rss:>7.1f}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps([*rung(int(sys.argv[2])), _peak_rss_mb()]))
    else:
        main(sys.argv[1:] or ["256"])

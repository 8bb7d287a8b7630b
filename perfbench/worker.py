"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --trace 0|1 \
        --work DIR --result FILE [--setup-only] [--cpu N]

The parent (``run.py``) starts one of these per pass, so the process-global
caches of the program start empty every time.  Set-up is the interpreter
start, ``import fronttrack`` and writing the configs; the worker stamps the
end of set-up with ``time.monotonic()``, a clock shared by all processes.

The pass runs every job through ``fronttrack.cli.main`` (``run`` or
``sweep``), then ``verify`` on every report it wrote, while a timer samples
the host's speed with a fixed ``Fraction`` loop (``HostSpeed``).  It writes
one JSON result.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

# The host changes speed by up to 2x from one tenth of a second to the next,
# faster than passes can be repeated.  So a pass samples its speed while it
# runs: every CALIB_EVERY_S a SIGALRM runs calibrate() and records the loop's
# CPU time.  Each stretch of a phase between two ticks is reported at the
# reference speed, its seconds x CALIB_REF_S / the mean of the samples that
# bound it and those its forked workers took during it.  The samples' own time
# is taken out (they cost ~2%).  A process that sat idle since the last tick
# (sweep's parent, a waiting worker) skips its sample: the speed that counts
# is that of the processes at work.
CALIB_EVERY_S = 0.1
CALIB_BRACKET = 3  # samples taken just before and just after each phase
CALIB_REF_S = 0.002  # calibrate()'s CPU seconds at the reference speed

# verify takes 3 ms to 0.15 s per pass, too short to time once on a host
# whose speed swings within a second: repeat it, with a calibration sample
# after each repeat, until both limits are met, and report the median repeat.
# A repeat runs verify as often as fits VERIFY_GROUP_S, so that a sample's
# ~2 ms stays small beside the time it corrects.
VERIFY_REPEATS = 5
VERIFY_MIN_S = 2.0
VERIFY_GROUP_S = 0.02

# per-layer metric -> span/leaf names whose inclusive seconds it sums
TIME_METRICS = {
    "potential.q_s": ["potential.q_of_slab"],
    "potential.bianchini_s": ["potential.bianchini"],
    "potential.delta_sigma_s": ["potential.delta_sigma"],
    "potential.verify_run_s": ["potential.verify_run"],
    "tracker.validate_s": ["tracker.validate_timeline"],
    "tracker.evolve_s": ["tracker.evolve"],
    "tracker.profile_at_s": ["tracker.profile_at"],
    "tracing.advance_s": ["tracing.advance_tracing"],
    "tracing.validate_s": ["tracing.validate_tracing"],
    "envelope.sample_s": ["envelope.sample_flux"],
    "envelope.curvature_s": ["envelope.curvature_constant"],
    "report.build_s": [
        "report.build_report", "report.report_bytes",
        "report.events_csv", "report.potential_csv",
    ],
    "report.write_s": ["report.write"],
    "diagram.svg_s": ["diagram.render_front_diagram", "diagram.render_potential_plot"],
    "harness.parse_s": [
        "harness.load_json", "harness.parse_run_config", "harness.parse_sweep_config",
    ],
    "harness.sweep_s": ["harness.sweep"],
    "harness.l1_s": ["harness.l1_distance"],
}
CALL_METRICS = {
    "potential.q_slabs": "potential.q_of_slab",
    "potential.restarts": "potential.run_pipeline",
    "tracing.first_common_event_calls": "tracing.first_common_event",
    "riemann.admissible_calls": "riemann.is_admissible",
}
SIZE_METRICS = (
    "tracing.atoms", "tracker.fronts", "tracker.events",
    "tracker.composite_events", "tracker.slabs",
)
RESTART_SPANS = ("potential.run_pipeline", "potential.restart_q")
LAYERS = (
    "cli", "harness", "envelope", "riemann", "tracker",
    "tracing", "potential", "report", "diagram",
)


def calibrate():
    """CPU seconds of a fixed pure-Python Fraction loop: the host's speed for
    the kind of arithmetic the program does."""
    t0 = time.thread_time()
    acc = Fraction(0)
    for i in range(1, 241):
        acc += Fraction(i % 97 - 48, 1 + i % 89) * Fraction(1 + i % 7, 3 + i % 5)
    return time.thread_time() - t0


_cpu_at_tick = [0.0]


def _busy():
    """Whether this process used the CPU for at least half the time since the
    last call (a tick), by its CPU time."""
    cpu = time.process_time()
    busy = cpu - _cpu_at_tick[0] >= CALIB_EVERY_S / 2
    _cpu_at_tick[0] = cpu
    return busy


class HostSpeed:
    """calibrate() samples taken around and, by SIGALRM, during timed phases.

    CPU time, not wall time: on ``sweep`` the sampling processes share the two
    CPUs with each other, and CPU time leaves out the waits that causes.
    Processes forked during a phase (``sweep``'s workers, which set its time)
    sample themselves too and leave their samples in ``fork_dir``, stamped
    with ``time.monotonic()``, a clock all processes share.
    """

    def __init__(self, fork_dir):
        self.own = []  # (start, end, CPU seconds or None) of this process's ticks
        self.forked = []  # (midpoint, CPU seconds) of its forked workers' samples
        self.fork_dir = Path(fork_dir)
        self.fork_dir.mkdir()
        os.register_at_fork(after_in_child=self._in_child)

    def sample(self, *_):
        t0 = time.monotonic()
        cpu_s = calibrate()
        self.own.append((t0, time.monotonic(), cpu_s))

    def _tick(self, *_):
        if _busy():
            self.sample()
        else:  # still a stretch boundary, for the workers' samples
            t = time.monotonic()
            self.own.append((t, t, None))

    def _in_child(self):
        path = self.fork_dir / f"{os.getpid()}.txt"

        def tick(*_):
            if _busy():
                t0 = time.monotonic()
                cpu_s = calibrate()
                t1 = time.monotonic()
                with open(path, "a") as f:
                    f.write(f"{(t0 + t1) / 2!r} {cpu_s!r}\n")

        signal.signal(signal.SIGALRM, tick)
        _busy()
        signal.setitimer(signal.ITIMER_REAL, CALIB_EVERY_S, CALIB_EVERY_S)

    def _collect_forks(self):
        for path in sorted(self.fork_dir.glob("*.txt")):
            lines = path.read_text().splitlines(keepends=True)
            # a worker killed mid-write leaves a partial last line
            self.forked += [tuple(map(float, x.split())) for x in lines if x.endswith("\n")]
            path.unlink()

    def phase(self, body):
        """Run ``body()``; returns its seconds less this process's sampling,
        raw and at the reference speed."""
        for _ in range(CALIB_BRACKET):
            self.sample()
        first = len(self.own) - 1  # the last sample before the phase
        signal.signal(signal.SIGALRM, self._tick)
        _busy()
        start = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, CALIB_EVERY_S, CALIB_EVERY_S)
        try:
            body()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        end = time.monotonic()
        for _ in range(CALIB_BRACKET):
            self.sample()
        self._collect_forks()
        bounds = self.own[first:len(self.own) - CALIB_BRACKET + 1]
        stretches = []
        for (_, a, before), (b, _, after) in zip(bounds, bounds[1:]):
            a, b = max(a, start), min(b, end)
            speeds = [c for c in (before, after) if c is not None]
            stretches.append((b - a, speeds + [c for t, c in self.forked if a <= t <= b]))
        # a stretch without samples (sweep's parent idle, its workers not yet
        # at work) takes the nearest sampled one's; the first always has one
        sampled = [i for i, (_, speeds) in enumerate(stretches) if speeds]
        raw_s = ref_s = 0.0
        for i, (seconds, speeds) in enumerate(stretches):
            if not speeds:
                speeds = stretches[min(sampled, key=lambda j: abs(j - i))][1]
            raw_s += seconds
            ref_s += seconds * CALIB_REF_S / statistics.fmean(speeds)
        return raw_s, ref_s

    def repeat(self, body, repeats, min_s, group_s):
        """Run ``body()`` in at least ``repeats`` groups and for at least
        ``min_s`` seconds, with a sample between groups; a group runs it as
        often as fits ``group_s`` (at least once).  Returns (runs, median raw
        seconds per run, the same at the reference speed, each group corrected
        by the mean of the samples either side of it)."""
        self.sample()
        raw, corrected, runs = [], [], 0
        t_end = time.perf_counter() + min_s
        while len(raw) < repeats or time.perf_counter() < t_end:
            t0, n = time.perf_counter(), 0
            while not n or time.perf_counter() - t0 < group_s:
                body()
                n += 1
            raw.append((time.perf_counter() - t0) / n)
            runs += n
            self.sample()
            speed = statistics.fmean(c for _, _, c in self.own[-2:])
            corrected.append(raw[-1] * CALIB_REF_S / speed)
        return runs, statistics.median(raw), statistics.median(corrected)


def report_digest(report):
    """sha256 over the exact values a run must reproduce."""
    view = {
        "K": report["K"],
        "TV0": report["TV0"],
        "slabs": [
            [s["Q"], s["TV"], s["upsilon_paper"], s["upsilon_strict"], s["bianchini"]]
            for s in report["slabs"]
        ],
        "events": [[e["delta_sigma"], e["verdicts"]] for e in report["events"]],
        "restart_checks": [
            [r["slab"], r["Q"], r["Q_restart"], r["equal"]] for r in report["restart_checks"]
        ],
        "flags": report["flags"],
    }
    return _sha(view)


SWEEP_FIELDS = (
    "epsilon", "passed", "K", "tv0", "Q0", "upsilon0_paper", "upsilon0_strict",
    "events", "max_delta_sigma_slack", "l1_to_finest",
)


def sweep_digest(rows):
    return _sha([[row[f] for f in SWEEP_FIELDS] for row in rows])


def _sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _run_cli(cli, argv):
    """(exit code, error text); a raised exception is a failure, not a crash."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # the pass must go on to count the other configs
        return None, traceback.format_exc()
    return rc, err.getvalue()


def _den_bits(value):
    return Fraction(value).denominator.bit_length()


def layer_metrics(summary, run_phase, sizes, caches, reports, recheck_s):
    """Per-layer metrics of one traced pass."""

    def total(names):
        return sum(summary.get(n, {}).get("total_s", 0.0) for n in names)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    m = {k: total(v) for k, v in TIME_METRICS.items()}
    m.update({k: calls(v) for k, v in CALL_METRICS.items()})
    m["potential.restart_s"] = total(RESTART_SPANS) + _restart_profile_s(run_phase)
    m["report.recheck_s"] = recheck_s
    m["report.bytes"] = sum(len(r["bytes"]) for r in reports.values())
    m["potential.q_den_bits_max"] = max(
        (
            _den_bits(s["Q"])
            for r in reports.values() if isinstance(r["report"], dict)
            for s in r["report"]["slabs"]
        ),
        default=0,
    )
    for name in SIZE_METRICS:
        m[name] = sum(s[name] for s in sizes.values())
    m["envelope.hull_cache_hits"] = caches["envelope.hull_cache_hits"]
    m["envelope.hull_cache_misses"] = caches["envelope.hull_cache_misses"]
    m["envelope.hull_cache_entries"] = caches["envelope.hull_cache_entries"]
    m["potential.slope_cache_hits"] = caches["potential.slope_cache_hits"]
    m["potential.slope_cache_misses"] = caches["potential.slope_cache_misses"]
    m["potential.scaling_exp"] = _scaling_exp(run_phase, sizes)
    for layer in LAYERS:
        m[f"self.{layer}_s"] = sum(
            row["self_s"] for name, row in summary.items() if name.split(".")[0] == layer
        )
    return m


def _restart_profile_s(spans):
    """profile_at calls made by the restart probes (parent is verify_run)."""
    return sum(
        end - start
        for name, start, end, parent, _ in spans
        if name == "tracker.profile_at" and parent >= 0
        and spans[parent][0] == "potential.verify_run"
    )


def _scaling_exp(spans, sizes):
    """Least-squares slope of log(verify_run seconds) on log(atoms) across the
    pass's configs; 0 when they have fewer than two distinct sizes."""
    verify = {}
    for name, start, end, _, cid in spans:
        if name == "potential.verify_run":
            verify[cid] = verify.get(cid, 0.0) + (end - start)
    points = [
        (math.log(sizes[c]["tracing.atoms"]), math.log(t))
        for c, t in verify.items() if c in sizes and t > 0
    ]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def config_counts(tracer, caches_by_config):
    """Per config: sizes and call counts, all of which must repeat exactly."""
    out = {cid: dict(s) for cid, s in tracer.sizes.items()}
    for name, start, end, parent, cid in tracer.spans:
        row = out.setdefault(cid, {})
        row[name + ".calls"] = row.get(name + ".calls", 0) + 1
    for (name, parent), (calls, _) in tracer.leaves.items():
        cid = tracer.spans[parent][4] if parent >= 0 else None
        row = out.setdefault(cid, {})
        row[name + ".calls"] = row.get(name + ".calls", 0) + calls
    for cid, caches in caches_by_config.items():
        out.setdefault(cid, {}).update(caches)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cpu", type=int, help="pin this process to one CPU")
    args = ap.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    import fronttrack
    from fronttrack import cli, harness
    import workloads

    work = Path(args.work)
    (work / "cfg").mkdir(parents=True, exist_ok=True)
    jobs = workloads.seeded_jobs(args.workload, harness, args.seed)
    paths = [str(work / "cfg" / f"{i:02d}.json") for i in range(len(jobs))]
    outs = {job.cid: str(work / "out" / f"{i:02d}") for i, job in enumerate(jobs)}
    for job, path in zip(jobs, paths):
        Path(path).write_text(job.text)
    result = {"t_ready": time.monotonic(), "fronttrack": fronttrack.__file__}
    # set-up is reported at the reference speed too, by samples taken right after it
    result["setup_scale"] = CALIB_REF_S / statistics.median(
        calibrate() for _ in range(CALIB_BRACKET)
    )
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(str(work / "members"))
        Path(tracer.member_dir).mkdir()
        tracer.install()

    def traced(cid, name, argv):
        if tracer is None:
            return _run_cli(cli, argv)
        tracer.config = cid
        return tracer.call(name, _run_cli, (cli, argv), {})

    host = HostSpeed(work / "host")
    outcome = {}

    def run_jobs():
        for job, path in zip(jobs, paths):
            outcome[job.cid] = traced(
                job.cid, "cli." + job.command, job.args(path, outs[job.cid])
            )

    wall_raw_s, wall_s = host.phase(run_jobs)

    caches_by_config, counts, run_spans = {}, None, 0
    if tracer is not None:
        # counted before verify, whose repeat count depends on the clock
        caches_by_config = tracer.merge_members()
        counts = config_counts(tracer, caches_by_config)
        run_spans = len(tracer.spans)

    reports = {}
    for job in jobs:
        path = Path(outs[job.cid]) / ("report.json" if job.command == "run" else "sweep.json")
        if outcome[job.cid][0] == 0 and path.is_file():
            data = path.read_bytes()
            reports[job.cid] = {"path": str(path), "bytes": data, "report": json.loads(data)}

    def verify_all():
        for job in jobs:
            if job.command == "run" and job.cid in reports:
                rc, err = traced(job.cid, "cli.verify", ["verify", reports[job.cid]["path"]])
                if rc != 0:
                    outcome[job.cid] = (rc, "verify: " + err)

    verify_repeats, verify_raw_s, verify_s = 0, 0.0, 0.0
    if reports:
        verify_repeats, verify_raw_s, verify_s = host.repeat(
            verify_all, VERIFY_REPEATS, VERIFY_MIN_S, VERIFY_GROUP_S
        )

    if tracer is not None:
        tracer.uninstall()

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "sweep":
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    digests = {}
    for job in jobs:
        entry = reports.get(job.cid)
        if entry is None:
            continue
        digest = report_digest if job.command == "run" else sweep_digest
        try:
            digests[job.cid] = digest(entry["report"])
        except (KeyError, TypeError) as exc:
            digests[job.cid] = f"missing field {exc!r}"

    result.update(
        wall_s=wall_s,
        wall_raw_s=wall_raw_s,
        verify_s=verify_s,
        verify_raw_s=verify_raw_s,
        peak_rss_mb=rss_kb / 1024,
        calib_s=statistics.median([c for *_, c in host.own + host.forked if c is not None]),
        jobs=[job.cid for job in jobs],
        exit_codes={cid: rc for cid, (rc, _) in outcome.items()},
        errors={cid: err[-2000:] for cid, (rc, err) in outcome.items() if rc != 0},
        inputs={job.cid: _sha(job.config) for job in jobs},
        digests=digests,
    )
    if tracer is not None:
        import spans

        # the per-layer figures cover the run phase; verify, repeated for as
        # long as the clock says, adds only its mean sweep (report.recheck_s)
        run_phase = tracer.spans[:run_spans]
        summary = spans.summarize(run_phase, tracer.leaves)
        recheck_s = sum(
            end - start
            for name, start, end, _, _ in tracer.spans[run_spans:]
            if name == "report.verify_report"
        ) / max(verify_repeats, 1)
        totals = spans.cache_counts()
        for caches in caches_by_config.values():
            for k, v in caches.items():
                totals[k] += v
        result["layers"] = layer_metrics(
            summary, run_phase, tracer.sizes, totals, reports, recheck_s
        )
        result["summary"] = summary
        result["counts"] = counts
        result["spans"] = len(tracer.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

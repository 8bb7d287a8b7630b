"""The fronttrack benchmark.

    python3 perfbench/run.py --workload ladder|family|restart|sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
Every pass runs in a fresh interpreter (``worker.py``) with
``PYTHONPATH=src``, two at a time, one pinned to each CPU (see
``Run.loop``); rounds repeat until ``--seconds`` of measuring is spent.
With ``--trace 0`` the result holds the end-to-end metrics over the run's
passes (see ``END_TO_END``); with ``--trace 1`` each round pairs a traced
and an untraced pass and the result holds the per-layer metrics of the
traced ones and the tracing overhead (traced minus untraced ``wall_s``).

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A config
counts as failed when its exit code is not 0, when it raised, when
``verify`` rejects its report, or when its exact-value digest (or the digest
of its input) differs from ``pins.json``.  ``--pin`` rewrites ``pins.json``
from one pass instead of measuring.

Scratch files go to ``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
WORKLOADS = ("ladder", "family", "restart", "sweep")
DEADLINE_S = 170  # a run must end within 180 s
MIN_PASSES = 2  # a traced run alternates, so it has at least one of each kind
SETUP_SAMPLES = 11  # set-up is ~0.2 s; its median needs more samples than passes give

# metric -> (unit, how a run's samples combine).  The passes of a round run
# on two CPUs whose speeds drift independently; the mean of a run's passes
# averages the two, where their median would jump between them.
END_TO_END = {
    "wall_s": ("s", statistics.fmean),
    "verify_s": ("s", statistics.fmean),
    "setup_s": ("s", statistics.median),
    "peak_rss_mb": ("MB", statistics.median),
}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _line(name, values, unit, combine=statistics.median):
    q1, q3 = _quartiles(values)
    return (f"{name:<38} {combine(values):>14.6g} {unit:<6} {combine.__name__}"
            f" q1={q1:.6g} q3={q3:.6g} n={len(values)}")


class Run:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.work = root / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}"
        self.started = time.monotonic()
        self.pins = json.loads(PINS.read_text()) if PINS.is_file() else None
        self.cpus = sorted(os.sched_getaffinity(0))[:2]
        self.passes = []  # (traced, result or None)
        self.rounds = []  # seconds per round of concurrent passes
        self.spawned = 0
        self.setups = []
        self.setups_raw = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, kinds, setup_only=False):
        """Run one worker per entry of ``kinds`` (traced or not) at once, each
        pinned to its own CPU; returns [(result or None, error), ...]."""
        procs = []
        for i, traced in enumerate(kinds):
            n = self.spawned
            self.spawned += 1
            pass_dir = self.work / f"pass-{n:02d}"
            result_path = self.work / f"pass-{n:02d}.json"
            cmd = [
                sys.executable, str(HERE / "worker.py"),
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--trace", "1" if traced else "0",
                "--work", str(pass_dir), "--result", str(result_path),
            ]
            if len(kinds) > 1:
                cmd += ["--cpu", str(self.cpus[i])]
            if setup_only:
                cmd.append("--setup-only")
            env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            procs.append((proc, t_spawn, pass_dir, result_path))
        return [self._finish(*p) for p in procs]

    def _finish(self, proc, t_spawn, pass_dir, result_path):
        try:
            _, stderr = proc.communicate(timeout=max(self.remaining(), 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "pass exceeded the run's deadline"
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        if proc.returncode != 0 or not result_path.is_file():
            return None, f"worker exit {proc.returncode}: {stderr[-2000:]}"
        result = json.loads(result_path.read_text())
        result_path.unlink()
        expected_src = str(self.root / "src")
        if not result["fronttrack"].startswith(expected_src):
            return None, f"imported {result['fronttrack']}, not the checkout's src/"
        self.setups_raw.append(result["t_ready"] - t_spawn)
        self.setups.append(self.setups_raw[-1] * result["setup_scale"])
        return result, None

    def measure(self, kinds):
        t0 = time.monotonic()
        outcomes = self.spawn(kinds)
        self.rounds.append(time.monotonic() - t0)
        for traced, (result, error) in zip(kinds, outcomes):
            self.passes.append((traced, result))
            if result is None:
                self.failures.append(error)
                # the pass's configs are unaccounted for: count them all as failed
                n = max(len(self.pins["outputs"].get(self.args.workload, {})), 1)
                self.attempted += n
                self.failed += n
            else:
                self.check(result)

    def check(self, result):
        pinned_in = self.pins["inputs"].get(self.args.workload, {})
        pinned_out = self.pins["outputs"].get(self.args.workload, {})
        for cid in result["jobs"]:
            self.attempted += 1
            problems = []
            rc = result["exit_codes"].get(cid)
            if rc != 0:
                problems.append(f"exit {rc}: {result['errors'].get(cid, '').strip()[-400:]}")
            if result["inputs"][cid] != pinned_in.get(cid):
                problems.append("generated input differs from the pinned input")
            if rc == 0 and result["digests"].get(cid) != pinned_out.get(cid):
                problems.append("exact-value digest differs from the pin")
            if problems:
                self.failed += 1
                self.failures.append(f"{cid}: " + "; ".join(problems))

    def loop(self):
        """Rounds of passes until ``--seconds`` is spent.  Except on sweep
        (which uses both CPUs itself), a round is two passes at once, one
        pinned to each CPU: the two CPUs' speeds drift independently, so each
        round samples both.  A traced run pairs a traced and an untraced
        pass and swaps their CPUs every round."""
        self.work.mkdir(parents=True, exist_ok=True)
        paired = len(self.cpus) > 1 and self.args.workload != "sweep"
        while True:
            done = len(self.rounds)
            if len(self.passes) >= MIN_PASSES:
                spent = time.monotonic() - self.started
                per_round = statistics.fmean(self.rounds)
                if spent + per_round > self.args.seconds or self.remaining() < 2 * per_round:
                    break
            if not self.args.trace:
                kinds = [False, False] if paired else [False]
            elif paired:
                kinds = [True, False] if done % 2 == 0 else [False, True]
            else:
                kinds = [done % 2 == 0]
            self.measure(kinds)
            if self.remaining() <= 0:
                break
        while len(self.setups) < SETUP_SAMPLES and self.remaining() > 5:
            kinds = [False, False] if paired else [False]
            for result, error in self.spawn(kinds, setup_only=True):
                if result is None:
                    self.failures.append(error)
            if self.failures:
                break

    def results(self, traced):
        return [r for t, r in self.passes if t == traced and r is not None]


def end_to_end(run):
    plain = run.results(False)
    values = {
        "wall_s": [r["wall_s"] for r in plain],
        "verify_s": [r["verify_s"] for r in plain],
        "setup_s": run.setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    for name, (unit, combine) in END_TO_END.items():
        if values[name]:
            print(_line(name, values[name], unit, combine))
    raw = {name: [r[name] for r in plain] for name in ("wall_raw_s", "verify_raw_s", "calib_s")}
    raw["setup_raw_s"] = run.setups_raw
    for name, vals in raw.items():
        if vals:
            print(_line(f"host.{name} (no gate)", vals, "s"))
    return values


def per_layer(run, wall, spec):
    traced = run.results(True)
    values = {name: [r["layers"][name] for r in traced if name in r["layers"]] for name in spec}
    values["host.calib_s"] = [r["calib_s"] for r in traced]
    traced_wall = [r["wall_s"] for r in traced]
    if traced_wall and wall:
        overhead = statistics.fmean(traced_wall) - statistics.fmean(wall)
        values["trace.overhead_s"] = [overhead]
        values["trace.overhead_share"] = [overhead / statistics.fmean(wall)]
        values["trace.wall_s"] = traced_wall
    for name, vals in values.items():
        if vals:
            print(_line(name, vals, spec.get(name, "")))
    counts = [r["counts"] for r in traced]
    if len(counts) > 1 and any(c != counts[0] for c in counts[1:]):
        print("WARNING: per-config counts differ between traced passes")
    if traced:
        out = run.work / "trace.json"
        out.write_text(json.dumps(
            {
                "workload": run.args.workload,
                "seed": run.args.seed,
                "passes": [
                    {"wall_s": r["wall_s"], "spans": r["spans"], "layers": r["layers"],
                     "by_name": r["summary"]}
                    for r in traced
                ],
                "counts": counts[0],
            },
            indent=1, sort_keys=True,
        ))
        top = sorted(traced[0]["summary"].items(), key=lambda kv: -kv[1]["self_s"])[:12]
        print(f"traced pass 1 of {len(traced)}: self time by span name ({out})")
        for name, row in top:
            print(f"  {name:<36} self={row['self_s']:.4f}s total={row['total_s']:.4f}s calls={row['calls']}")
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="rewrite pins.json and exit")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fronttrack" / "__init__.py").is_file():
        print(f"error: {root} holds no src/fronttrack; run from a source checkout",
              file=sys.stderr)
        return 2
    if not (root / "BENCHMARK.json").is_file():
        print(f"error: {root} holds no BENCHMARK.json", file=sys.stderr)
        return 2
    layers = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    spec = {m["name"]: m["unit"] for m in layers}

    run = Run(args, root)
    if args.pin:
        return pin(run)
    if run.pins is None:
        print(f"error: {PINS} is missing", file=sys.stderr)
        return 2
    run.loop()
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(run.passes)} setups={len(run.setups)}")
    wall = end_to_end(run)
    share = run.failed / run.attempted if run.attempted else 1.0
    print(f"{'failed_share':<38} {share:>14.6g} 1      ({run.failed} of {run.attempted} configs)")
    for line in run.failures[:20]:
        print(f"FAILED {line}")

    if args.trace:
        values = per_layer(run, wall["wall_s"], spec)
        metrics = {
            n: {"value": statistics.median(values[n]) if values.get(n) else 0.0, "unit": u}
            for n, u in spec.items()
        }
    else:
        metrics = {
            n: {"value": combine(wall[n]) if wall[n] else 0.0, "unit": u}
            for n, (u, combine) in END_TO_END.items()
        }
    if not any(run.work.iterdir()):
        run.work.rmdir()
    correct = run.failed == 0 and not run.failures and bool(run.passes)
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }))
    return 0


def pin(run):
    """Run one untraced pass of every workload and record its digests."""
    pins = {"inputs": {}, "outputs": {}}
    for workload in WORKLOADS:
        run.args.workload = workload
        run.work = run.root / ".perfbench" / f"pin-{workload}"
        run.work.mkdir(parents=True, exist_ok=True)
        run.started = time.monotonic()
        [(result, error)] = run.spawn([False])
        shutil.rmtree(run.work, ignore_errors=True)
        if result is None:
            print(f"error: {workload}: {error}", file=sys.stderr)
            return 1
        bad = {c: rc for c, rc in result["exit_codes"].items() if rc != 0}
        if bad:
            print(f"error: {workload}: nonzero exit codes {bad}", file=sys.stderr)
            return 1
        pins["inputs"][workload] = result["inputs"]
        pins["outputs"][workload] = result["digests"]
        print(f"pinned {workload}: {len(result['digests'])} configs")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

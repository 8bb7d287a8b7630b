"""Spans around the calls into each layer, recorded from outside the program.

``install`` replaces layer functions by timing wrappers at the module
attribute the caller looks up (``harness.evolve``, not ``tracker.evolve``:
harness imported the name, so that is where its calls go).  Nothing under
``src/`` is edited; ``uninstall`` puts every original back.

A span is ``(name, start, end, parent, config_id)`` with ``perf_counter``
times and ``parent`` the index of the enclosing span (-1 at the root).  The
functions called hundreds of thousands of times per run
(``first_common_event``, ``is_admissible``, ...) are recorded as *leaf*
counters instead: per (name, parent) a call count and a total duration.  A
leaf never has children, so self times stay exact: a span's self time is its
duration minus its child spans and its leaf totals.

Spans stay in memory and are written out once, when the pass ends.
"""

import functools
import json
import pathlib
import time
import weakref

from fronttrack import cli, envelope, harness, potential, tracker

# layer name of every span and leaf; the module part is the layer the
# function belongs to, wherever the call site is
SPANS = {
    (cli, "load_json"): "harness.load_json",
    (cli, "parse_run_config"): "harness.parse_run_config",
    (cli, "parse_sweep_config"): "harness.parse_sweep_config",
    (cli, "run_simulation"): "harness.run_simulation",
    (cli, "sweep"): "harness.sweep",
    (cli, "build_report"): "report.build_report",
    (cli, "report_bytes"): "report.report_bytes",
    (cli, "events_csv"): "report.events_csv",
    (cli, "potential_csv"): "report.potential_csv",
    (cli, "verify_report"): "report.verify_report",
    (cli, "render_front_diagram"): "diagram.render_front_diagram",
    (cli, "render_potential_plot"): "diagram.render_potential_plot",
    (harness, "parse_run_config"): "harness.parse_run_config",
    (harness, "run_simulation"): "harness.run_simulation",
    (harness, "l1_distance"): "harness.l1_distance",
    (harness, "discretize_initial"): "tracker.discretize_initial",
    (harness, "sample_flux"): "envelope.sample_flux",
    (harness, "validate_timeline"): "tracker.validate_timeline",
    (harness, "profile_at"): "tracker.profile_at",
    (harness, "build_initial_waves"): "tracing.build_initial_waves",
    (harness, "advance_tracing"): "tracing.advance_tracing",
    (harness, "validate_tracing"): "tracing.validate_tracing",
    (harness, "verify_run"): "potential.verify_run",
    (potential, "curvature_constant"): "envelope.curvature_constant",
    (potential, "_bianchini_of_slab"): "potential.bianchini",
    (potential, "delta_sigma"): "potential.delta_sigma",
    (potential, "profile_at"): "tracker.profile_at",
    (potential, "evolve"): "tracker.evolve",
    (potential, "build_initial_waves"): "tracing.build_initial_waves",
    (potential, "advance_tracing"): "tracing.advance_tracing",
}
LEAVES = {
    (potential, "first_common_event"): "tracing.first_common_event",
    (potential, "_cell_slopes"): "potential.cell_slopes",
    (tracker, "is_admissible"): "riemann.is_admissible",
    (tracker, "solve_riemann"): "riemann.solve_riemann",
    (tracker, "next_collision"): "tracker.next_collision",
}
# the process-global lru caches, read through cache_info()
CACHES = {
    "envelope.hull_cache": (envelope._convex_by_index, envelope._concave_by_index),
    "potential.slope_cache": (potential._cell_slopes,),
}
Q_METHOD = "q_of_slab"  # on potential._SlabPotential
WRITE_NAME = "report.write"  # file writes of `fronttrack run`, via cli.Path


def cache_counts():
    """{"<cache>_hits"/"_misses"/"_entries": int} summed over each cache group."""
    out = {}
    for name, fns in CACHES.items():
        infos = [fn.cache_info() for fn in fns]
        out[name + "_hits"] = sum(i.hits for i in infos)
        out[name + "_misses"] = sum(i.misses for i in infos)
        out[name + "_entries"] = sum(i.currsize for i in infos)
    return out


class Tracer:
    def __init__(self, member_dir):
        self.member_dir = member_dir  # where sweep workers leave their spans
        self.spans = []
        self.leaves = {}  # (name, parent) -> [calls, seconds]
        self.stack = []
        self.config = None
        self.sizes = {}  # config id -> size counters of its main-line run
        self._restart_ws = weakref.WeakSet()  # wave systems built by restart probes
        self._undo = []

    # -- recording ------------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.config)

    def leaf(self, name, fn, args, kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            d = time.perf_counter() - start
            key = (name, self.stack[-1] if self.stack else -1)
            slot = self.leaves.get(key)
            if slot is None:
                self.leaves[key] = [1, d]
            else:
                slot[0] += 1
                slot[1] += d

    # -- installing -----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        for (mod, attr), name in SPANS.items():
            self._patch(mod, attr, self._span_wrapper(name, getattr(mod, attr)))
        for (mod, attr), name in LEAVES.items():
            self._patch(mod, attr, self._leaf_wrapper(name, getattr(mod, attr)))
        self._patch(potential._SlabPotential, Q_METHOD, self._q_wrapper())
        self._patch(potential, "run_pipeline", self._pipeline_wrapper(potential.run_pipeline))
        self._patch(harness, "evolve", self._evolve_wrapper(harness.evolve))
        self._patch(harness, "_sweep_member", self._member_wrapper(harness._sweep_member))
        self._patch(cli, "Path", _traced_path_class(self))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def _leaf_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.leaf(name, fn, args, kwargs)
        return wrapper

    def _q_wrapper(self):
        original = potential._SlabPotential.__dict__[Q_METHOD]

        @functools.wraps(original)
        def q_of_slab(engine, s):
            restart = engine.ws in self._restart_ws
            name = "potential.restart_q" if restart else "potential.q_of_slab"
            return self.call(name, original, (engine, s), {})
        return q_of_slab

    def _pipeline_wrapper(self, fn):
        # the restart probes are the only callers of run_pipeline
        @functools.wraps(fn)
        def run_pipeline(*args, **kwargs):
            tl, ws = self.call("potential.run_pipeline", fn, args, kwargs)
            self._restart_ws.add(ws)
            return tl, ws
        return run_pipeline

    def _evolve_wrapper(self, fn):
        # harness.evolve is the main-line run; its timeline gives the sizes
        @functools.wraps(fn)
        def evolve(*args, **kwargs):
            tl = self.call("tracker.evolve", fn, args, kwargs)
            self.sizes[self.config] = {
                "tracing.atoms": int(tl.initial_profile.total_variation() / tl.flux.epsilon),
                "tracker.fronts": len(tl.fronts_by_id),
                "tracker.events": len(tl.events),
                "tracker.composite_events": sum(len(e.incoming) > 2 for e in tl.events),
                "tracker.slabs": len(tl.slabs),
            }
            return tl
        return evolve

    def _member_wrapper(self, fn):
        # runs in a sweep worker process (the pass always sweeps with two
        # jobs; workers are forked with these wrappers in place); its spans go
        # to a file that the pass merges afterwards
        @functools.wraps(fn)
        def member(arg):
            mark, leaves_before = len(self.spans), {k: list(v) for k, v in self.leaves.items()}
            caches_before = cache_counts()
            sweep_config = self.config
            self.config = f"{self.config}/eps-{arg[0].replace('/', '-')}"
            try:
                return self.call("harness.sweep_member", fn, (arg,), {})
            finally:
                self._dump_member(mark, leaves_before, caches_before)
                self.config = sweep_config
        return member

    # -- sweep workers ----------------------------------------------------------

    def _dump_member(self, mark, leaves_before, caches_before):
        leaves = []
        for key, (calls, secs) in self.leaves.items():
            c0, s0 = leaves_before.get(key, (0, 0.0))
            if calls > c0:
                leaves.append([key[0], key[1], calls - c0, secs - s0])
        after = cache_counts()
        record = {
            "mark": mark,
            "spans": self.spans[mark:],
            "leaves": leaves,
            "sizes": {self.config: self.sizes[self.config]},
            "caches": {k: after[k] - caches_before[k] for k in after},
            "config": self.config,
        }
        path = pathlib.Path(self.member_dir) / f"{self.config.replace('/', '_')}.json"
        path.write_text(json.dumps(record))

    def merge_members(self):
        """Fold the sweep workers' spans into this tracer; returns cache deltas
        per member config."""
        caches = {}
        for path in sorted(pathlib.Path(self.member_dir).glob("*.json")):
            record = json.loads(path.read_text())
            mark, base = record["mark"], len(self.spans)

            def remap(p):
                return p if p < mark else base + p - mark

            for name, start, end, parent, cid in record["spans"]:
                self.spans.append((name, start, end, remap(parent), cid))
            for name, parent, calls, secs in record["leaves"]:
                slot = self.leaves.setdefault((name, remap(parent)), [0, 0.0])
                slot[0] += calls
                slot[1] += secs
            self.sizes.update(record["sizes"])
            caches[record["config"]] = record["caches"]
        return caches


def _traced_path_class(tracer):
    base = type(pathlib.Path())

    class TracedPath(base):
        def write_bytes(self, data):
            return tracer.call(WRITE_NAME, base.write_bytes, (self, data), {})

        def write_text(self, data, *args, **kwargs):
            return tracer.call(WRITE_NAME, base.write_text, (self, data) + args, kwargs)

    return TracedPath


# -- reading spans ----------------------------------------------------------------


def summarize(spans, leaves):
    """Per name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the part of it that its child spans
    cover (children in sweep workers run in parallel, so their union counts,
    not their sum) and minus its leaf totals.  Inclusive time sums a name's
    spans, except those nested inside a span of the same name.
    """
    children = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    leaf_time = [0.0] * len(spans)
    for (name, parent), (calls, secs) in leaves.items():
        if parent >= 0:
            leaf_time[parent] += secs
    out = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - _covered(children[i], start, end) - leaf_time[i]
        if not _inside(spans, parent, name):
            row["total_s"] += end - start
    for (name, parent), (calls, secs) in leaves.items():
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += calls
        row["self_s"] += secs
        if not _inside(spans, parent, name):
            row["total_s"] += secs
    return out


def _covered(intervals, lo, hi):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _inside(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


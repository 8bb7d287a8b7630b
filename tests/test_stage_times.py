"""The stage timer (tools/stage_times.py) on the 1/256, 1/512 and 1/1024
rungs of the benchmark ladder, sizes its workloads do not reach.  The
timer's digest covers every slab's Q and the run's largest pair weight, so
these pin Q where the meeting events' survivor groups hold hundreds of
atoms; the slope tables each rung builds pin how many envelopes Q reads."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stage_times.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("stage_times", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_rungs(rungs):
    tool = _load_tool()
    for n, sizes, digest, misses in rungs:
        atoms, events, _, got, (_, built) = tool.rung(n)
        assert ((atoms, events), got, built) == (sizes, digest, misses), n


def test_stage_timer_digests_on_the_1_256_and_1_512_rungs():
    _check_rungs([
        (256, (506, 216), "700c3f3c40667807", 30),
        (512, (1017, 433), "2319c6434ff62c51", 41),
    ])


def test_stage_timer_digest_on_the_1_1024_rung():
    _check_rungs([(1024, (2042, 876), "7f91c043b3161d5e", 76)])

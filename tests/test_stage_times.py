"""The stage timer (tools/stage_times.py) on the 1/256 and 1/512 rungs of
the benchmark ladder, sizes its workloads do not reach.  The timer's digest
covers every slab's Q and the run's largest pair weight, so these pin Q
where the meeting events' survivor groups hold hundreds of atoms."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stage_times.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("stage_times", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_timer_digests_on_the_1_256_and_1_512_rungs():
    tool = _load_tool()
    for n, sizes, digest in [
        (256, (506, 216), "700c3f3c40667807"),
        (512, (1017, 433), "2319c6434ff62c51"),
    ]:
        atoms, events, _, got = tool.rung(n)
        assert ((atoms, events), got) == (sizes, digest), n

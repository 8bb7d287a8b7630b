"""The stage timer (tools/stage_times.py) on the 1/256, 1/512 and 1/1024
rungs of the benchmark ladder, sizes its workloads do not reach.  The
timer's Q digest covers every slab's Q and the run's largest pair weight, so
these pin Q where the meeting events' survivor groups hold hundreds of
atoms; its potentials digest covers every slab's (Bianchini sum, TV) and
every event's speed change; the slope tables each rung builds pin how many
envelopes Q reads."""

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
    for n, sizes, q_digest, potentials, misses in rungs:
        atoms, events, _, got_q, got_potentials, (_, built) = tool.rung(n)
        assert ((atoms, events), got_q, got_potentials, built) == (
            sizes, q_digest, potentials, misses
        ), n


def test_stage_timer_digests_on_the_1_256_and_1_512_rungs():
    _check_rungs([
        (256, (506, 216), "700c3f3c40667807", "60e7d289d8cdfa97", 30),
        (512, (1017, 433), "2319c6434ff62c51", "3eb8c675a925f080", 41),
    ])


def test_stage_timer_digest_on_the_1_1024_rung():
    _check_rungs([(1024, (2042, 876), "7f91c043b3161d5e", "d603cf5bddc25c1f", 76)])


def test_stage_timer_runs_each_rung_in_its_own_process(capsys):
    _load_tool().main(["64"])
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[-1] == "rss_mb" and row.split()[0] == "1/64"
    assert float(row.split()[-1]) > 0

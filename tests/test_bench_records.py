"""The committed benchmark records (``BENCH_*.json``) parse, name what,
parent, command and runs, are named after their parent, and hold whole
correct runs, paired per workload."""

import copy
import glob
import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _declared():
    """The workload names and end-to-end metric names of BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {w["name"] for w in bench["workloads"]}, [m["name"] for m in bench["end_to_end"]]


def record_error(path, record, workloads, metrics):
    """Why the record ``record`` read from file ``path`` is malformed, or None."""
    missing = [k for k in ("what", "parent", "command", "runs")
               if not isinstance(record, dict) or k not in record]
    if missing:
        return f"{path}: missing {', '.join(missing)}"
    if path != f"BENCH_{record['parent']}.json":
        return f"{path}: not named after its parent {record['parent']!r}"
    if not isinstance(record["runs"], list):
        return f"{path}: runs is not a list"
    for i, run in enumerate(record["runs"]):
        where = f"{path}: runs[{i}]"
        if not isinstance(run, dict):
            return f"{where} is not an object"
        if run.get("workload") not in workloads:
            return f"{where}: workload {run.get('workload')!r} is not in BENCHMARK.json"
        if type(run.get("seed")) is not int:
            return f"{where}: seed {run.get('seed')!r} is not an integer"
        if run.get("side") not in ("parent", "change"):
            return f"{where}: side {run.get('side')!r} is not parent or change"
        result = run.get("result")
        if not isinstance(result, dict) or result.get("correct") is not True:
            return f"{where}: result is not correct: true"
        held = result.get("metrics")
        lost = [m for m in metrics if not isinstance(held, dict) or m not in held]
        if lost:
            return f"{where}: result lacks {', '.join(lost)}"
    sides = Counter((run["workload"], run["side"]) for run in record["runs"])
    for workload in sorted({w for w, _ in sides}):
        if sides[workload, "parent"] != sides[workload, "change"]:
            return (f"{path}: {workload} has {sides[workload, 'parent']} parent runs "
                    f"and {sides[workload, 'change']} change runs")
    return None


def test_committed_bench_records_are_well_formed():
    workloads, metrics = _declared()
    paths = sorted(Path(p).name for p in glob.glob(str(ROOT / "BENCH_*.json")))
    assert paths
    for path in paths:
        record = json.loads((ROOT / path).read_text())
        error = record_error(path, record, workloads, metrics)
        if error:
            pytest.fail(error)


def test_record_check_names_each_fault():
    workloads, metrics = _declared()
    good = {
        "what": "w", "parent": "abc1234", "command": "c",
        "runs": [
            {"workload": "ladder", "seed": s, "side": side,
             "result": {"correct": True, "metrics": dict.fromkeys(metrics, 0.0)}}
            for s, side in ((0, "parent"), (0, "change"))
        ],
    }
    path = "BENCH_abc1234.json"
    assert record_error(path, good, workloads, metrics) is None

    def edited(edit):
        record = copy.deepcopy(good)
        edit(record)
        return record

    first = metrics[0]
    cases = [
        (lambda r: r.pop("command"), f"{path}: missing command"),
        (lambda r: r.update(parent="other"), f"{path}: not named after its parent 'other'"),
        (lambda r: r.update(runs={}), f"{path}: runs is not a list"),
        (lambda r: r["runs"].__setitem__(0, []), f"{path}: runs[0] is not an object"),
        (lambda r: r["runs"][0].update(workload="x"),
         f"{path}: runs[0]: workload 'x' is not in BENCHMARK.json"),
        (lambda r: r["runs"][1].update(seed=True),
         f"{path}: runs[1]: seed True is not an integer"),
        (lambda r: r["runs"][0].update(side="both"),
         f"{path}: runs[0]: side 'both' is not parent or change"),
        (lambda r: r["runs"][0]["result"].update(correct=1),
         f"{path}: runs[0]: result is not correct: true"),
        (lambda r: r["runs"][0]["result"]["metrics"].pop(first),
         f"{path}: runs[0]: result lacks {first}"),
        (lambda r: r["runs"].pop(), f"{path}: ladder has 1 parent runs and 0 change runs"),
    ]
    for edit, message in cases:
        assert record_error(path, edited(edit), workloads, metrics) == message
    assert record_error(path, [], workloads, metrics) == (
        f"{path}: missing what, parent, command, runs"
    )

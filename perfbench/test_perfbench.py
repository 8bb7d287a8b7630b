"""The benchmark's own tests.  Run from the checkout root:

    python3 -m pytest -q perfbench

They are outside the package's tier-1 suite (``testpaths = ["tests"]``).
"""

import json
import shutil
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT)]

from fronttrack import harness  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _values(text):
    """The exact problem a config file states, independent of its spelling."""
    data = json.loads(text)
    if "epsilons" in data:
        sweep = harness.parse_sweep_config(data)
        return sweep.epsilons, sweep.probe_times, sweep.random_family["seed"], sweep.base
    cfg = harness.parse_run_config(data)
    window = cfg.window or (0, 1)
    flux = harness.sample_flux(cfg.flux_spec, cfg.epsilon, window)
    return cfg.epsilon, cfg.datum, cfg.window, flux.values, cfg.restart_check_points, cfg.emit_svg


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_spelling_not_values(workload):
    a = {j.cid: j for j in workloads.seeded_jobs(workload, harness, 1)}
    b = {j.cid: j for j in workloads.seeded_jobs(workload, harness, 2)}
    assert set(a) == set(b)
    assert any(a[c].text != b[c].text for c in a)
    for cid in a:
        assert _values(a[cid].text) == _values(b[cid].text), cid
    again = workloads.seeded_jobs(workload, harness, 1)
    assert [j.text for j in again] == [a[j.cid].text for j in again]


def test_family_is_the_acceptance_recipe():
    suite_builder = pytest.importorskip("tests.suite_builder")
    jobs = workloads.canonical_jobs("family", harness)
    for i in range(workloads.FAMILY_SIZE):
        assert jobs[i].config == suite_builder.suite_config(i, 0)
    configs = ROOT / "configs"
    for job in jobs[workloads.FAMILY_SIZE:]:
        name = job.cid.split("/")[1]
        assert job.config == json.loads((configs / f"{name}.json").read_text())


def test_ladder_sizes():
    atoms = []
    for job in workloads.canonical_jobs("ladder", harness):
        cfg = harness.parse_run_config(job.config)
        profile = harness.discretize_initial(cfg.datum, cfg.epsilon)
        atoms.append(profile.total_variation() / cfg.epsilon)
    assert atoms == [124, 251]


def test_self_time_subtracts_union_of_children_and_leaves():
    recorded = [
        ("root", 0.0, 10.0, -1, "c"),
        ("child", 1.0, 4.0, 0, "c"),  # two parallel children cover [1, 5]
        ("child", 2.0, 5.0, 0, "c"),
        ("root", 6.0, 7.0, 0, "c"),  # nested same name: not double counted
    ]
    leaves = {("leaf", 1): [3, 0.5]}
    out = spans.summarize(recorded, leaves)
    assert out["root"]["total_s"] == pytest.approx(10.0)
    assert out["root"]["self_s"] == pytest.approx((10 - 4 - 1) + 1)
    assert out["child"]["self_s"] == pytest.approx(3 - 0.5 + 3)
    assert out["leaf"] == {"calls": 3, "total_s": 0.5, "self_s": 0.5}


def _worker(tmp_path, name, workload, trace):
    result = tmp_path / f"{name}.json"
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "3",
         "--trace", str(trace), "--work", str(tmp_path / name), "--result", str(result)],
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, check=True, timeout=170,
    )
    return json.loads(result.read_text())


def test_counts_repeat_exactly_and_outputs_match_pins(tmp_path):
    pins = json.loads((HERE / "pins.json").read_text())
    first = _worker(tmp_path, "a", "family", 1)
    second = _worker(tmp_path, "b", "family", 1)
    assert first["counts"] == second["counts"]
    assert len(first["counts"]) == len(first["jobs"])
    layer_counts = [n for n, u in _units().items() if u in ("count", "bits", "B")]
    assert {n: first["layers"][n] for n in layer_counts} == \
        {n: second["layers"][n] for n in layer_counts}
    assert first["layers"]["tracing.atoms"] > 0
    assert first["layers"]["diagram.svg_s"] > 0
    for result in (first, second):
        assert set(result["exit_codes"].values()) == {0}
        assert result["digests"] == pins["outputs"]["family"]
        assert result["inputs"] == pins["inputs"]["family"]


def _units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_digest_mismatch_counts_as_failed():
    args = run.argparse.Namespace(workload="ladder", seed=0, seconds=1, trace=0)
    r = run.Run(args, ROOT)
    cid = "ladder/eps-1-64"
    result = {
        "jobs": [cid],
        "exit_codes": {cid: 0},
        "errors": {},
        "inputs": {cid: r.pins["inputs"]["ladder"][cid]},
        "digests": {cid: "0" * 64},
    }
    r.check(result)
    assert (r.attempted, r.failed) == (1, 1)
    result["digests"][cid] = r.pins["outputs"]["ladder"][cid]
    r.check(result)
    assert (r.attempted, r.failed) == (2, 1)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "family", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / ".perfbench").exists()


def test_host_speed_samples_forked_workers(tmp_path):
    """sweep's time is set by its forked workers, so they sample the host and
    its idle parent does not.  In a subprocess: HostSpeed registers an at-fork
    hook for good."""
    code = textwrap.dedent(f"""
        import os, sys, time
        sys.path.insert(0, {str(HERE)!r})
        import worker

        host = worker.HostSpeed({str(tmp_path / "host")!r})

        def body():
            pid = os.fork()
            if pid == 0:
                end = time.monotonic() + 1.7
                while time.monotonic() < end:
                    pass
                os._exit(0)
            os.waitpid(pid, 0)

        raw_s, ref_s = host.phase(body)
        print(sum(c is not None for *_, c in host.own), len(host.forked), raw_s, ref_s)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    own, forked, raw_s, ref_s = proc.stdout.split()
    assert int(own) == 2 * worker.CALIB_BRACKET
    ticks = 1.7 / worker.CALIB_EVERY_S
    assert int(forked) >= ticks - 3
    assert 1.7 <= float(raw_s) < 2.5
    assert float(ref_s) > 0
    assert not any((tmp_path / "host").iterdir())


def test_spelled_rationals_are_unreduced_but_equal():
    import random

    rng = random.Random(0)
    spelled = {workloads._spell("1/64", rng) for _ in range(40)}
    assert len(spelled) > 1
    assert {Fraction(s) for s in spelled} == {Fraction(1, 64)}

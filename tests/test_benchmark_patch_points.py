"""The benchmark's tracer (perfbench/spans.py) wraps program functions at the
module attributes their callers look up and reads the lru caches.  A rename
or a removed cache breaks traced benchmark passes, which the tests under
perfbench/ check but this suite does not run; this test pins those names."""

import importlib.util
from pathlib import Path

from fronttrack import cli, harness, potential

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_patch_points(tmp_path):
    spans = _load_spans()
    for owner, attr in [*spans.SPANS, *spans.LEAVES]:
        assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr}"
    for fns in spans.CACHES.values():
        for fn in fns:
            fn.cache_info()
    patched = [
        *spans.SPANS, *spans.LEAVES,
        (potential._SlabPotential, spans.Q_METHOD), (potential, "run_pipeline"),
        (harness, "evolve"), (harness, "_sweep_member"), (cli, "Path"),
    ]
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr in patched}
    tracer = spans.Tracer(str(tmp_path))
    try:
        tracer.install()
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"

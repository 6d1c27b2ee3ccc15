"""What the benchmark in hzbench/ reads of the library still exists.

The benchmark imports the library from ./src and reaches some functions by
name; a rename here would only show when the benchmark runs.  These tests
read hzbench/ and change nothing in it.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "hzbench"


def _bench_module(name):
    loader = importlib.util.spec_from_file_location(f"hzbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


SPEC = _bench_module("spec")
TRACING = _bench_module("tracing")


@pytest.mark.parametrize("metric", sorted(SPEC.CACHES))
def test_cache_paths_resolve(metric):
    module, attr = SPEC.CACHES[metric].split(".")
    fn = getattr(importlib.import_module(f"hyperzeta.{module}"), attr)
    hits, misses = fn.cache_info()[:2]
    assert hits >= 0 and misses >= 0


# SPAN_STATS rows naming a function the library no longer has: the benchmark
# reads 0 for every statistic of theirs.  Drop a name here when the benchmark
# drops its row.
DEAD_SPAN_ROWS = {
    "constants.gamma_scalar",
    "constants.zeta_int",
    "evaluators.default_hspec",
    "multibernoulli.f_omega_series",
}


@pytest.mark.parametrize("name", sorted(set(SPEC.SPAN_STATS) | DEAD_SPAN_ROWS))
def test_span_paths_resolve(name):
    # "module.function" or "module.Class.method", looked up in the defining namespace
    assert name in SPEC.SPAN_STATS
    module, *path = name.split(".")
    obj = importlib.import_module(f"hyperzeta.{module}")
    for attr in path:
        obj = vars(obj).get(attr)
        if obj is None:
            break
    if name in DEAD_SPAN_ROWS:
        assert obj is None
    else:
        assert callable(obj) and obj.__module__ == f"hyperzeta.{module}"


@pytest.mark.parametrize(
    "method",
    sorted(f"{cls}.{m}" for cls, names in TRACING.METHODS.items() for m in names),
)
def test_traced_methods_resolve(method):
    # the tracer wraps cls.__dict__[name]: the method must be defined on the class
    module, cls_name, name = method.split(".")
    cls = getattr(importlib.import_module(f"hyperzeta.{module}"), cls_name)
    assert callable(cls.__dict__.get(name))


@pytest.mark.parametrize("name", sorted(TRACING.NOT_WRAPPED))
def test_not_wrapped_names_resolve(name):
    # the tracer skips these by name: after a rename it would wrap them again
    module, attr = name.split(".")
    mod = importlib.import_module(f"hyperzeta.{module}")
    fn = getattr(mod, attr)
    assert callable(fn) and fn.__module__ == mod.__name__


@pytest.mark.parametrize("workload", sorted(SPEC.WORKLOADS))
def test_workload_setup_runs(workload):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr

"""Guard for the benchmark's wrap points.

perfbench/tracer.py traces the package from outside, by module and
attribute name, and reports a wrap point it cannot find as absent.  A
rename in the package would then blank a per-layer metric without any
error, so this test requires every wrap point to be found.
"""

import importlib.util
import os
import sys

import nlstefan  # noqa: F401  (the tracer finds the package in sys.modules)
from nlstefan import fileio  # noqa: F401  (not imported by the package itself)

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_benchmark_wrap_points_all_exist():
    tracer = _load_tracer_module().Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()

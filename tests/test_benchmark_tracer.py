"""The benchmark's tracer installs on the library as it is.

``benchmarks/tracing.py`` wraps library functions and methods by name.  A
renamed or deleted name fails here, naming it, instead of only in a traced
benchmark run.
"""

import importlib.util
import os

from vndarboux import darboux_engine, lax_engine, operator_core

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                       "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # every traced name is read here
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _tracing()
    originals = (darboux_engine.dressed_trajectory, operator_core.mat_exp,
                 vars(lax_engine.LaxSolution)["phi_at"])
    tracer = tracing.Tracer()
    tracer.install()  # a traced method that is gone raises KeyError(name)
    try:
        assert darboux_engine.dressed_trajectory is not originals[0]
        assert operator_core.mat_exp is not originals[1]
        assert vars(lax_engine.LaxSolution)["phi_at"] is not originals[2]
    finally:
        tracer.uninstall()
    assert (darboux_engine.dressed_trajectory, operator_core.mat_exp,
            vars(lax_engine.LaxSolution)["phi_at"]) == originals

"""In-memory spans around calls into vndarboux, installed from outside.

The library is not instrumented.  A traced run replaces public functions with
wrappers at every module attribute that refers to them (the modules import
each other's functions by name, so ``mat_exp`` lives under several modules),
records one span per call and restores the originals afterwards.  The timed
run never installs anything.

A span is ``[name, start, end, parent]`` where ``parent`` indexes the span
that was open when the call began (-1 for none).  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from vndarboux import (darboux_engine, lax_engine, operator_core,
                       scenario_cli, seed_factory, symmetry_transforms,
                       verification, vne_model)

_MODULES = (operator_core, vne_model, seed_factory, lax_engine,
            darboux_engine, symmetry_transforms, verification, scenario_cli)

# span name -> function; each is wrapped wherever a module holds it
SPANNED_FUNCTIONS = {
    "scenario_cli.validate_config": scenario_cli.validate_config,
    "scenario_cli.write_outputs": scenario_cli.write_outputs,
    "seed_factory.make_seed": (seed_factory.make_delta_commuting_seed,
                               seed_factory.make_anticommuting_seed,
                               seed_factory.make_commuting_seed),
    "lax_engine.build_lax": lax_engine.build_lax,
    "darboux_engine.dressed_trajectory": darboux_engine.dressed_trajectory,
    "darboux_engine.dressed_state_at": darboux_engine.dressed_state_at,
    "darboux_engine.dress": darboux_engine.dress,
    "darboux_engine.projector": darboux_engine.projector,
    "verification.run_suite": verification.run_suite,
    "vne_model.residual": vne_model.residual,
    "operator_core.mat_exp": operator_core.mat_exp,
}
# span name -> (class, method)
SPANNED_METHODS = {
    "seed_factory.rho_at": ((seed_factory.SeedSolution, "rho_at"),),
    "lax_engine.evolve": ((lax_engine.LaxSolution, "phi_at"),
                          (lax_engine.LaxSolution, "chi_at"),
                          (lax_engine.LaxSolution, "psi_at")),
}
# factories whose returned callable is the traced flow
FLOW_FACTORIES = (symmetry_transforms.shifted_flow,
                  symmetry_transforms.rescaled_flow)
FLOW = "symmetry_transforms.flow"
# counted without a span: they are called tens of thousands of times
COUNTED_FUNCTIONS = {
    "operator_core.validation": (operator_core.as_operator,
                                 operator_core.as_state),
}
# calls whose arguments are kept, so the caller can repeat them untraced
CAPTURED = ("verification.run_suite",)


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.captured: dict = {}
        self._open: list[int] = []
        self._patches: list[tuple] = []
        # wrappers that outlive the traced call (a flow kept in a returned
        # trajectory) pass straight through once the tracer is uninstalled
        self.active = False

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, open_stack = self.spans, self._open
        capture = self.captured if name in CAPTURED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [name, time.perf_counter(), 0.0,
                      open_stack[-1] if open_stack else -1]
            open_stack.append(len(spans))
            spans.append(record)
            if capture is not None:
                capture[name] = (args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                open_stack.pop()
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _flow_factory(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._spanned(FLOW, fn(*args, **kwargs))
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, fns in SPANNED_FUNCTIONS.items():
            for fn in fns if isinstance(fns, tuple) else (fns,):
                self._replace_everywhere(fn, self._spanned(name, fn))
        for name, methods in SPANNED_METHODS.items():
            for cls, attr in methods:
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._spanned(name, original))
        for fn in FLOW_FACTORIES:
            self._replace_everywhere(fn, self._flow_factory(fn))
        for name, fns in COUNTED_FUNCTIONS.items():
            for fn in fns:
                self._replace_everywhere(fn, self._counted(name, fn))
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def reset(self) -> tuple[list[list], Counter]:
        """Clear the recorded spans, counts and captures; returns the first two."""
        if self._open:
            raise RuntimeError("cannot reset while a span is open")
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        self.captured.clear()
        return spans, counts


def summarize(spans: list[list], counts: Counter) -> dict:
    """Per span name: ``calls``, ``total_s`` (sum of durations), ``self_s``.

    Names that are only counted have zero times.  The extra entry
    ``symmetry_transforms.flow_added`` holds the time the symmetry flows add
    on top of the state they transform: the flows' self time plus the matrix
    exponentials they call directly.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    added = out[FLOW + "_added"]
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        if name == FLOW:
            added["self_s"] += end - start - child_time[i]
        elif name == "operator_core.mat_exp" and parent >= 0 \
                and spans[parent][0] == FLOW:
            added["self_s"] += end - start
    for name, n in counts.items():
        out[name]["calls"] += n
    return {name: dict(v) for name, v in out.items()}


def relative_spans(spans: list[list]) -> list[list]:
    """Spans with times relative to the first start, for writing out."""
    if not spans:
        return []
    t0 = spans[0][1]
    return [[name, start - t0, end - t0, parent]
            for name, start, end, parent in spans]


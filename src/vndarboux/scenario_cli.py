"""Command-line pipeline: seed -> Lax -> dress -> symmetries -> verify.

Scenario configs are JSON documents; complex numbers are ``[re, im]`` pairs
and matrices nested row arrays of such pairs.  ``run`` writes

* ``trajectory.csv``   t, row-major Re/Im entries of the final state, then
  scalar diagnostics (17 significant digits, bit-exact round trip);
* ``report.json``      the verification report;
* ``scenario.lock.json``  the fully resolved config (selected eigenvalues,
  seed matrices); feeding it back to ``run`` reproduces the exit code and
  all three files bitwise.

A scenario's gates are the defaults of ``Tolerances`` with the config's
``tolerances`` overrides, which the lock embeds; nothing else sets them.

``output_files`` renders and writes the CSV and the lock.

Exit codes: 0 all checks pass, 1 a check or a numerical operation failed,
2 schema/config error, 3 the dressing hit a singular <chi|phi>.  Every
outcome has one name, which is a sweep point's status, and one table
(``_EXIT_CODES``) turns it into the exit code of ``run`` and ``sweep``;
``_FAILURES`` names the outcome of each exception type.

One schema walk (``_walk``) is the only code that reads a config: it reports
every error with its field path and turns a valid config into a frozen
``Scenario`` of typed values, which ``execute`` runs.  ``validate_config``,
``build_seed`` and ``execute_scenario`` are the JSON-facing entry points
around it.

The commands run many scenarios in one process (a sweep, each of its pool
workers), so ``_attempt``, the path every scenario takes, first tells glibc
to keep freed buffers (``_keep_freed_memory``); library calls are left alone.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .darboux_engine import DressedFlow, Trajectory, dressed_trajectory
from .errors import (DarbouxError, DefectiveEigenproblem, SingularDarboux,
                     UnsupportedScenario)
from .lax_engine import (build_lax, eigenvalue_multiplicity, identity_pair,
                         pinned)
from .operator_core import frob, select_root
# read_trajectory_csv is imported for the CLI's callers, who read a run's CSV
from .output_files import (atomic_write, libc_function, lock_text,
                           read_trajectory_csv, write_trajectory_csv)
from .seed_factory import (SeedSolution, make_anticommuting_seed,
                           make_commuting_seed, make_delta_commuting_seed)
from .symmetry_transforms import RescaledFlow, ShiftedFlow
from .tolerances import DEFAULT, Tolerances
from .verification import CHECKS, VerificationReport, run_suite

_SEED_FAMILIES = ("anticommuting", "delta_commuting", "commuting")
_PINS = ("z_mu_pin", "z_nu_pin", "z_lambda_pin")


# ---------------------------------------------------------------------------
# JSON <-> numeric helpers

def complex_to_pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_nested(M: np.ndarray) -> list:
    # the (Re, Im) floats of each entry, bitwise those of complex_to_pair
    M = np.ascontiguousarray(M, dtype=complex)
    return M.view(float).reshape(*M.shape, 2).tolist()


class _Errors(list):
    def add(self, path: str, message: str):
        self.append(f"{path}: {message}")


def _finite(x) -> bool:
    # the one test of a number in a config: real, finite and not a bool
    # (Python's json reads NaN, Infinity and integers beyond the float range)
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _reals(values, nonzero: bool = False) -> bool:
    return isinstance(values, list) and all(
        _finite(x) and not (nonzero and x == 0) for x in values)


def _count(value, minimum: int) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= minimum)


def _as_pair(value, path, errs) -> complex | None:
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and _reals(list(value))):
        errs.add(path, "expected a [re, im] pair")
        return None
    return complex(float(value[0]), float(value[1]))


def _as_matrix(value, path, errs) -> np.ndarray | None:
    if not isinstance(value, list) or not value:
        errs.add(path, "expected a nested row array of [re, im] pairs")
        return None
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != len(value):
            errs.add(path, "matrix must be square")
            return None
        entries = []
        for j, e in enumerate(row):
            z = _as_pair(e, f"{path}[{i}][{j}]", errs)
            if z is None:
                return None
            entries.append(z)
        rows.append(entries)
    return np.array(rows, dtype=complex)


def _real_number(value, path, errs, nonzero=False) -> float | None:
    if not _finite(value):
        errs.add(path, "expected a real number")
        return None
    if nonzero and value == 0:
        errs.add(path, "must be nonzero")
        return None
    return float(value)


# ---------------------------------------------------------------------------
# the schema walk

_SECTION_KEYS = {
    "": {"id", "model", "seed", "darboux", "times", "symmetries", "checks",
         "tolerances"},
    "model": {"n", "A"},
    "seed": {"family", "dim_pairs", "b", "alpha", "blocks", "a", "p"},
    "darboux": {"mu", "nu_mode", "lambda", "z_mu_pin", "z_nu_pin",
                "z_lambda_pin"},
    "times": {"t_min", "t_max", "samples"},
    "symmetries": {"order", "shift_lambda", "shift_x", "rescale_y"},
}


def _check_keys(obj, section, errs):
    allowed = _SECTION_KEYS[section]
    prefix = f"{section}." if section else ""
    for key in obj:
        if key not in allowed:
            errs.add(f"{prefix}{key}", "unknown field")


def _section(data: dict, name: str, message: str, errs) -> dict:
    obj = data.get(name)
    if not isinstance(obj, dict):
        errs.add(name, message)
        obj = {}
    _check_keys(obj, name, errs)
    return obj


@dataclasses.dataclass(frozen=True, eq=False)
class Scenario:
    """A validated config as typed values.

    ``config`` is the normalized JSON that ``scenario.lock.json`` embeds;
    ``seed_args`` are the keyword arguments of the family's seed factory;
    ``nu`` is None for ``nu = conj(mu)``; ``pins`` maps ``z_*_pin`` to the
    pinned eigenvalues; ``shift_x`` is None unless a general X is given;
    ``tolerances`` are the defaults with the config's overrides.
    """

    config: dict
    family: str
    seed_args: dict
    A: np.ndarray | None
    mu: complex
    nu: complex | None
    lam: complex | None
    pins: dict
    times: np.ndarray
    order: str
    shift_lambda: float
    shift_x: np.ndarray | None
    rescale_y: float
    checks: dict | None
    tolerances: Tolerances

    def build_seed(self) -> SeedSolution:
        factory = {"anticommuting": make_anticommuting_seed,
                   "delta_commuting": make_delta_commuting_seed,
                   "commuting": make_commuting_seed}[self.family]
        seed = factory(**self.seed_args)
        if self.A is not None and (self.A.shape != seed.spec.A.shape
                                   or frob(self.A - seed.spec.A) > 1e-12):
            raise ValueError(
                "model.A: does not match the operator derived from the seed "
                "parameters (A is determined by the seed family)")
        return seed


def _walk(data) -> tuple[dict, Scenario | None, list[str]]:
    """Validate and normalize a raw config in one pass.

    Returns the normalized config, the ``Scenario`` (None when there are
    errors) and the error messages, each prefixed with its field path.
    """
    errs = _Errors()
    if not isinstance(data, dict):
        return {}, None, ["top level: expected a JSON object"]
    _check_keys(data, "", errs)

    cfg = {}
    cfg["id"] = data.get("id")
    if not isinstance(cfg["id"], str) or not cfg["id"]:
        errs.add("id", "required non-empty string")
        cfg["id"] = "unnamed"

    model = _section(data, "model", "required object with field n", errs)
    n = model.get("n")
    if not _count(n, 1):
        errs.add("model.n", "must be a positive integer")
        n = 1
    cfg["model"] = {"n": n}
    A = None
    if "A" in model:
        A = _as_matrix(model["A"], "model.A", errs)
        if A is not None:
            cfg["model"]["A"] = model["A"]

    seed = _section(data, "seed", "required object", errs)
    family = seed.get("family")
    if family not in _SEED_FAMILIES:
        errs.add("seed.family", f"must be one of {_SEED_FAMILIES}")
        family = None
    cfg["seed"] = dict(seed)
    seed_args = {}
    if family == "anticommuting":
        pairs, b, alpha = seed.get("dim_pairs"), seed.get("b"), seed.get("alpha")
        if not _count(pairs, 1):
            errs.add("seed.dim_pairs", "must be a positive integer")
        for name, values in (("b", b), ("alpha", alpha)):
            if name == "alpha" and values is None:
                continue  # optional: all ones
            if not _reals(values, nonzero=True) or (name == "b" and not values):
                errs.add(f"seed.{name}", "must be a list of nonzero reals")
            elif isinstance(pairs, int) and len(values) != pairs:
                errs.add(f"seed.{name}", f"must have exactly {pairs} entries")
        seed_args = {"dim_pairs": pairs, "b": b, "alpha": alpha, "n": n}
    elif family == "delta_commuting":
        if n != 1:
            errs.add("model.n", "delta_commuting seeds require n = 1")
        blocks = seed.get("blocks")
        if (not isinstance(blocks, list) or not blocks
                or any(not _reals(blk) or len(blk) != 2 for blk in blocks)):
            errs.add("seed.blocks", "must be a non-empty list of [omega, kappa] pairs")
        elif any(blk[1] == 0 for blk in blocks):
            errs.add("seed.blocks", "every kappa must be nonzero")
        seed_args = {"blocks": blocks,
                     "a": _real_number(seed.get("a"), "seed.a", errs)}
    elif family == "commuting":
        p, alpha = seed.get("p"), seed.get("alpha")
        for name, values in (("p", p), ("alpha", alpha)):
            if not (values and _reals(values)):
                errs.add(f"seed.{name}", "must be a non-empty list of reals")
        if isinstance(p, list) and isinstance(alpha, list) and len(p) != len(alpha):
            errs.add("seed.alpha", "must match the length of seed.p")
        seed_args = {"p": p, "alpha": alpha, "n": n}

    darboux = _section(data, "darboux", "required object with field mu", errs)
    cfg["darboux"] = dict(darboux)
    mu = _as_pair(darboux.get("mu"), "darboux.mu", errs)
    if mu is not None and mu == 0:
        errs.add("darboux.mu", "must be nonzero")
        mu = None
    nu_mode = darboux.get("nu_mode", "conjugate")
    nu = None
    if nu_mode == "conjugate":
        if mu is not None and identity_pair(mu, mu.conjugate()):
            errs.add("darboux.mu", "real mu with conjugate nu gives the "
                     "identity transformation; use a complex mu")
    elif isinstance(nu_mode, dict) and "explicit" in nu_mode:
        nu = _as_pair(nu_mode["explicit"], "darboux.nu_mode.explicit", errs)
        if nu is not None and nu == 0:
            errs.add("darboux.nu_mode.explicit", "must be nonzero")
            nu = None
        if None not in (mu, nu) and identity_pair(mu, nu):
            errs.add("darboux.nu_mode.explicit",
                     "nu must differ from mu (identity transformation)")
    else:
        errs.add("darboux.nu_mode", 'must be "conjugate" or {"explicit": [re, im]}')
    lam = None
    if "lambda" in darboux:
        lam = _as_pair(darboux["lambda"], "darboux.lambda", errs)
        if lam is not None and mu is not None and lam == mu:
            errs.add("darboux.lambda", "must differ from mu")
    pins = {pin: _as_pair(darboux[pin], f"darboux.{pin}", errs)
            for pin in _PINS if pin in darboux}

    times = _section(data, "times", "required object with t_min, t_max, samples",
                     errs)
    t_min = _real_number(times.get("t_min"), "times.t_min", errs)
    t_max = _real_number(times.get("t_max"), "times.t_max", errs)
    samples = times.get("samples")
    if not _count(samples, 2):
        errs.add("times.samples", "must be an integer >= 2")
    if None not in (t_min, t_max) and not t_min < t_max:
        errs.add("times.t_min", "must be strictly below t_max")
    cfg["times"] = dict(times)

    has_symmetries = data.get("symmetries") is not None
    sym = (_section(data, "symmetries", "expected an object", errs)
           if has_symmetries else {})
    order = sym.get("order", "after")
    if order not in ("before", "after"):
        errs.add("symmetries.order", 'must be "before" or "after"')
    shift_lambda = _real_number(sym.get("shift_lambda", 0.0),
                                "symmetries.shift_lambda", errs)
    shift_x = None
    if "shift_x" in sym:
        if "shift_lambda" in sym:
            errs.add("symmetries.shift_x", "mutually exclusive with shift_lambda")
        shift_x = _as_matrix(sym["shift_x"], "symmetries.shift_x", errs)
        if order == "before":
            errs.add("symmetries.shift_x", 'general X supports order "after" only')
    rescale_y = _real_number(sym.get("rescale_y", 1.0), "symmetries.rescale_y",
                             errs, nonzero=True)
    if has_symmetries:
        cfg["symmetries"] = {"order": order, **{k: sym[k] for k in
                             ("shift_lambda", "shift_x", "rescale_y") if k in sym}}

    checks = data.get("checks")
    if checks is not None:
        if not isinstance(checks, dict):
            errs.add("checks", "expected an object of booleans")
        else:
            for key, val in checks.items():
                if key not in CHECKS:
                    errs.add(f"checks.{key}", f"unknown check (known: {CHECKS})")
                elif not isinstance(val, bool):
                    errs.add(f"checks.{key}", "expected a boolean")
            cfg["checks"] = dict(checks)

    overrides = data.get("tolerances")
    if overrides is not None:
        if not isinstance(overrides, dict):
            errs.add("tolerances", "expected an object of numbers")
        else:
            for key, val in overrides.items():
                if key not in DEFAULT.__dataclass_fields__:
                    errs.add(f"tolerances.{key}", "unknown tolerance name")
                elif not _finite(val):
                    errs.add(f"tolerances.{key}", "expected a number")
            cfg["tolerances"] = dict(overrides)

    grid = None if errs else np.linspace(t_min, t_max, samples)
    if grid is not None and not np.all(np.diff(grid) > 0):
        errs.add("times.samples", "too many for the span from t_min to t_max: "
                 "the grid repeats a time")
    if errs:
        return cfg, None, errs
    grid.setflags(write=False)
    tolerances = dataclasses.replace(
        DEFAULT, **{k: float(v) for k, v in cfg.get("tolerances", {}).items()})
    return cfg, Scenario(
        config=cfg, family=family, seed_args=seed_args, A=A, mu=mu, nu=nu,
        lam=lam, pins=pins, times=grid, order=order, shift_lambda=shift_lambda,
        shift_x=shift_x, rescale_y=rescale_y, checks=cfg.get("checks"),
        tolerances=tolerances), []


def validate_config(data) -> tuple[dict, list[str]]:
    """Normalize a raw config dict; returns (config, error messages)."""
    cfg, _, errors = _walk(data)
    return cfg, list(errors)


def read_scenario(cfg) -> Scenario:
    """The ``Scenario`` of a config; any config error raises ``ValueError``."""
    _, scenario, errors = _walk(cfg)
    if errors:
        raise ValueError("; ".join(errors))
    return scenario


def build_seed(cfg: dict) -> SeedSolution:
    return read_scenario(cfg).build_seed()


# ---------------------------------------------------------------------------
# pipeline

@dataclasses.dataclass(eq=False)
class ScenarioResult:
    """A scenario's trajectory (its flow's ``root.seed`` is the seed), its
    report and its lock, whose ``config`` is the normalized config."""

    trajectory: Trajectory
    report: VerificationReport
    lock: dict


def _untransformed(seed: SeedSolution, s: Scenario) -> tuple:
    """``(mu, nu, lambda, pins)`` of an ``order: "before"`` scenario in the
    frame of its untransformed seed rho.

    The configured seed is ``Y (rho + Lambda)``, whose pencil with a
    parameter p is ``Y (rho - (p/Y) A + Lambda)``: it has the eigenvectors
    of rho's pencil with ``p/Y``, and its roots are ``Y (z + Lambda)`` for
    that pencil's roots z.  So the parameters map to ``p/Y``, and each root
    is chosen by the rule (or pin) among the configured roots, where a
    negative Y reverses their order, and pinned at its z.
    """
    Y, shift = s.rescale_y, s.shift_lambda
    mu, nu, lam = (None if p is None else p / Y for p in (s.mu, s.nu, s.lam))
    pins = {}
    for name, param in (("z_mu_pin", mu), ("z_nu_pin", nu), ("z_lambda_pin", lam)):
        if param is not None:
            roots = Y * (np.linalg.eigvals(seed.rho0 - param * seed.spec.A) + shift)
            pins[name] = pinned(name, select_root, roots, s.pins.get(name)) / Y - shift
    return mu, nu, lam, pins


def execute(scenario: Scenario) -> ScenarioResult:
    """Seed, Lax solution, dressing, symmetries and checks of one scenario.

    The dressing is shifted, then rescaled, in either order: under
    ``"before"`` the dressing of the transformed seed ``Y (rho + Lambda)``
    is the transform of rho's dressing in that seed's frame
    (``_untransformed``), and the lock records the transformed seed and its
    roots.
    """
    s = scenario
    seed = s.build_seed()
    before = s.order == "before"
    mu, nu, lam, pins = _untransformed(seed, s) if before else (s.mu, s.nu, s.lam, s.pins)
    lax = build_lax(seed, mu, nu, lam, tolerances=s.tolerances, **pins)
    params = lax.params
    flow = DressedFlow(lax)

    residual_scale = 1.0
    if s.shift_x is not None or s.shift_lambda != 0.0:
        X = (s.shift_x if s.shift_x is not None
             else float(s.shift_lambda) * np.eye(seed.dim, dtype=complex))
        flow = ShiftedFlow(flow, X, tolerances=s.tolerances)
        size = frob(X) if s.shift_x is not None else abs(s.shift_lambda)
        residual_scale = (1.0 + size) * max(1.0, frob(seed.spec.A) ** seed.spec.n)
    if s.rescale_y != 1.0:
        flow = RescaledFlow(flow, s.rescale_y)
        residual_scale *= s.rescale_y ** 2
    # each sample is dressed once, at the time the flow evaluates the
    # dressing (Y t), and its state is the flow's map of that dressing
    traj = dressed_trajectory(flow, s.times)

    notes = {"symmetry_order": s.order if "symmetries" in s.config else None,
             "shift_lambda": s.shift_lambda, "rescale_y": s.rescale_y,
             "hermitian_mode": params.hermitian_mode}
    # the residual's gate grows with the shift and the rescaling of a
    # dressing; a transformed seed keeps its own
    report = run_suite(traj, scenario_id=s.config["id"], enabled=s.checks,
                       residual_tol_scale=1.0 if before else residual_scale, notes=notes)

    def root(z):
        # a root in the configured seed's frame
        return complex_to_pair(s.rescale_y * (z + s.shift_lambda) if before else z)

    lock = {
        "config": s.config,
        "resolved": {
            "version": __version__,
            "hermitian_mode": params.hermitian_mode,
            "z_mu": root(params.z_mu),
            "z_nu": root(params.z_nu),
            "z_lambda": (root(params.z_lambda)
                         if params.z_lambda is not None else None),
            "z_nu_multiplicity": eigenvalue_multiplicity(seed, params.nu,
                                                         params.z_nu),
            "rho0": matrix_to_nested(traj.reference if before else seed.rho0),
            "A": matrix_to_nested(seed.spec.A),
            "phi0": [complex_to_pair(x) for x in lax.phi0],
            "chi0": [complex_to_pair(x) for x in lax.chi0],
            "singular_t": traj.singular_t,
        },
    }
    return ScenarioResult(trajectory=traj, report=report, lock=lock)


def execute_scenario(cfg: dict) -> ScenarioResult:
    return execute(read_scenario(cfg))


# ---------------------------------------------------------------------------
# output files

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_outputs(result: ScenarioResult, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), result)
    # strict JSON: the report holds no NaN or infinity
    atomic_write(os.path.join(out_dir, "report.json"),
                 (json.dumps(result.report.to_dict(), indent=2, allow_nan=False), "\n"))
    atomic_write(os.path.join(out_dir, "scenario.lock.json"),
                 (lock_text(result.lock), "\n"))


# ---------------------------------------------------------------------------
# commands

def _load_config(config_path: str) -> tuple[dict | None, list[str]]:
    try:
        with open(config_path) as handle:
            data = json.load(handle)
    except OSError as exc:
        return None, [f"{config_path}: {exc}"]
    except json.JSONDecodeError as exc:
        return None, [f"{config_path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"]
    if isinstance(data, dict) and "config" in data and "resolved" in data:
        data = data["config"]  # a lock file replays its embedded config
    return validate_config(data)


# the outcomes of a scenario, which are a sweep point's statuses, and their
# exit codes
_EXIT_CODES = {"ok": 0, "check_failed": 1, "config_error": 2, "singular": 3}

# failures of a scenario: exception types, outcome and the prefix of the
# one-line message; the first matching row wins
_FAILURES = (
    ((ValueError, UnsupportedScenario), "config_error", "config error"),
    (SingularDarboux, "singular", "singular dressing"),
    (DefectiveEigenproblem, "check_failed", "defective eigenproblem"),
    (DarbouxError, "check_failed", "numerical check failure"),
    (ArithmeticError, "check_failed", "numerical failure"),
)


# glibc's mallopt parameters (malloc.h) and the values _keep_freed_memory
# sets: 32 MiB is the ceiling of glibc's own dynamic mmap threshold on 64-bit
# hosts, and its rule sets the trim threshold to twice the mmap threshold
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_BYTES, _TRIM_BYTES = 32 << 20, 64 << 20
_freed_memory_kept = False


def _keep_freed_memory():
    # Once per process, on glibc: serve arrays up to 32 MiB from the heap and
    # keep up to 64 MiB of freed heap, so a scenario reuses the pages the
    # last one freed instead of faulting in fresh zeroed ones.  Both are set:
    # either alone switches off glibc's dynamic thresholds and leaves the
    # other at 128 KiB.  Elsewhere, or without mallopt, nothing happens
    global _freed_memory_kept
    if _freed_memory_kept:
        return
    _freed_memory_kept = True
    mallopt = libc_function("mallopt", ctypes.c_int, ctypes.c_int)
    if mallopt is None:
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)


def _attempt(scenario: Scenario):
    """Run one scenario: ``(result or None, outcome, message)``.

    The message is None when every check passed.
    """
    _keep_freed_memory()
    try:
        result = execute(scenario)
    except (ValueError, DarbouxError, ArithmeticError) as exc:
        status, prefix = next((status, prefix) for types, status, prefix in _FAILURES
                              if isinstance(exc, types))
        return None, status, f"{prefix}: {exc}"
    if result.trajectory.singular_t is not None:
        return (result, "singular",
                f"singular dressing at t = {result.trajectory.singular_t:.6g}; "
                "trajectory truncated")
    if not result.report.overall:
        failed = [c.name for c in result.report.checks if not c.passed]
        return result, "check_failed", f"checks failed: {', '.join(failed)}"
    return result, "ok", None


def _out_cannot_be_made(out_dir: str) -> bool:
    # checked before any work: an empty --out, or a file at --out or at the
    # first of its ancestors that exists, would fail only when the outputs
    # are written
    if not out_dir:
        print("--out: must be a non-empty path", file=sys.stderr)
        return True
    path = out_dir
    while path and not os.path.lexists(path) and os.path.dirname(path) != path:
        path = os.path.dirname(path)
    if os.path.lexists(path) and not os.path.isdir(path):
        print(f"--out: {path} exists and is not a directory", file=sys.stderr)
        return True
    return False


def run(config_path: str, out_dir: str, *, seed_dump: bool = False) -> int:
    if _out_cannot_be_made(out_dir):
        return _EXIT_CODES["config_error"]
    cfg, errors = _load_config(config_path)
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        return _EXIT_CODES["config_error"]
    result, status, message = _attempt(read_scenario(cfg))
    if result is not None:
        if seed_dump:
            # the lock's matrices, bit for bit
            rho0, A = (np.array(result.lock["resolved"][key]).view(complex)[..., 0]
                       for key in ("rho0", "A"))
            with np.printoptions(precision=17, linewidth=200):
                print(f"rho0 =\n{rho0}\nA =\n{A}")
        write_outputs(result, out_dir)
    if message is not None:
        print(message, file=sys.stderr)
    return _EXIT_CODES[status]


def _sweep_row(index: int, param: str, value_repr: str, out_dir: str,
               status: str, report: VerificationReport | None = None) -> dict:
    # a point's summary.csv row; a point that failed before its checks has
    # no report, and a value is empty without its check
    worst = {c.name: _fmt(c.worst_value)
             for c in (report.checks if report is not None else ())}
    return {"index": index, "param": param, "value": value_repr,
            "out_dir": out_dir, "status": status,
            "overall": report is not None and report.overall,
            "worst_residual": worst.get("residual", ""),
            "worst_spectral_gap": worst.get("spectrum", worst.get("moments", ""))}


def _run_sweep_point(args: tuple) -> dict:
    scenario, out_dir, param, value_repr, index = args
    result, status, message = _attempt(scenario)
    if result is None:
        print(f"{param}={value_repr}: {message}", file=sys.stderr)
        return _sweep_row(index, param, value_repr, out_dir, status)
    write_outputs(result, out_dir)
    return _sweep_row(index, param, value_repr, out_dir, status, result.report)


def sweep(config_path: str, param: str, values, out_dir: str,
          jobs: int = 1) -> int:
    if _out_cannot_be_made(out_dir):
        return _EXIT_CODES["config_error"]
    cfg, errors = _load_config(config_path)
    if param not in ("mu", "t_max", "a"):
        errors = errors + [f"--param: unknown parameter {param!r}"]
    values = list(values)
    if not values:
        errors = errors + ["--values: empty list"]
    if not errors and param == "a" and cfg["seed"].get("family") != "delta_commuting":
        errors = [f"--param a: requires a delta_commuting seed, "
                  f"got {cfg['seed'].get('family')}"]
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        return _EXIT_CODES["config_error"]

    section = {"mu": "darboux", "t_max": "times", "a": "seed"}[param]
    points, rows_by_index = [], {}
    for idx, value in enumerate(values):
        if param == "mu":
            value = complex(value)
            new = [value.real, value.imag]
            value_repr = f"{value.real:g}{value.imag:+g}j"
        else:
            new = float(value)
            value_repr = f"{new:g}"
        # only the touched section is copied; the point goes through the walk
        sub = {**cfg, "id": f"{cfg['id']}[{param}={value_repr}]",
               section: {**cfg[section], param: new}}
        sub_dir = os.path.join(out_dir, f"{param}_{idx:03d}_{value_repr}")
        _, scenario, sub_errors = _walk(sub)
        if sub_errors:
            # a failing point never aborts the sweep
            for e in sub_errors:
                print(f"{param}={value_repr}: {e}", file=sys.stderr)
            rows_by_index[idx] = _sweep_row(idx, param, value_repr, sub_dir,
                                            "config_error")
            continue
        points.append((scenario, sub_dir, param, value_repr, idx))

    workers = min(jobs, len(points))  # a pool starts all its workers at once
    if workers > 1:
        # imported here: the pool's modules would add to every run's start
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            computed = list(pool.map(_run_sweep_point, points))
    else:
        computed = [_run_sweep_point(p) for p in points]
    for row in computed:
        rows_by_index[row["index"]] = row
    rows = [rows_by_index[i] for i in sorted(rows_by_index)]

    os.makedirs(out_dir, exist_ok=True)
    header = ["index", "param", "value", "status", "overall",
              "worst_residual", "worst_spectral_gap", "out_dir"]
    # csv quotes a field that holds a comma, a quote or a line break (an
    # out_dir can); the bytes are ",".join of the fields otherwise
    text = io.StringIO()
    table = csv.writer(text, lineterminator="\n")
    table.writerow(header)
    table.writerows([row[h] for h in header] for row in rows)
    atomic_write(os.path.join(out_dir, "summary.csv"), (text.getvalue(),))

    return _EXIT_CODES["ok" if all(r["status"] == "ok" for r in rows)
                       else "check_failed"]


def _parse_values(text: str, param: str) -> list:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if param == "mu":
        return [complex(tok) for tok in tokens]
    return [float(tok) for tok in tokens]


def _glue_values(argv: list) -> list:
    # argparse reads a token that starts with "-" as an option unless it is a
    # plain negative number, so "--values -0.5+1j,1j" would lose its value
    glued = []
    for tok in argv:
        if (glued and glued[-1] == "--values" and tok.startswith("-")
                and not tok.startswith("--")):
            glued[-1] = f"--values={tok}"
        else:
            glued.append(tok)
    return glued


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vndarboux",
        description="Construct and verify Darboux-dressed solutions of "
                    "nonlinear von Neumann equations.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario config")
    run_p.add_argument("config")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed-dump", action="store_true",
                       help="print the resolved seed matrices")

    sweep_p = sub.add_parser("sweep", help="run a parameter sweep")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--param", required=True, choices=["mu", "t_max", "a"])
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values; complex literals for mu "
                              "(e.g. '1j,2j,1+1j' or '-0.5+1j,1j')")
    sweep_p.add_argument("--out", required=True)
    sweep_p.add_argument("--jobs", type=int, default=1)

    args = parser.parse_args(_glue_values(sys.argv[1:] if argv is None else argv))
    if args.command == "run":
        return run(args.config, args.out, seed_dump=args.seed_dump)
    try:
        values = _parse_values(args.values, args.param)
    except ValueError as exc:
        print(f"--values: {exc}", file=sys.stderr)
        return _EXIT_CODES["config_error"]
    return sweep(args.config, args.param, values, args.out, jobs=args.jobs)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipeline: seed -> Lax -> dress -> symmetries -> verify.

Scenario configs are JSON documents; complex numbers are ``[re, im]`` pairs
and matrices nested row arrays of such pairs.  ``run`` writes

* ``trajectory.csv``   t, row-major Re/Im entries of the final state, then
  scalar diagnostics (17 significant digits, bit-exact round trip);
* ``report.json``      the verification report;
* ``scenario.lock.json``  the fully resolved config (selected eigenvalues,
  seed matrices); feeding it back to ``run`` reproduces the CSV bitwise.

Exit codes: 0 all checks pass, 1 a check or a numerical operation failed,
2 schema/config error, 3 the dressing hit a singular <chi|phi>.  ``run`` and
``sweep`` map failures to exit codes and sweep statuses through one table.

One schema walk (``_walk``) is the only code that reads a config: it reports
every error with its field path and turns a valid config into a frozen
``Scenario`` of typed values, which ``execute`` runs.  ``validate_config``,
``build_seed`` and ``execute_scenario`` are the JSON-facing entry points
around it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .darboux_engine import Trajectory, dressed_trajectory
from .errors import (DarbouxError, DefectiveEigenproblem, SingularDarboux,
                     UnsupportedScenario)
from .lax_engine import build_lax, eigenvalue_multiplicity, identity_pair
from .operator_core import frob, time_blocks
from .seed_factory import (SeedSolution, make_anticommuting_seed,
                           make_commuting_seed, make_delta_commuting_seed)
from .symmetry_transforms import (RescaledFlow, ShiftSpec, ShiftedFlow,
                                  reseed_rescale, reseed_shift)
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
    return [[complex_to_pair(M[i, j]) for j in range(M.shape[1])]
            for i in range(M.shape[0])]


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
    pinned eigenvalues; ``shift_x`` is None unless a general X is given.
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
    if (order == "before" and family == "anticommuting"
            and shift_lambda not in (None, 0.0)):
        errs.add("symmetries.order",
                 "a uniform shift breaks the anticommuting structure; "
                 'use order "after" for this family')
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

    if errs:
        return cfg, None, errs
    grid = np.linspace(t_min, t_max, samples)
    grid.setflags(write=False)
    tolerances = DEFAULT
    if cfg.get("tolerances"):
        tolerances = DEFAULT.replaced(
            **{k: float(v) for k, v in cfg["tolerances"].items()})
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
    config: dict
    seed: SeedSolution
    trajectory: Trajectory
    report: VerificationReport
    lock: dict


def execute(scenario: Scenario, tol_scale: float = 1.0) -> ScenarioResult:
    """Seed, Lax solution, dressing, symmetries and checks of one scenario."""
    s = scenario
    tolerances = s.tolerances if tol_scale == 1.0 else s.tolerances.scaled(tol_scale)
    seed = s.build_seed()
    if s.order == "before":
        if s.shift_lambda != 0.0:
            seed = reseed_shift(seed, s.shift_lambda, tolerances=tolerances)
        if s.rescale_y != 1.0:
            seed = reseed_rescale(seed, s.rescale_y)

    lax = build_lax(seed, s.mu, s.nu, s.lam, tolerances=tolerances, **s.pins)
    params = lax.params
    traj = dressed_trajectory(lax, s.times, tolerances=tolerances)

    reference = None
    residual_scale = 1.0
    final = traj
    shifted = s.shift_x is not None or s.shift_lambda != 0.0
    if s.order == "after" and (shifted or s.rescale_y != 1.0):
        spec = seed.spec
        flow = traj.rho_at
        reference = np.array(seed.rho0)
        if shifted:
            if s.shift_x is not None:
                X, size = s.shift_x, frob(s.shift_x)
            else:
                X = ShiftSpec.uniform(s.shift_lambda, seed.dim).X
                size = abs(s.shift_lambda)
            flow = ShiftedFlow(spec, flow, X, tolerances=tolerances)
            reference = seed.rho0 + X
            residual_scale = (1.0 + size) * max(1.0, frob(spec.A) ** spec.n)
        if s.rescale_y != 1.0:
            flow = RescaledFlow(flow, s.rescale_y)
            reference = s.rescale_y * reference
            residual_scale *= s.rescale_y ** 2
        states = np.empty_like(traj.states)
        for block in time_blocks(len(traj.times), seed.dim):
            states[block] = flow.stack(traj.times[block])
        final = dataclasses.replace(traj, states=states, rho_at=flow)

    notes = {"symmetry_order": s.order if "symmetries" in s.config else None,
             "shift_lambda": s.shift_lambda, "rescale_y": s.rescale_y,
             "hermitian_mode": params.hermitian_mode}
    report = run_suite(final, scenario_id=s.config["id"], enabled=s.checks,
                       reference=reference, residual_tol_scale=residual_scale,
                       tolerances=tolerances, notes=notes)

    lock = {
        "config": s.config,
        "resolved": {
            "version": __version__,
            "hermitian_mode": params.hermitian_mode,
            "z_mu": complex_to_pair(params.z_mu),
            "z_nu": complex_to_pair(params.z_nu),
            "z_lambda": (complex_to_pair(params.z_lambda)
                         if params.z_lambda is not None else None),
            "z_nu_multiplicity": eigenvalue_multiplicity(seed, params.nu,
                                                         params.z_nu),
            "rho0": matrix_to_nested(seed.rho0),
            "A": matrix_to_nested(seed.spec.A),
            "phi0": [complex_to_pair(x) for x in lax.phi0],
            "chi0": [complex_to_pair(x) for x in lax.chi0],
            "singular_t": traj.singular_t,
        },
    }
    return ScenarioResult(config=s.config, seed=seed, trajectory=final,
                          report=report, lock=lock)


def execute_scenario(cfg: dict, tol_scale: float = 1.0) -> ScenarioResult:
    return execute(read_scenario(cfg), tol_scale)


# ---------------------------------------------------------------------------
# output files

def _atomic_write(path: str, text: str):
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}")
    # mode 0o666 lets the umask decide, as for a file made by open()
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_trajectory_csv(path: str, result: ScenarioResult):
    """Write ``trajectory.csv``: one row per sample, every number as ``%.17g``.

    Each row goes through one prebuilt format string in which the columns of
    absent diagnostics are fixed empty; on Python floats ``"%.17g" % x`` is
    ``f"{x:.17g}"``, byte for byte.  A row's state entries are one
    ``tolist()`` of that state's row-major (Re, Im) pairs, read from a
    C-ordered copy of the stack only where the stack is not C-ordered.
    """
    traj = result.trajectory
    dim = result.seed.dim
    header = ["t"]
    for i in range(dim):
        for j in range(dim):
            header += [f"re_{i}_{j}", f"im_{i}_{j}"]
    header += ["phi_norm", "form_gap", "hermiticity_gap", "min_eig",
               "F_re", "F_im", "p_dot_norm"]
    diag = traj.diagnostics
    cells = [None] * 7
    if diag is not None:
        F = diag.F_value
        cells = [diag.phi_norm, diag.form_gap, diag.hermiticity_gap,
                 diag.min_eig, None if F is None else F.real,
                 None if F is None else F.imag, diag.p_dot_norm]
    row = ",".join(["%.17g"] * (1 + 2 * dim * dim)
                   + ["" if c is None else "%.17g" for c in cells])
    # per sample: the time, then the diagnostics that are present
    scalars = np.column_stack(
        [traj.times] + [c for c in cells if c is not None]).tolist()
    pairs = np.ascontiguousarray(traj.states, dtype=complex).view(float)
    pairs = pairs.reshape(len(pairs), 2 * dim * dim)
    lines = [",".join(header)]
    for (t, *values), entries in zip(scalars, pairs):
        lines.append(row % (t, *entries.tolist(), *values))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_trajectory_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a trajectory.csv back into (times, ``(N, d, d)`` state stack)."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    dim = int(np.sqrt(sum(c.startswith("re_") for c in rows[0])))
    times = np.empty(len(rows) - 1)
    pairs = np.empty((len(rows) - 1, 2 * dim * dim))
    # filled row by row: a list of every cell as a Python float would hold
    # several times the memory of the stack
    for k, row in enumerate(rows[1:]):
        times[k] = float(row[0])
        pairs[k] = [float(x) for x in row[1:1 + 2 * dim * dim]]
    # (Re, Im) pairs viewed as complex keep every bit, signed zeros included
    return times, pairs.view(complex).reshape(-1, dim, dim)


def write_outputs(result: ScenarioResult, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), result)
    _atomic_write(os.path.join(out_dir, "report.json"),
                  json.dumps(result.report.to_dict(), indent=2) + "\n")
    _atomic_write(os.path.join(out_dir, "scenario.lock.json"),
                  json.dumps(result.lock, indent=2) + "\n")


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


# failures of a scenario: exception types, exit code, sweep status and the
# prefix of the one-line message; the first matching row wins
_FAILURES = (
    ((ValueError, UnsupportedScenario), 2, "config_error", "config error"),
    (SingularDarboux, 3, "singular", "singular dressing"),
    (DefectiveEigenproblem, 1, "check_failed", "defective eigenproblem"),
    (DarbouxError, 1, "check_failed", "numerical check failure"),
    (ArithmeticError, 1, "check_failed", "numerical failure"),
)


def _attempt(scenario: Scenario, tol_scale: float):
    """Run one scenario: ``(result or None, exit code, status, message)``.

    The message is None when every check passed.
    """
    try:
        result = execute(scenario, tol_scale=tol_scale)
    except (ValueError, DarbouxError, ArithmeticError) as exc:
        code, status, prefix = next((code, status, prefix)
                                    for types, code, status, prefix in _FAILURES
                                    if isinstance(exc, types))
        return None, code, status, f"{prefix}: {exc}"
    if result.trajectory.singular_t is not None:
        return (result, 3, "singular",
                f"singular dressing at t = {result.trajectory.singular_t:.6g}; "
                "trajectory truncated")
    if not result.report.overall:
        failed = [c.name for c in result.report.checks if not c.passed]
        return result, 1, "check_failed", f"checks failed: {', '.join(failed)}"
    return result, 0, "ok", None


def run(config_path: str, out_dir: str, tol_scale: float = 1.0,
        seed_dump: bool = False) -> int:
    cfg, errors = _load_config(config_path)
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        return 2
    result, code, _, message = _attempt(read_scenario(cfg), tol_scale)
    if result is not None:
        if seed_dump:
            with np.printoptions(precision=17, linewidth=200):
                print(f"rho0 =\n{result.seed.rho0}\nA =\n{result.seed.spec.A}")
        write_outputs(result, out_dir)
    if message is not None:
        print(message, file=sys.stderr)
    return code


def _check_value(report: VerificationReport, *names: str) -> float | None:
    for check in report.checks:
        if check.name in names:
            return check.worst_value
    return None


def _run_sweep_point(args: tuple) -> dict:
    scenario, out_dir, tol_scale, param, value_repr, index = args
    row = {"index": index, "param": param, "value": value_repr,
           "out_dir": out_dir, "status": "ok", "overall": False,
           "worst_residual": "", "worst_spectral_gap": ""}
    result, _, row["status"], message = _attempt(scenario, tol_scale)
    if result is None:
        print(f"{param}={value_repr}: {message}", file=sys.stderr)
        return row
    write_outputs(result, out_dir)
    report = result.report
    row["overall"] = report.overall
    res = _check_value(report, "residual")
    gap = _check_value(report, "spectrum", "moments")
    row["worst_residual"] = _fmt(res) if res is not None else ""
    row["worst_spectral_gap"] = _fmt(gap) if gap is not None else ""
    return row


def sweep(config_path: str, param: str, values, out_dir: str,
          jobs: int = 1, tol_scale: float = 1.0) -> int:
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
        return 2

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
            rows_by_index[idx] = {
                "index": idx, "param": param, "value": value_repr,
                "out_dir": sub_dir, "status": "config_error",
                "overall": False, "worst_residual": "",
                "worst_spectral_gap": ""}
            continue
        points.append((scenario, sub_dir, tol_scale, param, value_repr, idx))

    workers = min(jobs, len(points))  # a pool starts all its workers at once
    if workers > 1:
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
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(row[h]) for h in header))
    _atomic_write(os.path.join(out_dir, "summary.csv"), "\n".join(lines) + "\n")

    return 0 if all(r["status"] == "ok" for r in rows) else 1


def _parse_values(text: str, param: str) -> list:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if param == "mu":
        return [complex(tok) for tok in tokens]
    return [float(tok) for tok in tokens]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vndarboux",
        description="Construct and verify Darboux-dressed solutions of "
                    "nonlinear von Neumann equations.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario config")
    run_p.add_argument("config")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--tol-scale", type=float, default=1.0,
                       help="global tolerance multiplier")
    run_p.add_argument("--seed-dump", action="store_true",
                       help="print the resolved seed matrices")

    sweep_p = sub.add_parser("sweep", help="run a parameter sweep")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--param", required=True, choices=["mu", "t_max", "a"])
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values; complex literals for mu "
                              "(e.g. '1j,2j,1+1j')")
    sweep_p.add_argument("--out", required=True)
    sweep_p.add_argument("--jobs", type=int, default=1)
    sweep_p.add_argument("--tol-scale", type=float, default=1.0)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.out, tol_scale=args.tol_scale,
                   seed_dump=args.seed_dump)
    try:
        values = _parse_values(args.values, args.param)
    except ValueError as exc:
        print(f"--values: {exc}", file=sys.stderr)
        return 2
    return sweep(args.config, args.param, values, args.out,
                 jobs=args.jobs, tol_scale=args.tol_scale)


if __name__ == "__main__":
    sys.exit(main())

"""The files a run writes, as text: ``trajectory.csv`` and the
``scenario.lock.json`` layout, each installed under its name by one atomic
name change.

``scenario_cli.write_outputs`` writes a result's three files with them.

``atomic_write`` writes a file in full under a temporary name first.  Onto
a regular file it then swaps the two names in one step (renameat2's
``RENAME_EXCHANGE``, on glibc) and unlinks the old file; in every other
case, or when the swap fails, it renames with ``os.replace``.  Either way
a reader sees the whole old file or the whole new one.  Nothing is
fsynced.  On ext4 (``auto_da_alloc``, the default), ``os.replace`` onto
an existing file gives the new file its disk blocks and starts writing it,
and freeing those blocks is most of what the next replacement costs; a
swapped-in file gets blocks only when the kernel writes it back (after
30 s by default), so a rerun before then frees none.  So a crash soon
after a run may leave an output empty, as a first run into a fresh
``--out`` always could.  Every output can be made again by rerunning the
config or replaying the lock.
"""

from __future__ import annotations

import csv
import ctypes
import json
import os
import stat

import numpy as np

from .operator_core import groups

# glibc, as libc_function opened it, or None on another C library; ... until
# the first call
_glibc = ...


def libc_function(name: str, *argtypes):
    """glibc's function ``name`` through ``ctypes``, declared to take
    ``argtypes`` and return a C int, or None: on another C library (musl,
    macOS), on Windows, or when glibc has no such function.  The C library
    is opened once per process."""
    global _glibc
    if _glibc is ...:
        try:
            libc = ctypes.CDLL(None)  # TypeError on Windows
            libc.gnu_get_libc_version  # glibc only
        except (OSError, AttributeError, TypeError):
            libc = None
        _glibc = libc
    function = getattr(_glibc, name, None)
    if function is not None:
        function.argtypes, function.restype = argtypes, ctypes.c_int
    return function


# renameat2(2): a path relative to the working directory, and the flag that
# swaps the two names
_AT_FDCWD, _RENAME_EXCHANGE = -100, 2


def _exchanged(tmp: str, path: str) -> bool:
    # whether the names tmp and path were swapped in one step; only onto a
    # regular file: a missing target, a directory or a symlink is left to
    # os.replace, as is a C library without renameat2 or a failed call
    # (EINVAL on a filesystem without the flag, ENOSYS)
    try:
        if not stat.S_ISREG(os.lstat(path).st_mode):
            return False
    except OSError:  # missing, or below a path that is not a directory
        return False
    renameat2 = libc_function("renameat2", ctypes.c_int, ctypes.c_char_p,
                              ctypes.c_int, ctypes.c_char_p, ctypes.c_uint)
    return renameat2 is not None and renameat2(
        _AT_FDCWD, os.fsencode(tmp), _AT_FDCWD, os.fsencode(path),
        _RENAME_EXCHANGE) == 0


def atomic_write(path: str, chunks):
    """Write the strings of ``chunks`` in turn to a temporary file in the
    directory of ``path``, then install it as ``path`` by one name change.

    When ``path`` is a regular file the two names are swapped
    (``_exchanged``) and the temporary name, which then holds the old file,
    is unlinked; otherwise, or when the swap fails, the temporary file is
    renamed onto ``path`` by ``os.replace``, with its errors.  A reader of
    ``path`` sees the whole old file or the whole new one, never a part or
    nothing, and no temporary file is left.  Nothing is fsynced, so a crash
    soon after the write may leave ``path`` empty, as it may after a first
    write to a fresh name (see the module docstring).
    """
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}")
    # mode 0o666 lets the umask decide, as for a file made by open()
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        if _exchanged(tmp, path):
            os.unlink(tmp)
        else:
            os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# rows that write_trajectory_csv joins and writes at a time
_CSV_BLOCK_ROWS = 64


def _magnitude_texts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``"%.17g" % abs(x)`` of each float64 in ``values``, which may be
    empty, as an object array, and where ``"%.17g" % x`` puts a ``"-"``
    before that text.

    Each distinct magnitude (the bits without the sign bit, ``groups``) is
    formatted once.  The sign bit gives the minus, except on a NaN, which
    Python prints unsigned.
    """
    magnitude = np.abs(values).view(np.uint64)
    first, group = groups(magnitude)
    distinct = magnitude[first].view(np.float64).tolist()
    texts = ("%.17g," * len(distinct) % tuple(distinct)).split(",")
    negative = np.signbit(values) & ~np.isnan(values)
    return np.fromiter(texts, dtype=object, count=len(texts))[group], negative


def write_trajectory_csv(path: str, result):
    """Write ``trajectory.csv``: one row per sample, every number as ``%.17g``.

    The columns of absent diagnostics are fixed empty, and a state column
    that holds the same 64 bits in every row is fixed to its value,
    formatted once.  The other cells (the time, the varying state entries
    and the present diagnostics) are grouped in one pass over the file,
    each distinct magnitude formatted once (``_magnitude_texts``); on
    Python floats ``"%.17g" % x`` is ``f"{x:.17g}"``, byte for byte.  Their
    texts are joined with the fixed text and streamed to the file 64 rows
    at a time, so the file's text is never held whole.  The state entries
    are row-major (Re, Im) pairs, read from a C-ordered copy of the stack
    only where the stack is not C-ordered.
    """
    traj = result.trajectory
    dim = traj.states.shape[-1]
    header = (["t"] + [f"{part}_{i}_{j}" for i in range(dim) for j in range(dim)
                       for part in ("re", "im")]
              + ["phi_norm", "form_gap", "hermiticity_gap", "min_eig",
                 "F_re", "F_im", "p_dot_norm"])
    diag = traj.diagnostics
    cells = [None] * 7
    if diag is not None:
        F, spectrum = diag.F_value, diag.spectrum
        # min_eig is the spectrum's first column
        cells = [diag.phi_norm, diag.form_gap, diag.hermiticity_gap,
                 None if spectrum is None else spectrum[:, 0],
                 None if F is None else F.real,
                 None if F is None else F.imag, diag.p_dot_norm]
    pairs = np.ascontiguousarray(traj.states, dtype=complex).view(float)
    pairs = pairs.reshape(len(pairs), 2 * dim * dim)
    bits = pairs.view(np.uint64)
    # equal bits in every row; a file without rows has no constant column
    constant = (bits == bits[:1]).all(axis=0) & (len(bits) > 0)
    first = pairs[0].tolist() if len(pairs) else [0.0] * len(constant)
    # the row with a NUL in place of each cell formatted per row, split there:
    # the fixed text before each such cell, and after the last one
    *before, end = (",".join(
        ["\0"] + ["%.17g" % x if c else "\0" for c, x in zip(constant, first)]
        + ["" if c is None else "\0" for c in cells]) + "\n").split("\0")
    count = len(before)
    # before[k] at index k, and followed by the cell's minus at count + k
    before = np.array(before + [b + "-" for b in before], dtype=object)
    # per sample: the time, the varying state entries, then the diagnostics
    # that are present
    values = np.column_stack([traj.times, pairs[:, ~constant]]
                             + [c for c in cells if c is not None])
    texts, negative = _magnitude_texts(values.ravel())
    texts = texts.reshape(values.shape)
    lead = negative.reshape(values.shape) * count + np.arange(count)

    def blocks():
        yield ",".join(header) + "\n"
        for start in range(0, len(values), _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            rows = np.empty((len(texts[block]), 2 * count + 1), dtype=object)
            rows[:, 1::2] = texts[block]
            rows[:, :-1:2] = before[lead[block]]
            rows[:, -1] = end
            yield "".join(rows.ravel().tolist())

    atomic_write(path, blocks())


def read_trajectory_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a trajectory.csv back into (times, ``(N, d, d)`` state stack)."""
    with open(path, newline="") as handle:
        # one line per row: no cell holds a line break
        count = sum(1 for _ in handle) - 1
        handle.seek(0)
        rows = csv.reader(handle)
        dim = int(np.sqrt(sum(c.startswith("re_") for c in next(rows))))
        times = np.empty(count)
        pairs = np.empty((count, 2 * dim * dim))
        # filled as the rows are read: the file's cells, as lists of strings
        # or Python floats, would hold several times the memory of the stack
        for k, row in enumerate(rows):
            times[k] = float(row[0])
            pairs[k] = [float(x) for x in row[1:1 + 2 * dim * dim]]
    # (Re, Im) pairs viewed as complex keep every bit, signed zeros included
    return times, pairs.view(complex).reshape(-1, dim, dim)


# json.dumps(M, indent=2) of a matrix at depth 2 of the lock is its compact
# text, json.dumps(M) within its outer three brackets, with these replaced in turn
_LOCK_MATRIX_BREAKS = (("]], [[", "\n        ]\n      ],\n      [\n        [\n          "),
                       ("], [", "\n        ],\n        [\n          "),
                       (", ", ",\n          "))


def _lock_matrix(M: list) -> str:
    text = json.dumps(M)[3:-3]
    for compact, indented in _LOCK_MATRIX_BREAKS:
        text = text.replace(compact, indented)
    return f"[\n      [\n        [\n          {text}\n        ]\n      ]\n    ]"


def lock_text(lock: dict) -> str:
    """``json.dumps(lock, indent=2)``, with the lock's two matrices, most of
    its floats, rendered by json's C encoder (``_lock_matrix``).

    The stdlib's indented encoder, which is pure Python, renders the rest
    with ``null`` in place of ``rho0`` and ``A``.  Only numbers follow them
    in ``resolved``, the lock's last entry, so the last occurrence of the two
    is the place to splice, whatever the config holds.  Floats hold no
    brackets and no ``", "``, and both encoders print them by
    ``float.__repr__``.
    """
    resolved = lock["resolved"]
    head, _, tail = json.dumps(
        {**lock, "resolved": {**resolved, "rho0": None, "A": None}},
        indent=2).rpartition('"rho0": null,\n    "A": null')
    return (f'{head}"rho0": {_lock_matrix(resolved["rho0"])},\n'
            f'    "A": {_lock_matrix(resolved["A"])}{tail}')

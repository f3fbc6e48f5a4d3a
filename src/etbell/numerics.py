"""Matrix checks, strict JSON readers and the file writer shared by the
other modules.

Matrices are plain ``numpy`` arrays of ``complex128``; the functions here add
the validation the rest of the package leans on (finite entries, shape
discipline, unitarity checks), with the strict JSON field readers and the
one file writer (:func:`open_replacing`) every output goes through.

Matrices returned here are read-only and safe to share across threads.
numpy is imported by the functions that build or read arrays, so the rest
of this module runs on the standard library alone.
"""

from __future__ import annotations

import math
import numbers
import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

#: Default tolerance for unitarity checks. Every matrix in this package
#: comes from closed-form entries, far from conditioning limits, so a fixed
#: default is safe; all checks accept an override.
DEFAULT_TOL = 1e-10


def as_matrix(values) -> np.ndarray:
    """Return ``values`` as a read-only, finite, 2-d complex array."""
    import numpy as np

    m = np.array(values, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    m.setflags(write=False)
    return m


def unitarity_defect(m) -> float:
    """Largest entry of ``|m^dag m - I|``; zero for an exact unitary."""
    import numpy as np

    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("unitarity is defined for square matrices only")
    if m.size == 0:
        raise ValueError(f"unitarity is undefined for an empty matrix of shape {m.shape}")
    residual = m.conj().T @ m - np.eye(m.shape[0])
    return float(np.abs(residual).max())


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    return unitarity_defect(m) <= tol


def matrix_to_json(m) -> dict:
    """Row-major JSON form: ``{rows, cols, entries: [[re, im], ...]}``."""
    m = as_matrix(m)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def json_fields(data, what: str, required, optional=()) -> None:
    """Check that ``data`` is a JSON object with every ``required`` key and
    no key outside ``required`` and ``optional``."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object, got {type(data).__name__}")
    for key in required:
        if key not in data:
            raise ValueError(f"{what} JSON is missing {key!r}")
    for key in data:
        if key not in required and key not in optional:
            raise ValueError(f"{what} JSON has unknown key {key!r}")


def is_integer(value) -> bool:
    """An integer (Python or numpy), not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def trial_count(value) -> int:
    """A trial count as an int: an integer (Python or numpy, not a bool) of at least 1."""
    if not is_integer(value):
        raise ValueError(f"trial count must be an integer, got {value!r}")
    if value < 1:
        raise ValueError("need at least one trial")
    return int(value)


def seeded_rng(seed) -> np.random.Generator:
    """numpy Generator for a non-negative integer seed."""
    import numpy as np

    if not is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(int(seed))


def json_dim(value, field: str) -> int:
    """A positive JSON integer (not a bool or a float)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{field} must be a positive integer, got {value!r}")
    return value


def json_real(value, field: str) -> float:
    """A finite JSON number (not a bool or a string) as a float."""
    if (
        type(value) is not float
        and (isinstance(value, bool) or not isinstance(value, (int, float)))
        or not math.isfinite(value)
    ):
        raise ValueError(f"{field} must be a finite number, got {value!r}")
    return float(value)


def open_replacing(path):
    """Open ``path`` for writing text, replacing an existing regular file
    instead of truncating it.

    ext4 flushes a file truncated to zero to disk when it is closed, a wait
    of tens to hundreds of milliseconds that follows the disk's load.
    Unlinking returns at once while the old file's data is not yet written
    back, as when a run rewrites its own recent output. A symlink is
    written through, not replaced.
    """
    if os.path.isfile(path) and not os.path.islink(path):
        os.unlink(path)
    return open(path, "w")


def matrix_from_json(data: dict) -> np.ndarray:
    """Strict inverse of :func:`matrix_to_json`."""
    import numpy as np

    json_fields(data, "matrix", ("rows", "cols", "entries"))
    rows = json_dim(data["rows"], "rows")
    cols = json_dim(data["cols"], "cols")
    entries = data["entries"]
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ValueError(f"entries must be a list of rows*cols = {rows * cols} pairs")
    parts: list = []
    for k, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"entries[{k}] must be a [re, im] pair, got {pair!r}")
        for x in pair:
            if type(x) is not float or not math.isfinite(x):
                json_real(x, f"entries[{k}]")  # raises unless x is a JSON integer
        parts += pair
    # consecutive (re, im) float64s viewed as complex128 are complex(re, im)
    return as_matrix(np.array(parts, dtype=float).view(complex).reshape(rows, cols))

"""Minimal dense complex linear algebra shared by the optics and state modules.

Matrices are plain ``numpy`` arrays of ``complex128``; the functions here add
the validation the rest of the package leans on (finite entries, shape
discipline, unitarity checks), with the strict JSON field readers and the
one file writer (:func:`open_replacing`) every output goes through.
:class:`StateVector` pairs an amplitude vector with basis labels so states
stay self-describing when subsystems combine.

All values are immutable after construction (arrays are marked read-only)
and safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

#: Default tolerance for unitarity and normalization checks. Every matrix in
#: this package comes from closed-form entries, far from conditioning limits,
#: so a fixed default is safe; all checks accept an override.
DEFAULT_TOL = 1e-10


def as_matrix(values) -> np.ndarray:
    """Return ``values`` as a read-only, finite, 2-d complex array."""
    m = np.array(values, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    m.setflags(write=False)
    return m


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit dimension check."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    out = a @ b
    out.setflags(write=False)
    return out


def tensor(a, b):
    """Kronecker product of two matrices or of two labeled state vectors.

    For :class:`StateVector` operands the basis labels concatenate pairwise
    (``"S" x "L" -> "SL"``).
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        labels = tuple(la + lb for la in a.labels for lb in b.labels)
        return StateVector(np.kron(a.amplitudes, b.amplitudes), labels)
    if isinstance(a, StateVector) or isinstance(b, StateVector):
        raise TypeError("tensor requires two matrices or two StateVectors")
    return as_matrix(np.kron(as_matrix(a), as_matrix(b)))


def unitarity_defect(m) -> float:
    """Largest entry of ``|m^dag m - I|``; zero for an exact unitary."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("unitarity is defined for square matrices only")
    if m.size == 0:
        raise ValueError(f"unitarity is undefined for an empty matrix of shape {m.shape}")
    residual = m.conj().T @ m - np.eye(m.shape[0])
    return float(np.abs(residual).max())


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    return unitarity_defect(m) <= tol


@dataclass(frozen=True, eq=False)
class StateVector:
    """Amplitude vector over a labeled basis.

    ``labels`` defaults to ``("1", "2", ...)``. Amplitudes are stored
    read-only; ``normalize`` returns a fresh vector.
    """

    amplitudes: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must form a nonempty 1-d vector")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        labels = tuple(self.labels) or tuple(str(k + 1) for k in range(amps.size))
        if len(labels) != amps.size:
            raise ValueError("need exactly one basis label per amplitude")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / n, self.labels)

    def inner(self, other: "StateVector") -> complex:
        """Hermitian inner product ``<self|other>``."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in inner product")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def allclose(self, other: "StateVector", tol: float = 1e-12) -> bool:
        return (
            self.dim == other.dim
            and float(np.abs(self.amplitudes - other.amplitudes).max()) <= tol
        )


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


def open_replacing(path, newline=None):
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
    return open(path, "w", newline=newline)


def matrix_from_json(data: dict) -> np.ndarray:
    """Strict inverse of :func:`matrix_to_json`."""
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

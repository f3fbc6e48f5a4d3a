"""Shared helpers: seeded random unitaries, independent closed-form
matrices used as oracles against the optics module, dense views of
states, which hold only their support, a tracemalloc peak, and the block
sizes and trial counts the block-wise event functions are checked at."""

import tracemalloc

import numpy as np
import pytest
from scipy.stats import unitary_group

from etbell import events
from etbell.states import MultiPartyState


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` under tracemalloc: the peak of the bytes
    traced during the call, and the call's result."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.fixture(params=[1, 7, events.BLOCK_TRIALS])
def trial_block(request, monkeypatch):
    """Walk the trials in blocks of 1, 7 and the default
    ``events.BLOCK_TRIALS`` trials; the block size."""
    monkeypatch.setattr(events, "BLOCK_TRIALS", request.param)
    return request.param


def block_edges(block: int) -> list[int]:
    """Trial counts at the edges of blocks of ``block`` trials: 1, one
    short of a block, a block, one past it, and one past two blocks."""
    return sorted({1, max(block - 1, 1), block, block + 1, 2 * block + 1})


def random_unitary(dim: int, seed: int) -> np.ndarray:
    return unitary_group.rvs(dim, random_state=seed)


def random_state_vector(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def dense_state(dims, vector, level_labels=()) -> MultiPartyState:
    """The state with the dense C-order amplitude ``vector``: its nonzero
    cells as ``(levels, amplitude)`` support pairs."""
    vector = np.asarray(vector, dtype=complex).reshape(-1)
    cells = np.flatnonzero(vector)
    levels = zip(*(axis.tolist() for axis in np.unravel_index(cells, tuple(dims))))
    return MultiPartyState(dims, list(zip(levels, vector[cells].tolist())), level_labels)


def dense_tensor(state: MultiPartyState) -> np.ndarray:
    """The amplitudes as an array of shape ``state.dims``."""
    return state.amplitudes.reshape(state.dims)


def states_close(a: MultiPartyState, b: MultiPartyState, tol: float) -> bool:
    """Same dims, and no dense amplitude differs by more than ``tol``."""
    return a.dims == b.dims and float(np.abs(a.amplitudes - b.amplitudes).max()) <= tol


def splitter_literals(alpha: float, beta: float, gamma: float):
    """The three analyzer splitters written out entry by entry."""
    s2, s3 = np.sqrt(2.0), np.sqrt(3.0)
    b1 = np.array(
        [
            [1, 0, 0],
            [0, 1 / s2, np.exp(1j * alpha) / s2],
            [0, 1 / s2, -np.exp(1j * alpha) / s2],
        ]
    )
    b2 = np.array(
        [
            [s2 / s3, 0, np.exp(1j * beta) / s3],
            [0, 1, 0],
            [1 / s3, 0, -s2 * np.exp(1j * beta) / s3],
        ]
    )
    b3 = np.array(
        [
            [1 / s2, np.exp(1j * gamma) / s2, 0],
            [1 / s2, -np.exp(1j * gamma) / s2, 0],
            [0, 0, 1],
        ]
    )
    return b1, b2, b3


def analyzer_closed_form(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Closed-form three-splitter product, independent of the network code."""
    ea, eb, eg = np.exp(1j * alpha), np.exp(1j * beta), np.exp(1j * gamma)
    s3 = np.sqrt(3.0)
    return (1 / s3) * np.array(
        [
            [1, (s3 * eg + eb) / 2, ea * (s3 * eg - eb) / 2],
            [1, (-s3 * eg + eb) / 2, -ea * (s3 * eg + eb) / 2],
            [1, -eb, np.exp(1j * (beta + alpha))],
        ]
    )


def dft_literal(n: int) -> np.ndarray:
    """Direct double-loop DFT construction."""
    w = np.exp(2j * np.pi / n)
    m = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            m[i, j] = w ** (i * j)
    return m / np.sqrt(n)


def measurement_basis_literal(n: int, phis) -> list[np.ndarray]:
    """Projected-basis vectors written directly from the defining formula:
    component j of vector k is conj(w)^((k-1)(j-1)) e^{i phi_j} / sqrt(N)."""
    wbar = np.exp(-2j * np.pi / n)
    phases = [0.0, *phis]
    vectors = []
    for k in range(n):
        vec = np.array(
            [wbar ** (k * j) * np.exp(1j * phases[j]) for j in range(n)]
        )
        vectors.append(vec / np.sqrt(n))
    return vectors

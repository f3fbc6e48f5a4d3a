"""Multiparty entangled states, expectation values, and Mermin functionals.

Time-bin qubits use the basis labels ``S`` (short, level 1) and ``L`` (long,
level 2); n-level systems use ``1..n``. :func:`mermin_n` evaluates the
n-party Mermin polynomial of :func:`~etbell.events.mermin_coefficients` with
dichotomic settings; for three parties it is
``mu = |<A0 B0 C1> + <A0 B1 C0> + <A1 B0 C0> - <A1 B1 C1>|``, and on the GHZ
state with ``(A0, A1) = (sigma_y, sigma_x)`` per party it reaches the
algebraic maximum 4.

``prepare_postselected`` models the ideal simultaneous-emission source: one
photon per party propagates through that party's network, and only joint
arrival-bin outcomes passing the coincidence rule are kept. The kept cells
come from each party's network column alone, so preparation costs about the
output state, never the tensor over all joint outcomes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass

import numpy as np

from . import optics  # executed only when prepare_postselected composes a network
from .events import EventTable, mermin_coefficients, mermin_mu
from .numerics import (
    as_matrix,
    is_integer,
    json_dim,
    json_fields,
    json_real,
    seeded_rng,
    trial_count,
)

PAULI_X = as_matrix(((0, 1), (1, 0)))
PAULI_Y = as_matrix(((0, -1j), (1j, 0)))
PAULI_Z = as_matrix(((1, 0), (0, -1)))

QUBIT_LABELS = ("S", "L")


def _default_labels(dim: int) -> tuple[str, ...]:
    return tuple(str(k + 1) for k in range(dim))


@dataclass(frozen=True, eq=False)
class MultiPartyState:
    """Normalized amplitude vector over a labeled multi-party product basis."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray
    level_labels: tuple[tuple[str, ...], ...] = ()
    # Take a complex vector over without a copy and make it read-only: only
    # for a fresh array the package built for the state.
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt=False):
        if not all(is_integer(d) for d in self.dims):
            raise ValueError(f"dims must be integers, got {tuple(self.dims)!r}")
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("each party needs at least one level")
        amps = (np.asarray if _adopt else np.array)(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != math.prod(dims):
            raise ValueError("amplitude count must equal the product of dims")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"state must be normalized (norm {norm})")
        labels = tuple(tuple(lv) for lv in self.level_labels) or tuple(
            _default_labels(d) for d in dims
        )
        if len(labels) != len(dims) or any(
            len(lv) != d for lv, d in zip(labels, dims)
        ):
            raise ValueError("level labels must match dims party by party")
        if any(len(set(lv)) != len(lv) for lv in labels):
            raise ValueError("level labels must be distinct within each party")
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "level_labels", labels)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)

    def basis_index(self, levels: tuple[int, ...]) -> int:
        return int(np.ravel_multi_index(levels, self.dims))

    def amplitude(self, labels: tuple[str, ...]) -> complex:
        levels = tuple(
            self.level_labels[p].index(lab) for p, lab in enumerate(labels)
        )
        return complex(self.amplitudes[self.basis_index(levels)])

    def iter_amplitudes(self):
        """Yield ``(per-party label tuple, amplitude)`` for nonzero entries."""
        for levels in itertools.product(*(range(d) for d in self.dims)):
            amp = self.amplitudes[self.basis_index(levels)]
            if amp != 0:
                labels = tuple(
                    self.level_labels[p][lv] for p, lv in enumerate(levels)
                )
                yield labels, complex(amp)

    def allclose(self, other: "MultiPartyState", tol: float = 1e-12) -> bool:
        return (
            self.dims == other.dims
            and float(np.abs(self.amplitudes - other.amplitudes).max()) <= tol
        )


def ghz_state(n: int) -> MultiPartyState:
    """(|S...S> + |L...L>)/sqrt(2) over n time-bin qubits."""
    if n < 2:
        raise ValueError("GHZ state needs at least two parties")
    return _diagonal_state((2,) * n, np.ones(2), (QUBIT_LABELS,) * n)[0]


def qunit_state(n: int) -> MultiPartyState:
    """(sum_i |i...i>)/sqrt(n) over n parties with n levels each."""
    if n < 2:
        raise ValueError("qunit state needs at least two parties")
    return _diagonal_state((n,) * n, np.ones(n), (_default_labels(n),) * n)[0]


def _diagonal_state(dims, diagonal, level_labels):
    """``(state, weight)``: ``diagonal[i]`` on ``|i...i>`` renormalized, and its
    squared norm, summed over the dense layout in ``np.sum``'s order so the
    bytes match renormalizing a dense kept tensor. Raises if the weight is zero."""
    amps = np.zeros(math.prod(dims), dtype=complex)
    # |i...i> sits at i times the sum of the C-order strides
    cells = np.arange(len(diagonal)) * sum(math.prod(dims[p + 1 :]) for p in range(len(dims)))
    amps[cells] = diagonal
    weight = np.abs(amps)
    weight = float(np.sum(np.square(weight, out=weight)))
    if weight <= 0.0:
        raise ValueError("postselection empty")
    amps[cells] = diagonal / math.sqrt(weight)
    return MultiPartyState(dims, amps, level_labels, _adopt=True), weight


#: Largest setting-by-level tensor the correlator kernel builds: 2**24
#: complex entries (256 MB), the size of the dense 12-qubit operator.
MAX_CORRELATOR_ENTRIES = 2**24


def _apply_stacks(state: MultiPartyState, stacks) -> np.ndarray:
    """Apply per-party operator stacks to the state, one axis at a time.

    ``stacks[p]`` has shape ``(k_p, d_p, d_p)``. The result has shape
    ``(k_1..k_n, d_1..d_n)``; entry ``[s, :]`` is the state tensor of
    ``(O_{1,s_1} x ... x O_{n,s_n}) |psi>``. Raises before allocating when
    the result would exceed :data:`MAX_CORRELATOR_ENTRIES`.
    """
    n = state.n_parties
    if len(stacks) != n:
        raise ValueError("need exactly one operator stack per party")
    for stack, d in zip(stacks, state.dims):
        if stack.shape[1:] != (d, d):
            raise ValueError(f"operator shape {stack.shape[1:]} does not match dim {d}")
    entries = math.prod(len(stack) for stack in stacks) * math.prod(state.dims)
    if entries > MAX_CORRELATOR_ENTRIES:
        raise ValueError(
            f"correlator tensor of {entries} entries exceeds the limit of "
            f"{MAX_CORRELATOR_ENTRIES} ({n} parties)"
        )
    psi = state.tensor_view()
    for p, stack in enumerate(stacks):
        # setting axes 0..p-1 lead, so party p's level axis sits at p + p
        psi = np.moveaxis(np.tensordot(stack, psi, axes=([2], [2 * p])), (0, 1), (p, 2 * p + 1))
    return psi


def correlators(state: MultiPartyState, stacks, tol: float = 1e-12) -> np.ndarray:
    """All correlators ``E[s_1..s_n] = <psi| O_{1,s_1} x ... x O_{n,s_n} |psi>``.

    ``stacks[p]`` lists party ``p``'s Hermitian observables; the result is a
    real array of shape ``(len(stacks[0]), ..., len(stacks[n-1]))``.
    """
    stacks = [np.stack([as_matrix(o) for o in stack]) for stack in stacks]
    for stack in stacks:
        if stack.shape[1] != stack.shape[2] or (
            float(np.abs(stack - stack.conj().transpose(0, 2, 1)).max()) > tol
        ):
            raise ValueError("observables must be square Hermitian matrices")
    n = state.n_parties
    applied = _apply_stacks(state, stacks)
    values = np.tensordot(applied, state.tensor_view().conj(), axes=(range(n, 2 * n), range(n)))
    worst = float(np.abs(values.imag).max())
    if worst > tol:
        raise ArithmeticError(f"expectation has imaginary part {worst}")
    return values.real


def expectation(state: MultiPartyState, observables, tol: float = 1e-12) -> float:
    """<psi| O_1 x ... x O_n |psi> for Hermitian per-party observables."""
    return float(correlators(state, [[o] for o in observables], tol).reshape(-1)[0])


def is_dichotomic(observable, tol: float = 1e-12) -> bool:
    """Hermitian with spectrum {+1, -1} (both eigenvalues present)."""
    o = as_matrix(observable)
    if o.shape[0] != o.shape[1]:
        return False
    if float(np.abs(o - o.conj().T).max()) > tol:
        return False
    eigs = np.linalg.eigvalsh(o)
    return (
        bool(np.all(np.abs(np.abs(eigs) - 1.0) <= tol))
        and eigs.min() < 0 < eigs.max()
    )


@dataclass(frozen=True)
class MerminResult:
    """Mermin terms, in :func:`~etbell.events.mermin_coefficients` order,
    and ``mu``."""

    terms: tuple[float, ...]
    mu: float


def standard_settings(n: int = 3):
    """Per party: setting 0 measures sigma_y, setting 1 measures sigma_x."""
    return ((PAULI_Y, PAULI_X),) * n


def mermin_n(state: MultiPartyState, settings=None, tol: float = 1e-12) -> MerminResult:
    """The scaled n-party Mermin polynomial on ``state``: one correlator per
    coefficient and ``mu`` by :func:`~etbell.events.mermin_mu`.

    ``settings`` gives each party its pair of dichotomic observables;
    defaults to (sigma_y, sigma_x) everywhere.
    """
    n = state.n_parties
    settings = standard_settings(n) if settings is None else tuple(settings)
    if len(settings) != n:
        raise ValueError("need one setting pair per party")
    for pair in settings:
        for obs in pair:
            if not is_dichotomic(obs, tol):
                raise ValueError("Mermin settings must be dichotomic (+1/-1)")
    values = correlators(state, settings, tol)
    coeffs = mermin_coefficients(n)
    terms = tuple(float(values[s]) for s in coeffs)
    return MerminResult(terms, mermin_mu(coeffs, terms))


def mermin3(state, a0, a1, b0, b1, c0, c1, tol: float = 1e-12) -> MerminResult:
    """:func:`mermin_n` on a three-party state, settings given one by one."""
    if state.n_parties != 3:
        raise ValueError(f"mermin3 takes a three-party state, got {state.n_parties} parties")
    return mermin_n(state, ((a0, a1), (b0, b1), (c0, c1)), tol)


def stabilizer_expectations(state: MultiPartyState) -> tuple[float, ...]:
    """The Mermin terms at the sigma_y/sigma_x settings, each signed by its
    coefficient: the expectations of the signed GHZ correlation operators
    (for three parties y y x, y x y, x y y and -(x x x), all -1 on GHZ)."""
    coeffs = mermin_coefficients(state.n_parties)
    terms = mermin_n(state).terms
    return tuple(t if c > 0 else -t for c, t in zip(coeffs.values(), terms))


def equatorial_observable(theta: float) -> np.ndarray:
    """cos(theta) sigma_y + sin(theta) sigma_x; theta=0 is the y setting."""
    return as_matrix(math.cos(theta) * PAULI_Y + math.sin(theta) * PAULI_X)


def rotated_settings(offsets):
    """Standard settings with party ``p``'s pair rotated by ``offsets[p]``."""
    return tuple(
        (equatorial_observable(d), equatorial_observable(d + math.pi / 2))
        for d in offsets
    )


def joint_outcome_distribution(state: MultiPartyState, analyzers) -> np.ndarray:
    """Probability tensor for measuring each party with its analyzer matrix.

    Row ``k`` of an analyzer is the bra of outcome ``k``, so the result has
    shape ``dims`` and sums to 1 for unitary analyzers.
    """
    psi = _apply_stacks(state, [as_matrix(m)[None] for m in analyzers])
    return np.abs(psi.reshape(state.dims)) ** 2


def postselect_coincident(joint: np.ndarray, level_labels):
    """Keep the outcomes of a joint amplitude tensor whose per-party levels
    pass :func:`etbell.events.all_equal`, and renormalize.

    Returns ``(state, kept_weight)``, the weight being the squared norm of
    the kept amplitudes. Raises if nothing survives.
    """
    # the all-equal cells are the diagonal (i, ..., i) for i < min(shape)
    diagonal = (np.arange(min(joint.shape)),) * joint.ndim
    return _diagonal_state(joint.shape, joint[diagonal], level_labels)


def prepare_postselected(networks, emission_amplitudes=None, input_mode: int = 0):
    """Joint state of one photon per party after coincidence postselection.

    Each photon enters its party's network on ``input_mode``; the network
    column gives the amplitude over that photon's arrival bins. With a
    multi-bin emission superposition the arrival bin is emission bin plus
    path delay, and amplitudes reaching the same joint outcome add
    coherently. Outcomes whose bins are not all equal are discarded and the
    rest renormalized.

    Only the kept cells are computed, from each party's column padded to one
    row per emission bin; the joint norm is ``src^H (G_1 * ... * G_n) src``
    with the Gram matrices ``G_p = conj(padded_p) padded_p^T``.

    Returns ``(state, selection_probability)``. Raises if nothing survives.
    """
    nets = list(networks)
    if not nets:
        raise ValueError("networks must name at least one party network")
    for p, net in enumerate(nets):
        if not isinstance(net, optics.InterferometerNetwork):
            raise ValueError(f"networks[{p}] must be an InterferometerNetwork, got {type(net).__name__}")
    if not is_integer(input_mode) or not all(0 <= input_mode < net.n_modes for net in nets):
        raise ValueError(f"input_mode must be an integer mode of every network, got {input_mode!r}")
    if emission_amplitudes is None:
        src = np.ones(1, dtype=complex)
    else:
        try:
            src = np.asarray(emission_amplitudes, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"emission_amplitudes must be complex numbers ({exc})") from None
        if src.ndim != 1 or not np.isfinite(src).all():
            raise ValueError("emission_amplitudes must be a 1-D array of finite amplitudes")
        norm = np.linalg.norm(src)
        if norm == 0:
            raise ValueError("emission_amplitudes cannot all be zero")
        src = src / norm
    n_emit = src.size
    padded = []
    for net in nets:
        col = optics.compose(net)[:, input_mode]
        pad = np.zeros((n_emit, col.size + n_emit - 1), dtype=complex)
        for t in range(n_emit):
            pad[t, t : t + col.size] = col
        padded.append(pad)
    dims = tuple(pad.shape[1] for pad in padded)
    k = min(dims)
    # amplitude of |i...i>: sum_t src_t prod_p padded_p[t, i], with the full
    # tensor's operations in its order, so the bytes match building it
    diagonal = np.zeros(k, dtype=complex)
    for t in range(n_emit):
        branch = padded[0][t, :k]
        for pad in padded[1:]:
            branch = branch * pad[t, :k]
        diagonal = diagonal + src[t] * branch
    gram = np.prod([pad.conj() @ pad.T for pad in padded], axis=0)
    total = float(np.vdot(src, gram @ src).real)
    labels = tuple(QUBIT_LABELS if d == 2 else _default_labels(d) for d in dims)
    state, weight = _diagonal_state(dims, diagonal, labels)
    return state, weight / total


def sample_measurement_events(
    state: MultiPartyState,
    settings=None,
    trials: int = 1000,
    seed: int = 0,
    bin_labels: tuple[str, str] = ("t0", "t1"),
) -> EventTable:
    """Simulate measurement rounds on qubits with setting-independent bins.

    Every trial draws uniform settings, samples the outcome signs from the
    quantum distribution for that setting combination, and tags all parties
    with one common random time bin; every trial is a coincidence, so the
    selection is independent of the settings by construction.
    """
    trials = trial_count(trials)
    n = state.n_parties
    if any(d != 2 for d in state.dims):
        raise ValueError("event sampling is defined for qubit states")
    settings = standard_settings(n) if settings is None else tuple(settings)
    stacks = []
    for pair in settings:
        if len(pair) != 2:
            raise ValueError("need two settings per party")
        analyzers = []
        for obs in pair:
            obs = as_matrix(obs)
            if not is_dichotomic(obs):
                raise ValueError("settings must be dichotomic")
            _, vecs = np.linalg.eigh(obs)  # ascending: index 0 -> sign -1
            analyzers.append(vecs.conj().T)
        stacks.append(np.stack(analyzers))
    # row c: outcome CDF under the setting combination with flat index c
    cdfs = np.cumsum(np.abs(_apply_stacks(state, stacks).reshape(2**n, 2**n)) ** 2, axis=1)
    rng = seeded_rng(seed)
    setting_arr = rng.integers(0, 2, size=(trials, n), dtype=np.int8)
    uniforms = rng.random(trials)
    common_bins = rng.integers(0, 2, size=trials, dtype=np.int8)
    outcome_flat = np.zeros(trials, dtype=np.int64)
    combo_flat = np.ravel_multi_index(setting_arr.T, (2,) * n)
    for combo, cdf in enumerate(cdfs):
        mask = combo_flat == combo
        if mask.any():
            outcome_flat[mask] = np.searchsorted(cdf, uniforms[mask], side="right")
    np.minimum(outcome_flat, 2**n - 1, out=outcome_flat)
    signs = np.empty((trials, n), dtype=np.int8)
    for p in range(n):  # party p's level is bit n-1-p; level 0 is sign -1
        signs[:, p] = 2 * ((outcome_flat >> (n - 1 - p)) & 1) - 1
    bins = np.repeat(common_bins[:, None], n, axis=1)
    return EventTable(
        settings=setting_arr,
        bins=bins,
        signs=signs,
        selected=np.ones(trials, dtype=bool),
        bin_labels=bin_labels,
        _adopt=True,
    )


def _compact_labels(level_labels) -> bool:
    """Whether basis labels are written without a separator: only when every
    level label is a single character."""
    return all(len(lab) == 1 for party in level_labels for lab in party)


def state_to_json(state: MultiPartyState) -> dict:
    """JSON form: dims, per-party labels, and the nonzero amplitudes."""
    sep = "" if _compact_labels(state.level_labels) else "|"
    return {
        "dims": list(state.dims),
        "level_labels": [list(p) for p in state.level_labels],
        "amplitudes": [
            [sep.join(labels), amp.real, amp.imag]
            for labels, amp in state.iter_amplitudes()
        ],
    }


def state_from_json(data: dict) -> MultiPartyState:
    """Strict inverse of :func:`state_to_json`."""
    json_fields(data, "state", ("dims", "level_labels", "amplitudes"))
    if not isinstance(data["dims"], list) or not data["dims"]:
        raise ValueError(f"dims must be a non-empty list, got {data['dims']!r}")
    dims = tuple(json_dim(d, f"dims[{p}]") for p, d in enumerate(data["dims"]))
    labels = data["level_labels"]
    if not isinstance(labels, list) or len(labels) != len(dims):
        raise ValueError(f"level_labels must be a list of {len(dims)} label lists, got {labels!r}")
    for p, (party, d) in enumerate(zip(labels, dims)):
        if not isinstance(party, list) or len(party) != d or not all(isinstance(lab, str) for lab in party):
            raise ValueError(f"level_labels[{p}] must be a list of {d} strings, got {party!r}")
    labels = tuple(tuple(party) for party in labels)
    if not isinstance(data["amplitudes"], list):
        raise ValueError(f"amplitudes must be a list, got {data['amplitudes']!r}")
    compact = _compact_labels(labels)
    amps = np.zeros(math.prod(dims), dtype=complex)
    seen = set()
    for k, entry in enumerate(data["amplitudes"]):
        field = f"amplitudes[{k}]"
        if not isinstance(entry, list) or len(entry) != 3 or not isinstance(entry[0], str):
            raise ValueError(f"{field} must be a [basis label, re, im] triple, got {entry!r}")
        label_string = entry[0]
        parts = tuple(label_string) if compact else tuple(label_string.split("|"))
        if len(parts) != len(dims):
            raise ValueError(
                f"{field}: basis label {label_string!r} does not name {len(dims)} parties"
            )
        if any(lab not in labels[p] for p, lab in enumerate(parts)):
            raise ValueError(f"{field}: basis label {label_string!r} has an unknown level label")
        if parts in seen:
            raise ValueError(f"{field}: basis label {label_string!r} is repeated")
        seen.add(parts)
        levels = tuple(labels[p].index(lab) for p, lab in enumerate(parts))
        amps[np.ravel_multi_index(levels, dims)] = complex(
            json_real(entry[1], field), json_real(entry[2], field)
        )
    return MultiPartyState(dims, amps, labels)

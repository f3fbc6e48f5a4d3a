"""Multiparty entangled states, expectation values, and Mermin functionals.

Time-bin qubits use the basis labels ``S`` (short, level 1) and ``L`` (long,
level 2); n-level systems use ``1..n``. A :class:`MultiPartyState` is held
on its support: the basis tuples with a nonzero amplitude, in flat C order,
each with its amplitude. The GHZ state and ``(sum_i |i...i>)/sqrt(n)`` have
2 and n of them, and the dense amplitude vector is built only when asked
for.

:func:`correlators` sums ``E[s] = sum_{l,m} conj(c_l) c_m prod_p
O_{p,s_p}[x_lp, x_mp]`` over support pairs ``(l, m)``, for every setting
string ``s``, in plain Python: a Mermin test on the GHZ state needs no
numpy. :func:`mermin_n` evaluates the n-party Mermin polynomial of
:func:`~etbell.mermin.mermin_coefficients` with dichotomic settings; for
three parties it is
``mu = |<A0 B0 C1> + <A0 B1 C0> + <A1 B0 C0> - <A1 B1 C1>|``, and on the GHZ
state with ``(A0, A1) = (sigma_y, sigma_x)`` per party it reaches the
algebraic maximum 4.

``prepare_postselected`` models the ideal simultaneous-emission source: one
photon per party propagates through that party's network, and only joint
arrival-bin outcomes passing the coincidence rule are kept. The kept cells
come from each party's network column alone, so preparation costs about the
output state, never the tensor over all joint outcomes.

numpy is imported by the functions that build or read dense arrays.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import events, optics  # each executed only by the functions that use it
from .mermin import mermin_coefficients, mermin_mu
from .numerics import (
    as_matrix,
    is_integer,
    json_dim,
    json_fields,
    json_real,
    seeded_rng,
    trial_count,
)

if TYPE_CHECKING:
    import numpy as np

PAULI_X = ((0, 1), (1, 0))
PAULI_Y = ((0, -1j), (1j, 0))
PAULI_Z = ((1, 0), (0, -1))

QUBIT_LABELS = ("S", "L")


def _default_labels(dim: int) -> tuple[str, ...]:
    return tuple(str(k + 1) for k in range(dim))


class MultiPartyState:
    """Normalized state over a labeled multi-party product basis.

    ``MultiPartyState(dims, amplitudes, level_labels)`` takes a dense
    amplitude vector. The state holds its :attr:`support`, the nonzero
    amplitudes as ``(levels, amplitude)`` pairs in flat C order, and its
    dense :attr:`amplitudes`; whichever it was not built from is computed on
    first use and kept. The state is immutable.
    """

    def __init__(self, dims, amplitudes, level_labels=(), _adopt=False, _support=None):
        """Only for a normalized state the package built: ``_adopt`` takes a
        fresh complex vector over without a copy, and ``_support`` (with
        ``amplitudes`` None) gives the ``(levels, complex)`` pairs instead."""
        if not all(is_integer(d) for d in dims):
            raise ValueError(f"dims must be integers, got {tuple(dims)!r}")
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("each party needs at least one level")
        if _support is None:
            import numpy as np

            amplitudes = (np.asarray if _adopt else np.array)(amplitudes, dtype=complex).reshape(-1)
            if amplitudes.size != math.prod(dims):
                raise ValueError("amplitude count must equal the product of dims")
            if not np.isfinite(amplitudes).all():
                raise ValueError("amplitudes must be finite")
            norm = np.linalg.norm(amplitudes)
            if abs(norm - 1.0) > 1e-8:
                raise ValueError(f"state must be normalized (norm {norm})")
            amplitudes.setflags(write=False)
        labels = tuple(tuple(lv) for lv in level_labels) or tuple(
            _default_labels(d) for d in dims
        )
        if len(labels) != len(dims) or any(
            len(lv) != d for lv, d in zip(labels, dims)
        ):
            raise ValueError("level labels must match dims party by party")
        if any(len(set(lv)) != len(lv) for lv in labels):
            raise ValueError("level labels must be distinct within each party")
        vars(self).update(dims=dims, level_labels=labels, _amplitudes=amplitudes, _support=_support)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable state")

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def support(self) -> tuple[tuple[tuple[int, ...], complex], ...]:
        """``(levels, amplitude)`` for every nonzero amplitude, in flat C
        order, with each amplitude a Python complex."""
        if self._support is None:
            import numpy as np

            cells = self._amplitudes.nonzero()[0]
            levels = zip(*(axis.tolist() for axis in np.unravel_index(cells, self.dims)))
            vars(self)["_support"] = tuple(zip(levels, self._amplitudes[cells].tolist()))
        return self._support

    @property
    def amplitudes(self) -> np.ndarray:
        """The read-only complex128 amplitude vector over the dense C-order
        layout."""
        if self._amplitudes is None:
            import numpy as np

            levels, amps = zip(*self._support)
            dense = np.zeros(math.prod(self.dims), dtype=complex)
            dense[np.ravel_multi_index(tuple(zip(*levels)), self.dims)] = amps
            dense.setflags(write=False)
            vars(self)["_amplitudes"] = dense
        return self._amplitudes

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)

    def amplitude(self, labels: tuple[str, ...]) -> complex:
        levels = tuple(
            self.level_labels[p].index(lab) for p, lab in enumerate(labels)
        )
        return dict(self.support).get(levels, 0j)

    def iter_amplitudes(self):
        """Yield ``(per-party label tuple, amplitude)`` for nonzero entries."""
        for levels, amp in self.support:
            yield tuple(self.level_labels[p][lv] for p, lv in enumerate(levels)), amp

    def allclose(self, other: "MultiPartyState", tol: float = 1e-12) -> bool:
        import numpy as np

        return (
            self.dims == other.dims
            and float(np.abs(self.amplitudes - other.amplitudes).max()) <= tol
        )


def ghz_state(n: int) -> MultiPartyState:
    """(|S...S> + |L...L>)/sqrt(2) over n time-bin qubits."""
    if n < 2:
        raise ValueError("GHZ state needs at least two parties")
    return _uniform_diagonal_state((2,) * n, 2, (QUBIT_LABELS,) * n)


def qunit_state(n: int) -> MultiPartyState:
    """(sum_i |i...i>)/sqrt(n) over n parties with n levels each."""
    if n < 2:
        raise ValueError("qunit state needs at least two parties")
    return _uniform_diagonal_state((n,) * n, n, (_default_labels(n),) * n)


def _uniform_diagonal_state(dims, k, level_labels) -> MultiPartyState:
    """``(sum_{i<k} |i...i>)/sqrt(k)`` on its support. Its weight over the
    dense layout is exactly ``k``, so the amplitudes carry the bytes of
    :func:`_diagonal_state` on ``k`` ones."""
    amp = complex(1.0 / math.sqrt(k))
    support = tuple(((i,) * len(dims), amp) for i in range(k))
    return MultiPartyState(dims, None, level_labels, _support=support)


def _diagonal_state(dims, diagonal, level_labels):
    """``(state, weight)``: ``diagonal[i]`` on ``|i...i>`` renormalized, and its
    squared norm, summed over the dense layout in ``np.sum``'s order so the
    bytes match renormalizing a dense kept tensor. Raises if the weight is zero."""
    import numpy as np

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


#: Largest correlator workload: 2**24 entries, the size of the dense
#: 12-qubit operator, both as the setting-by-level tensor the event sampler
#: builds (256 MB) and as the setting-by-pair terms of the support-pair sum.
MAX_CORRELATOR_ENTRIES = 2**24


def check_correlator_size(settings, dims, support=None) -> None:
    """Raise ``ValueError`` if the correlators of ``settings[p]`` observables
    on each party ``p`` of dimension ``dims[p]`` need more than
    :data:`MAX_CORRELATOR_ENTRIES` entries: as a setting-by-level tensor or,
    for a state of ``support`` nonzero amplitudes, as the ``support**2``
    pair terms of every setting string. It takes only the sizes, so a caller
    can check before it builds the state."""
    entries = math.prod(settings) * math.prod(dims)
    if entries > MAX_CORRELATOR_ENTRIES:
        raise ValueError(
            f"correlator tensor of {entries} entries exceeds the limit of "
            f"{MAX_CORRELATOR_ENTRIES} ({len(dims)} parties)"
        )
    if support is not None and math.prod(settings) * support**2 > MAX_CORRELATOR_ENTRIES:
        raise ValueError(
            f"correlator sum of {math.prod(settings) * support**2} pair terms exceeds the limit "
            f"of {MAX_CORRELATOR_ENTRIES} ({support} nonzero amplitudes, {len(dims)} parties)"
        )


def _apply_stacks(state: MultiPartyState, stacks) -> np.ndarray:
    """Apply per-party operator stacks to the state, one axis at a time.

    ``stacks[p]`` has shape ``(k_p, d_p, d_p)``. The result has shape
    ``(k_1..k_n, d_1..d_n)``; entry ``[s, :]`` is the state tensor of
    ``(O_{1,s_1} x ... x O_{n,s_n}) |psi>``. Raises before allocating when
    the result would exceed :data:`MAX_CORRELATOR_ENTRIES`
    (:func:`check_correlator_size`).
    """
    import numpy as np

    n = state.n_parties
    if len(stacks) != n:
        raise ValueError("need exactly one operator stack per party")
    for stack, d in zip(stacks, state.dims):
        if stack.shape[1:] != (d, d):
            raise ValueError(f"operator shape {stack.shape[1:]} does not match dim {d}")
    check_correlator_size([len(stack) for stack in stacks], state.dims)
    psi = state.tensor_view()
    for p, stack in enumerate(stacks):
        # setting axes 0..p-1 lead, so party p's level axis sits at p + p
        psi = np.moveaxis(np.tensordot(stack, psi, axes=([2], [2 * p])), (0, 1), (p, 2 * p + 1))
    return psi


def _matrix_rows(values) -> tuple[tuple[complex, ...], ...]:
    """``values`` (nested sequences or a numpy array) as the rows of a
    matrix of finite Python complex numbers."""
    try:
        rows = tuple(tuple(row) for row in values)
    except TypeError:  # not a sequence of sequences
        rows = ()
    if (
        not rows
        or not rows[0]
        or len({len(row) for row in rows}) != 1
        or not all(isinstance(z, numbers.Complex) for row in rows for z in row)
    ):
        raise ValueError("expected a matrix of numbers")
    rows = tuple(tuple(complex(z) for z in row) for row in rows)
    if not all(cmath.isfinite(z) for row in rows for z in row):
        raise ValueError("matrix entries must be finite")
    return rows


def _is_hermitian(rows, tol: float) -> bool:
    d = len(rows)
    return len(rows[0]) == d and all(
        abs(rows[i][j] - rows[j][i].conjugate()) <= tol for i in range(d) for j in range(d)
    )


def _observable_stacks(state: MultiPartyState, stacks, tol: float):
    """``stacks[p]``, party ``p``'s Hermitian observables, as matrix rows,
    each checked against the party's dimension."""
    stacks = [[_matrix_rows(o) for o in stack] for stack in stacks]
    if len(stacks) != state.n_parties:
        raise ValueError("need exactly one operator stack per party")
    for stack, d in zip(stacks, state.dims):
        if not stack:
            raise ValueError("each party needs at least one observable")
        for rows in stack:
            if not _is_hermitian(rows, tol):
                raise ValueError("observables must be square Hermitian matrices")
            if len(rows) != d:
                raise ValueError(f"operator shape {(len(rows),) * 2} does not match dim {d}")
    return stacks


def _support_correlators(state: MultiPartyState, stacks, tol: float) -> list[float]:
    """``E[s]`` for every setting string ``s`` of the checked ``stacks``, in
    C order, summed over support pairs ``(l, m)`` in order.

    A pair's term is built party by party over the setting strings, in the
    dense contraction's order: ``c_m``, times each party's
    ``O_{p,s_p}[x_lp, x_mp]``, times ``conj(c_l)``. Raises before any term
    when the work exceeds :data:`MAX_CORRELATOR_ENTRIES`
    (:func:`check_correlator_size`).
    """
    support = state.support
    check_correlator_size([len(stack) for stack in stacks], state.dims, len(support))
    values = None
    for levels_l, c_l in support:
        bra = c_l.conjugate()
        for levels_m, c_m in support:
            terms = [c_m]
            for stack, i, j in zip(stacks, levels_l, levels_m):
                factors = [rows[i][j] for rows in stack]
                terms = [t * f for t in terms for f in factors]
            terms = [t * bra for t in terms]
            values = terms if values is None else [v + t for v, t in zip(values, terms)]
    worst = max(abs(v.imag) for v in values)
    if worst > tol:
        raise ArithmeticError(f"expectation has imaginary part {worst}")
    return [v.real for v in values]


def correlators(state: MultiPartyState, stacks, tol: float = 1e-12) -> np.ndarray:
    """All correlators ``E[s_1..s_n] = <psi| O_{1,s_1} x ... x O_{n,s_n} |psi>``.

    ``stacks[p]`` lists party ``p``'s Hermitian observables; the result is a
    real numpy array of shape ``(len(stacks[0]), ..., len(stacks[n-1]))``.
    """
    import numpy as np

    stacks = _observable_stacks(state, stacks, tol)
    shape = [len(stack) for stack in stacks]
    return np.array(_support_correlators(state, stacks, tol)).reshape(shape)


def expectation(state: MultiPartyState, observables, tol: float = 1e-12) -> float:
    """<psi| O_1 x ... x O_n |psi> for Hermitian per-party observables."""
    stacks = _observable_stacks(state, [[o] for o in observables], tol)
    return _support_correlators(state, stacks, tol)[0]


def is_dichotomic(observable, tol: float = 1e-12) -> bool:
    """Hermitian with spectrum {+1, -1} (both eigenvalues present): within
    ``tol``, ``O = O^dag``, ``O O = I`` and ``|tr O| <= d - 2``."""
    o = _matrix_rows(observable)
    if not _is_hermitian(o, tol):
        return False
    d = len(o)
    for i in range(d):
        for j in range(d):
            if abs(sum(o[i][k] * o[k][j] for k in range(d)) - (i == j)) > tol:
                return False
    return abs(sum(o[i][i] for i in range(d))) <= d - 2 + tol


@dataclass(frozen=True)
class MerminResult:
    """Mermin terms, in :func:`~etbell.mermin.mermin_coefficients` order,
    and ``mu``."""

    terms: tuple[float, ...]
    mu: float


def standard_settings(n: int = 3):
    """Per party: setting 0 measures sigma_y, setting 1 measures sigma_x."""
    return ((PAULI_Y, PAULI_X),) * n


def mermin_n(state: MultiPartyState, settings=None, tol: float = 1e-12) -> MerminResult:
    """The scaled n-party Mermin polynomial on ``state``: one correlator per
    coefficient and ``mu`` by :func:`~etbell.mermin.mermin_mu`.

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
    stacks = _observable_stacks(state, settings, tol)
    values = _support_correlators(state, stacks, tol)
    coeffs = mermin_coefficients(n)
    by_string = dict(zip(itertools.product(*(range(len(stack)) for stack in stacks)), values))
    terms = tuple(by_string[s] for s in coeffs)
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
    return as_matrix(math.cos(theta) * as_matrix(PAULI_Y) + math.sin(theta) * as_matrix(PAULI_X))


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
    import numpy as np

    psi = _apply_stacks(state, [as_matrix(m)[None] for m in analyzers])
    return np.abs(psi.reshape(state.dims)) ** 2


def postselect_coincident(joint: np.ndarray, level_labels):
    """Keep the outcomes of a joint amplitude tensor whose per-party levels
    pass :func:`etbell.events.all_equal`, and renormalize.

    Returns ``(state, kept_weight)``, the weight being the squared norm of
    the kept amplitudes. Raises if nothing survives.
    """
    import numpy as np

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
    import numpy as np

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
) -> events.EventTable:
    """Simulate measurement rounds on qubits with setting-independent bins.

    Every trial draws uniform settings, samples the outcome signs from the
    quantum distribution for that setting combination, and tags all parties
    with one common random time bin; every trial is a coincidence, so the
    selection is independent of the settings by construction.
    """
    import numpy as np

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
    return events.EventTable(
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
    import numpy as np

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

"""Multiparty entangled states, expectation values, and Mermin functionals.

Time-bin qubits use the basis labels ``S`` (short, level 1) and ``L`` (long,
level 2); n-level systems use ``1..n``. A :class:`MultiPartyState` is built
from and holds only its support: the basis tuples with a nonzero amplitude,
in flat C order, each with its amplitude. The GHZ state and
``(sum_i |i...i>)/sqrt(n)`` have 2 and n of them. Every computation here
works on the support; the dense amplitude vector is built only when read.

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
from typing import TYPE_CHECKING, NamedTuple

from . import events, optics  # each executed only by the functions that use it
from .mermin import mermin_coefficients, mermin_mu
from .numerics import MAX_CORRELATOR_ENTRIES, is_integer, json_dim, json_fields, json_real
from .numerics import seeded_rng, trial_count

if TYPE_CHECKING:
    import numpy as np

PAULI_X = ((0, 1), (1, 0))
PAULI_Y = ((0, -1j), (1j, 0))
PAULI_Z = ((1, 0), (0, -1))

QUBIT_LABELS = ("S", "L")

_TOL = 1e-12  # of the Hermitian, dichotomic and real-expectation checks


def _default_labels(dim: int) -> tuple[str, ...]:
    return tuple(str(k + 1) for k in range(dim))


class MultiPartyState:
    """Normalized state over a labeled multi-party product basis, held on its
    support.

    ``MultiPartyState(dims, support, level_labels)`` takes ``(levels,
    amplitude)`` pairs, one per basis tuple, with ``levels[p]`` party
    ``p``'s level index. Zero amplitudes are dropped and the rest kept as
    :attr:`support`, in flat C order, each amplitude a Python complex. The
    dense :attr:`amplitudes` vector is built from it on first use. The
    state is immutable.
    """

    def __init__(self, dims, support, level_labels=()):
        if not all(is_integer(d) for d in dims):
            raise ValueError(f"dims must be integers, got {tuple(dims)!r}")
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("each party needs at least one level")
        labels = tuple(tuple(lv) for lv in level_labels) or tuple(_default_labels(d) for d in dims)
        if len(labels) != len(dims) or any(len(lv) != d for lv, d in zip(labels, dims)):
            raise ValueError("level labels must match dims party by party")
        if any(len(set(lv)) != len(lv) for lv in labels):
            raise ValueError("level labels must be distinct within each party")
        entries = {}
        for k, entry in enumerate(support):
            try:
                levels, amp = entry
                levels = tuple(levels)
            except (TypeError, ValueError):
                raise ValueError(f"support[{k}] must be a (levels, amplitude) pair, got {entry!r}") from None
            if len(levels) != len(dims):
                raise ValueError(f"support[{k}]: levels {levels!r} do not name {len(dims)} parties")
            if not all(is_integer(lv) and 0 <= lv < d for lv, d in zip(levels, dims)):
                raise ValueError(f"support[{k}]: levels {levels!r} are not level indices of dims {dims}")
            levels = tuple(int(lv) for lv in levels)
            if levels in entries:
                raise ValueError(f"support[{k}]: levels {levels!r} are repeated")
            if not isinstance(amp, numbers.Complex) or isinstance(amp, bool):
                raise ValueError(f"support[{k}]: amplitude {amp!r} is not a number")
            entries[levels] = amp = complex(amp)
            if not cmath.isfinite(amp):
                raise ValueError(f"support[{k}]: amplitude {amp!r} is not finite")
        norm = math.sqrt(math.fsum(abs(amp) ** 2 for amp in entries.values()))
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"state must be normalized (norm {norm})")
        support = tuple((lv, amp) for lv, amp in sorted(entries.items()) if amp != 0)
        vars(self).update(dims=dims, level_labels=labels, support=support, _amplitudes=None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable state")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable state")

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def amplitudes(self) -> np.ndarray:
        """The read-only complex128 amplitude vector over the dense C-order
        layout."""
        if self._amplitudes is None:
            import numpy as np

            levels, amps = zip(*self.support)
            dense = np.zeros(math.prod(self.dims), dtype=complex)
            dense[np.ravel_multi_index(tuple(zip(*levels)), self.dims)] = amps
            dense.setflags(write=False)
            vars(self)["_amplitudes"] = dense
        return self._amplitudes

    def iter_amplitudes(self):
        """Yield ``(per-party label tuple, amplitude)`` for nonzero entries."""
        for levels, amp in self.support:
            yield tuple(self.level_labels[p][lv] for p, lv in enumerate(levels)), amp


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
    return MultiPartyState(dims, [((i,) * len(dims), 1.0 / math.sqrt(k)) for i in range(k)], level_labels)


def _diagonal_state(dims, diagonal, level_labels):
    """``(state, weight)``: ``diagonal[i]`` on ``|i...i>`` renormalized, and its
    squared norm, summed over the dense layout in ``np.sum``'s order so the
    bytes match renormalizing a dense kept tensor. Raises if the weight is zero."""
    import numpy as np

    diagonal = np.asarray(diagonal, dtype=complex)
    # |i...i> sits at i times the sum of the C-order strides
    cells = np.arange(diagonal.size) * sum(math.prod(dims[p + 1 :]) for p in range(len(dims)))
    squares = np.zeros(math.prod(dims))
    squares[cells] = np.abs(diagonal) ** 2
    weight = float(np.sum(squares))
    if weight <= 0.0:
        raise ValueError("postselection empty")
    amps = (diagonal / math.sqrt(weight)).tolist()
    return MultiPartyState(dims, [((i,) * len(dims), a) for i, a in enumerate(amps)], level_labels), weight


def check_correlator_size(settings, dims, support=None) -> None:
    """Raise ``ValueError`` if the correlators of ``settings[p]`` observables
    on each party ``p`` of dimension ``dims[p]`` need more than
    :data:`MAX_CORRELATOR_ENTRIES` entries: as a setting-by-outcome table
    or, for a state of ``support`` nonzero amplitudes, as the ``support**2``
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


def _is_hermitian(rows) -> bool:
    d = len(rows)
    return len(rows[0]) == d and all(
        abs(rows[i][j] - rows[j][i].conjugate()) <= _TOL for i in range(d) for j in range(d)
    )


def _dichotomic_defect(rows) -> str | None:
    """What keeps the Hermitian matrix ``rows`` from the spectrum {+1, -1}, both
    eigenvalues present (``O O = I`` and ``|tr O| <= d - 2``), or None."""
    d = len(rows)
    if any(abs(sum(rows[i][k] * rows[k][j] for k in range(d)) - (i == j)) > _TOL
           for i in range(d) for j in range(d)):
        return "does not square to the identity"
    trace = sum(rows[i][i] for i in range(d))
    return f"has the single eigenvalue {1 if trace.real > 0 else -1}" if abs(trace) > d - 2 + _TOL else None


def _observable_stacks(state: MultiPartyState, stacks):
    """``stacks[p]``, party ``p``'s Hermitian observables, as matrix rows,
    each checked against the party's dimension."""
    stacks = [[_matrix_rows(o) for o in stack] for stack in stacks]
    if len(stacks) != state.n_parties:
        raise ValueError("need exactly one operator stack per party")
    for stack, d in zip(stacks, state.dims):
        if not stack:
            raise ValueError("each party needs at least one observable")
        for rows in stack:
            if not _is_hermitian(rows):
                raise ValueError("observables must be square Hermitian matrices")
            if len(rows) != d:
                raise ValueError(f"operator shape {(len(rows),) * 2} does not match dim {d}")
    return stacks


def _setting_pairs(state: MultiPartyState, settings):
    """``settings`` (sigma_y, sigma_x everywhere when None) as the checked
    :func:`_observable_stacks` of one pair of dichotomic observables per party."""
    n = state.n_parties
    settings = list(standard_settings(n) if settings is None else settings)
    if len(settings) != n:
        raise ValueError(f"need one setting pair per party ({n}), got {len(settings)}")
    for p, pair in enumerate(settings):
        try:
            settings[p] = tuple(pair)
        except TypeError:  # a number where a pair belongs
            got = f"{type(pair).__name__} {pair!r}"
            raise ValueError(f"need two settings per party, party {p} has {got}, not a pair") from None
        if len(settings[p]) != 2:
            raise ValueError(f"need two settings per party, party {p} has {len(settings[p])}")
    pairs = _observable_stacks(state, settings)
    for p, k in itertools.product(range(n), (0, 1)):
        defect = _dichotomic_defect(pairs[p][k])
        if defect:
            raise ValueError(f"settings must be dichotomic: party {p} setting {k} {defect}")
    return pairs


def _support_correlators(state: MultiPartyState, stacks) -> list[float]:
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
    if worst > _TOL:
        raise ArithmeticError(f"expectation has imaginary part {worst}")
    return [v.real for v in values]


def correlators(state: MultiPartyState, stacks) -> np.ndarray:
    """All correlators ``E[s_1..s_n] = <psi| O_{1,s_1} x ... x O_{n,s_n} |psi>``.

    ``stacks[p]`` lists party ``p``'s Hermitian observables; the result is a
    real numpy array of shape ``(len(stacks[0]), ..., len(stacks[n-1]))``.
    """
    import numpy as np

    stacks = _observable_stacks(state, stacks)
    shape = [len(stack) for stack in stacks]
    return np.array(_support_correlators(state, stacks)).reshape(shape)


def expectation(state: MultiPartyState, observables) -> float:
    """<psi| O_1 x ... x O_n |psi> for Hermitian per-party observables."""
    stacks = _observable_stacks(state, [[o] for o in observables])
    return _support_correlators(state, stacks)[0]


class MerminResult(NamedTuple):
    """Mermin terms, in :func:`~etbell.mermin.mermin_coefficients` order,
    and ``mu``."""

    terms: tuple[float, ...]
    mu: float


def standard_settings(n: int = 3):
    """Per party: setting 0 measures sigma_y, setting 1 measures sigma_x."""
    return ((PAULI_Y, PAULI_X),) * n


def mermin_n(state: MultiPartyState, settings=None) -> MerminResult:
    """The scaled n-party Mermin polynomial on ``state``: one correlator per
    coefficient and ``mu`` by :func:`~etbell.mermin.mermin_mu`.

    ``settings`` gives each party its pair of dichotomic observables;
    defaults to (sigma_y, sigma_x) everywhere.
    """
    values = _support_correlators(state, _setting_pairs(state, settings))
    coeffs = mermin_coefficients(state.n_parties)
    by_string = dict(zip(itertools.product((0, 1), repeat=state.n_parties), values))
    terms = tuple(by_string[s] for s in coeffs)
    return MerminResult(terms, mermin_mu(coeffs, terms))


def mermin3(state, a0, a1, b0, b1, c0, c1) -> MerminResult:
    """:func:`mermin_n` on a three-party state, settings given one by one."""
    if state.n_parties != 3:
        raise ValueError(f"mermin3 takes a three-party state, got {state.n_parties} parties")
    return mermin_n(state, ((a0, a1), (b0, b1), (c0, c1)))


def stabilizer_expectations(state: MultiPartyState) -> tuple[float, ...]:
    """The Mermin terms at the sigma_y/sigma_x settings, each signed by its
    coefficient: the expectations of the signed GHZ correlation operators
    (for three parties y y x, y x y, x y y and -(x x x), all -1 on GHZ)."""
    coeffs = mermin_coefficients(state.n_parties)
    terms = mermin_n(state).terms
    return tuple(t if c > 0 else -t for c, t in zip(coeffs.values(), terms))


def equatorial_observable(theta: float) -> tuple[tuple[complex, ...], ...]:
    """cos(theta) sigma_y + sin(theta) sigma_x as rows of Python complex
    numbers; theta=0 is the y setting."""
    c, s = math.cos(theta), math.sin(theta)
    return tuple(
        tuple(c * complex(y) + s * complex(x) for y, x in zip(*rows)) for rows in zip(PAULI_Y, PAULI_X)
    )


def rotated_settings(offsets):
    """Standard settings with party ``p``'s pair rotated by ``offsets[p]``."""
    return tuple(
        (equatorial_observable(d), equatorial_observable(d + math.pi / 2))
        for d in offsets
    )


def postselect_coincident(state: MultiPartyState):
    """Keep the support entries of ``state`` whose per-party levels are all
    equal, and renormalize.

    Returns ``(state, kept_weight)``, the weight being the squared norm of
    the kept amplitudes. Idempotent. Raises if nothing survives.
    """
    amps = dict(state.support)  # the all-equal tuples are (i, ..., i) for i < min(dims)
    diagonal = [amps.get((i,) * state.n_parties, 0j) for i in range(min(state.dims))]
    return _diagonal_state(state.dims, diagonal, state.level_labels)


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
    state: MultiPartyState, settings=None, trials: int = 1000, seed: int = 0
) -> events.EventTable:
    """Simulate measurement rounds on qubits with setting-independent bins.

    Every trial draws uniform settings, samples the outcome signs from the
    quantum distribution for that setting combination, and tags all parties
    with one common random time bin, ``t0`` or ``t1``; every trial is a
    coincidence, so the selection is independent of the settings by
    construction.

    The outcome amplitudes come from the support: ``A[s, o] = sum_x c_x
    prod_p V_{p,s_p}[o_p, x_p]``, one outer product of per-party analyzer
    columns per support entry ``(x, c_x)``, where row ``o`` of ``V_{p,k}``
    is the bra of party ``p``'s outcome ``o`` under setting ``k``.

    The int8 settings and, after them, the int8 common bins are whole-table
    draws, as bounded int8 draws are not chunk-stable; the outcome doubles
    drawn between them are, and go ``events.BLOCK_TRIALS`` at a time.
    """
    import numpy as np

    trials = trial_count(trials)
    n = state.n_parties
    if any(d != 2 for d in state.dims):
        raise ValueError("event sampling is defined for qubit states")
    pairs = _setting_pairs(state, settings)
    check_correlator_size([2] * n, state.dims)
    # eigh sorts the eigenvalues ascending: row 0 of each analyzer is sign -1
    stacks = [np.stack([np.linalg.eigh(np.array(rows))[1].conj().T for rows in pair]) for pair in pairs]
    table = 0
    for levels, amp in state.support:
        term = np.array(amp)
        for stack, x in zip(stacks, levels):
            term = np.multiply.outer(term, stack[:, :, x])  # appends party p's (setting, outcome) axes
        table = table + term
    table = table.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))
    # row c: outcome CDF under the setting combination with flat index c
    cdfs = np.cumsum(np.abs(table.reshape(2**n, 2**n)) ** 2, axis=1)
    rng = seeded_rng(seed)
    setting_arr = rng.integers(0, 2, size=(trials, n), dtype=np.int8)
    signs = np.empty((trials, n), dtype=np.int8)
    for rows in events.trial_blocks(trials):
        uniforms = rng.random(len(setting_arr[rows]))
        combo_flat = np.ravel_multi_index(setting_arr[rows].T, (2,) * n)
        # the entries of each trial's CDF row at most its double, capped at 2^n - 1:
        # searchsorted(side="right") of every row at once, by halving steps
        outcome_flat = np.zeros(len(uniforms), dtype=np.int64)
        for step in (1 << k for k in reversed(range(n))):
            outcome_flat += step * (cdfs[combo_flat, outcome_flat + step - 1] <= uniforms)
        for p in range(n):  # party p's level is bit n-1-p; level 0 is sign -1
            signs[rows, p] = 2 * ((outcome_flat >> (n - 1 - p)) & 1) - 1
    common_bins = rng.integers(0, 2, size=trials, dtype=np.int8)
    bins = np.repeat(common_bins[:, None], n, axis=1)
    return events.EventTable(setting_arr, bins, signs, np.ones(trials, bool), ("t0", "t1"), _adopt=True)


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
    """Strict inverse of :func:`state_to_json`; entries may come in any order."""
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
    support = {}
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
        levels = tuple(labels[p].index(lab) for p, lab in enumerate(parts))
        if levels in support:
            raise ValueError(f"{field}: basis label {label_string!r} is repeated")
        support[levels] = complex(json_real(entry[1], field), json_real(entry[2], field))
    return MultiPartyState(dims, support.items(), labels)

"""Beam-splitter / phase-shifter networks, DFT analyzers, and the triangular
mesh decomposition of unitaries.

Conventions
-----------
A beam splitter with reflectivity ``R`` and phase ``phi`` on modes ``(i, j)``
acts as the identity outside the 2x2 block (rows/columns ``i``, ``j``)::

    [[sqrt(1-R),   exp(i*phi)*sqrt(R)  ],
     [sqrt(R),    -exp(i*phi)*sqrt(1-R)]]

so both output amplitudes derive from the single ``R`` and energy is
conserved by construction. A phase shifter multiplies one mode by
``exp(i*phase)``. Network elements are listed in propagation order, i.e.
``compose([e1, e2, e3]) == U(e3) @ U(e2) @ U(e1)``; one element's n-mode
unitary ``U(e)`` is ``compose`` of a network holding only ``e``.

With this sign convention the three-mode analyzer cascade (50/50, R=1/3,
50/50) at phases ``(alpha, beta, gamma) = (pi/3, pi/3, -pi/6)`` composes to
the 3-mode discrete Fourier transform.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    as_matrix,
    is_integer,
    is_unitary,
    json_fields,
    json_real,
)

BEAM_SPLITTER = "beam_splitter"
PHASE_SHIFTER = "phase_shifter"

#: Cascade phases at which the qutrit analyzer equals the 3-mode DFT.
DFT3_ALPHA = math.pi / 3
DFT3_BETA = math.pi / 3
DFT3_GAMMA = -math.pi / 6


@dataclass(frozen=True)
class OpticalElement:
    kind: str
    modes: tuple[int, ...]
    reflectivity: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        # Exact ints and floats skip the numbers ABC checks, which are slow.
        for m in self.modes:
            if type(m) is not int and not is_integer(m):
                raise ValueError(f"modes must be integers, got {self.modes!r}")
        modes = tuple(map(int, self.modes))
        object.__setattr__(self, "modes", modes)
        if min(modes, default=0) < 0:
            raise ValueError("mode indices must be nonnegative")
        for name, value in (("reflectivity", self.reflectivity), ("phase", self.phase)):
            if (
                type(value) is not float
                and type(value) is not int
                and (isinstance(value, bool) or not isinstance(value, numbers.Real))
                or not math.isfinite(value)
            ):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.kind == BEAM_SPLITTER:
            if len(modes) != 2 or modes[0] == modes[1]:
                raise ValueError("beam splitter needs two distinct modes")
            if not 0.0 <= self.reflectivity <= 1.0:
                raise ValueError("reflectivity must lie in [0, 1]")
        elif self.kind == PHASE_SHIFTER:
            if len(modes) != 1:
                raise ValueError("phase shifter acts on exactly one mode")
            if self.reflectivity != 0.0:
                raise ValueError("a phase shifter has no reflectivity")
        else:
            raise ValueError(f"unknown element kind {self.kind!r}")


def beam_splitter(i: int, j: int, reflectivity: float, phase: float = 0.0) -> OpticalElement:
    return OpticalElement(BEAM_SPLITTER, (i, j), reflectivity, phase)


def phase_shifter(mode: int, phase: float) -> OpticalElement:
    return OpticalElement(PHASE_SHIFTER, (mode,), 0.0, phase)


@dataclass(frozen=True)
class InterferometerNetwork:
    n_modes: int
    elements: tuple[OpticalElement, ...] = ()

    def __post_init__(self):
        if not is_integer(self.n_modes) or self.n_modes < 1:
            raise ValueError(f"n_modes must be a positive integer, got {self.n_modes!r}")
        object.__setattr__(self, "elements", tuple(self.elements))
        for k, el in enumerate(self.elements):
            if not isinstance(el, OpticalElement):
                raise ValueError(f"elements[{k}] must be an OpticalElement, got {el!r}")
            if max(el.modes) >= self.n_modes:
                raise ValueError(
                    f"element on modes {el.modes} exceeds n_modes={self.n_modes}"
                )


def _bs_block(reflectivity: float, phase: float) -> np.ndarray:
    """The 2x2 splitter block on rows/columns ``(i, j)`` of the modes."""
    t = math.sqrt(1.0 - reflectivity)
    r = math.sqrt(reflectivity)
    ph = np.exp(1j * phase)
    return np.array([[t, ph * r], [r, -ph * t]])


def compose(network: InterferometerNetwork) -> np.ndarray:
    """Total unitary of the network (elements applied in propagation order).

    Each element changes only the rows of the modes it acts on. A splitter
    on ascending adjacent modes (every Reck stage) reads and writes its two
    rows as one slice view instead of a fancy-indexed copy.
    """
    u = np.eye(network.n_modes, dtype=complex)
    for el in network.elements:
        modes = el.modes
        if el.kind == BEAM_SPLITTER:
            i, j = modes
            rows = slice(i, i + 2) if j == i + 1 else list(modes)
            u[rows] = _bs_block(el.reflectivity, el.phase) @ u[rows]
        else:
            u[modes[0]] *= np.exp(1j * el.phase)
    u.setflags(write=False)
    return u


def qutrit_analyzer_network(
    alpha: float = DFT3_ALPHA,
    beta: float = DFT3_BETA,
    gamma: float = DFT3_GAMMA,
    phi2: float = 0.0,
    phi3: float = 0.0,
) -> InterferometerNetwork:
    """Three-mode measurement cascade with measurement phases on the inputs.

    Two input phase shifters (``-phi2`` on mode 1, ``-phi3`` on mode 2) feed
    the splitter chain 50/50 on (1,2), R=1/3 on (0,2), 50/50 on (0,1).
    """
    elements = (
        phase_shifter(1, -phi2),
        phase_shifter(2, -phi3),
        beam_splitter(1, 2, 0.5, alpha),
        beam_splitter(0, 2, 1.0 / 3.0, beta),
        beam_splitter(0, 1, 0.5, gamma),
    )
    return InterferometerNetwork(3, elements)


def qutrit_analyzer(
    alpha: float = DFT3_ALPHA,
    beta: float = DFT3_BETA,
    gamma: float = DFT3_GAMMA,
    phi2: float = 0.0,
    phi3: float = 0.0,
) -> np.ndarray:
    """Composed unitary of :func:`qutrit_analyzer_network`.

    At the default cascade phases this is the 3-mode DFT with the columns
    2 and 3 multiplied by ``exp(-i*phi2)`` and ``exp(-i*phi3)``.
    """
    return compose(qutrit_analyzer_network(alpha, beta, gamma, phi2, phi3))


def dft_unitary(n: int) -> np.ndarray:
    """N-mode discrete Fourier transform, entries ``w^(jk)/sqrt(N)``."""
    if n < 2:
        raise ValueError("DFT needs dimension >= 2")
    k = np.arange(n)
    m = np.exp(2j * math.pi / n * np.outer(k, k)) / math.sqrt(n)
    m.setflags(write=False)
    return m


def analyzer_matrix(n: int, phis) -> np.ndarray:
    """DFT analyzer with measurement phases ``phis = (phi_2, ..., phi_N)``.

    Column ``j >= 2`` of the DFT is multiplied by ``exp(-i*phi_j)``; the
    first measurement phase is fixed to zero. Outcome ``k`` projects onto
    the conjugate of row ``k``, the vector with components
    ``conj(w)^((k-1)(j-1)) exp(i*phi_j)/sqrt(N)`` on level ``j``.
    """
    phis = np.asarray(phis, dtype=float).reshape(-1)
    if phis.size != n - 1:
        raise ValueError(f"need {n - 1} phases for dimension {n}, got {phis.size}")
    col_phase = np.exp(-1j * np.concatenate(([0.0], phis)))
    m = dft_unitary(n) * col_phase[None, :]
    m.setflags(write=False)
    return m


def generation_cascade(n: int) -> InterferometerNetwork:
    """Chain of ``n - 1`` splitters dividing one input into n equal outputs.

    Splitter ``k`` (k = 1..n-1) taps mode ``k`` off the carried beam on
    mode 0 with reflectivity ``1/(n - k + 1)``, so every output carries
    amplitude of modulus ``1/sqrt(n)``.
    """
    if n < 2:
        raise ValueError("cascade needs at least two outputs")
    elements = tuple(
        beam_splitter(0, k, 1.0 / (n - k + 1)) for k in range(1, n)
    )
    return InterferometerNetwork(n, elements)


@dataclass(frozen=True, eq=False)
class ReckDecomposition:
    """Triangular mesh realizing a unitary up to per-mode output phases.

    ``reconstruct()`` returns ``diag(exp(i*residual_phases)) @ compose(network)``,
    which matches the decomposed matrix.
    """

    network: InterferometerNetwork
    residual_phases: np.ndarray

    def __post_init__(self):
        phases = np.array(self.residual_phases, dtype=float).reshape(-1)
        n = self.network.n_modes
        if phases.size != n:
            raise ValueError(f"residual_phases needs one phase per mode ({n}), got {phases.size}")
        if not np.isfinite(phases).all():
            raise ValueError("residual_phases must be finite")
        phases.setflags(write=False)
        object.__setattr__(self, "residual_phases", phases)

    def residual_diagonal(self) -> np.ndarray:
        return np.diag(np.exp(1j * self.residual_phases))

    def reconstruct(self) -> np.ndarray:
        return self.residual_diagonal() @ compose(self.network)


def reck_decompose(u, tol: float = DEFAULT_TOL) -> ReckDecomposition:
    """Factor a unitary into a triangular beam-splitter/phase-shifter mesh.

    Entries above the diagonal are nulled row by row with Givens-style
    two-mode stages (an input phase shifter followed by a zero-phase beam
    splitter); what remains is a diagonal of unit-modulus residual phases,
    reported rather than forced to zero. The identity decomposes into an
    empty network.
    """
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValueError("can only decompose square matrices")
    if u.size == 0:
        raise ValueError(f"cannot decompose an empty matrix of shape {u.shape}")
    if not is_unitary(u, tol):
        raise ValueError("input matrix is not unitary within tolerance")
    n = u.shape[0]
    # Row k of w is column k of the matrix being reduced, so every stage
    # updates two contiguous rows. Stage i reads and writes only the live
    # entries i: of them; those left of i are exact zeros by then and feed
    # neither a later stage nor the residual diagonal.
    w = np.array(u.T)
    elements: list[OpticalElement] = []
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            a = w[j, i]
            b = w[j + 1, i]
            if b == 0:
                continue
            psi = float(np.angle(b) - np.angle(a))
            abs_a, abs_b = abs(a), abs(b)
            h = math.hypot(abs_a, abs_b)
            t = abs_a / h
            r = abs_b / h
            cj = w[j, i:]
            ck = w[j + 1, i:]
            ck *= np.exp(-1j * psi)
            w[j, i:], w[j + 1, i:] = cj * t + ck * r, cj * r - ck * t
            w[j + 1, i] = 0.0
            if psi != 0.0:
                elements.append(phase_shifter(j + 1, psi))
            elements.append(beam_splitter(j, j + 1, float(r * r)))
    phases = np.angle(np.diag(w))
    return ReckDecomposition(InterferometerNetwork(n, tuple(elements)), phases)


def element_to_json(element: OpticalElement) -> dict:
    item: dict = {"kind": element.kind, "modes": list(element.modes), "phase": element.phase}
    if element.kind == BEAM_SPLITTER:
        item["R"] = element.reflectivity
    return item


def element_from_json(data: dict) -> OpticalElement:
    """Strict inverse of :func:`element_to_json`."""
    json_fields(data, "element", ("kind", "modes", "phase"), ("R",))
    kind = data["kind"]
    if kind not in (BEAM_SPLITTER, PHASE_SHIFTER):
        raise ValueError(f"unknown element kind {kind!r}")
    if (kind == BEAM_SPLITTER) != ("R" in data):
        raise ValueError(f"{kind} JSON must {'have' if kind == BEAM_SPLITTER else 'not have'} 'R'")
    if not isinstance(data["modes"], list):
        raise ValueError(f"modes must be a list, got {data['modes']!r}")
    return OpticalElement(
        kind,
        tuple(data["modes"]),
        json_real(data["R"], "R") if "R" in data else 0.0,
        json_real(data["phase"], "phase"),
    )


def network_to_json(network: InterferometerNetwork) -> dict:
    return {
        "n_modes": network.n_modes,
        "elements": [element_to_json(el) for el in network.elements],
    }


def network_from_json(data: dict) -> InterferometerNetwork:
    """Strict inverse of :func:`network_to_json`."""
    json_fields(data, "network", ("n_modes", "elements"))
    if not isinstance(data["elements"], list):
        raise ValueError(f"elements must be a list, got {data['elements']!r}")
    return InterferometerNetwork(
        data["n_modes"],
        tuple(element_from_json(el) for el in data["elements"]),
    )


def decomposition_to_json(dec: ReckDecomposition) -> dict:
    """Network JSON with the residual output phases added."""
    data = network_to_json(dec.network)
    data["residual_phases"] = [float(p) for p in dec.residual_phases]
    return data


# One element of the mesh file, as json.dumps(..., indent=2, sort_keys=True)
# writes it inside the "elements" list.
_SPLITTER_JSON = (
    '    {\n      "R": %s,\n      "kind": "' + BEAM_SPLITTER + '",\n      "modes": [\n'
    '        %d,\n        %d\n      ],\n      "phase": %s\n    }'
)
_SHIFTER_JSON = (
    '    {\n      "kind": "' + PHASE_SHIFTER + '",\n      "modes": [\n        %d\n      ],\n'
    '      "phase": %s\n    }'
)


def _json_number(value) -> str:
    """A number as ``json.dumps`` writes it; like json, refuse other types."""
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_block(lines: list[str]) -> str:
    """A JSON list at nesting level 1 from its already indented items."""
    return "[\n" + ",\n".join(lines) + "\n  ]" if lines else "[]"


def decomposition_text(dec: ReckDecomposition) -> str:
    """The mesh file: the text of ``json.dumps(decomposition_to_json(dec),
    indent=2, sort_keys=True) + "\\n"``.

    Each element is rendered from its kind's template instead of through
    json's indenting encoder, which is pure Python.
    """
    items = []
    for el in dec.network.elements:
        r, p = el.reflectivity, el.phase
        # "%s" writes an exact float as its repr, as json does
        if type(r) is not float:
            r = _json_number(r)
        if type(p) is not float:
            p = _json_number(p)
        if el.kind == BEAM_SPLITTER:
            items.append(_SPLITTER_JSON % (r, *el.modes, p))
        else:
            items.append(_SHIFTER_JSON % (*el.modes, p))
    phases = ["    " + float.__repr__(p) for p in dec.residual_phases.tolist()]
    return (
        '{\n  "elements": ' + _json_block(items)
        + ',\n  "n_modes": ' + _json_number(dec.network.n_modes)
        + ',\n  "residual_phases": ' + _json_block(phases)
        + "\n}\n"
    )


def decomposition_from_json(data: dict) -> ReckDecomposition:
    """Strict inverse of :func:`decomposition_to_json`."""
    json_fields(data, "decomposition", ("n_modes", "elements", "residual_phases"))
    network = network_from_json({"n_modes": data["n_modes"], "elements": data["elements"]})
    phases = data["residual_phases"]
    if not isinstance(phases, list) or len(phases) != network.n_modes:
        raise ValueError(f"residual_phases must be a list of {network.n_modes} numbers")
    return ReckDecomposition(
        network, [json_real(p, f"residual_phases[{k}]") for k, p in enumerate(phases)]
    )
